"""Unified experiments entrypoint.

    python -m repro.experiments run table5 --trials 150
    python -m repro.experiments run fig4 --benchmarks bzip2m --jobs 4
    python -m repro.experiments run all --trials 1000        # full report
    python -m repro.experiments sweep --fault-model all      # model sweep

One front door for every per-table/figure experiment: ``run <target>``
forwards the remaining arguments to the target's own ``main`` (they all
share the argparser from :func:`repro.experiments.common
.experiment_argparser`, so ``--trials/--seed/--jobs/--benchmarks/
--checkpoint-stride/--results-dir/--trace/--trace-dir`` mean the same
thing everywhere).  It is the only entrypoint: the experiment modules
themselves are libraries.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

#: target name -> module path; mains are imported lazily so ``--help``
#: stays instant and an error in one experiment cannot break the others.
_TARGET_MODULES = {
    "table1": "repro.experiments.table1",
    "table2": "repro.experiments.table2",
    "table4": "repro.experiments.table4",
    "table5": "repro.experiments.table5",
    "fig3": "repro.experiments.fig3",
    "fig4": "repro.experiments.fig4",
    "ablation": "repro.experiments.ablation",
    "sweep": "repro.experiments.sweep",
    "all": "repro.experiments.runner",
}


def _target_main(target: str) -> Callable[[Optional[List[str]]], None]:
    import importlib
    return importlib.import_module(_TARGET_MODULES[target]).main


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Dispatch by hand so everything after the target — including --help —
    # reaches the target's own parser instead of being eaten here.
    if len(argv) >= 2 and argv[0] == "run" and argv[1] in _TARGET_MODULES:
        _target_main(argv[1])(argv[2:])
        return 0
    if argv and argv[0] == "sweep":
        # The fault-model sweep is promoted to a top-level command:
        # ``python -m repro.experiments sweep --fault-model all``.
        _target_main("sweep")(argv[1:])
        return 0
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run", help="run one experiment target (or 'all')",
        description="Remaining arguments go to the target's own parser; "
                    "try 'run <target> --help'.")
    run.add_argument("target", choices=sorted(_TARGET_MODULES),
                     help="paper table/figure to reproduce")
    args = parser.parse_args(argv)
    _target_main(args.target)([])
    return 0


if __name__ == "__main__":
    sys.exit(main())
