"""Fault-model sweep: tools × workload categories × fault models.

The paper asks whether IR-level injection (LLFI) matches assembly-level
injection (PINFI) under *one* fault model — a single bit flip in a
destination register. The sweep re-asks that question for every model in
the registry (``repro.fi.fault``): per (model, category) it aggregates
LLFI and PINFI outcome distributions over the selected benchmarks and
renders two-proportion z verdicts for the crash and SDC rates, showing
where the accuracy gap grows or shrinks as the fault model moves away
from the paper's.

Cells share the golden runs, profiling passes, checkpoint stores, batch
sweeps and compiled blocks of the plain experiments — the model only
changes what the injection hook does at its firing point — and each cell
is cached under the same key a standalone ``run`` invocation with the
same ``--fault-model`` would use, so sweep results are bit-identical to
one-model runs by construction.

``--fault-model`` accepts a single spec, a comma-separated list, or
``all`` (every registered model). Without ``--benchmarks`` the sweep
uses the two smoke workloads (libquantumm, mcfm) — a full six-benchmark
sweep multiplies quickly.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Tuple

from repro.experiments.common import (
    campaign_cell, config_from_args, experiment_argparser,
    selected_benchmarks, store_from_args,
)
from repro.experiments.report import format_table
from repro.fi import CampaignConfig, CampaignResult, Outcome
from repro.fi.categories import CATEGORIES
from repro.fi.fault import get_fault_model, list_fault_models
from repro.fi.stats import Proportion, two_proportion_z

#: Default workloads: the smoke pair the benchmarks use.
SMOKE_BENCHMARKS = ("libquantumm", "mcfm")
#: Default category axis (every category; "all" is the paper's headline).
DEFAULT_CATEGORIES = tuple(CATEGORIES)

TOOLS = ("LLFI", "PINFI")


def expand_fault_models(spec: str) -> List[str]:
    """Resolve the sweep's ``--fault-model`` value: "all", a single spec,
    or a comma-separated list. Every spec is validated through the
    registry (canonicalised, so "multibit" becomes "multibit-2")."""
    if spec == "all":
        return list_fault_models()
    return [get_fault_model(s.strip()).name
            for s in spec.split(",") if s.strip()]


def collect(benchmarks, categories, models, config: CampaignConfig,
            store=None
            ) -> Dict[Tuple[str, str, str, str], CampaignResult]:
    """One cached campaign per (model, benchmark, tool, category) cell.
    Each cell's key/config is exactly what ``run <target>`` with the same
    ``--fault-model`` uses, so results are shared both ways."""
    cells = {}
    for model in models:
        cell_config = dataclasses.replace(config, fault_model=model,
                                          model=None)
        for name in benchmarks:
            for tool in TOOLS:
                for category in categories:
                    cells[(model, name, tool, category)] = campaign_cell(
                        name, tool, category, cell_config, store)
    return cells


def _aggregate(cells, model: str, benchmarks, tool: str, category: str
               ) -> Tuple[Dict[Outcome, int], int]:
    """Sum outcome counts (and the activated total) over benchmarks."""
    counts: Dict[Outcome, int] = {}
    for name in benchmarks:
        r = cells[(model, name, tool, category)]
        for outcome, n in r.counts.items():
            counts[outcome] = counts.get(outcome, 0) + n
    return counts, sum(counts.values())


def _verdict(a_counts, a_n, b_counts, b_n) -> str:
    """CI-overlap verdict on the crash and SDC rates (the paper's
    accuracy criterion), most severe disagreement first."""
    differs = []
    for outcome, label in ((Outcome.SDC, "sdc"), (Outcome.CRASH, "crash")):
        pa = Proportion(a_counts.get(outcome, 0), a_n)
        pb = Proportion(b_counts.get(outcome, 0), b_n)
        if not pa.overlaps(pb):
            differs.append(label)
    return "differ(" + ",".join(differs) + ")" if differs else "agree"


def generate(benchmarks, categories, models, config: CampaignConfig,
             store=None) -> str:
    cells = collect(benchmarks, categories, models, config, store)
    rows: List[List[object]] = []
    for model in models:
        for category in categories:
            agg = {tool: _aggregate(cells, model, benchmarks, tool,
                                    category) for tool in TOOLS}
            (lc, ln), (pc, pn) = agg["LLFI"], agg["PINFI"]
            cols: List[object] = [model, category]
            for counts, n in (agg["LLFI"], agg["PINFI"]):
                for outcome in (Outcome.CRASH, Outcome.SDC, Outcome.HANG,
                                Outcome.BENIGN):
                    p = Proportion(counts.get(outcome, 0), n)
                    cols.append(f"{100 * p.value:.1f}%")
                cols.append(str(n))
            z_sdc = two_proportion_z(lc.get(Outcome.SDC, 0), ln,
                                     pc.get(Outcome.SDC, 0), pn)
            z_crash = two_proportion_z(lc.get(Outcome.CRASH, 0), ln,
                                       pc.get(Outcome.CRASH, 0), pn)
            cols += [f"{z_sdc:+.2f}", f"{z_crash:+.2f}",
                     _verdict(lc, ln, pc, pn)]
            rows.append(cols)
        if model != models[-1]:
            rows.append([""] * 15)
    headers = ["Model", "Category",
               "L-Crash", "L-SDC", "L-Hang", "L-Benign", "L-n",
               "P-Crash", "P-SDC", "P-Hang", "P-Benign", "P-n",
               "z(SDC)", "z(Crash)", "Verdict"]
    title = (f"Fault-model sweep: LLFI vs PINFI over "
             f"{', '.join(benchmarks)} (trials={config.trials}, "
             f"seed={config.seed})")
    table = format_table(headers, rows, title=title)
    legend = ("L-* = LLFI, P-* = PINFI (outcome rates over activated "
              "faults, n = activated total, summed over benchmarks);\n"
              "z = two-proportion z statistic LLFI vs PINFI; verdict = "
              "95% Wilson CI overlap on the SDC and crash rates.")
    return table + "\n" + legend + "\n"


def main(argv=None) -> None:
    parser = experiment_argparser(__doc__ or "sweep")
    parser.add_argument("--categories", nargs="*",
                        default=list(DEFAULT_CATEGORIES),
                        choices=CATEGORIES,
                        help="instruction categories to cross "
                             "(default: all five)")
    args = parser.parse_args(argv)
    models = expand_fault_models(args.fault_model)
    benchmarks = (selected_benchmarks(args) if args.benchmarks
                  else list(SMOKE_BENCHMARKS))
    report = generate(benchmarks, args.categories, models,
                      config_from_args(args), store_from_args(args))
    print(report, end="")
    os.makedirs(args.results_dir, exist_ok=True)
    path = os.path.join(args.results_dir, "sweep_report.txt")
    with open(path, "w") as f:
        f.write(report)
    print(f"[sweep report written to {path}]")
