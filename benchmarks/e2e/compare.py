"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py BASE/*/result.json -- NEW/*/result.json

Each argument is a ``result.json`` that ``run.py --out DIR`` wrote.  For
every (workload, end-to-end metric) pair it prints each side's median
and quartiles and a verdict:

improved     the change wins at least 9 of 10 pairs (runs paired in the
             order given) and its median is better than the base's by
             more than the base's own spread (q3 - q1)
no worse     the change's median is within the metric's bound
worse        the change's median is worse by more than the bound
unresolved   the base's spread (q3 - q1, relative to its median) is
             wider than the bound, and not every change run beats every
             base run

``error_rate`` is compared too, with an absolute bound of 0.  The exit
status is 1 when any pair is worse, and 2 when the runs cannot be
compared: a traced run (``--trace 1``) next to an untraced one.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from typing import Dict, List, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import quartiles  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")


def load(paths: Sequence[str]) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        runs[result["workload"]].append(result)
    return runs


def verdict(base: Sequence[float], change: Sequence[float], bound: float,
            lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    # Positive = the change is worse, as a share of the base median.
    worse_by = sign * (cm - bm) / bm
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if wins >= 0.9 * len(pairs) and sign * (bm - cm) > b3 - b1:
        return "improved"
    if (b3 - b1) / bm > bound:
        if all(sign * (c - b) < 0 for b in base for c in change):
            return "no worse"
        return "unresolved"
    return "worse" if worse_by > bound else "no worse"


def _fmt(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:10.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base: Dict[str, List[dict]], change: Dict[str, List[dict]],
            metrics: List[dict]) -> int:
    worse = 0

    def row(workload, name, b, c, delta, bound, result):
        nonlocal worse
        worse += result == "worse"
        print(f"{workload:9} {name:16} {_fmt(b):>30} {_fmt(c):>30} "
              f"{delta:+8.1%} {bound:6.2f} {result}")

    print(f"{'workload':9} {'metric':16} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'bound':>6} "
          f"verdict")
    for workload in sorted(set(base) & set(change)):
        for m in metrics:
            b = [r["e2e"][m["name"]] for r in base[workload]]
            c = [r["e2e"][m["name"]] for r in change[workload]]
            row(workload, m["name"], b, c,
                quartiles(c)[1] / quartiles(b)[1] - 1, m["bound"],
                verdict(b, c, m["bound"], m["better"] == "lower"))
        b = [r["failed"] / r["attempted"] for r in base[workload]]
        c = [r["failed"] / r["attempted"] for r in change[workload]]
        row(workload, "error_rate", b, c, max(c) - max(b), 0.0,
            "worse" if max(c) > max(b) else "no worse")
    return 1 if worse else 0


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    split = argv.index("--")
    base, change = load(argv[:split]), load(argv[split + 1:])
    traced = {r["trace"] for side in (base, change)
              for runs in side.values() for r in runs}
    if len(traced) > 1:
        print("error: traced and untraced runs are not comparable",
              file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    return compare(base, change, metrics)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
