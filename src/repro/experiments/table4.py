"""Table IV: dynamic (runtime) instruction counts per category for LLFI
and PINFI, with each category's share of 'all'.

Shape targets (paper §VI-B):

* LLFI counts more 'all' instructions than PINFI (IR is less packed:
  GEP+load vs one folded mov);
* LLFI counts fewer 'arithmetic' instructions (address computation is GEP
  at the IR level, arithmetic at the assembly level);
* 'cast' counts are negligible for both; 'cmp' counts are similar.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import (
    experiment_argparser, injectors_for, selected_benchmarks,
)
from repro.experiments.report import format_table
from repro.fi.categories import CATEGORIES


def collect(benchmarks) -> Dict[str, Dict[str, Dict[str, int]]]:
    """{benchmark: {'LLFI': {category: n}, 'PINFI': {category: n}}}"""
    data = {}
    for name in benchmarks:
        inj = injectors_for(name)
        data[name] = {
            "LLFI": inj.llfi.count_all_categories(),
            "PINFI": inj.pinfi.count_all_categories(),
        }
    return data


def generate(benchmarks) -> str:
    data = collect(benchmarks)
    headers = ["Program", "Tool"] + [c for c in CATEGORIES]
    rows = []
    for name, tools in data.items():
        for tool in ("LLFI", "PINFI"):
            counts = tools[tool]
            total = counts["all"] or 1
            row = [name if tool == "LLFI" else "", tool]
            for cat in CATEGORIES:
                if cat == "all":
                    row.append(f"{counts[cat]}")
                else:
                    row.append(f"{counts[cat]} ({100 * counts[cat] // total}%)")
            rows.append(row)
    return format_table(headers, rows,
                        title="Table IV: Runtime instructions per category "
                              "(share of 'all' in parentheses)")


def main(argv=None) -> None:
    args = experiment_argparser(__doc__ or "table4").parse_args(argv)
    print(generate(selected_benchmarks(args)))
