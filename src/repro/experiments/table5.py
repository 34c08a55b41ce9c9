"""Table V: crash percentage per instruction category, LLFI vs PINFI.

Shape targets (paper §VI-D): crash rates similar for 'cmp' but with
considerable differences in the other categories — the paper's finding
that high-level injection is NOT accurate for crash-causing errors.
"""

from __future__ import annotations

from repro.experiments.common import (
    config_from_args, experiment_argparser, selected_benchmarks,
    store_from_args,
)
from repro.experiments.fig4 import collect
from repro.experiments.report import format_table
from repro.fi import CampaignConfig
from repro.fi.categories import CATEGORIES


def generate(benchmarks, config: CampaignConfig, store=None) -> str:
    data = collect(benchmarks, config, store)
    headers = ["Program"]
    for cat in CATEGORIES:
        headers += [f"{cat} L", f"{cat} P"]
    rows = []
    max_diff = {cat: (0.0, "") for cat in CATEGORIES}
    for name in benchmarks:
        row = [name]
        for cat in CATEGORIES:
            llfi = data[name][cat]["LLFI"].crash
            pinfi = data[name][cat]["PINFI"].crash
            row += [f"{100 * llfi.value:.0f}%", f"{100 * pinfi.value:.0f}%"]
            diff = abs(llfi.value - pinfi.value)
            if diff > max_diff[cat][0]:
                max_diff[cat] = (diff, name)
        rows.append(row)
    table = format_table(headers, rows,
                         title="Table V: Crash percentage per category "
                               "(L=LLFI, P=PINFI)")
    notes = ["", "Maximum LLFI-PINFI crash differences:"]
    for cat in CATEGORIES:
        diff, name = max_diff[cat]
        notes.append(f"  {cat}: {100 * diff:.0f} points ({name})")
    return table + "\n" + "\n".join(notes)


def main(argv=None) -> None:
    args = experiment_argparser(__doc__ or "table5").parse_args(argv)
    print(generate(selected_benchmarks(args), config_from_args(args),
                   store_from_args(args)))
