"""Figure 4: SDC percentage (among activated faults) per instruction
category, LLFI vs PINFI, with 95% confidence intervals.

Shape target (paper §VI-C): the LLFI and PINFI SDC intervals overlap for
most (program, category) cells — the paper's central claim that high-level
injection is accurate for SDCs.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import (
    campaign_cell, config_from_args, experiment_argparser,
    selected_benchmarks, store_from_args,
)
from repro.experiments.report import format_table
from repro.fi import CampaignConfig, CampaignResult
from repro.fi.categories import CATEGORIES


def collect(benchmarks, config: CampaignConfig, store=None,
            categories=CATEGORIES) -> Dict[str, Dict[str, Dict[str, CampaignResult]]]:
    data: Dict[str, Dict[str, Dict[str, CampaignResult]]] = {}
    for name in benchmarks:
        data[name] = {}
        for category in categories:
            data[name][category] = {
                tool: campaign_cell(name, tool, category, config, store)
                for tool in ("LLFI", "PINFI")
            }
    return data


def generate(benchmarks, config: CampaignConfig, store=None) -> str:
    data = collect(benchmarks, config, store)
    sections = []
    agree = 0
    total = 0
    for category in CATEGORIES:
        rows = []
        for name in benchmarks:
            llfi = data[name][category]["LLFI"]
            pinfi = data[name][category]["PINFI"]
            overlap = llfi.sdc.overlaps(pinfi.sdc)
            agree += overlap
            total += 1
            rows.append([
                name,
                llfi.sdc.percent(), pinfi.sdc.percent(),
                "yes" if overlap else "NO",
            ])
        sections.append(format_table(
            ["Program", "LLFI SDC (95% CI)", "PINFI SDC (95% CI)",
             "CIs overlap?"],
            rows,
            title=f"Figure 4({category}): SDC results, category={category}"))
    sections.append(
        f"\nCI overlap (LLFI within measurement error of PINFI): "
        f"{agree}/{total} cells")
    return "\n\n".join(sections)


def main(argv=None) -> None:
    args = experiment_argparser(__doc__ or "fig4").parse_args(argv)
    print(generate(selected_benchmarks(args), config_from_args(args),
                   store_from_args(args)))
