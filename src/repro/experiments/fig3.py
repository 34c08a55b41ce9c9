"""Figure 3: aggregate fault-injection outcomes (crash / SDC / benign) for
the 'all' category, LLFI vs PINFI, per benchmark plus the average.

Shape targets (paper §VI-A): average crash ~30%, SDC ~10%, rest benign;
hangs negligible; LLFI-vs-PINFI SDC difference small.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import (
    campaign_cell, config_from_args, experiment_argparser,
    selected_benchmarks, store_from_args,
)
from repro.experiments.report import format_table, stacked_bar
from repro.fi import CampaignConfig, CampaignResult


def collect(benchmarks, config: CampaignConfig, store=None
            ) -> Dict[str, Dict[str, CampaignResult]]:
    data = {}
    for name in benchmarks:
        data[name] = {
            tool: campaign_cell(name, tool, "all", config, store)
            for tool in ("LLFI", "PINFI")
        }
    return data


def generate(benchmarks, config: CampaignConfig, store=None) -> str:
    data = collect(benchmarks, config, store)
    rows: List[List[object]] = []
    sums = {tool: [0.0, 0.0, 0.0, 0.0] for tool in ("LLFI", "PINFI")}
    for name, tools in data.items():
        for tool in ("LLFI", "PINFI"):
            r = tools[tool]
            crash, sdc = r.crash.value, r.sdc.value
            hang, benign = r.hang.value, r.benign.value
            for i, v in enumerate((crash, sdc, hang, benign)):
                sums[tool][i] += v
            rows.append([
                name if tool == "LLFI" else "", tool,
                f"{100 * crash:.1f}%", f"{100 * sdc:.1f}%",
                f"{100 * hang:.1f}%", f"{100 * benign:.1f}%",
                stacked_bar([crash, sdc, benign], "#+.", 40),
            ])
    n = len(data) or 1
    for tool in ("LLFI", "PINFI"):
        avg = [v / n for v in sums[tool]]
        rows.append([
            "average" if tool == "LLFI" else "", tool,
            f"{100 * avg[0]:.1f}%", f"{100 * avg[1]:.1f}%",
            f"{100 * avg[2]:.1f}%", f"{100 * avg[3]:.1f}%",
            stacked_bar([avg[0], avg[1], avg[3]], "#+.", 40),
        ])
    legend = "bar: # crash, + sdc, . benign"
    return format_table(
        ["Program", "Tool", "Crash", "SDC", "Hang", "Benign", legend],
        rows,
        title="Figure 3: Aggregated fault injection results (category=all)")


def main(argv=None) -> None:
    args = experiment_argparser(__doc__ or "fig3").parse_args(argv)
    print(generate(selected_benchmarks(args), config_from_args(args),
                   store_from_args(args)))
