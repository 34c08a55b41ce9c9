"""Top-level experiment runner: regenerates every table and figure.

    python -m repro.experiments run all --trials 150
    python -m repro.experiments run all --trials 1000 --jobs 8   # paper scale

Campaigns fan out over ``--jobs`` worker processes (default: one per CPU);
per-trial RNG streams make the results identical for any job count.

Results are cached in ``results/``; the combined report is written to
``results/report.txt`` and printed.
"""

from __future__ import annotations

import os
import time

from repro.experiments import ablation, fig3, fig4, table1, table2, table4, table5
from repro.experiments.common import (
    config_from_args, experiment_argparser, selected_benchmarks,
    store_from_args,
)
from repro.fi import resolve_jobs


def run_all(benchmarks, config, store=None) -> str:
    sections = []
    t0 = time.time()

    def stamp(label: str) -> None:
        print(f"[{time.time() - t0:7.1f}s] {label}")

    stamp(f"campaign engine: jobs={resolve_jobs(config.jobs)}")
    stamp("Table I (static IR<->asm mapping)")
    sections.append(table1.generate(benchmarks))
    stamp("Table II (benchmark characteristics)")
    sections.append(table2.generate())
    stamp("Table IV (dynamic instruction counts)")
    sections.append(table4.generate(benchmarks))
    stamp("Figure 3 (aggregate outcomes) — runs campaigns")
    sections.append(fig3.generate(benchmarks, config, store))
    stamp("Figure 4 (SDC by category) — runs campaigns")
    sections.append(fig4.generate(benchmarks, config, store))
    stamp("Table V (crash by category)")
    sections.append(table5.generate(benchmarks, config, store))
    stamp("Ablations (paper §IV heuristics, §VII fixes)")
    # Ablation cells with the heuristics disabled have low activation and
    # redraw heavily; run them on focused subsets (where the effect lives).
    subset = [b for b in ("bzip2m", "mcfm", "hmmerm") if b in benchmarks] \
        or benchmarks
    fp_subset = [b for b in ("oceanm", "raytracem") if b in benchmarks] \
        or benchmarks[:1]
    sections.append(ablation.generate_gep_ablation(subset, config, store))
    sections.append(ablation.generate_cast_ablation(subset, config, store))
    sections.append(ablation.generate_heuristic_ablation(
        subset[:2], config, store, xmm_benchmarks=fp_subset))
    stamp("done")
    return "\n\n\n".join(sections) + "\n"


def main(argv=None) -> None:
    args = experiment_argparser(__doc__ or "runner").parse_args(argv)
    benchmarks = selected_benchmarks(args)
    config = config_from_args(args)
    report = run_all(benchmarks, config, store_from_args(args))
    os.makedirs(args.results_dir, exist_ok=True)
    path = os.path.join(args.results_dir, "report.txt")
    with open(path, "w") as f:
        f.write(report)
    print(report)
    print(f"(written to {path})")
