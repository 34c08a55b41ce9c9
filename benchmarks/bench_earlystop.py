"""Adaptive early stopping: trials saved, wall-clock, and restore costs.

    PYTHONPATH=src python benchmarks/bench_earlystop.py --trials 48

For each (workload, tool, category) cell the same campaign runs twice
with fresh injectors: **full** (``ci_margin=0``, the entire trial budget)
and **adaptive** (Wilson-CI early stopping at ``--ci-margin``, rounds of
``--round-size``, checkpoints on).  The benchmark then verifies the
contracts the optimisation rests on and exits non-zero on any violation:

* **prefix identity** — a third fresh run with ``trials = n_stop`` must
  be bit-identical to the adaptive result (same counts, same per-trial
  fault records);
* **verdict identity** — the paper's CI-overlap comparison between LLFI
  and PINFI (per outcome, per cell) must agree between the full and the
  adaptive grid;
* **stop validity** — each adaptive manifest's claimed stop must satisfy
  its own margin target (``repro.obs.report.validate_stop_claims``);
* **manifest accounting** — prep + per-trial instructions must re-derive
  the injector's ``instructions_simulated`` total;
* **span restores** — checkpointed cells must restore from checkpoints
  and decode nothing: a scalar trial builds its address space from the
  snapshot's payload spans, never from a full-size decoded image (only
  batched groups decode).

Writes ``BENCH_earlystop.json`` with per-cell n_stop, the aggregate
trials-saved factor, wall-clock speedup and the restore and decode
counts.
At paper scale (``--trials 1000 --ci-margin 0.03``) the aggregate saving
across the category grid is the headline number; the small default scale
is a CI smoke configuration of the same gates.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.fi import CampaignConfig, LLFIInjector, PINFIInjector, run_campaign
from repro.fi.categories import CATEGORIES
from repro.fi.outcome import Outcome
from repro.obs.manifest import manifest_filename, read_manifest
from repro.obs.report import validate_stop_claims
from repro.workloads import build

#: Outcomes entering the CI-overlap verdict grid (the paper's figures).
VERDICT_OUTCOMES = [Outcome.CRASH, Outcome.SDC, Outcome.HANG, Outcome.BENIGN]


def _fresh_injector(tool: str, built):
    if tool == "LLFI":
        return LLFIInjector(built.module)
    return PINFIInjector(built.program)


def _trial_key(t):
    return (t.k, t.outcome.value, t.record.dynamic_index,
            tuple(t.record.bit_positions), t.record.target, t.record.width)


def _fingerprint(result) -> dict:
    return {
        "counts": {o.value: n for o, n in result.counts.items()},
        "not_activated": result.not_activated,
        "records": [_trial_key(t) for t in result.records],
    }


def run_cell(tool: str, built, workload: str, category: str,
             config: CampaignConfig) -> dict:
    injector = _fresh_injector(tool, built)
    injector.workload_name = workload
    t0 = time.perf_counter()
    result = run_campaign(injector, category, config)
    seconds = time.perf_counter() - t0
    store = injector.ensure_checkpoints()
    return {
        "result": result,
        "injector": injector,
        "store": store,
        "seconds": seconds,
        "trials_executed": result.trials,
        "instructions_simulated": injector.instructions_simulated,
    }


def bench_cell(workload: str, tool: str, built, category: str,
               args, trace_dir: str) -> dict:
    """Full vs adaptive vs fresh-prefix for one (workload, tool, category)."""
    full = run_cell(tool, built, workload, category,
                    CampaignConfig(trials=args.trials, seed=args.seed,
                                   checkpoint_stride=-1))
    adaptive = run_cell(tool, built, workload, category,
                        CampaignConfig(trials=args.trials, seed=args.seed,
                                       checkpoint_stride=-1,
                                       ci_margin=args.ci_margin,
                                       round_size=args.round_size,
                                       trace_dir=trace_dir))
    n_stop = adaptive["trials_executed"]
    prefix = run_cell(tool, built, workload, category,
                      CampaignConfig(trials=n_stop, seed=args.seed,
                                     checkpoint_stride=-1))
    prefix_identical = (_fingerprint(adaptive["result"])
                        == _fingerprint(prefix["result"]))

    manifest_path = os.path.join(trace_dir, manifest_filename(
        workload, tool, category, args.trials, args.seed, -1,
        args.ci_margin))
    manifest = read_manifest(manifest_path)
    stop_problems = validate_stop_claims(manifest)
    accounting_ok = (manifest.total_instructions()
                     == adaptive["instructions_simulated"])

    store = adaptive["store"]
    cell = {
        "trials_full": full["trials_executed"],
        "n_stop": n_stop,
        "trials_saved": args.trials - n_stop,
        "stopped": n_stop < args.trials,
        "rounds": manifest.summary.get("rounds"),
        "margin_at_stop": manifest.summary.get("margin_at_stop"),
        "seconds_full": round(full["seconds"], 4),
        "seconds_adaptive": round(adaptive["seconds"], 4),
        "instructions_full": full["instructions_simulated"],
        "instructions_adaptive": adaptive["instructions_simulated"],
        "ckpt_restores": adaptive["injector"].ckpt_restores,
        "snapshot_decodes": store.decode_count if store else 0,
        "prefix_identical": prefix_identical,
        "stop_valid": not stop_problems,
        "stop_problems": stop_problems,
        "manifest_accounting_ok": accounting_ok,
        # CI-overlap inputs for the cross-tool verdict grid.
        "_proportions": {o.value: adaptive["result"].proportion(o)
                         for o in VERDICT_OUTCOMES},
        "_proportions_full": {o.value: full["result"].proportion(o)
                              for o in VERDICT_OUTCOMES},
    }
    return cell


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", nargs="*",
                        default=["libquantumm", "mcfm"],
                        help="workloads to measure (default: two)")
    parser.add_argument("--categories", nargs="*", default=list(CATEGORIES),
                        help="injection categories (default: the full grid)")
    parser.add_argument("--trials", type=int, default=48,
                        help="full trial budget per cell (paper scale: 1000)")
    parser.add_argument("--seed", type=int, default=20140623)
    parser.add_argument("--ci-margin", type=float, default=0.3,
                        help="early-stopping margin target (paper-scale "
                             "runs use 0.03)")
    parser.add_argument("--round-size", type=int, default=8,
                        help="trials per scheduling round")
    parser.add_argument("--output", default="BENCH_earlystop.json")
    parser.add_argument("--trace-dir", default="results/obs-earlystop",
                        help="directory for the adaptive runs' manifests")
    args = parser.parse_args()

    workloads = {}
    violations = []
    full_trials = adaptive_trials = 0
    full_seconds = adaptive_seconds = 0.0
    total_decodes = total_restores = 0
    verdict_cells = verdict_matches = 0

    for workload in args.benchmarks:
        built = build(workload)
        workloads[workload] = {}
        for category in args.categories:
            cells = {}
            for tool in ("LLFI", "PINFI"):
                cell = bench_cell(workload, tool, built, category, args,
                                  args.trace_dir)
                cells[tool] = cell
                name = f"{workload}/{tool}/{category}"
                full_trials += cell["trials_full"]
                adaptive_trials += cell["n_stop"]
                full_seconds += cell["seconds_full"]
                adaptive_seconds += cell["seconds_adaptive"]
                total_decodes += cell["snapshot_decodes"]
                total_restores += cell["ckpt_restores"]
                if not cell["prefix_identical"]:
                    violations.append(f"{name}: adaptive result is not the "
                                      f"trials={cell['n_stop']} prefix run")
                if not cell["stop_valid"]:
                    violations.append(
                        f"{name}: {'; '.join(cell['stop_problems'])}")
                if not cell["manifest_accounting_ok"]:
                    violations.append(f"{name}: manifest instruction totals "
                                      f"do not reproduce the injector's")
                if not cell["ckpt_restores"] or cell["snapshot_decodes"]:
                    violations.append(f"{name}: {cell['ckpt_restores']} "
                                      f"checkpoint restores and "
                                      f"{cell['snapshot_decodes']} snapshot "
                                      f"decodes — scalar trials must "
                                      f"restore from spans, decoding "
                                      f"nothing")
            # The paper's verdict: do the tools' CIs overlap, per outcome?
            for outcome in VERDICT_OUTCOMES:
                key = outcome.value
                full_verdict = cells["LLFI"]["_proportions_full"][key] \
                    .overlaps(cells["PINFI"]["_proportions_full"][key])
                adaptive_verdict = cells["LLFI"]["_proportions"][key] \
                    .overlaps(cells["PINFI"]["_proportions"][key])
                verdict_cells += 1
                if full_verdict == adaptive_verdict:
                    verdict_matches += 1
                else:
                    violations.append(
                        f"{workload}/{category}/{key}: CI-overlap verdict "
                        f"flipped (full={full_verdict}, "
                        f"adaptive={adaptive_verdict})")
            for tool in cells:
                cells[tool].pop("_proportions")
                cells[tool].pop("_proportions_full")
            workloads[workload][category] = cells
            saved = {t: cells[t]["trials_saved"] for t in cells}
            print(f"{workload}/{category}: n_stop="
                  f"{ {t: cells[t]['n_stop'] for t in cells} } "
                  f"saved={saved}")

    summary = {
        "benchmark": "earlystop",
        "trials": args.trials,
        "ci_margin": args.ci_margin,
        "round_size": args.round_size,
        "seed": args.seed,
        "categories": args.categories,
        "workloads": workloads,
        "full_trials": full_trials,
        "adaptive_trials": adaptive_trials,
        "trials_saved_factor": round(full_trials / adaptive_trials, 3)
        if adaptive_trials else None,
        "full_seconds": round(full_seconds, 3),
        "adaptive_seconds": round(adaptive_seconds, 3),
        "wall_speedup": round(full_seconds / adaptive_seconds, 3)
        if adaptive_seconds else None,
        "ckpt_restores": total_restores,
        "snapshot_decodes": total_decodes,
        "verdict_cells": verdict_cells,
        "verdict_matches": verdict_matches,
        "verdicts_identical": verdict_matches == verdict_cells,
        "violations": violations,
    }
    with open(args.output, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    print(json.dumps({k: v for k, v in summary.items()
                      if k != "workloads"}, indent=1))
    print(f"(written to {args.output})")
    if violations:
        raise SystemExit("early-stopping contract violations:\n  "
                         + "\n  ".join(violations))


if __name__ == "__main__":
    main()
