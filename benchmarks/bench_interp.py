"""Block-compiled execution: wall speedup, bit identity, accounting.

    PYTHONPATH=src python benchmarks/bench_interp.py --trials 24

For each (workload, tool, category) cell the same campaign runs twice
with fresh injectors: **interpreted** (``no_compile=True``, the scalar
per-instruction loop) and **compiled** (the default: every function
generated as the source of one Python function, a region, with operands,
widths and branch targets baked in, compare+branch pairs decided from
the compare's operands, and segments chained across the function's
edges once a trial's fault is spent, see ``repro.vm.blockcache``).
The benchmark verifies the contracts the optimisation rests on and
exits non-zero on any violation:

* **bit identity** — the compiled campaign's full serialized result
  (``CampaignResult.to_json(include_records=True)``) must equal the
  interpreted one's, per cell;
* **manifest accounting** — prep + per-trial instructions + shared-sweep
  instructions must re-derive the compiled injector's
  ``instructions_simulated`` total (the three-term identity holds under
  compilation);
* **compilation happened** — the compiled cell's manifest must report
  compiled segments actually run (the comparison would be vacuous
  otherwise);
* **it stays compiled** — at most ``MAX_FALLBACK_RATE`` (2%) of the
  compiled cell's segments (``compiled_blocks`` counts chained ones
  too) may fall back to the scalar loop, so a generator gap that
  silently sends a common opcode to the scalar loop fails instead of
  only slowing the cell down.  Pending injections and poison, segments
  whose candidates reach the trigger and segments that could cross the
  hang budget fall back by design; they stay well under 1% on the
  libquantumm and mcfm ``arithmetic``/``all`` cells.

Writes ``BENCH_interp.json`` with per-cell wall times, compile
statistics (blocks compiled, superinstructions fused, fallback rate,
compile wall time) and the aggregate ``wall_speedup`` — expected to
clear 1.5x on the libquantumm smoke config (``--min-speedup`` turns the
expectation into a hard gate).
"""

from __future__ import annotations

import argparse
import json
import time

from repro.fi import CampaignConfig, LLFIInjector, PINFIInjector, run_campaign
from repro.obs.manifest import manifest_filename, read_manifest
from repro.workloads import build

#: Largest share of a compiled cell's dispatched segments that may run on
#: the scalar loop.
MAX_FALLBACK_RATE = 0.02


def _fresh_injector(tool: str, built):
    if tool == "LLFI":
        return LLFIInjector(built.module)
    return PINFIInjector(built.program)


def run_cell(tool: str, built, workload: str, category: str,
             config: CampaignConfig) -> dict:
    injector = _fresh_injector(tool, built)
    injector.workload_name = workload
    t0 = time.perf_counter()
    result = run_campaign(injector, category, config)
    return {
        "result": result,
        "injector": injector,
        "seconds": time.perf_counter() - t0,
        "instructions_simulated": injector.instructions_simulated,
    }


def bench_cell(workload: str, tool: str, built, category: str, args,
               trace_dir: str) -> dict:
    """Interpreted vs compiled for one (workload, tool, category)."""
    interpreted = run_cell(
        tool, built, workload, category,
        CampaignConfig(trials=args.trials, seed=args.seed,
                       checkpoint_stride=args.checkpoint_stride,
                       no_compile=True))
    compiled = run_cell(
        tool, built, workload, category,
        CampaignConfig(trials=args.trials, seed=args.seed,
                       checkpoint_stride=args.checkpoint_stride,
                       trace_dir=trace_dir))
    identical = (interpreted["result"].to_json(include_records=True)
                 == compiled["result"].to_json(include_records=True))

    manifest = read_manifest(trace_dir + "/" + manifest_filename(
        workload, tool, category, args.trials, args.seed,
        args.checkpoint_stride))
    accounting_ok = (manifest.total_instructions()
                     == compiled["instructions_simulated"])

    comp = manifest.summary.get("compile") or {}
    dispatched = comp.get("compiled_blocks", 0) + comp.get("fallback_blocks",
                                                           0)
    return {
        "seconds_interpreted": round(interpreted["seconds"], 4),
        "seconds_compiled": round(compiled["seconds"], 4),
        "instructions": compiled["instructions_simulated"],
        "blocks_compiled": comp.get("blocks_compiled", 0),
        "superinstructions": comp.get("superinstructions", 0),
        "compile_wall_s": comp.get("compile_wall_s", 0.0),
        "compiled_blocks": comp.get("compiled_blocks", 0),
        "fallback_blocks": comp.get("fallback_blocks", 0),
        "fallback_rate": (round(comp.get("fallback_blocks", 0) / dispatched,
                                4) if dispatched else None),
        "identical": identical,
        "manifest_accounting_ok": accounting_ok,
        "compiled_dispatch_ok": comp.get("enabled", False)
        and comp.get("compiled_blocks", 0) > 0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", nargs="*",
                        default=["libquantumm", "mcfm"],
                        help="workloads to measure")
    parser.add_argument("--categories", nargs="*",
                        default=["arithmetic", "all"],
                        help="injection categories")
    parser.add_argument("--trials", type=int, default=24,
                        help="trials per cell (paper scale: 1000)")
    parser.add_argument("--seed", type=int, default=20140623)
    parser.add_argument("--checkpoint-stride", type=int, default=0,
                        help="0 (default) measures cold-start campaigns — "
                             "the headline dispatch-cost comparison; -1 "
                             "measures compilation composed with "
                             "checkpoint resume")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless the aggregate wall speedup "
                             "clears this (0 disables the gate)")
    parser.add_argument("--output", default="BENCH_interp.json")
    parser.add_argument("--trace-dir", default="results/obs-interp",
                        help="directory for the compiled runs' manifests")
    args = parser.parse_args()

    workloads = {}
    violations = []
    interpreted_seconds = compiled_seconds = 0.0

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
                interpreted_seconds += cell["seconds_interpreted"]
                compiled_seconds += cell["seconds_compiled"]
                if not cell["identical"]:
                    violations.append(f"{name}: compiled result is not "
                                      f"bit-identical to interpreted")
                if not cell["manifest_accounting_ok"]:
                    violations.append(f"{name}: manifest instruction totals "
                                      f"do not reproduce the injector's")
                if not cell["compiled_dispatch_ok"]:
                    violations.append(f"{name}: compiled run dispatched no "
                                      f"compiled blocks")
                rate = cell["fallback_rate"]
                if rate is not None and rate > MAX_FALLBACK_RATE:
                    violations.append(f"{name}: {rate:.2%} of segments fell "
                                      f"back to the scalar loop (at most "
                                      f"{MAX_FALLBACK_RATE:.0%})")
            workloads[workload][category] = cells
            print(f"{workload}/{category}: "
                  + " ".join(f"{t}={cells[t]['seconds_interpreted']:.2f}s->"
                             f"{cells[t]['seconds_compiled']:.2f}s"
                             for t in cells))

    wall_speedup = (round(interpreted_seconds / compiled_seconds, 3)
                    if compiled_seconds else None)
    if args.min_speedup and wall_speedup is not None \
            and wall_speedup < args.min_speedup:
        violations.append(f"aggregate wall speedup {wall_speedup} below "
                          f"the required {args.min_speedup}")
    summary = {
        "benchmark": "interp",
        "trials": args.trials,
        "checkpoint_stride": args.checkpoint_stride,
        "seed": args.seed,
        "categories": args.categories,
        "workloads": workloads,
        "interpreted_seconds": round(interpreted_seconds, 3),
        "compiled_seconds": round(compiled_seconds, 3),
        "wall_speedup": wall_speedup,
        "violations": violations,
    }
    with open(args.output, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    print(json.dumps({k: v for k, v in summary.items()
                      if k != "workloads"}, indent=1))
    print(f"(written to {args.output})")
    if violations:
        raise SystemExit("compiled-execution contract violations:\n  "
                         + "\n  ".join(violations))


if __name__ == "__main__":
    main()
