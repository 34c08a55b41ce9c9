"""Checkpoint-and-resume speedup: simulated instructions and wall-clock.

    PYTHONPATH=src python benchmarks/bench_checkpoint.py --trials 32

For each (workload, tool) pair the same campaign is run cold
(``checkpoint_stride=0``), with golden-run checkpoints at explicit strides
N/5 and N/20 (N = golden instruction count), and at the automatic stride
``auto`` (``checkpoint_stride=-1``, the experiments' default: one
recording at a provisional stride, thinned to about N/20).  Each
configuration uses a *fresh* injector so nothing is shared between
configurations except the compiled program.  The benchmark verifies the
bit-identity contract — the outcome distribution and every per-trial
fault record must be unchanged — and exits non-zero on any mismatch, so
CI can use it as a regression gate.

Per configuration it reports the preparation runs, the injection runs
that converged onto the golden run (and stopped there) and the golden
tail instructions those runs skipped.  Two more gates: ``auto`` must
prepare a fresh injector of a program long enough for the provisional
stride (libquantumm is) in one run, and at least one checkpointed
configuration must converge some run — a comparator that silently never
matches would otherwise pass.

Writes a machine-readable summary (default ``BENCH_checkpoint.json``) with
per-configuration simulated-instruction counts, wall-clock, and the
instruction reduction vs cold, split into the skipped prefix and the
converged tail, so the perf trajectory of the trial hot path can be
tracked across PRs.

With ``--trace-dir`` every configuration also writes its JSONL run
manifest (``repro.obs``) and the benchmark cross-checks the manifest
accounting identity: setup ``prep_instructions`` plus the per-trial
``instructions`` sum must equal the fresh injector's
``instructions_simulated`` — i.e. the manifest re-derives exactly the
number this benchmark reports.  Any mismatch exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.fi import CampaignConfig, LLFIInjector, PINFIInjector, run_campaign
from repro.obs.manifest import manifest_filename, read_manifest
from repro.vm.snapshot import PROVISIONAL_STRIDE
from repro.workloads import build


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


def measure(tool: str, built, category: str, trials: int, seed: int,
            stride: int, label: str, workload: str,
            trace_dir: str = None) -> dict:
    injector = _fresh_injector(tool, built)
    injector.workload_name = workload
    config = CampaignConfig(trials=trials, seed=seed,
                            checkpoint_stride=stride, trace_dir=trace_dir)
    t0 = time.perf_counter()
    result = run_campaign(injector, category, config)
    seconds = time.perf_counter() - t0
    store = injector.ensure_checkpoints()
    # Every run that was not an injection prepared the injector, and a
    # preparation run simulates the whole program.
    prep_runs = injector.executions - result.activated \
        - result.not_activated
    prep_instructions = prep_runs * injector.golden_cached().instructions
    cell = {
        "label": label,
        "stride": stride,
        "seconds": round(seconds, 4),
        "instructions_simulated": injector.instructions_simulated,
        "executions": injector.executions,
        "prep_runs": prep_runs,
        "prep_instructions": prep_instructions,
        "checkpoints": len(store) if store is not None else 0,
        "prefix_skipped": injector.ckpt_instructions_skipped,
        "converged_runs": injector.converged_runs,
        "tail_skipped": injector.converged_instructions,
        "fingerprint": _fingerprint(result),
    }
    if trace_dir:
        import os

        path = os.path.join(trace_dir, manifest_filename(
            workload, tool, category, trials, seed, stride))
        manifest = read_manifest(path)
        # The manifest must re-derive this benchmark's headline number:
        # prep + per-trial simulated instructions == the injector total.
        cell["manifest"] = path
        cell["manifest_instructions"] = manifest.total_instructions()
        cell["manifest_matches"] = (
            manifest.total_instructions() == injector.instructions_simulated)
    return cell


def bench_pair(workload: str, tool: str, category: str, trials: int,
               seed: int, trace_dir: str = None) -> dict:
    built = build(workload)
    golden = _fresh_injector(tool, built).golden_cached()
    n = golden.instructions
    configs = [
        measure(tool, built, category, trials, seed, 0, "cold",
                workload, trace_dir),
        measure(tool, built, category, trials, seed, max(1, n // 5), "N/5",
                workload, trace_dir),
        measure(tool, built, category, trials, seed, max(1, n // 20), "N/20",
                workload, trace_dir),
        measure(tool, built, category, trials, seed, -1, "auto",
                workload, trace_dir),
    ]
    cold = configs[0]
    identical = all(c["fingerprint"] == cold["fingerprint"]
                    for c in configs[1:])
    for c in configs:
        c["instruction_reduction_vs_cold"] = round(
            cold["instructions_simulated"] / c["instructions_simulated"], 3)
        # The trial phase alone: what its runs would have simulated
        # without checkpoints over what they simulated, split into the
        # factor of the prefix skip and that of the convergence exit
        # (their product).
        trial = c["instructions_simulated"] - c["prep_instructions"]
        resumed = trial + c["tail_skipped"]
        c["trial_reduction"] = round(
            (resumed + c["prefix_skipped"]) / trial, 3)
        c["prefix_factor"] = round(
            (resumed + c["prefix_skipped"]) / resumed, 3)
        c["convergence_factor"] = round(resumed / trial, 3)
        c["speedup_vs_cold"] = round(cold["seconds"] / c["seconds"], 3)
        del c["fingerprint"]  # bulky; the verdict is what matters
    auto = configs[3]
    return {
        "golden_instructions": n,
        "configs": configs,
        "bit_identical": identical,
        "manifests_match": all(c.get("manifest_matches", True)
                               for c in configs),
        # One recording run, unless the program is too short for the
        # provisional stride (then it is recorded again at N // 20).
        "auto_prep_one_run": (auto["prep_runs"] == 1
                              or n // 20 < PROVISIONAL_STRIDE),
        "converged_runs": sum(c["converged_runs"] for c in configs[1:]),
        "reduction_at_default": auto["instruction_reduction_vs_cold"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", nargs="*",
                        default=["libquantumm", "mcfm"],
                        help="workloads to measure (default: two)")
    parser.add_argument("--tools", nargs="*", default=["LLFI", "PINFI"])
    parser.add_argument("--category", default="all")
    parser.add_argument("--trials", type=int, default=32)
    parser.add_argument("--seed", type=int, default=20140623)
    parser.add_argument("--output", default="BENCH_checkpoint.json")
    parser.add_argument("--trace-dir", default=None,
                        help="write per-configuration JSONL run manifests "
                             "here and cross-check their instruction totals")
    args = parser.parse_args()

    workloads = {}
    all_identical = True
    manifests_match = True
    auto_one_run = True
    converged = 0
    reductions = []
    for workload in args.benchmarks:
        workloads[workload] = {}
        for tool in args.tools:
            cell = bench_pair(workload, tool, args.category, args.trials,
                              args.seed, args.trace_dir)
            workloads[workload][tool] = cell
            all_identical = all_identical and cell["bit_identical"]
            manifests_match = manifests_match and cell["manifests_match"]
            auto_one_run = auto_one_run and cell["auto_prep_one_run"]
            converged += cell["converged_runs"]
            reductions.append(cell["reduction_at_default"])
            print(f"{workload}/{tool}: golden={cell['golden_instructions']} "
                  f"reduction@auto={cell['reduction_at_default']}x "
                  f"identical={cell['bit_identical']}")
            for c in cell["configs"]:
                print(f"  {c['label']:>5}: prep runs {c['prep_runs']}, "
                      f"converged {c['converged_runs']} runs "
                      f"({c['tail_skipped']} tail instr skipped), "
                      f"trial reduction {c['trial_reduction']}x = "
                      f"prefix {c['prefix_factor']}x * convergence "
                      f"{c['convergence_factor']}x")

    summary = {
        "benchmark": "checkpoint_resume",
        "category": args.category,
        "trials": args.trials,
        "seed": args.seed,
        "workloads": workloads,
        "bit_identical": all_identical,
        "manifests_match": manifests_match,
        "auto_prep_one_run": auto_one_run,
        "converged_runs": converged,
        "min_reduction_at_default": min(reductions),
    }
    with open(args.output, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    print(json.dumps(summary, indent=1))
    print(f"(written to {args.output})")
    if not all_identical:
        raise SystemExit("bit-identity violation: checkpointed campaign "
                         "results differ from cold-start results")
    if not manifests_match:
        raise SystemExit("manifest accounting violation: per-trial "
                         "instruction sums do not reproduce the injector "
                         "totals")
    if not auto_one_run:
        raise SystemExit("preparation violation: the automatic stride "
                         "took more than one run on a program long enough "
                         "for the provisional stride")
    if not converged:
        raise SystemExit("convergence violation: no checkpointed "
                         "configuration converged any injection run")


if __name__ == "__main__":
    main()
