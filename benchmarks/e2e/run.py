"""End-to-end campaign benchmark.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --workload grid --seed 3 --seconds 7
    python3 benchmarks/e2e/run.py --trace 1            # + per-layer metrics
    python3 benchmarks/e2e/run.py --smoke --trace 1    # tiny, under a minute
    python3 benchmarks/e2e/run.py --write-reference    # re-pin reference.json
    python3 benchmarks/e2e/run.py --ladder             # accelerator ladder

One workload runs per interpreter; without ``--workload`` each workload
runs in a fresh child interpreter, so set-up time and peak RSS are per
workload.  Every metric is printed as ``<workload> <name> = <value>
<unit> (n=<samples>)``; the last line of a single-workload run is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or the per-layer ones with ``--trace 1``).  Metric
names and units are the ones ``BENCHMARK.json`` lists.  The exit status
is non-zero when any operation failed, including any result whose digest
differs from ``reference.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
#: Scratch space inside the checkout (git-ignored).
WORK_ROOT = os.path.join(ROOT, ".bench_build", "e2e")

WORKLOAD_NAMES = ("grid", "deep", "adaptive", "service")
DEFAULT_SECONDS = 7.0
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end campaign benchmark (see README.md)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, each in a "
                             "fresh interpreter)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: shuffles the order cells are "
                             "issued in")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase at the reference "
                             "machine's speed; sets the number of passes "
                             f"(default {DEFAULT_SECONDS:g}, 0 = one pass, "
                             "with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: after the measured run, set up and run "
                             "one more pass traced, and report the "
                             "per-layer metrics")
    parser.add_argument("--out", default=os.path.join(WORK_ROOT, "out"),
                        help="directory for result.json, spans.jsonl and "
                             "the traced pass's manifests")
    parser.add_argument("--reference", default=REFERENCE,
                        help="reference digests to check against")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells and one set-up: checks the "
                             "plumbing, measures nothing")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute reference.json on the scalar path")
    parser.add_argument("--ladder", action="store_true",
                        help="accelerator ladder report (see ladder.py)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else DEFAULT_SECONDS
    return args


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of
    BENCHMARK.json, in its order."""
    with open(BENCHMARK) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def print_metric(workload: str, name: str, value: float, unit: str,
                 samples: int) -> None:
    print(f"  {workload} {name} = {value:.6g} {unit} (n={samples})",
          flush=True)


def run_one(args: argparse.Namespace) -> int:
    from layers import campaign_layers, complete, result_layers
    from layers import service_layers
    from spans import SpanRecorder, install
    from stats import Ledger
    from workloads import (
        MIN_HITS, CampaignRunner, Checker, ServiceRunner, workload_defs,
    )

    e2e_units = metric_units("end_to_end")
    layer_units = metric_units("per_layer")
    workload = workload_defs(args.smoke)[args.workload]
    reference = {}
    if os.path.exists(args.reference):
        with open(args.reference) as f:
            reference = json.load(f)["digests"]
    traced = args.trace == 1
    n_passes = max(1, math.ceil(args.seconds / workload.pass_s))
    os.makedirs(args.out, exist_ok=True)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    ledger = Ledger()
    checker = Checker(reference, ledger)
    if workload.kind == "service":
        runner = ServiceRunner(workload, work, checker, ROOT,
                               hits_per_pass=-(-MIN_HITS // n_passes))
    else:
        runner = CampaignRunner(workload, work, checker)
    spans = SpanRecorder()
    rng = random.Random(args.seed)

    def shuffled():
        order = workload.cells()
        rng.shuffle(order)
        return order

    def with_spans(run: str, fn):
        spans.run = run
        runner.spans = spans
        uninstall = install(spans)
        try:
            return fn()
        finally:
            uninstall()
            runner.spans = None

    trace_dir = os.path.join(args.out, "obs")
    layers = {}
    try:
        repeats = 1 if args.smoke else SETUP_REPEATS
        setup_times = [runner.setup() for _ in range(repeats)]
        passes = [runner.run_pass(f"p{i}", shuffled())
                  for i in range(n_passes)]
        # Peak RSS is read once the pool or the server has stopped, and
        # before anything traced runs.
        runner.close()
        main_rss, worker_rss = runner.peak_rss()
        if traced:
            shutil.rmtree(trace_dir, ignore_errors=True)
            with_spans("setup", runner.setup)
            order = shuffled()
            last = with_spans("traced", lambda: runner.run_pass(
                "traced", order, trace_dir=trace_dir))
            runner.close()
            layers = result_layers(list(last.results.values()),
                                   len(workload.cells()) * workload.trials,
                                   [w for p in passes for w in p.waits])
            if workload.kind == "service":
                jobs, shards = runner.rows()
                layers.update(service_layers(
                    spans, "traced", jobs, shards, runner.warmup_jobs,
                    last, passes))
                layers["service.worker_peak_rss_mb"] = worker_rss
            else:
                layers.update(campaign_layers(
                    spans, "setup", "traced", runner.prep, trace_dir,
                    workload.jobs))
                layers["engine.worker_peak_rss_mb"] = worker_rss
            # Both passes follow a fresh set-up, so both start the pool.
            layers["obs.trace_overhead_frac"] = (last.wall / passes[0].wall
                                                 - 1)
            layers = complete(layers, list(layer_units))
            spans.write(os.path.join(args.out, "spans.jsonl"))
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    slots = sum(p.slots for p in passes)
    waits = [w for p in passes for w in p.waits]
    e2e = {
        "setup_s": statistics.median(setup_times),
        # The best pass, as timeit reports its best repeat: outside load
        # on a shared machine only ever slows a pass down, so the
        # fastest pass is the least disturbed estimate of the code.
        "trials_per_s": max(p.slots / p.wall for p in passes),
        "time_to_answer_s": min(p.wall for p in passes),
        "job_p50_s": statistics.median(waits) if waits else 0.0,
        "main_peak_rss_mb": main_rss,
    }
    samples = {"setup_s": len(setup_times), "trials_per_s": len(passes),
               "time_to_answer_s": len(passes), "job_p50_s": len(waits),
               "main_peak_rss_mb": 1}
    print(f"{workload.name}: {len(passes)} passes, {slots} slots in "
          f"{sum(p.wall for p in passes):.2f} s", flush=True)
    for name, unit in e2e_units.items():
        print_metric(workload.name, name, e2e[name], unit, samples[name])
    print(f"{workload.name}: {ledger.failed} of {ledger.attempted} "
          f"operations failed (error_rate {ledger.error_rate:g})",
          flush=True)
    for name, value in layers.items():
        print_metric(workload.name, name, value, layer_units[name], 1)
    units, values = ((layer_units, layers) if traced
                     else (e2e_units, e2e))
    summary = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
               "failed": ledger.failed,
               "metrics": {name: {"value": values[name], "unit": unit}
                           for name, unit in units.items()}}
    with open(os.path.join(args.out, "result.json"), "w") as f:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "trace": traced,
                   "passes": [{"slots": p.slots, "wall_s": p.wall}
                              for p in passes],
                   "e2e": e2e, "samples": samples, "layers": layers,
                   "attempted": ledger.attempted, "failed": ledger.failed},
                  f, indent=1, sort_keys=True)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, one after the other."""
    failed = attempted = 0
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", args.reference,
               "--out", os.path.join(args.out, name)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", flush=True)
            ok = False
            continue
        attempted += summary["attempted"]
        failed += summary["failed"]
        ok = ok and proc.returncode == 0 and summary["correct"]
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed}), flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_reference:
        from reference import write_reference
        return write_reference(args.reference, WORK_ROOT)
    if args.ladder:
        from ladder import ladder
        return ladder(ROOT, WORK_ROOT)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
