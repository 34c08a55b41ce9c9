"""Summarize campaign run manifests.

    python -m repro.obs.report results/obs/*.jsonl
    python -m repro.obs.report manifest.jsonl --json

Reads one or more JSONL manifests (see :mod:`repro.obs.manifest`) and
prints seven tables: per-cell timing, early stopping, checkpoint savings,
batched execution, compiled execution, worker balance, and service
sharding.  ``--json`` emits the same numbers machine-readably.
Exits non-zero if any manifest is missing or unparsable — or claims an
early stop its own round records do not justify (a stop whose final
margin is not below the configured target), so CI can gate on manifest
health.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments.report import format_table
from repro.obs.manifest import RunManifest, read_manifest


def _cell(manifest: RunManifest) -> str:
    h = manifest.header
    cell = f"{h.get('workload', '?')}/{h['tool']}/{h['category']}"
    # Tag non-default fault models so sweep manifests stay tellable
    # apart; bitflip cells keep their pre-registry cell names.
    model = h.get("model", "bitflip")
    if model != "bitflip":
        cell += f"[{model}]"
    return cell


def summarize(manifest: RunManifest) -> dict:
    """Flatten one manifest into the report's numbers."""
    h = manifest.header
    s = manifest.summary
    trials = manifest.trials
    n = len(trials) or 1
    wall = s.get("wall_s", 0.0)
    runs = sum(t["runs"] for t in trials)
    trial_instr = manifest.total_trial_instructions()
    skipped = manifest.total_skipped()
    restores = sum(t["ckpt_restores"] for t in trials)
    counters = s.get("counters") or {}
    # The golden tails converged runs did not simulate (an injector
    # counter, absent from manifests written before the convergence
    # exit).
    converged = counters.get(f"injector.{h['tool']}.converged", 0)
    tail = counters.get(f"injector.{h['tool']}.converged_instructions", 0)
    comp = s.get("compile") or {}
    shard_busy: dict = {}
    for shard in manifest.shards:
        w = shard_busy.setdefault(shard["worker"], 0.0)
        shard_busy[shard["worker"]] = w + shard["wall_s"]
    workers = {}
    for chunk in manifest.chunks:
        w = workers.setdefault(chunk["worker"], {"chunks": 0, "slots": 0,
                                                 "busy_s": 0.0})
        w["chunks"] += 1
        w["slots"] += len(chunk["slots"])
        w["busy_s"] += chunk["wall_s"]
    busy = [w["busy_s"] for w in workers.values()]
    n_stop = s.get("n_stop", len(trials))
    return {
        "cell": _cell(manifest),
        "model": h.get("model", "bitflip"),
        "trials": h["trials"],
        "seed": h["seed"],
        "activated": s.get("activated", 0),
        "not_activated": s.get("not_activated", 0),
        "injection_runs": runs,
        "wall_s": wall,
        # Slots executed, not the requested budget: an early-stopped
        # cell ran only ``n_stop`` of them.
        "trials_per_sec": (n_stop / wall) if wall else 0.0,
        "mean_trial_ms": 1000.0 * sum(t["wall_s"] for t in trials) / n,
        "golden_instructions": manifest.setup.get("golden_instructions", 0),
        "prep_instructions": manifest.setup.get("prep_instructions", 0),
        "trial_instructions": trial_instr,
        "total_instructions": manifest.total_instructions(),
        "ckpt_restores": restores,
        "ckpt_skipped": skipped,
        "converged": converged,
        "converged_instructions": tail,
        # What the same trials would have simulated without checkpoint
        # resume (the skipped prefixes and the converged tails), over
        # what they actually simulated.
        "ckpt_reduction": ((trial_instr + skipped + tail) / trial_instr
                           if trial_instr else 1.0),
        "workers": {str(pid): w for pid, w in sorted(workers.items())},
        "worker_balance": (min(busy) / max(busy)
                           if busy and max(busy) > 0 else 1.0),
        # Early stopping (schema v2; absent fields default to "not
        # adaptive" so the report keeps working on minimal manifests).
        "ci_margin": h.get("ci_margin", 0.0),
        "trials_requested": s.get("trials_requested", h["trials"]),
        "n_stop": n_stop,
        "stopped": s.get("stopped", False),
        "trials_saved": s.get("trials_saved", 0),
        "margin_at_stop": s.get("margin_at_stop"),
        "rounds": s.get("rounds", 0),
        "snapshot_decodes": counters.get("snapshot.decodes", 0),
        "snapshot_decoded_hits": counters.get("snapshot.decoded_hits", 0),
        # Batched execution (schema v3; zeros on non-batched manifests).
        "batch": h.get("batch", 0),
        "batch_groups": s.get("batch_groups", len(manifest.batches)),
        "batch_lanes": s.get("batch_lanes", 0),
        "batch_detached": s.get("batch_detached", 0),
        "batch_shared_instructions": s.get("batch_shared_instructions",
                                           manifest.total_batch_shared()),
        "cow_pages_shared": sum(b.get("pages_shared", 0)
                                for b in manifest.batches),
        "cow_pages_cow": sum(b.get("pages_cow", 0)
                             for b in manifest.batches),
        # Compiled execution (schema v4; absent block = pre-compile
        # writer, reported as disabled).
        "compile_enabled": comp.get("enabled", False),
        "blocks_compiled": comp.get("blocks_compiled", 0),
        "superinstructions": comp.get("superinstructions", 0),
        "compile_wall_s": comp.get("compile_wall_s", 0.0),
        "compiled_blocks": comp.get("compiled_blocks", 0),
        "fallback_blocks": comp.get("fallback_blocks", 0),
        # Service sharding (schema v6; empty on local manifests).
        "service_shards": (h.get("service") or {}).get("shards", 0),
        "shard_records": len(manifest.shards),
        "shard_workers": len(shard_busy),
        "shard_slots": sum(len(s["slots"]) for s in manifest.shards),
        "shards_primed": sum(1 for s in manifest.shards
                             if s.get("primed")),
        "shard_prep_executions": sum(s.get("prep_executions", 0)
                                     for s in manifest.shards),
        "shard_balance": (min(shard_busy.values())
                          / max(shard_busy.values())
                          if shard_busy and max(shard_busy.values()) > 0
                          else 1.0),
    }


def validate_stop_claims(manifest: RunManifest) -> List[str]:
    """Cross-check a manifest's early-stopping claim.

    A summary that says ``stopped`` must be backed by a nonzero target,
    a recorded ``margin_at_stop`` strictly below it, and a final round
    record that agrees.  Returns problem strings (empty = healthy)."""
    h, s = manifest.header, manifest.summary
    if not s.get("stopped"):
        return []
    problems = []
    target = h.get("ci_margin", 0.0)
    margin = s.get("margin_at_stop")
    if not target:
        problems.append("claims an early stop but ci_margin is 0")
    elif margin is None:
        problems.append("claims an early stop without a margin_at_stop")
    elif margin >= target:
        problems.append(f"claims an early stop at margin {margin} "
                        f">= target {target}")
    if manifest.rounds:
        final = max(manifest.rounds, key=lambda r: r.get("round", 0))
        if not final.get("stop"):
            problems.append("summary claims a stop but the final round "
                            "record does not")
    return problems


def render(summaries: List[dict]) -> str:
    timing_rows = [[
        s["cell"], s["trials"], s["activated"], s["injection_runs"],
        f"{s['wall_s']:.2f}s", f"{s['trials_per_sec']:.1f}",
        f"{s['mean_trial_ms']:.1f}ms",
    ] for s in summaries]
    sections = [format_table(
        ["Cell", "Trials", "Activated", "Runs", "Wall", "Trials/s",
         "Mean trial"],
        timing_rows, title="Campaign timing")]

    stop_rows = []
    for s in summaries:
        adaptive = s["ci_margin"] > 0
        margin = s["margin_at_stop"]
        stop_rows.append([
            s["cell"],
            f"{s['ci_margin']:g}" if adaptive else "off",
            s["trials_requested"], s["n_stop"],
            s["trials_saved"] if adaptive else "-",
            f"{margin:.4f}" if margin is not None else "-",
            s["rounds"] or "-",
            "yes" if s["stopped"] else "no",
        ])
    sections.append(format_table(
        ["Cell", "Target", "Requested", "n_stop", "Saved", "Margin@stop",
         "Rounds", "Stopped"],
        stop_rows, title="Early stopping (Wilson-CI margin)"))

    ckpt_rows = [[
        s["cell"], s["golden_instructions"], s["trial_instructions"],
        s["ckpt_restores"], s["ckpt_skipped"], s["converged"],
        s["converged_instructions"], f"{s['ckpt_reduction']:.2f}x",
    ] for s in summaries]
    sections.append(format_table(
        ["Cell", "Golden instr", "Trial instr", "Restores", "Skipped",
         "Converged", "Tail skipped", "Reduction"],
        ckpt_rows,
        title="Checkpoint savings (simulated instructions)"))

    batch_rows = []
    for s in summaries:
        if not s["batch"]:
            batch_rows.append([s["cell"], "off", "-", "-", "-", "-", "-",
                               "-"])
            continue
        lanes = s["batch_lanes"] + s["batch_detached"]
        batch_rows.append([
            s["cell"], s["batch"], s["batch_groups"], s["batch_lanes"],
            s["batch_detached"],
            f"{s['batch_lanes'] / lanes:.0%}" if lanes else "-",
            s["batch_shared_instructions"],
            (f"{s['cow_pages_cow'] / s['cow_pages_shared']:.0%}"
             if s["cow_pages_shared"] else "-"),
        ])
    sections.append(format_table(
        ["Cell", "Batch", "Groups", "Forked", "Detached", "Fork rate",
         "Shared instr", "COW rate"],
        batch_rows,
        title="Batched execution (shared sweeps + COW forks)"))

    compile_rows = []
    for s in summaries:
        if not s["compile_enabled"]:
            compile_rows.append([s["cell"], "off", "-", "-", "-", "-", "-"])
            continue
        dispatched = s["compiled_blocks"] + s["fallback_blocks"]
        fused = s["blocks_compiled"]
        compile_rows.append([
            s["cell"], s["blocks_compiled"], s["superinstructions"],
            f"{s['superinstructions'] / fused:.0%}" if fused else "-",
            (f"{s['fallback_blocks'] / dispatched:.1%}"
             if dispatched else "-"),
            f"{s['compile_wall_s'] * 1000:.1f}ms",
            (f"{s['compile_wall_s'] / s['wall_s']:.2%}"
             if s["wall_s"] else "-"),
        ])
    sections.append(format_table(
        ["Cell", "Blocks", "Fused", "Fused share", "Fallback rate",
         "Compile", "Overhead"],
        compile_rows,
        title="Compiled execution (threaded-code blocks)"))

    balance_rows = []
    for s in summaries:
        workers = s["workers"]
        if not workers:
            balance_rows.append([s["cell"], "in-process", "-", "-", "-"])
            continue
        busiest = max(workers.values(), key=lambda w: w["busy_s"])
        balance_rows.append([
            s["cell"], len(workers),
            sum(w["chunks"] for w in workers.values()),
            f"{busiest['busy_s']:.2f}s",
            f"{s['worker_balance']:.2f}",
        ])
    sections.append(format_table(
        ["Cell", "Workers", "Chunks", "Busiest", "Balance (min/max)"],
        balance_rows,
        title="Worker utilization"))

    shard_rows = []
    for s in summaries:
        if not s["shard_records"]:
            shard_rows.append([s["cell"], "local", "-", "-", "-", "-", "-"])
            continue
        shard_rows.append([
            s["cell"], s["service_shards"], s["shard_records"],
            s["shard_workers"],
            f"{s['shards_primed']}/{s['shard_records']}",
            s["shard_prep_executions"],
            f"{s['shard_balance']:.2f}",
        ])
    sections.append(format_table(
        ["Cell", "Shards", "Executed", "Workers", "Primed", "Prep runs",
         "Balance"],
        shard_rows,
        title="Service sharding (round-barrier shard protocol)"))
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("manifests", nargs="+",
                        help="JSONL run manifest(s) to summarize")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    args = parser.parse_args(argv)

    summaries = []
    unhealthy = False
    for path in args.manifests:
        try:
            manifest = read_manifest(path)
            summaries.append(summarize(manifest))
        except (OSError, ReproError, KeyError) as exc:
            print(f"error: cannot read manifest {path}: {exc}",
                  file=sys.stderr)
            return 1
        for problem in validate_stop_claims(manifest):
            print(f"error: {path}: {problem}", file=sys.stderr)
            unhealthy = True
    try:
        if args.json:
            print(json.dumps(summaries, indent=1, sort_keys=True))
        else:
            print(render(summaries))
    except BrokenPipeError:  # e.g. `... | head`: silence the shutdown flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1 if unhealthy else 0
    return 1 if unhealthy else 0


if __name__ == "__main__":
    sys.exit(main())
