"""Per-layer metrics of the traced run, measured from outside the program.

Three sources, all read after the traced pass:

* spans the benchmark recorded around public calls in its own process
  (compile, prep, campaign scheduling, store and client calls);
* the program's run manifests, written because the traced pass sets
  ``CampaignConfig.trace_dir`` (worker-side VM and engine numbers);
* the service store's ``jobs`` and ``shards`` rows.

A layer a workload does not exercise, or that is out of this process's
sight (the service's workers run the VM in other processes and write no
manifests), reads 0.  The metric names and units are the ``per_layer``
list of ``BENCHMARK.json``.
"""

from __future__ import annotations

import glob
import os
from typing import Dict, List, Sequence

from repro.obs import read_manifest

from spans import SpanRecorder, self_times
from stats import percentile, tail_percentile


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50(values: Sequence[float]) -> float:
    return percentile(values, 50) if values else 0.0


def _p75(values: Sequence[float]) -> float:
    """p75, or 0 when fewer than 10 samples would lie above it."""
    if (tail_percentile(len(values)) or 0) < 75:
        return 0.0
    return percentile(values, 75)


def _durations(spans: SpanRecorder, name: str, run: str) -> List[float]:
    return [s["end"] - s["start"] for s in spans.select(name, run)]


def _self_total(spans: SpanRecorder, name: str, run: str) -> float:
    own = self_times(s for s in spans.spans if s["run"] == run)
    return sum(own[s["id"]] for s in spans.select(name, run))


def result_layers(results: Sequence[dict], budget: int,
                  waits: Sequence[float]) -> Dict[str, float]:
    """Layers every workload reports from its results alone (one
    injection run per activated trial or redraw), and the tail of the
    untraced passes' cell ``waits``."""
    activated = sum(sum(r["counts"].values()) for r in results)
    runs = activated + sum(r["not_activated"] for r in results)
    slots = sum(r["trials"] for r in results)
    return {"vm.runs": runs, "campaign.slots": slots,
            "campaign.budget_frac": _ratio(slots, budget),
            "campaign.activation_yield": _ratio(activated, runs),
            "job_p75_s": _p75(waits)}


def manifest_layers(trace_dir: str, jobs: int) -> Dict[str, float]:
    """VM, engine and round counts from the run manifests in
    ``trace_dir``."""
    manifests = [read_manifest(path) for path in
                 sorted(glob.glob(os.path.join(trace_dir, "*.jsonl")))]
    trials = [t for m in manifests for t in m.trials]
    instr = sum(t["instructions"] for t in trials)
    skipped = sum(t["ckpt_skipped"] for t in trials)
    golden = sum(t["runs"] * m.setup["golden_instructions"]
                 for m in manifests for t in m.trials)
    counters: Dict[str, int] = {}
    for m in manifests:
        for name, value in m.summary.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    hits = counters.get("snapshot.decoded_hits", 0)
    compiled = sum(m.summary["compile"]["compiled_blocks"] for m in manifests)
    fallback = sum(m.summary["compile"]["fallback_blocks"] for m in manifests)
    # compile_wall_s is the program cache's running total in this
    # process, so take its last value per program.
    compile_s: Dict[str, float] = {}
    for m in manifests:
        for record in m.compiles:
            key = f"{m.header['workload']}/{record['tool']}"
            compile_s[key] = max(compile_s.get(key, 0.0),
                                 record["compile_wall_s"])
    chunk_wall = sum(c["wall_s"] for m in manifests for c in m.chunks)
    cell_wall = sum(m.summary["wall_s"] for m in manifests)
    pooled = jobs > 1
    workers = {c["worker"] for m in manifests for c in m.chunks}
    return {
        "vm.instr_per_run": _ratio(instr, golden),
        "vm.minstr_per_s": _ratio(instr, sum(t["wall_s"] for t in trials))
        / 1e6,
        "vm.ckpt_skip_frac": _ratio(skipped, skipped + instr),
        "vm.decode_hit_rate": _ratio(
            hits, hits + counters.get("snapshot.decodes", 0)),
        "vm.compiled_frac": _ratio(compiled, compiled + fallback),
        "vm.compile_s": sum(compile_s.values()),
        "vm.batch_lanes": sum(m.summary["batch_lanes"] for m in manifests),
        "campaign.rounds": sum(m.summary["rounds"] for m in manifests),
        "engine.pool_starts": len(workers) / jobs if pooled else 0.0,
        "engine.busy_frac": (_ratio(chunk_wall, jobs * cell_wall)
                             if pooled else 0.0),
        "engine.idle_s": jobs * cell_wall - chunk_wall if pooled else 0.0,
    }


def campaign_layers(spans: SpanRecorder, setup_run: str, traced_run: str,
                    prep: Dict[str, float], trace_dir: str,
                    jobs: int) -> Dict[str, float]:
    """compile/prep from the last setup's spans, VM and engine from the
    traced pass's manifests, campaign and store from its spans."""
    out = manifest_layers(trace_dir, jobs)
    out.update({
        "compile.minic_s": sum(_durations(spans, "compile.minic",
                                          setup_run)),
        "compile.backend_s": sum(_durations(spans, "compile.backend",
                                            setup_run)),
        "prep.golden_s": sum(_durations(spans, "prep.golden", setup_run)),
        "prep.ckpt_record_s": _self_total(spans, "prep.ckpt_record",
                                          setup_run),
        "prep.runs": prep["runs"],
        "prep.minstr": prep["minstr"],
        "prep.checkpoints": prep["checkpoints"],
        "campaign.slot_self_s": _self_total(spans, "campaign.slot",
                                            traced_run),
        "campaign.order_s": sum(_durations(spans, "campaign.order",
                                           traced_run)),
        "store.put_ms": _p50(_durations(spans, "store.put", traced_run))
        * 1e3,
        "store.get_ms": _p50(_durations(spans, "store.get", traced_run))
        * 1e3,
    })
    return out


def service_layers(spans: SpanRecorder, traced_run: str,
                   jobs: Dict[int, dict], shards: Dict[int, List[dict]],
                   warmup_jobs: Sequence[int], traced,
                   passes: Sequence) -> Dict[str, float]:
    """Service numbers from the store's rows, the client spans of the
    ``traced`` pass and the client-side latencies of the untraced
    ``passes``."""
    hit_ms = [ms for p in passes for ms in p.hit_ms]
    server = {job: row["finished"] - row["submitted"]
              for job, row in jobs.items() if row["finished"] is not None}
    lag = [seconds - server[job]
           for job, seconds in zip(traced.jobs, traced.waits)
           if job in server]
    timed_shards = [s for job in traced.jobs + traced.hit_jobs
                    for s in shards.get(job, ())]
    warm_payloads = [s["payload"] for job in warmup_jobs
                     for s in shards.get(job, ()) if s["payload"]]
    return {
        "prep.runs": sum(p["prep_executions"] for p in warm_payloads),
        "prep.minstr": sum(p["prep_instructions"]
                           for p in warm_payloads) / 1e6,
        "campaign.rounds": len({(s["job"], s["round"])
                                for s in timed_shards}),
        "service.hit_p50_ms": _p50(hit_ms),
        "service.hit_p75_ms": _p75(hit_ms),
        "service.submit_ms": _p50(_durations(spans, "service.submit",
                                             traced_run)) * 1e3,
        "service.fetch_ms": _p50(_durations(spans, "service.fetch",
                                            traced_run)) * 1e3,
        "service.server_s": _p50([server[job] for job in traced.jobs
                                  if job in server]),
        "service.poll_lag_ms": _p50(lag) * 1e3,
        "service.shard_busy_frac": _ratio(
            sum(s["wall_s"] or 0.0 for s in timed_shards), 2 * traced.wall),
        "service.prep_runs": sum(s["payload"]["prep_executions"]
                                 for s in timed_shards if s["payload"]),
        "service.cached_jobs": sum(1 for job in traced.hit_jobs
                                   if jobs.get(job, {}).get("cached")),
    }


def complete(partial: Dict[str, float],
             names: Sequence[str]) -> Dict[str, float]:
    """Every metric of ``names``, 0 where the workload has none."""
    unknown = set(partial) - set(names)
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {name: float(partial.get(name, 0.0)) for name in names}
