"""Parallel campaign engine: the process-pool executor of the campaign
round barrier.

Campaign trials are independent by construction (each slot owns a
deterministic RNG stream, see ``repro.fi.campaign``), so a campaign
parallelises perfectly.  :func:`run_parallel_campaign` drives the same
round barrier as the in-process path (``drive_campaign`` ->
``run_rounds``); only where a round's slots run differs.  The parent
bucket-orders each round (``order_round``) and cuts it into contiguous
chunks; each worker runs its chunk through ``run_slot_subset`` — the
unit of work inline rounds and service shards run too, so batch groups
form per chunk — and the parent merges the ``SlotResult`` stream.
``jobs=1`` and ``jobs=N`` are bit-identical: both execute the same
per-slot streams and the merge sorts by slot index.

Workers never receive simulator state: injector candidate sets are keyed by
``id()`` and would not survive pickling.  Instead each worker rebuilds the
injector from an :class:`InjectorSpec` (workload registry name + tool +
options) and caches it per process — workloads compile deterministically
from source, so rebuild-in-worker is correct.  The fault model travels the
same way: ``CampaignConfig.fault_model`` is a registry spec string, and
each worker's ``prepare_campaign`` resolves it locally, so model identity
never depends on pickled object state.  On platforms with ``fork``
the parent builds, goldens and profiles the injector *before* the pool is
created, so workers inherit those caches and perform no redundant
whole-program runs at all; the pool is re-forked when a spec it has not
inherited shows up.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FaultInjectionError
from repro.fi.base import BaseInjector
from repro.fi.campaign import (
    CampaignConfig, CampaignResult, CampaignSetup, RunRecords, SlotResult,
    drive_campaign, order_round, prepare_campaign, run_campaign,
    run_slot_subset,
)
# Not called here: benchmarks/e2e/spans.py wraps these names on this
# module as well as on repro.fi.campaign, and fails on a missing one.
from repro.fi.campaign import (  # noqa: F401
    order_round_batches, run_trial_slot,
)
from repro.fi.llfi import LLFIInjector, LLFIOptions
from repro.fi.pinfi import PINFIInjector, PINFIOptions
from repro.obs import NULL_RECORDER, recording

#: Chunks handed out per worker; >1 smooths load imbalance between chunks
#: (individual injection runs vary in length — crashes are short).
_CHUNKS_PER_JOB = 4


@dataclass(frozen=True)
class InjectorSpec:
    """Everything needed to rebuild an injector from scratch in a worker."""

    workload: str
    tool: str  # "LLFI" | "PINFI"
    llfi_options: Optional[LLFIOptions] = None
    pinfi_options: Optional[PINFIOptions] = None

    def key(self) -> str:
        return repr(self)

    def build(self) -> BaseInjector:
        from repro.workloads import build
        built = build(self.workload)
        if self.tool == "LLFI":
            injector: BaseInjector = LLFIInjector(built.module,
                                                  self.llfi_options)
        elif self.tool == "PINFI":
            injector = PINFIInjector(built.program, self.pinfi_options)
        else:
            raise FaultInjectionError(f"unknown tool {self.tool!r}")
        injector.workload_name = self.workload
        return injector


#: Per-process injector cache (parent and workers alike). With a forked
#: pool, entries built in the parent before the fork are inherited.
_INJECTORS: Dict[str, BaseInjector] = {}


def injector_for_spec(spec: InjectorSpec) -> BaseInjector:
    key = spec.key()
    injector = _INJECTORS.get(key)
    if injector is None:
        injector = spec.build()
        _INJECTORS[key] = injector
    return injector


def forget_workload(workload: str) -> None:
    """Evict every cached injector for a workload (parent process only).

    Needed when a workload name is reused with different source — e.g.
    the differential fuzzer registers each generated program under a
    temporary name. The pool warm-set is reset too, so a later parallel
    campaign re-forks rather than trusting stale inherited caches."""
    stale = [key for key, inj in _INJECTORS.items()
             if inj.workload_name == workload
             or f"workload={workload!r}" in key]
    for key in stale:
        del _INJECTORS[key]
    if stale and _POOL is not None:
        shutdown_pool()


def _run_chunk(task: Tuple[InjectorSpec, str, CampaignConfig, int,
                             List[int]]
               ) -> Tuple[List[SlotResult], List[dict], Optional[dict]]:
    """Worker entry point: run one chunk of a round's bucket-ordered slot
    indices through :func:`~repro.fi.campaign.run_slot_subset`.

    Returns the slot results, the chunk's batch records (group ids
    counted from 0 within the chunk) and, when the campaign traces, a
    chunk record (worker PID, slot indices, wall time, recorder counters)
    for the run manifest.  Workers never write manifests themselves — the
    parent merges chunk records deterministically."""
    spec, category, config, round_no, indices = task
    injector = injector_for_spec(spec)
    records = RunRecords()
    t0 = time.perf_counter()
    with recording() if config.tracing else nullcontext(NULL_RECORDER) \
            as rec:
        setup = prepare_campaign(injector, category, config)
        slots = run_slot_subset(injector, category, setup, config, indices,
                                round_no, records)
    info = None
    if config.tracing:
        info = {"worker": os.getpid(), "slots": list(indices),
                "wall_s": round(time.perf_counter() - t0, 6),
                "counters": rec.counters_snapshot()}
    return slots, records.batches, info


def _warm_key(spec_key: str, injector: BaseInjector) -> str:
    """What a forked worker must have inherited to skip redundant work:
    the built injector (with its golden/profiling memos) *and* its
    checkpoint store for the requested stride policy."""
    return f"{spec_key}|ckpt={injector.checkpoint_request}"


# -- pool management -----------------------------------------------------------

_POOL = None
_POOL_JOBS = 0
#: Spec keys the parent had built when the current pool forked (workers
#: inherited them); an unseen spec forces a cheap re-fork so workers never
#: redo golden/profiling runs the parent already has.
_POOL_WARM: Set[str] = set()


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else None
    return multiprocessing.get_context(method)


def shutdown_pool() -> None:
    """Tear down the worker pool (tests; atexit)."""
    global _POOL, _POOL_JOBS, _POOL_WARM
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
    _POOL = None
    _POOL_JOBS = 0
    _POOL_WARM = set()


atexit.register(shutdown_pool)


def _get_pool(jobs: int, spec_key: str):
    global _POOL, _POOL_JOBS, _POOL_WARM
    if _POOL is not None and (_POOL_JOBS != jobs
                              or spec_key not in _POOL_WARM):
        shutdown_pool()
    if _POOL is None:
        _POOL = _pool_context().Pool(processes=jobs)
        _POOL_JOBS = jobs
        _POOL_WARM = {_warm_key(key, injector)
                      for key, injector in _INJECTORS.items()}
    return _POOL


def resolve_jobs(jobs: Optional[int]) -> int:
    """<=0 or None means one worker per CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _chunk_list(indices: List[int], jobs: int) -> List[List[int]]:
    """Split pre-ordered slot indices into contiguous chunks.  Contiguity
    matters: the indices arrive bucket-ordered, so a contiguous chunk
    spans few checkpoint buckets and its worker reuses few snapshot
    decodes."""
    n = len(indices)
    nchunks = max(1, min(n, jobs * _CHUNKS_PER_JOB))
    size = -(-n // nchunks)  # ceil
    return [indices[i:i + size] for i in range(0, n, size)]


def run_parallel_campaign(spec: InjectorSpec, category: str,
                          config: Optional[CampaignConfig] = None,
                          jobs: Optional[int] = None) -> CampaignResult:
    """Run one (tool, category) campaign, fanned out over ``jobs`` workers.

    ``jobs`` defaults to ``config.jobs``; 1 runs in-process (no pool).
    The result is bit-identical for every job count: rounds, stop
    decisions and per-slot streams are all functions of the config alone.
    Each round's bucket-ordered indices are chunked contiguously over the
    pool; the stop decision is evaluated in the parent on the full slot
    prefix after every round, by the same round barrier as the in-process
    path."""
    config = config or CampaignConfig()
    jobs = resolve_jobs(config.jobs if jobs is None else jobs)
    injector = injector_for_spec(spec)
    if jobs <= 1 or config.trials <= 1:
        return run_campaign(injector, category, config)

    def execute(setup: CampaignSetup, records: RunRecords, round_no: int,
                indices: Sequence[int]) -> List[SlotResult]:
        # drive_campaign prepares (build + golden + profile + checkpoints) in
        # the parent before the first round, so a pool forked here
        # inherits those caches and workers skip them entirely.
        pool = _get_pool(jobs, _warm_key(spec.key(), injector))
        ordered, buckets = order_round(injector, category, setup, config,
                                       round_no, indices)
        records.buckets.extend(buckets)
        tasks = [(spec, category, config, round_no, chunk)
                 for chunk in _chunk_list(ordered, jobs)]
        slots: List[SlotResult] = []
        groups = 0
        for chunk_slots, batches, info in pool.map(_run_chunk, tasks):
            slots.extend(chunk_slots)
            # Renumber the chunk's batch groups so ``group`` stays a
            # per-round ordinal across chunks.
            for batch in batches:
                batch["group"] += groups
            groups += len(batches)
            records.batches.extend(batches)
            if info is not None:
                if batches:
                    info["batches"] = [b["group"] for b in batches]
                records.counters.append(info.pop("counters"))
                info["chunk"] = len(records.chunks)
                records.chunks.append(info)
        return slots

    return drive_campaign(injector, category, config, execute)
