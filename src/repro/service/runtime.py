"""Service runtime: execute campaign requests and shards against a store.

Three layers, all built on the campaign invariants proven in
:mod:`repro.fi.campaign`:

* **prep artifacts** — an injector's preparation work (the golden run and
  the one-pass per-category profiling counts) depends only on (workload,
  tool, injector options), never on the campaign cell.  After any run the
  pair is persisted content-addressed under the request's
  :meth:`~repro.service.request.CampaignRequest.prep_ref`; before any run
  it is adopted back (:meth:`BaseInjector.adopt_prep`), so overlapping
  campaigns against one SQLite store simulate each golden run exactly
  once.  Checkpoint snapshots are deliberately *not* persisted: they
  reference live IR/machine objects (see :mod:`repro.vm.snapshot`) and
  are in-process accelerators only, so a checkpointed worker records
  them itself, once per injector per process.

* :func:`run_request` — the cache-through entry point: store hit, else
  prime, run through the parallel engine, persist prep + result.

* :func:`run_shard` / :func:`drive_shards` — the shard protocol, the
  shard executor of the campaign round barrier.  A shard executes an arbitrary
  subset of one round's slot indices through
  :func:`~repro.fi.campaign.run_slot_subset` and returns a JSON payload
  (slots + the setup scalars + prep accounting).  :func:`drive_shards`
  hands each round of that barrier
  (:func:`~repro.fi.campaign.run_rounds`) to shards, merges their
  payloads with :func:`merge_shard_payloads` and aggregates with
  :func:`~repro.fi.campaign.merged_result` — so the sharded result is
  bit-identical to ``jobs=1`` by construction.  Where the shards run is
  the caller's choice: in this process (:func:`run_request_sharded`,
  the protocol's test reference) or on store workers (the HTTP
  coordinator in :mod:`repro.service.server`).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.fi.base import BaseInjector
from repro.fi.campaign import (
    CampaignConfig, CampaignResult, PrepStats, RunRecords, SlotResult,
    build_run_manifest, merge_slot_shards, merged_result, prep_delta,
    prepare_campaign, run_rounds, run_slot_subset, slot_from_json,
    slot_to_json, snapshot_prep, write_campaign_manifest,
)
from repro.fi.engine import injector_for_spec, run_parallel_campaign
from repro.service.request import CampaignRequest, split_shard_indices
from repro.service.store import CampaignStore, as_store
from repro.vm.result import ExecutionResult

#: Schema of prep artifacts and shard payloads; bump on any field change.
PREP_SCHEMA_VERSION = 1
SHARD_SCHEMA_VERSION = 1


def _golden_to_json(golden: ExecutionResult) -> dict:
    # Only completed goldens are ever persisted, so ``trap`` is None by
    # construction and the payload stays pure JSON.
    return {"status": golden.status, "output": golden.output,
            "instructions": golden.instructions,
            "exit_value": golden.exit_value}


def _golden_from_json(data: dict) -> ExecutionResult:
    return ExecutionResult(status=data["status"], trap=None,
                           output=data["output"],
                           instructions=data["instructions"],
                           exit_value=data["exit_value"])


def persist_prep(injector: BaseInjector, store: CampaignStore,
                 request: CampaignRequest) -> None:
    """Publish the injector's memoised preparation work to the store.

    Call after a campaign (the memos are then warm, so this performs no
    runs).  A no-op on stores without artifact support and for goldens
    that did not complete."""
    golden = injector.golden_cached()
    if not golden.completed:
        return
    store.put_artifact(request.prep_ref(), {
        "schema": PREP_SCHEMA_VERSION,
        "golden": _golden_to_json(golden),
        "counts": injector.dynamic_counts(),
    })


def prime_injector(injector: BaseInjector, store: CampaignStore,
                   request: CampaignRequest) -> bool:
    """Adopt the request's prep artifact into the injector's memos, if
    the store has one.  Returns True when the injector was primed — its
    next ``prepare_campaign`` then runs neither the golden run nor the
    profiling pass; with checkpoints on, the recording is its only
    preparation run."""
    payload = store.get_artifact(request.prep_ref())
    if payload is None or payload.get("schema") != PREP_SCHEMA_VERSION:
        return False
    injector.adopt_prep(_golden_from_json(payload["golden"]),
                        payload["counts"])
    return True


def run_request(request: CampaignRequest,
                store: Optional[CampaignStore] = None,
                config: Optional[CampaignConfig] = None,
                stats: Optional[dict] = None) -> CampaignResult:
    """Cache-through execution of one campaign request.

    Store hit returns immediately; otherwise the request runs through the
    parallel engine under ``config``'s accelerator knobs (identity fields
    always come from the request — see
    :meth:`CampaignRequest.to_config`), and both the result and the prep
    artifact are persisted.  ``stats``, when given, receives ``cached`` /
    ``primed`` / ``prep_executions`` — the run accounting the dedup tests
    and the service's job records are built on."""
    store = as_store(store)
    if stats is None:
        stats = {}
    cached = store.get_result(request)
    if cached is not None:
        stats.update(cached=True, primed=False, prep_executions=0)
        return cached
    injector = injector_for_spec(request.injector_spec())
    primed = prime_injector(injector, store, request)
    run_config = request.to_config(like=config)
    # Prepare before the engine run so ``stats`` isolates the preparation
    # cost (the memoised setup is what the engine reuses anyway).
    baseline = snapshot_prep(injector)
    prepare_campaign(injector, request.category, run_config)
    prep = prep_delta(injector, baseline)
    result = run_parallel_campaign(request.injector_spec(),
                                   request.category, run_config)
    persist_prep(injector, store, request)
    store.put_result(request, result)
    stats.update(cached=False, primed=primed,
                 prep_executions=prep.executions)
    return result


# -- the shard protocol --------------------------------------------------------

def run_shard(request: CampaignRequest, indices: Sequence[int],
              store: Optional[CampaignStore] = None,
              config: Optional[CampaignConfig] = None) -> dict:
    """Worker side: execute one shard — a subset of slot indices — and
    return its JSON payload.

    The worker primes its injector from the store's prep artifact when
    one exists (first worker in publishes it for the rest), prepares the
    campaign, and runs exactly the per-slot streams a local run would run
    at these indices.  The payload carries the slots, the setup scalars
    the coordinator needs to aggregate without a live injector, and the
    prep accounting that proves dedup."""
    injector = injector_for_spec(request.injector_spec())
    primed = False
    if store is not None:
        primed = prime_injector(injector, store, request)
    run_config = request.to_config(like=config)
    baseline = snapshot_prep(injector)
    t0 = time.perf_counter()
    setup = prepare_campaign(injector, request.category, run_config)
    prep = prep_delta(injector, baseline)
    if store is not None:
        persist_prep(injector, store, request)
    # A shard's payload carries no scheduling records: round 0 and a
    # throwaway accumulator.
    slots = run_slot_subset(injector, request.category, setup, run_config,
                            indices, 0, RunRecords())
    return {
        "schema": SHARD_SCHEMA_VERSION,
        "tool": request.tool,
        "category": request.category,
        "indices": list(indices),
        "slots": [slot_to_json(slot) for slot in slots],
        "candidates": setup.candidates,
        "golden_instructions": setup.golden.instructions,
        "primed": primed,
        "prep_executions": prep.executions,
        "prep_instructions": prep.instructions,
        "worker": os.getpid(),
        "wall_s": round(time.perf_counter() - t0, 6),
    }


def shard_record(payload: dict, round_no: int, shard_no: int) -> dict:
    """Manifest ``shard`` record of one shard payload (schema v6: worker
    attribution plus the shard's own preparation accounting)."""
    return {"round": round_no, "shard": shard_no,
            "worker": payload["worker"],
            "slots": list(payload["indices"]),
            "wall_s": payload["wall_s"],
            "primed": payload["primed"],
            "prep_executions": payload["prep_executions"],
            "prep_instructions": payload["prep_instructions"]}


def merge_shard_payloads(payloads: Sequence[dict],
                         ) -> Tuple[List[SlotResult], int, int]:
    """Coordinator side: validate and merge shard payloads into
    (index-ordered slots, dynamic candidates, golden instructions).

    Every payload must agree on the setup scalars — a mismatch means the
    shards did not run the same campaign cell and the merge would be
    silently wrong, so it is a hard error."""
    if not payloads:
        raise FaultInjectionError("no shard payloads to merge")
    scalars = {(p.get("schema"), p["candidates"], p["golden_instructions"])
               for p in payloads}
    if len(scalars) != 1:
        raise FaultInjectionError(
            f"shard payloads disagree on campaign setup: {sorted(scalars)}")
    schema, candidates, golden_instructions = next(iter(scalars))
    if schema != SHARD_SCHEMA_VERSION:
        raise FaultInjectionError(
            f"unsupported shard payload schema {schema!r}: this build "
            f"reads schema {SHARD_SCHEMA_VERSION}")
    slots = merge_slot_shards([[slot_from_json(s) for s in p["slots"]]
                               for p in payloads])
    return slots, candidates, golden_instructions


def drive_shards(request: CampaignRequest, config: CampaignConfig,
                 shards: int,
                 run_shards: Callable[[int, List[List[int]]], List[dict]],
                 records: RunRecords,
                 ) -> Tuple[List[SlotResult], CampaignResult]:
    """The shard executor of the campaign round barrier: each round's slot
    indices are split into ``shards`` contiguous pieces
    (:func:`split_shard_indices`), ``run_shards(round_no, partitions)``
    runs them wherever the caller runs shards and returns one payload
    per partition, and the merged payload slots go back to the round
    barrier.  Returns the slots and their
    :func:`~repro.fi.campaign.merged_result`, aggregated from the
    payloads' setup scalars — no live injector needed.  Appends one
    ``shard`` record per payload to ``records``."""
    scalars: Dict[str, int] = {}

    def run_round(round_no: int, indices: Sequence[int]) -> List[SlotResult]:
        payloads = run_shards(round_no, split_shard_indices(indices, shards))
        records.shards += [shard_record(p, round_no, i)
                           for i, p in enumerate(payloads)]
        slots, scalars["candidates"], scalars["golden"] = \
            merge_shard_payloads(payloads)
        return slots

    slots = run_rounds(config, run_round, records)
    return slots, merged_result(request.tool, request.category, slots,
                                scalars["candidates"], scalars["golden"])


def run_request_sharded(request: CampaignRequest, shards: int,
                        store: Optional[CampaignStore] = None,
                        config: Optional[CampaignConfig] = None,
                        ) -> CampaignResult:
    """The shard protocol entirely in-process — its test reference: each
    round's ``shards`` partitions run one after another through
    :func:`run_shard`.  Bit-identical to a local ``jobs=1`` run for any
    shard count (asserted by ``tests/service/test_shard_merge.py``).

    When the config traces (``trace_dir``), a schema-v6 run manifest is
    written with one ``shard`` record per executed shard and a
    ``service`` header block — the observability trail of a sharded
    run."""
    run_config = request.to_config(like=config)
    t0 = time.perf_counter()
    records = RunRecords()
    slots, result = drive_shards(
        request, run_config, shards,
        lambda round_no, partitions: [
            run_shard(request, part, store=store, config=config)
            for part in partitions],
        records)
    if run_config.trace_dir:
        # The shard runner is in-process, so the (memoised) injector and
        # setup are at hand; prep cost is the sum the shards reported.
        injector = injector_for_spec(request.injector_spec())
        setup = prepare_campaign(injector, request.category, run_config)
        prep = PrepStats(
            executions=sum(s["prep_executions"] for s in records.shards),
            instructions=sum(s["prep_instructions"] for s in records.shards))
        manifest = build_run_manifest(
            injector, request.category, run_config, setup, slots, result,
            prep, wall_s=time.perf_counter() - t0, records=records,
            service={"shards": shards})
        write_campaign_manifest(manifest, run_config.trace_dir)
    return result
