"""Shard worker: claim shards from a SQLite store and run them.

A worker is deliberately dumb: loop, atomically claim the next pending
shard of a running job (``SQLiteStore.claim_shard`` — a conditional
UPDATE, so two workers can never run the same shard), rebuild the
request, run its slot indices through
:func:`~repro.service.runtime.run_shard`, write the payload back.  The
store is the only channel — a worker never talks to the HTTP server, so
any process that can open the store file can contribute.

Prep dedup happens here: :func:`run_shard` primes the worker's injector
from the store's content-addressed prep artifact when a previous run
(any campaign over the same workload/tool/options) published one, and
publishes it after preparing otherwise.  A primed worker never
re-simulates the golden run.  Workers record golden-run checkpoints at
the experiments CLI's automatic stride unless the job's ``accel`` says
otherwise, so a primed worker pays exactly one preparation run per
injector per process, the checkpoint recording; every later shard of
that injector reports ``prep_executions == 0``.
"""

from __future__ import annotations

import os
import socket
import time
import traceback
from typing import Optional

from repro.fi.campaign import DEFAULT_CHECKPOINT_STRIDE, CampaignConfig
from repro.service.request import CampaignRequest
from repro.service.runtime import run_shard
from repro.service.store import SQLiteStore


def config_from_accel(accel: dict) -> CampaignConfig:
    """The worker-side accelerator config of one job (identity fields
    stay at their defaults — :meth:`CampaignRequest.to_config` only
    reads the accelerator knobs off this).  Checkpoints default to the
    experiments CLI's automatic stride; ``checkpoint_stride: 0`` asks
    for the scalar path."""
    return CampaignConfig(
        checkpoint_stride=int(accel.get("checkpoint_stride",
                                        DEFAULT_CHECKPOINT_STRIDE)),
        batch=int(accel.get("batch", 0)),
        no_compile=bool(accel.get("no_compile", False)))


def run_one_claim(store: SQLiteStore, claim: dict) -> None:
    """Execute one claimed shard and write its payload (or error) back."""
    t0 = time.perf_counter()
    try:
        request = CampaignRequest.from_json(claim["request"])
        payload = run_shard(request, claim["indices"], store=store,
                            config=config_from_accel(claim["accel"]))
        store.finish_shard(claim["job"], claim["round"], claim["shard"],
                           payload, payload["wall_s"])
    except Exception as exc:
        store.finish_shard(
            claim["job"], claim["round"], claim["shard"], None,
            time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}\n"
                  f"{traceback.format_exc(limit=5)}")


def worker_loop(store_path: str, poll_s: float = 0.1,
                idle_exit_s: Optional[float] = None,
                max_shards: Optional[int] = None) -> int:
    """Claim-and-run until killed (the normal service mode), idle for
    ``idle_exit_s`` seconds (batch mode), or ``max_shards`` shards done
    (tests).  Returns the number of shards executed."""
    store = SQLiteStore(store_path)
    name = f"{socket.gethostname()}:{os.getpid()}"
    executed = 0
    idle_since = time.monotonic()
    try:
        while True:
            claim = store.claim_shard(name)
            if claim is None:
                if idle_exit_s is not None and \
                        time.monotonic() - idle_since >= idle_exit_s:
                    break
                time.sleep(poll_s)
                continue
            run_one_claim(store, claim)
            executed += 1
            idle_since = time.monotonic()
            if max_shards is not None and executed >= max_shards:
                break
    except KeyboardInterrupt:
        pass
    finally:
        store.close()
    return executed
