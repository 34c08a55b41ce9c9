"""The campaign executors' parity contract: every executor — inline, the
process pool (with and without batching), in-process shards of any
partition and the service's store queue — returns a result
byte-identical to the local ``jobs=1`` run, for both tools, with and
without Wilson-CI early stopping.  This is the invariant that makes
every executor (the job-queue service included) a pure accelerator."""

import time
from typing import Callable, Dict

import pytest

from repro.errors import FaultInjectionError
from repro.fi import CampaignConfig, run_campaign
from repro.fi.campaign import CampaignResult, SlotResult, merge_slot_shards
from repro.fi.engine import injector_for_spec, run_parallel_campaign
from repro.service import CampaignRequest, SQLiteStore
from repro.service.runtime import (
    merge_shard_payloads, run_request_sharded, run_shard,
)
from repro.service.server import Coordinator
from repro.service.worker import run_one_claim

WORKLOAD = "libquantumm"
TRIALS = 8
SEED = 61

#: The (tool, mode) cells every executor must reproduce.
CELLS = [(tool, mode) for tool in ("LLFI", "PINFI")
         for mode in ("fixed", "adaptive")]


def _request(tool: str, mode: str) -> CampaignRequest:
    if mode == "adaptive":
        return CampaignRequest(workload=WORKLOAD, tool=tool, category="all",
                               trials=40, seed=SEED, ci_margin=0.3,
                               round_size=10)
    return CampaignRequest(workload=WORKLOAD, tool=tool, category="all",
                           trials=TRIALS, seed=SEED)


_LOCAL: Dict[CampaignRequest, dict] = {}


def _local(request: CampaignRequest) -> dict:
    """The reference: the local ``jobs=1`` result."""
    if request not in _LOCAL:
        _LOCAL[request] = run_parallel_campaign(
            request.injector_spec(), request.category,
            request.to_config()).to_json()
    return _LOCAL[request]


def _inline(request, tmp_path) -> CampaignResult:
    return run_campaign(injector_for_spec(request.injector_spec()),
                        request.category, request.to_config())


def _pool(batch: int) -> Callable:
    def run(request, tmp_path) -> CampaignResult:
        return run_parallel_campaign(
            request.injector_spec(), request.category,
            request.to_config(like=CampaignConfig(jobs=2, batch=batch)))
    return run


def _shards(count: int) -> Callable:
    return lambda request, tmp_path: run_request_sharded(request, count)


def _store_queue(request, tmp_path) -> CampaignResult:
    """An in-thread coordinator over a fresh SQLite store, with this
    thread as the only shard worker."""
    deadline = time.monotonic() + 120
    with SQLiteStore(str(tmp_path / f"{request.key()}.db")) as store:
        job_id = store.create_job(request, shards=2)
        coordinator = Coordinator(store, poll_s=0.01)
        coordinator.start()
        try:
            while store.job(job_id)["state"] in ("queued", "running"):
                assert time.monotonic() < deadline, store.job(job_id)
                claim = store.claim_shard("test-worker")
                if claim is None:
                    time.sleep(0.01)
                else:
                    run_one_claim(store, claim)
        finally:
            coordinator.shutdown()
        assert not coordinator.is_alive()
        job = store.job(job_id)
        assert job["state"] == "done", job["error"]
        return store.get_result(request)


#: Every campaign executor, by test id; the in-process
#: shard executor appears once per shard count ("1", "2", "5").
EXECUTORS = {
    "inline": _inline,
    "pool": _pool(batch=0),
    "pool-batch3": _pool(batch=3),
    "1": _shards(1),
    "2": _shards(2),
    "5": _shards(5),
    "store": _store_queue,
}


class TestShardIdentity:
    @pytest.mark.parametrize("executor", list(EXECUTORS))
    def test_any_partition_matches_local(self, executor, tmp_path,
                                         built_workloads):
        for tool, mode in CELLS:
            request = _request(tool, mode)
            result = EXECUTORS[executor](request, tmp_path)
            assert result.to_json() == _local(request), (tool, mode)
            if mode == "adaptive":
                # The margin stops well before the 40-trial budget, so
                # the stop decision itself is under test.
                assert result.trials < request.trials

    def test_pinfi_partition_matches_local(self, built_workloads):
        """Three shards split the 8 trials unevenly (3/3/2)."""
        request = _request("PINFI", "fixed")
        assert run_request_sharded(request, 3).to_json() == _local(request)

    def test_adaptive_partition_matches_local(self, built_workloads):
        """Early stopping decides at round barriers on the merged prefix,
        so the stopped sharded campaign equals the stopped local one —
        same n_stop, same result bytes — even when the shard count does
        not divide the round size."""
        request = _request("LLFI", "adaptive")
        sharded = run_request_sharded(request, 3)
        assert sharded.to_json() == _local(request)
        assert sharded.trials < request.trials

    def test_single_shard_payload_round_trips(self, built_workloads):
        req = CampaignRequest(workload=WORKLOAD, tool="LLFI",
                              category="all", trials=4, seed=SEED)
        payload = run_shard(req, range(4))
        slots, candidates, golden = merge_shard_payloads([payload])
        assert [s.index for s in slots] == [0, 1, 2, 3]
        assert candidates > 0 and golden > 0


class TestMergeValidation:
    def test_overlapping_shards_rejected(self):
        a = [SlotResult(index=0, trial=None, not_activated=0),
             SlotResult(index=1, trial=None, not_activated=0)]
        b = [SlotResult(index=1, trial=None, not_activated=0)]
        with pytest.raises(FaultInjectionError) as err:
            merge_slot_shards([a, b])
        assert "two shards" in str(err.value)

    def test_disagreeing_setup_scalars_rejected(self, built_workloads):
        req = CampaignRequest(workload=WORKLOAD, tool="LLFI",
                              category="all", trials=4, seed=SEED)
        payload = run_shard(req, range(2))
        other = dict(payload, candidates=payload["candidates"] + 1)
        with pytest.raises(FaultInjectionError) as err:
            merge_shard_payloads([payload, other])
        assert "disagree" in str(err.value)

    def test_empty_merge_rejected(self):
        with pytest.raises(FaultInjectionError):
            merge_shard_payloads([])

    def test_wrong_payload_schema_rejected(self, built_workloads):
        req = CampaignRequest(workload=WORKLOAD, tool="LLFI",
                              category="all", trials=4, seed=SEED)
        payload = dict(run_shard(req, range(2)), schema=99)
        with pytest.raises(FaultInjectionError) as err:
            merge_shard_payloads([payload])
        assert "schema" in str(err.value)
