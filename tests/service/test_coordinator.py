"""The coordinator runs several jobs' round barriers at once.

One store-backed :class:`Coordinator` with this test's thread as the only
shard worker: a second job is admitted as soon as no shard of a running
job is pending, so its shards appear while the first job's round is still
running; cancelling, failing or shutting down one job leaves the other
alone; and a cancel is never overwritten by the coordinator.  Every wait
and join is bounded."""

import contextlib
import sys
import threading
import time
from typing import Callable

import pytest

from repro.fi.engine import run_parallel_campaign
from repro.service import CampaignRequest, SQLiteStore
from repro.service import server
from repro.service.server import Coordinator
from repro.service.worker import run_one_claim

WORKLOAD = "libquantumm"
TRIALS = 6
SEED = 83
TIMEOUT_S = 120
#: Long enough for many admission checks at the tests' 10 ms poll.
ADMISSION_CHECKS_S = 0.2


def _req(tool: str) -> CampaignRequest:
    return CampaignRequest(workload=WORKLOAD, tool=tool, category="all",
                           trials=TRIALS, seed=SEED)


def _local(request: CampaignRequest) -> dict:
    return run_parallel_campaign(request.injector_spec(), request.category,
                                 request.to_config()).to_json()


def _until(condition: Callable[[], bool], what: str) -> None:
    deadline = time.monotonic() + TIMEOUT_S
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _work_until(store: SQLiteStore, condition: Callable[[], bool],
                what: str) -> None:
    """Be the shard worker until ``condition`` holds."""
    deadline = time.monotonic() + TIMEOUT_S
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        claim = store.claim_shard("test-worker")
        if claim is None:
            time.sleep(0.01)
        else:
            run_one_claim(store, claim)


def _barrier_threads() -> list:
    return [t for t in threading.enumerate()
            if t.name.startswith("campaign-job-") and t.is_alive()]


def _state(store: SQLiteStore, job_id: int) -> str:
    return store.job(job_id)["state"]


def _finished(store: SQLiteStore, *job_ids: int) -> Callable[[], bool]:
    return lambda: all(_state(store, j) not in ("queued", "running")
                       for j in job_ids)


@contextlib.contextmanager
def _coordinator(store: SQLiteStore):
    coordinator = Coordinator(store, poll_s=0.01)
    coordinator.start()
    try:
        yield coordinator
    finally:
        coordinator.shutdown()
        assert not coordinator.is_alive()
    assert not _barrier_threads()


@pytest.fixture
def store(tmp_path):
    with SQLiteStore(str(tmp_path / "queue.db")) as s:
        yield s


def _admit_both(store: SQLiteStore, first: int, second: int) -> list:
    """Wait for the first job's round 0, claim both its shards (so none
    is pending) and wait for the second job's shards to appear; returns
    the two unfinished claims."""
    _until(lambda: len(store.shards_for(first)) == 2, "round 0 of job 1")
    # While the first job's shards are pending the second is not
    # admitted, however many admission checks pass.
    time.sleep(ADMISSION_CHECKS_S)
    assert _state(store, second) == "queued"
    assert store.shards_for(second) == []
    claims = [store.claim_shard("w1"), store.claim_shard("w2")]
    assert [c["job"] for c in claims] == [first, first]
    _until(lambda: len(store.shards_for(second)) == 2,
           "job 2's shards while job 1's round runs")
    assert [s["state"] for s in store.shards_for(first)] == \
        ["claimed", "claimed"]
    return claims


class TestConcurrentBarriers:
    def test_second_job_runs_beside_the_first(self, store,
                                              built_workloads):
        first, second = _req("LLFI"), _req("PINFI")
        a = store.create_job(first, shards=2)
        b = store.create_job(second, shards=2)
        with _coordinator(store):
            claims = _admit_both(store, a, b)
            for claim in claims:
                run_one_claim(store, claim)
            _work_until(store, _finished(store, a, b), "both jobs")
        assert _state(store, a) == "done" and _state(store, b) == "done"
        assert store.get_result(first).to_json() == _local(first)
        assert store.get_result(second).to_json() == _local(second)

    def test_cancel_one_of_two_running_jobs(self, store, built_workloads):
        first, second = _req("LLFI"), _req("PINFI")
        a = store.create_job(first, shards=2)
        b = store.create_job(second, shards=2)
        with _coordinator(store):
            claims = _admit_both(store, a, b)
            assert store.request_cancel(a)
            for claim in claims:  # finish late; ignored
                run_one_claim(store, claim)
            _work_until(store, _finished(store, b), "job 2")
        assert _state(store, a) == "cancelled"
        assert store.get_result(first) is None
        assert _state(store, b) == "done"
        assert store.get_result(second).to_json() == _local(second)

    def test_shutdown_requeues_every_running_job(self, store,
                                                 built_workloads):
        a = store.create_job(_req("LLFI"), shards=2)
        b = store.create_job(_req("PINFI"), shards=2)
        coordinator = Coordinator(store, poll_s=0.01)
        coordinator.start()
        try:
            _admit_both(store, a, b)
            assert len(_barrier_threads()) == 2
        finally:
            coordinator.shutdown()
        assert not coordinator.is_alive()
        assert not _barrier_threads()
        for job_id in (a, b):
            assert _state(store, job_id) == "queued"
            assert store.shards_for(job_id) == []

    def test_exception_fails_only_its_job(self, store, monkeypatch,
                                          built_workloads):
        real = server.drive_shards

        def drive(request, *args):
            if request.tool == "LLFI":
                raise RuntimeError("injected coordinator bug")
            return real(request, *args)

        monkeypatch.setattr(server, "drive_shards", drive)
        first, second = _req("LLFI"), _req("PINFI")
        a = store.create_job(first, shards=2)
        b = store.create_job(second, shards=2)
        with _coordinator(store) as coordinator:
            _work_until(store, _finished(store, a, b), "both jobs")
            assert coordinator.is_alive()
        job = store.job(a)
        assert job["state"] == "failed"
        assert "RuntimeError: injected coordinator bug" in job["error"]
        assert _state(store, b) == "done"
        assert store.get_result(second).to_json() == _local(second)

    def test_job_before_its_first_round_counts_as_pending(self, store,
                                                          monkeypatch):
        """Between a job's admission and its first shards there is
        nothing pending in the queue, yet the next job must wait."""
        create_shards = store.create_shards
        entered, release = threading.Event(), threading.Event()

        def slow_create_shards(*args):
            entered.set()
            release.wait(timeout=TIMEOUT_S)
            create_shards(*args)

        monkeypatch.setattr(store, "create_shards", slow_create_shards)
        a = store.create_job(_req("LLFI"), shards=2)
        b = store.create_job(_req("PINFI"), shards=2)
        with _coordinator(store):
            assert entered.wait(timeout=TIMEOUT_S)
            time.sleep(ADMISSION_CHECKS_S)
            assert _state(store, a) == "running"
            assert _state(store, b) == "queued"
            release.set()
            _until(lambda: len(store.shards_for(a)) == 2, "job 1's shards")
            time.sleep(ADMISSION_CHECKS_S)
            assert _state(store, b) == "queued"

    def test_many_jobs_under_thread_switch_stress(self, store,
                                                 built_workloads):
        """Eight jobs, fixed and early-stopping, through one coordinator
        with the interpreter switching threads every few microseconds:
        each ends ``done`` with the local result, and no barrier thread
        outlives the coordinator."""
        requests = [CampaignRequest(workload=WORKLOAD, tool=tool,
                                    category="all", trials=12, seed=seed,
                                    ci_margin=margin, round_size=4)
                    for tool in ("LLFI", "PINFI") for seed in (1, 2)
                    for margin in (0.0, 0.45)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [store.create_job(r, shards=2) for r in requests]
            with _coordinator(store):
                _work_until(store, _finished(store, *jobs), "every job")
        finally:
            sys.setswitchinterval(interval)
        for job_id, request in zip(jobs, requests):
            assert _state(store, job_id) == "done", store.job(job_id)
            assert store.get_result(request).to_json() == _local(request)


class TestCancelIsNeverOverwritten:
    def test_cancel_after_the_queue_read(self, store):
        """A job cancelled between the coordinator's queue read and its
        start stays cancelled and creates no shards."""
        job_id = store.create_job(_req("LLFI"), shards=2)
        row = store.jobs(["queued"])[0]
        assert store.request_cancel(job_id)
        coordinator = Coordinator(store, poll_s=0.01)
        thread = threading.Thread(target=coordinator._run_job, args=(row,),
                                  daemon=True)
        thread.start()
        try:
            thread.join(timeout=10)
            assert not thread.is_alive(), "the cancelled job ran"
        finally:
            coordinator._stopping.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert _state(store, job_id) == "cancelled"
        assert store.shards_for(job_id) == []

    def test_cancel_after_the_last_round(self, store, monkeypatch,
                                         built_workloads):
        """A cancel landing after the last round but before the result
        is stored is not overwritten by ``done``."""
        job_id = store.create_job(_req("LLFI"), shards=2)
        put_result = store.put_result

        def cancel_then_put(request, result):
            store.request_cancel(job_id)
            put_result(request, result)

        monkeypatch.setattr(store, "put_result", cancel_then_put)
        with _coordinator(store):
            _work_until(store, _finished(store, job_id), "the job")
        assert _state(store, job_id) == "cancelled"
