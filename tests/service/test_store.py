"""Store-layer tests: atomic result writes (the torn-write bugfix),
the DirectoryStore/SQLiteStore backends, content-addressed prep
artifacts, the SQLite job queue and the ``--store`` spec parser."""

import json
import os
import threading

import pytest

from repro.errors import FaultInjectionError
from repro.fi import CampaignConfig
from repro.fi.campaign import CampaignResult
from repro.service import (
    CampaignRequest, DirectoryStore, SQLiteStore, atomic_write_json,
    open_store,
)

REQ = CampaignRequest(workload="w", tool="LLFI", category="all",
                      trials=4, seed=9)


def _result() -> CampaignResult:
    # A minimal but schema-complete result, round-tripped through JSON so
    # store comparisons are apples-to-apples.
    from repro.fi import Outcome
    from repro.fi.campaign import merged_result
    return merged_result("LLFI", "all", [], 10, 100)


class TestAtomicWriteJson:
    def test_writes_readable_json(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(str(path), {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_json(str(path), {"new": True})
        assert json.loads(path.read_text()) == {"new": True}

    def test_torn_write_never_observable(self, tmp_path):
        """A crash mid-serialization must leave the old content intact
        and no temp litter — the bug the old ``open(...).write`` cache
        had (a reader could observe a half-written JSON file)."""
        path = tmp_path / "out.json"
        path.write_text(json.dumps({"good": 1}))
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        assert json.loads(path.read_text()) == {"good": 1}
        assert os.listdir(tmp_path) == ["out.json"]

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write_json(str(tmp_path / "a.json"), [1, 2])
        assert os.listdir(tmp_path) == ["a.json"]


class TestDirectoryStore:
    def test_result_round_trip(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        assert store.get_result(REQ) is None
        result = _result()
        store.put_result(REQ, result)
        assert (tmp_path / f"{REQ.key()}.json").exists()
        assert store.get_result(REQ).to_json() == result.to_json()

    def test_artifacts_are_noops(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.put_artifact("ref", {"x": 1})
        assert store.get_artifact("ref") is None


class TestSQLiteStore:
    def test_result_round_trip(self, tmp_path):
        with SQLiteStore(str(tmp_path / "s.db")) as store:
            assert store.get_result(REQ) is None
            result = _result()
            store.put_result(REQ, result)
            assert store.get_result(REQ).to_json() == result.to_json()
            # String keys address the same row.
            assert store.get_result(REQ.key()).to_json() == result.to_json()

    def test_artifacts_content_addressed(self, tmp_path):
        with SQLiteStore(str(tmp_path / "s.db")) as store:
            payload = {"golden": [1, 2, 3], "counts": {"all": 9}}
            store.put_artifact("ref-a", payload)
            store.put_artifact("ref-b", payload)   # same bytes
            store.put_artifact("ref-c", {"other": 1})
            assert store.get_artifact("ref-a") == payload
            assert store.get_artifact("ref-b") == payload
            stats = store.artifact_stats()
            assert stats["refs"] == 3
            assert stats["blobs"] == 2  # a and b share one blob

    def test_job_lifecycle(self, tmp_path):
        with SQLiteStore(str(tmp_path / "s.db")) as store:
            job_id = store.create_job(REQ, shards=2, accel={"batch": 4})
            job = store.job(job_id)
            assert job["state"] == "queued"
            assert json.loads(job["accel"]) == {"batch": 4}
            # Queued jobs expose no shards to claimers.
            store.create_shards(job_id, 0, [[0, 1], [2, 3]])
            assert store.claim_shard("w1") is None
            store.set_job_state(job_id, "running")
            claim = store.claim_shard("w1")
            assert claim["indices"] == [0, 1]
            assert CampaignRequest.from_json(claim["request"]) == REQ
            # The same shard is never handed out twice.
            second = store.claim_shard("w2")
            assert second["shard"] == 1
            assert store.claim_shard("w3") is None
            store.finish_shard(job_id, 0, 0, {"slots": []}, 0.1)
            store.finish_shard(job_id, 0, 1, None, 0.1, error="boom")
            states = {s["shard"]: s["state"] for s in store.shards_for(job_id)}
            assert states == {0: "done", 1: "failed"}

    def test_cancel_drops_pending_shards(self, tmp_path):
        with SQLiteStore(str(tmp_path / "s.db")) as store:
            job_id = store.create_job(REQ, shards=2)
            store.set_job_state(job_id, "running")
            store.create_shards(job_id, 0, [[0], [1]])
            claim = store.claim_shard("w1")  # shard 0 in flight
            assert store.request_cancel(job_id)
            assert store.job(job_id)["state"] == "cancelled"
            # Pending shard gone; the claimed one survives to completion.
            remaining = store.shards_for(job_id)
            assert [s["shard"] for s in remaining] == [claim["shard"]]
            assert store.claim_shard("w2") is None

    def test_cancel_after_done_is_a_noop(self, tmp_path):
        with SQLiteStore(str(tmp_path / "s.db")) as store:
            job_id = store.create_job(REQ, shards=1)
            store.set_job_state(job_id, "running")
            store.set_job_state(job_id, "done")
            assert store.request_cancel(job_id)
            assert store.job(job_id)["state"] == "done"
            assert not store.request_cancel(9999)

    def test_job_transitions_are_conditional(self, tmp_path):
        """running only from queued, done/failed only from running: a
        transition from any other state changes nothing."""
        with SQLiteStore(str(tmp_path / "s.db")) as store:
            job_id = store.create_job(REQ, shards=1)
            assert not store.set_job_state(job_id, "done")
            assert not store.set_job_state(job_id, "failed", error="x")
            assert store.job(job_id)["state"] == "queued"
            assert store.set_job_state(job_id, "running")
            assert not store.set_job_state(job_id, "running")
            assert store.set_job_state(job_id, "done")
            assert not store.set_job_state(job_id, "failed", error="x")
            job = store.job(job_id)
            assert job["state"] == "done" and job["error"] is None
            assert job["finished"] is not None

            cancelled = store.create_job(REQ, shards=1)
            assert store.request_cancel(cancelled)
            assert not store.set_job_state(cancelled, "running")
            assert store.job(cancelled)["state"] == "cancelled"

            running = store.create_job(REQ, shards=1)
            store.set_job_state(running, "running")
            assert store.request_cancel(running)
            assert not store.set_job_state(running, "done")
            assert store.job(running)["state"] == "cancelled"

            for state in ("queued", "cancelled", "bogus"):
                with pytest.raises(FaultInjectionError):
                    store.set_job_state(job_id, state)

    def test_cached_job_is_created_done(self, tmp_path):
        with SQLiteStore(str(tmp_path / "s.db")) as store:
            job_id = store.create_job(REQ, shards=2, cached=True)
            job = store.job(job_id)
            assert job["state"] == "done" and job["cached"] == 1
            assert job["finished"] == job["submitted"]
            assert store.shards_for(job_id) == []

    def test_pending_shards_counts_running_jobs_only(self, tmp_path):
        with SQLiteStore(str(tmp_path / "s.db")) as store:
            queued = store.create_job(REQ, shards=2)
            store.create_shards(queued, 0, [[0], [1]])
            assert store.pending_shards() == 0
            running = store.create_job(REQ, shards=3)
            store.set_job_state(running, "running")
            store.create_shards(running, 0, [[0], [1], [2]])
            assert store.pending_shards() == 3
            store.claim_shard("w1")
            assert store.pending_shards() == 2
            store.request_cancel(running)
            assert store.pending_shards() == 0

    def test_concurrent_claims_never_duplicate(self, tmp_path):
        """N threads hammering claim_shard get each shard exactly once."""
        with SQLiteStore(str(tmp_path / "s.db")) as store:
            job_id = store.create_job(REQ, shards=8)
            store.set_job_state(job_id, "running")
            store.create_shards(job_id, 0, [[i] for i in range(8)])
            claimed = []
            lock = threading.Lock()

            def worker(name):
                while True:
                    claim = store.claim_shard(name)
                    if claim is None:
                        return
                    with lock:
                        claimed.append(claim["shard"])

            threads = [threading.Thread(target=worker, args=(f"w{i}",))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(claimed) == list(range(8))


class TestOpenStore:
    def test_spec_dispatch(self, tmp_path):
        assert isinstance(open_store(None, str(tmp_path)), DirectoryStore)
        assert isinstance(open_store(str(tmp_path / "plain")),
                          DirectoryStore)
        assert isinstance(open_store(f"dir:{tmp_path / 'd'}"),
                          DirectoryStore)
        for spec in (f"sqlite:{tmp_path / 'a.db'}", str(tmp_path / "b.db"),
                     str(tmp_path / "c.sqlite")):
            store = open_store(spec)
            assert isinstance(store, SQLiteStore)
            store.close()
