"""End-to-end service tests: a real :class:`CampaignServer` (HTTP
frontend + coordinator thread + two spawned worker processes) over one
SQLite store.  The headline assertion is the acceptance criterion of the
service: a sharded job's fetched result is byte-identical to a direct
local run, for both tools, with resubmissions served from cache.
``TestFrontend`` drives the HTTP frontend with the coordinator stopped:
cache hits, the submit CLI's ``accel`` and socket cleanup need no
coordinator."""

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.fi.campaign import CampaignResult
from repro.fi.engine import run_parallel_campaign
from repro.service import CampaignRequest, SQLiteStore
from repro.service.__main__ import main as service_main
from repro.service.client import (
    ServiceError, cancel, fetch, health, jobs, poll, submit, wait,
)
from repro.service.server import CampaignServer, Coordinator
from repro.service.worker import worker_loop

WORKLOAD = "libquantumm"
TRIALS = 6
SEED = 47


def _req(tool, category="all", **kw):
    return CampaignRequest(workload=WORKLOAD, tool=tool, category=category,
                           trials=TRIALS, seed=SEED, **kw)


def _local(request):
    return run_parallel_campaign(request.injector_spec(), request.category,
                                 request.to_config()).to_json()


def _raw(address, method, path, body=None):
    """One HTTP exchange without the client's validation: (status, reply)."""
    req = urllib.request.Request(address + path, data=body, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _accel_body(accel):
    return json.dumps({"request": _req("LLFI").to_json(),
                       "accel": accel}).encode()


#: Malformed client input, by test id: (method, path, raw body).
MALFORMED = {
    "poll-job-not-int": ("GET", "/poll?job=abc", None),
    "fetch-job-not-int": ("GET", "/fetch?job=abc", None),
    "cancel-job-not-int": ("POST", "/cancel", b'{"job": "x"}'),
    "body-not-json": ("POST", "/submit", b"{not json"),
    "request-missing-fields": (
        "POST", "/submit",
        json.dumps({"request": {"schema": 1, "workload": WORKLOAD},
                    "shards": 1}).encode()),
    "shards-not-int": (
        "POST", "/submit",
        json.dumps({"request": _req("LLFI").to_json(),
                    "shards": "two"}).encode()),
    "accel-null": ("POST", "/submit", _accel_body(None)),
    "accel-not-object": ("POST", "/submit", _accel_body(5)),
    "accel-stride-not-int": (
        "POST", "/submit", _accel_body({"checkpoint_stride": "abc"})),
    "accel-batch-bool": ("POST", "/submit", _accel_body({"batch": True})),
    "accel-no-compile-not-bool": (
        "POST", "/submit", _accel_body({"no_compile": 1})),
    "accel-decoded-cache": (
        "POST", "/submit", _accel_body({"decoded_cache": 4})),
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store_path = str(tmp_path_factory.mktemp("service") / "campaigns.db")
    with CampaignServer(store_path, workers=2) as srv:
        yield srv


class TestServiceEndToEnd:
    def test_health(self, server):
        reply = health(server.address)
        assert reply["ok"] and reply["store"] == server.store_path

    def test_sharded_job_matches_local_llfi(self, server, built_workloads):
        request = _req("LLFI")
        reply = submit(server.address, request, shards=2)
        assert reply["key"] == request.key()
        job = wait(server.address, reply["job"], timeout_s=300)
        assert job["state"] == "done", job.get("error")
        assert fetch(server.address, reply["job"]).to_json() == \
            _local(request)

    def test_sharded_job_matches_local_pinfi(self, server, built_workloads):
        request = _req("PINFI")
        reply = submit(server.address, request, shards=2)
        job = wait(server.address, reply["job"], timeout_s=300)
        assert job["state"] == "done", job.get("error")
        assert fetch(server.address, reply["job"]).to_json() == \
            _local(request)

    def test_resubmission_is_served_from_cache(self, server,
                                               built_workloads):
        request = _req("LLFI")
        first = submit(server.address, request, shards=2)
        wait(server.address, first["job"], timeout_s=300)
        again = submit(server.address, request, shards=2)
        assert again["cached"]
        job = wait(server.address, again["job"], timeout_s=60)
        assert job["state"] == "done" and job["cached"]
        # No shards were created for the cache hit.
        assert job["shard_progress"]["total"] == 0
        assert fetch(server.address, again["job"]).to_json() == \
            fetch(server.address, first["job"]).to_json()

    def test_failing_request_fails_the_job(self, server):
        request = CampaignRequest(workload="no-such-workload", tool="LLFI",
                                  category="all", trials=2, seed=1)
        reply = submit(server.address, request, shards=1)
        job = wait(server.address, reply["job"], timeout_s=120)
        assert job["state"] == "failed"
        assert job["error"]
        with pytest.raises(ServiceError) as err:
            fetch(server.address, reply["job"])
        assert "failed" in str(err.value)

    def test_unknown_accel_knob_rejected(self, server):
        with pytest.raises(ServiceError) as err:
            submit(server.address, _req("LLFI"), shards=1,
                   accel={"jobs": 4})
        assert "accel" in str(err.value)

    def test_cancel_unknown_job_is_404(self, server):
        with pytest.raises(ServiceError) as err:
            cancel(server.address, 999999)
        assert "404" in str(err.value)

    def test_poll_unknown_job_is_404(self, server):
        with pytest.raises(ServiceError):
            poll(server.address, 999999)

    def test_jobs_listing(self, server):
        listing = jobs(server.address)
        assert isinstance(listing, list)
        assert all("state" in j for j in listing)

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_input_is_400(self, server, case):
        method, path, body = MALFORMED[case]
        status, reply = _raw(server.address, method, path, body)
        assert status == 400, reply
        assert reply["error"]


class TestCoordinatorShutdown:
    def test_interrupted_job_is_requeued_and_rerun(self, tmp_path,
                                                   built_workloads):
        """A coordinator stopped mid-round puts its job back in the
        queue with no shards; the next coordinator reruns it from round
        0 to the local result instead of leaving it running forever."""
        path = str(tmp_path / "queue.db")
        request = _req("LLFI")
        deadline = time.monotonic() + 120
        with SQLiteStore(path) as store:
            job_id = store.create_job(request, shards=2)
            first = Coordinator(store, poll_s=0.01)
            first.start()
            while not store.shards_for(job_id):
                assert time.monotonic() < deadline, "round 0 never started"
                time.sleep(0.01)
            first.shutdown()
            assert not first.is_alive()
            assert store.job(job_id)["state"] == "queued"
            assert store.shards_for(job_id) == []

            second = Coordinator(store, poll_s=0.01)
            second.start()
            try:
                assert worker_loop(path, poll_s=0.01, idle_exit_s=60,
                                   max_shards=2) == 2
                while store.job(job_id)["state"] != "done":
                    assert time.monotonic() < deadline, store.job(job_id)
                    time.sleep(0.01)
            finally:
                second.shutdown()
            assert not second.is_alive()
            assert store.get_result(request).to_json() == _local(request)


@pytest.fixture
def frontend(tmp_path):
    """A server whose coordinator is stopped: only the HTTP frontend
    acts on submissions."""
    with CampaignServer(str(tmp_path / "frontend.db")) as srv:
        srv.coordinator.shutdown()
        assert not srv.coordinator.is_alive()
        yield srv


class TestFrontend:
    def test_cached_submit_is_done_on_reply(self, frontend,
                                            built_workloads):
        request = _req("LLFI")
        local = _local(request)
        frontend.store.put_result(request, CampaignResult.from_json(local))
        reply = submit(frontend.address, request, shards=2)
        assert reply["cached"]
        job = poll(frontend.address, reply["job"])
        assert job["state"] == "done" and job["cached"]
        assert job["shard_progress"]["total"] == 0
        assert fetch(frontend.address, reply["job"]).to_json() == local

    @pytest.mark.parametrize("flags, accel", [
        ([], {}),
        (["--checkpoint-stride", "0"], {"checkpoint_stride": 0}),
        (["--batch", "0"], {"batch": 0}),
        (["--checkpoint-stride", "97", "--batch", "4"],
         {"checkpoint_stride": 97, "batch": 4}),
    ], ids=["none", "stride-0", "batch-0", "both"])
    def test_submit_cli_forwards_given_knobs(self, frontend, capsys,
                                             flags, accel):
        assert service_main(
            ["submit", "--url", frontend.address, "--workload", WORKLOAD,
             "--tool", "LLFI", "--category", "all", "--trials", "6"]
            + flags) == 0
        job_id = json.loads(capsys.readouterr().out)["job"]
        assert json.loads(frontend.store.job(job_id)["accel"]) == accel

    def test_stop_closes_the_listening_socket(self, tmp_path):
        srv = CampaignServer(str(tmp_path / "s.db")).start()
        srv.stop()
        assert srv.httpd.socket.fileno() == -1
        # Nothing else is left for the garbage collector to warn about.
        script = (
            "import gc, sys\n"
            "from repro.service.server import CampaignServer\n"
            "def cycle():\n"
            "    CampaignServer(sys.argv[1]).start().stop()\n"
            "cycle()\n"
            "gc.collect()\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-c", script, str(tmp_path / "again.db")],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr
