"""The campaign service: a localhost HTTP JSON API over a SQLite store.

``python -m repro.service serve`` starts two things:

* a **coordinator** thread that admits queued jobs oldest first and
  runs each admitted job's campaign round barrier
  (:func:`~repro.fi.campaign.run_rounds`, through the shard executor
  :func:`~repro.service.runtime.drive_shards` — the same loop and merge
  every local run uses) on a thread of its own, with the store queue as
  the place shards run: each round's partitions become store shards,
  workers claim and finish them, and the job's thread waits for the
  whole round before the stop decision.  The next job is admitted
  whenever no shard of a running job is pending, so the worker fleet's
  size sets how many barriers overlap.  Cancellation and shutdown leave
  a barrier by exception; a job interrupted by shutdown goes back to
  ``queued`` for the next coordinator.

* a :class:`ThreadingHTTPServer` exposing the JSON API (all bodies and
  responses are ``application/json``).  A submission the store already
  answers never reaches the coordinator: ``POST /submit`` creates its
  job ``done`` (``cached``, no shards) before replying.

  ========================  =====================================
  ``GET  /health``          liveness + store location
  ``POST /submit``          ``{request, shards, accel?}`` -> job id
  ``GET  /poll?job=ID``     job state + per-shard progress
  ``POST /cancel``          ``{job: ID}``
  ``GET  /fetch?job=ID``    the finished job's CampaignResult
  ``GET  /jobs``            every job in the store
  ========================  =====================================

Workers are separate processes (``python -m repro.service worker``, or
``serve --workers N`` to have the server spawn them) that claim shards
from the same store — the queue, not the HTTP API, is the work channel,
so remote workers only need the store file (e.g. on a shared
filesystem).  The server binds localhost only: it is a local job queue,
not an authenticated network service.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Set
from urllib.parse import parse_qs, urlparse

from repro.errors import FaultInjectionError
from repro.fi.campaign import RunRecords
from repro.service.request import CampaignRequest
from repro.service.runtime import drive_shards
from repro.service.store import SQLiteStore

#: Accelerator knobs a submission may set on its workers, with the JSON
#: type each must have.  Everything else in CampaignConfig is identity (comes from the request) or
#: meaningless inside a shard (``jobs`` — a shard is one process's unit
#: of work).  ``checkpoint_stride`` defaults to the experiments CLI's
#: automatic stride (see ``repro.service.worker.config_from_accel``);
#: checkpoint snapshots cannot be persisted (see repro/vm/snapshot.py),
#: so each worker records its own, one preparation run per injector per
#: process.  ``checkpoint_stride: 0`` runs the scalar path.
ACCEL_KNOBS = {"checkpoint_stride": int, "batch": int, "no_compile": bool}


def _shard_summary(shards: List[dict]) -> dict:
    states = [s["state"] for s in shards]
    return {"total": len(states),
            "pending": states.count("pending"),
            "claimed": states.count("claimed"),
            "done": states.count("done"),
            "failed": states.count("failed")}


class _JobCancelled(Exception):
    """Raised out of the round barrier: the job was cancelled."""


class _CoordinatorStopping(Exception):
    """Raised out of the round barrier: the coordinator is shutting
    down."""


class Coordinator(threading.Thread):
    """Admits queued jobs, oldest first, and runs each admitted job's
    round barrier on a thread of its own.

    A job is admitted whenever no shard of a running job is pending —
    read from the queue, so the worker fleet's size sets how many
    barriers overlap: workers never wait on one job's round barrier
    while another job is queued, and no job is admitted while work is
    already waiting for a worker.  A job that has not yet put its first
    round in the queue counts as pending."""

    def __init__(self, store: SQLiteStore, poll_s: float = 0.05) -> None:
        super().__init__(daemon=True, name="campaign-coordinator")
        self.store = store
        self.poll_s = poll_s
        # Not named _stop: threading.Thread has a private _stop method
        # that join() calls internally.
        self._stopping = threading.Event()
        #: Barrier threads of the admitted jobs (finished ones are
        #: dropped at the next admission check).
        self._barriers: List[threading.Thread] = []
        #: Admitted jobs whose first round is not in the queue yet.  Only
        #: this thread adds to it and job threads only remove, so a
        #: check that finds it empty stays true until the next add.
        self._entering: Set[int] = set()

    def shutdown(self) -> None:
        """Stop admitting jobs and return once every barrier thread has
        left its barrier, requeueing its job."""
        self._stopping.set()
        self.join(timeout=30)

    def run(self) -> None:
        try:
            while not self._stopping.is_set():
                self._admit()
                self._stopping.wait(self.poll_s)
        finally:
            for thread in self._barriers:
                thread.join(timeout=30)

    def _admit(self) -> None:
        """Start the oldest queued job's barrier thread if the fleet has
        nothing pending."""
        self._barriers = [t for t in self._barriers if t.is_alive()]
        if self._entering or self.store.pending_shards():
            return
        queued = self.store.jobs(["queued"])
        if not queued:
            return
        job = queued[0]
        self._entering.add(job["id"])
        thread = threading.Thread(target=self._run_job, args=(job,),
                                  daemon=True,
                                  name=f"campaign-job-{job['id']}")
        self._barriers.append(thread)
        thread.start()

    # -- one job ------------------------------------------------------------
    def _run_job(self, job: dict) -> None:
        """One admitted job's barrier, on its own thread.  ``job`` is
        the row the queue read returned; the job only starts if it is
        still queued, and ends ``done`` or ``failed`` only if it is still
        running, so a cancel landing at any point stays cancelled.  Any
        exception fails this job alone."""
        job_id = job["id"]
        try:
            if not self.store.set_job_state(job_id, "running"):
                return
            request = CampaignRequest.from_json(json.loads(job["request"]))
            if self.store.get_result(request) is not None:
                # An identical job finished after this one was queued.
                self.store.set_job_state(job_id, "done", cached=True)
                return
            _, result = drive_shards(
                request, request.to_config(), job["shards"],
                lambda round_no, partitions: self._run_round(
                    job_id, round_no, partitions),
                RunRecords())
            self.store.put_result(request, result)
            self.store.set_job_state(job_id, "done")
        except _JobCancelled:
            pass
        except _CoordinatorStopping:
            # The next coordinator reruns the job from round 0; per-slot
            # RNG streams make the rerun byte-identical.  A shard still
            # running from this attempt may finish after the rerun has
            # recreated it: it writes the same payload for the same
            # indices, so the late write is harmless.
            self.store.requeue_job(job_id)
        except FaultInjectionError as exc:
            self.store.set_job_state(job_id, "failed", error=str(exc))
        except Exception as exc:  # a bug fails its job, not the service
            self.store.set_job_state(
                job_id, "failed", error=f"{type(exc).__name__}: {exc}\n"
                                        f"{traceback.format_exc(limit=5)}")
        finally:
            self._entering.discard(job_id)

    def _run_round(self, job_id: int, round_no: int,
                   partitions: List[List[int]]) -> List[dict]:
        """The store queue's round: enqueue one store shard per
        partition and block until workers finished them all; returns
        their payloads in shard order.  Raises :class:`_JobCancelled`
        or :class:`_CoordinatorStopping` to leave the round barrier, and
        FaultInjectionError when a shard failed (its error is surfaced
        on the job)."""
        self.store.create_shards(job_id, round_no, partitions)
        self._entering.discard(job_id)
        while not self._stopping.is_set():
            job = self.store.job(job_id)
            if job is None or job["state"] != "running":
                raise _JobCancelled()
            shards = self.store.shards_for(job_id, round_no)
            failed = [s for s in shards if s["state"] == "failed"]
            if failed:
                raise FaultInjectionError(
                    f"shard {failed[0]['shard']} of round {round_no} "
                    f"failed: {failed[0]['error']}")
            done = [s for s in shards if s["state"] == "done"]
            if len(done) == len(partitions):
                return [s["payload"] for s in done]
            self._stopping.wait(self.poll_s)
        raise _CoordinatorStopping()


class _BadRequest(Exception):
    """Malformed client input, replied to with HTTP 400."""


def _int_arg(value: str, name: str) -> int:
    """An integer written as text (a query parameter or a header)."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise _BadRequest(f"{name} must be an integer, got {value!r}") \
            from None


def _json_int(value: object, name: str) -> int:
    """An integer in a JSON body: a JSON integer, not a boolean, a float
    or a string."""
    if type(value) is not int:
        raise _BadRequest(f"{name} must be an integer, got {value!r}")
    return value


def _accel_arg(accel: object) -> dict:
    """A submission's ``accel``, checked before any worker sees it: an
    object of known knobs, each of its :data:`ACCEL_KNOBS` type (a
    boolean is no integer here, although Python's ``bool`` is one)."""
    if not isinstance(accel, dict):
        raise _BadRequest(f"accel must be an object, got {accel!r}")
    unknown = sorted(set(accel) - set(ACCEL_KNOBS))
    if unknown:
        raise _BadRequest(f"unknown accel knobs {unknown}; "
                          f"allowed: {list(ACCEL_KNOBS)}")
    for knob, value in accel.items():
        kind = ACCEL_KNOBS[knob]
        if type(value) is not kind:
            raise _BadRequest(f"accel {knob} must be {kind.__name__}, "
                              f"got {value!r}")
    return accel


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-campaign-service/1"

    # The ThreadingHTTPServer instance carries .store (set by serve()).
    @property
    def store(self) -> SQLiteStore:
        return self.server.store  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        if getattr(self.server, "verbose", False):
            sys.stderr.write("service: " + fmt % args + "\n")

    # -- plumbing -----------------------------------------------------------
    def _reply(self, code: int, body: dict) -> None:
        data = json.dumps(body).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _error(self, code: int, message: str) -> None:
        self._reply(code, {"error": message})

    def _body(self) -> dict:
        length = _int_arg(self.headers.get("Content-Length", "0"),
                          "Content-Length")
        if length == 0:
            return {}
        try:
            body = json.loads(self.rfile.read(length))
        except ValueError as exc:
            raise _BadRequest(f"body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise _BadRequest("body must be a JSON object")
        return body

    def _job_or_error(self, query: dict) -> Optional[dict]:
        raw = (query.get("job") or [None])[0]
        if raw is None:
            self._error(400, "missing ?job=ID")
            return None
        job = self.store.job(_int_arg(raw, "job"))
        if job is None:
            self._error(404, f"no such job: {raw}")
            return None
        return job

    # -- routes -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        query = parse_qs(url.query)
        try:
            if url.path == "/health":
                self._reply(200, {"ok": True,
                                  "store": self.store.location})
            elif url.path == "/jobs":
                self._reply(200, {"jobs": self.store.jobs()})
            elif url.path == "/poll":
                job = self._job_or_error(query)
                if job is not None:
                    job["shard_progress"] = _shard_summary(
                        [{"state": s["state"]}
                         for s in self.store.shards_for(job["id"])])
                    self._reply(200, {"job": job})
            elif url.path == "/fetch":
                self._fetch(query)
            else:
                self._error(404, f"unknown endpoint {url.path}")
        except _BadRequest as exc:
            self._error(400, str(exc))
        except Exception as exc:  # surface, don't kill the thread
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802
        url = urlparse(self.path)
        try:
            if url.path == "/submit":
                self._submit(self._body())
            elif url.path == "/cancel":
                body = self._body()
                if "job" not in body:
                    self._error(400, "missing 'job'")
                else:
                    ok = self.store.request_cancel(
                        _json_int(body["job"], "job"))
                    if ok:
                        self._reply(200, {"cancelled": True})
                    else:
                        self._error(404, f"no such job: {body['job']}")
            else:
                self._error(404, f"unknown endpoint {url.path}")
        except (_BadRequest, FaultInjectionError) as exc:
            self._error(400, str(exc))
        except Exception as exc:
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _submit(self, body: dict) -> None:
        if "request" not in body:
            self._error(400, "missing 'request'")
            return
        try:
            request = CampaignRequest.from_json(body["request"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise _BadRequest(f"malformed request: {type(exc).__name__}: "
                              f"{exc}") from None
        shards = _json_int(body.get("shards", 1), "shards")
        if shards <= 0:
            self._error(400, f"shard count must be positive: {shards}")
            return
        accel = _accel_arg(body.get("accel", {}))
        cached = self.store.get_result(request) is not None
        job_id = self.store.create_job(request, shards, accel, cached=cached)
        self._reply(200, {"job": job_id, "key": request.key(),
                          "cached": cached})

    def _fetch(self, query: dict) -> None:
        job = self._job_or_error(query)
        if job is None:
            return
        if job["state"] != "done":
            self._error(409, f"job {job['id']} is {job['state']}, "
                             f"not done")
            return
        request = CampaignRequest.from_json(json.loads(job["request"]))
        result = self.store.get_result(request)
        if result is None:
            self._error(500, f"job {job['id']} is done but its result "
                             f"is missing from the store")
            return
        self._reply(200, {"job": job["id"], "key": request.key(),
                          "result": result.to_json()})


class CampaignServer:
    """The assembled service: HTTP frontend + coordinator + optional
    spawned worker processes, all over one SQLite store."""

    def __init__(self, store_path: str, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 0,
                 poll_s: float = 0.05, verbose: bool = False) -> None:
        self.store = SQLiteStore(store_path)
        self.store_path = store_path
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.store = self.store  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self.coordinator = Coordinator(self.store, poll_s=poll_s)
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True,
            name="campaign-http")
        self._workers: List[subprocess.Popen] = []
        self._worker_count = workers

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "CampaignServer":
        self.coordinator.start()
        self._http_thread.start()
        for _ in range(self._worker_count):
            self._workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro.service", "worker",
                 "--store", f"sqlite:{self.store_path}"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        return self

    def stop(self) -> None:
        for proc in self._workers:
            proc.terminate()
        for proc in self._workers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        self.httpd.shutdown()
        self.httpd.server_close()
        self._http_thread.join(timeout=10)
        self.coordinator.shutdown()
        self.store.close()

    def __enter__(self) -> "CampaignServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(store_path: str, host: str = "127.0.0.1", port: int = 0,
          workers: int = 0, verbose: bool = True) -> None:
    """Blocking entry point of ``python -m repro.service serve``."""
    server = CampaignServer(store_path, host=host, port=port,
                            workers=workers, verbose=verbose).start()
    print(f"campaign service listening on {server.address} "
          f"(store {store_path}, {workers} spawned workers)", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
