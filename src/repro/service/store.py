"""Campaign stores: where results, jobs and shared prep artifacts live.

Two backends behind one :class:`CampaignStore` surface:

:class:`DirectoryStore`
    The classic ``results/`` layout — one ``<key>.json`` file per cell,
    written atomically (tempfile + ``os.replace`` in the same directory,
    so a concurrent reader can never observe a torn write).  Compat
    backend: it holds results only, no job state and no artifacts.

:class:`SQLiteStore`
    One SQLite database holding the results table, the job queue
    (jobs + shards) of the campaign service, and **content-addressed**
    preparation artifacts: blobs keyed by the SHA-256 of their payload,
    with a named-ref table mapping stable prep identities (see
    :meth:`repro.service.request.CampaignRequest.prep_ref`) to hashes.
    Overlapping campaigns — any cells sharing (workload, tool, injector
    options) — resolve to one artifact, so golden/profiling work is
    simulated once per store instead of once per submission.

Both backends store the schema-versioned ``CampaignResult.to_json`` form
and validate it on the way out, exactly like the old file cache did.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Union

from repro.errors import FaultInjectionError
from repro.fi.campaign import CampaignResult
from repro.service.request import CampaignRequest

#: SQLite schema version, stored in ``PRAGMA user_version``; bump on any
#: table change (no migrations: stores are caches, delete to rebuild).
STORE_SCHEMA_VERSION = 1

#: Job lifecycle: queued -> running -> done | failed | cancelled.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
#: The one state :meth:`SQLiteStore.set_job_state` moves a job out of, per
#: target state.  Cancelling and requeueing have their own methods.
JOB_TRANSITIONS = {"running": "queued", "done": "running",
                   "failed": "running"}
#: Shard lifecycle: pending -> claimed -> done | failed.
SHARD_STATES = ("pending", "claimed", "done", "failed")


def atomic_write_json(path: str, data: object, indent: int = 1) -> None:
    """Write JSON so readers see the old file or the new one, never a
    prefix: dump to a tempfile in the target's directory, fsync, then
    ``os.replace`` (atomic on POSIX within one filesystem)."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(data, f, indent=indent)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _result_from_json(data: dict, origin: str) -> CampaignResult:
    """Validate one stored entry; unknown schemas are rejected with the
    origin so the user knows which stale entry to delete."""
    try:
        return CampaignResult.from_json(data)
    except FaultInjectionError as exc:
        raise FaultInjectionError(f"{origin}: {exc}") from None


def _as_key(request: Union[CampaignRequest, str]) -> str:
    return request.key() if isinstance(request, CampaignRequest) else request


class CampaignStore(ABC):
    """Results (+ optionally artifacts and job state) of many campaigns."""

    #: Human-readable location, for logs and manifests.
    location: str = "?"

    # -- results -------------------------------------------------------------
    @abstractmethod
    def get_result(self, request: Union[CampaignRequest, str]
                   ) -> Optional[CampaignResult]:
        """The cached result of one cell, or None."""

    @abstractmethod
    def put_result(self, request: Union[CampaignRequest, str],
                   result: CampaignResult) -> None:
        """Store one cell's result (idempotent: same key, same value)."""

    # -- content-addressed prep artifacts ------------------------------------
    def get_artifact(self, ref: str) -> Optional[dict]:
        """The JSON payload a named ref points at, or None (the compat
        directory backend stores no artifacts)."""
        return None

    def put_artifact(self, ref: str, payload: dict) -> None:
        """Content-address ``payload`` and point ``ref`` at it (no-op on
        backends without artifact support)."""

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        pass

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DirectoryStore(CampaignStore):
    """The classic file-per-key results directory (compat backend)."""

    def __init__(self, results_dir: str) -> None:
        self.results_dir = results_dir
        self.location = results_dir

    def path_for(self, request: Union[CampaignRequest, str]) -> str:
        return os.path.join(self.results_dir, f"{_as_key(request)}.json")

    def get_result(self, request: Union[CampaignRequest, str]
                   ) -> Optional[CampaignResult]:
        path = self.path_for(request)
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return _result_from_json(json.load(f), path)

    def put_result(self, request: Union[CampaignRequest, str],
                   result: CampaignResult) -> None:
        os.makedirs(self.results_dir, exist_ok=True)
        atomic_write_json(self.path_for(request), result.to_json())


class SQLiteStore(CampaignStore):
    """SQLite-backed store: results + job queue + prep artifacts.

    Safe for many processes (WAL journal, busy timeout, short immediate
    transactions for every claim/state change) and for the threaded HTTP
    server (one connection guarded by an RLock; SQLite serializes
    writers anyway, the lock just keeps cursor use sane)."""

    def __init__(self, path: str, timeout_s: float = 30.0) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.path = path
        self.location = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, timeout=timeout_s,
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._init_schema()

    def _init_schema(self) -> None:
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, STORE_SCHEMA_VERSION):
            raise FaultInjectionError(
                f"{self.path}: unsupported store schema {version} (this "
                f"build reads schema {STORE_SCHEMA_VERSION}; stores are "
                f"caches — delete the file to rebuild)")
        with self._conn:
            self._conn.executescript("""
                CREATE TABLE IF NOT EXISTS results(
                    key TEXT PRIMARY KEY,
                    request TEXT,
                    result TEXT NOT NULL,
                    created REAL NOT NULL);
                CREATE TABLE IF NOT EXISTS artifacts(
                    hash TEXT PRIMARY KEY,
                    payload BLOB NOT NULL,
                    created REAL NOT NULL);
                CREATE TABLE IF NOT EXISTS artifact_refs(
                    ref TEXT PRIMARY KEY,
                    hash TEXT NOT NULL REFERENCES artifacts(hash));
                CREATE TABLE IF NOT EXISTS jobs(
                    id INTEGER PRIMARY KEY AUTOINCREMENT,
                    key TEXT NOT NULL,
                    request TEXT NOT NULL,
                    accel TEXT NOT NULL DEFAULT '{}',
                    shards INTEGER NOT NULL,
                    state TEXT NOT NULL DEFAULT 'queued',
                    error TEXT,
                    cached INTEGER NOT NULL DEFAULT 0,
                    submitted REAL NOT NULL,
                    finished REAL);
                CREATE TABLE IF NOT EXISTS shards(
                    job INTEGER NOT NULL REFERENCES jobs(id),
                    round INTEGER NOT NULL,
                    shard INTEGER NOT NULL,
                    state TEXT NOT NULL DEFAULT 'pending',
                    worker TEXT,
                    indices TEXT NOT NULL,
                    payload TEXT,
                    error TEXT,
                    wall_s REAL,
                    PRIMARY KEY(job, round, shard));
            """)
            self._conn.execute(
                f"PRAGMA user_version = {STORE_SCHEMA_VERSION}")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- results -------------------------------------------------------------
    def get_result(self, request: Union[CampaignRequest, str]
                   ) -> Optional[CampaignResult]:
        key = _as_key(request)
        with self._lock:
            row = self._conn.execute(
                "SELECT result FROM results WHERE key = ?",
                (key,)).fetchone()
        if row is None:
            return None
        return _result_from_json(json.loads(row["result"]),
                                 f"{self.path}[{key}]")

    def put_result(self, request: Union[CampaignRequest, str],
                   result: CampaignResult) -> None:
        key = _as_key(request)
        request_json = (json.dumps(request.to_json(), sort_keys=True)
                        if isinstance(request, CampaignRequest) else None)
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO results(key, request, result, "
                "created) VALUES(?, ?, ?, ?)",
                (key, request_json,
                 json.dumps(result.to_json(), sort_keys=True), time.time()))

    # -- content-addressed artifacts -----------------------------------------
    def get_artifact(self, ref: str) -> Optional[dict]:
        with self._lock:
            row = self._conn.execute(
                "SELECT a.payload FROM artifact_refs r "
                "JOIN artifacts a ON a.hash = r.hash WHERE r.ref = ?",
                (ref,)).fetchone()
        if row is None:
            return None
        return json.loads(row["payload"])

    def put_artifact(self, ref: str, payload: dict) -> None:
        blob = json.dumps(payload, sort_keys=True).encode()
        digest = hashlib.sha256(blob).hexdigest()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO artifacts(hash, payload, created) "
                "VALUES(?, ?, ?)", (digest, blob, time.time()))
            self._conn.execute(
                "INSERT OR REPLACE INTO artifact_refs(ref, hash) "
                "VALUES(?, ?)", (ref, digest))

    def artifact_stats(self) -> Dict[str, int]:
        with self._lock:
            blobs = self._conn.execute(
                "SELECT COUNT(*) FROM artifacts").fetchone()[0]
            refs = self._conn.execute(
                "SELECT COUNT(*) FROM artifact_refs").fetchone()[0]
        return {"blobs": blobs, "refs": refs}

    # -- job queue -----------------------------------------------------------
    def create_job(self, request: CampaignRequest, shards: int,
                   accel: Optional[dict] = None,
                   cached: bool = False) -> int:
        """Queue a job; a ``cached`` one (the store already holds its
        result) is created ``done`` instead, with no shards to run."""
        now = time.time()
        with self._lock, self._conn:
            cur = self._conn.execute(
                "INSERT INTO jobs(key, request, accel, shards, state, "
                "cached, submitted, finished) VALUES(?, ?, ?, ?, ?, ?, ?, ?)",
                (request.key(), json.dumps(request.to_json(),
                                           sort_keys=True),
                 json.dumps(accel or {}, sort_keys=True), shards,
                 "done" if cached else "queued", int(cached), now,
                 now if cached else None))
            return int(cur.lastrowid)

    def job(self, job_id: int) -> Optional[dict]:
        with self._lock:
            row = self._conn.execute("SELECT * FROM jobs WHERE id = ?",
                                     (job_id,)).fetchone()
        return dict(row) if row is not None else None

    def jobs(self, states: Optional[List[str]] = None) -> List[dict]:
        query = "SELECT * FROM jobs"
        params: tuple = ()
        if states:
            query += (" WHERE state IN ("
                      + ",".join("?" * len(states)) + ")")
            params = tuple(states)
        with self._lock:
            rows = self._conn.execute(query + " ORDER BY id", params)
            return [dict(r) for r in rows.fetchall()]

    def set_job_state(self, job_id: int, state: str,
                      error: Optional[str] = None,
                      cached: bool = False) -> bool:
        """Move a job to ``running`` (only from ``queued``) or to ``done``
        / ``failed`` (only from ``running``).  Returns False, changing
        nothing, when the job is not in that state — so a cancel that
        lands first is never overwritten."""
        if state not in JOB_TRANSITIONS:
            raise FaultInjectionError(
                f"cannot set job state {state!r}; settable: "
                f"{sorted(JOB_TRANSITIONS)}")
        finished = time.time() if state != "running" else None
        with self._lock, self._conn:
            cur = self._conn.execute(
                "UPDATE jobs SET state = ?, error = ?, cached = ?, "
                "finished = ? WHERE id = ? AND state = ?",
                (state, error, int(cached), finished, job_id,
                 JOB_TRANSITIONS[state]))
            return cur.rowcount == 1

    def request_cancel(self, job_id: int) -> bool:
        """Cancel a job: drop its pending shards and mark it cancelled
        unless it already finished.  Claimed shards run to completion
        (workers are not killed mid-trial) but their results are ignored.
        Returns False when the job does not exist."""
        with self._lock, self._conn:
            row = self._conn.execute("SELECT state FROM jobs WHERE id = ?",
                                     (job_id,)).fetchone()
            if row is None:
                return False
            if row["state"] in ("done", "failed", "cancelled"):
                return True
            self._conn.execute(
                "DELETE FROM shards WHERE job = ? AND state = 'pending'",
                (job_id,))
            self._conn.execute(
                "UPDATE jobs SET state = 'cancelled', finished = ? "
                "WHERE id = ?", (time.time(), job_id))
        return True

    def requeue_job(self, job_id: int) -> None:
        """Put a running job back in the queue and delete its shards, so
        the next coordinator reruns it from round 0 (a job that finished
        or was cancelled meanwhile is left alone)."""
        with self._lock, self._conn:
            cur = self._conn.execute(
                "UPDATE jobs SET state = 'queued' "
                "WHERE id = ? AND state = 'running'", (job_id,))
            if cur.rowcount == 1:
                self._conn.execute("DELETE FROM shards WHERE job = ?",
                                   (job_id,))

    # -- shards --------------------------------------------------------------
    def create_shards(self, job_id: int, round_no: int,
                      partitions: List[List[int]]) -> None:
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT INTO shards(job, round, shard, state, indices) "
                "VALUES(?, ?, ?, 'pending', ?)",
                [(job_id, round_no, shard, json.dumps(indices))
                 for shard, indices in enumerate(partitions)])

    def pending_shards(self) -> int:
        """Shards of running jobs that no worker has claimed yet."""
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM shards s JOIN jobs j ON j.id = s.job "
                "WHERE s.state = 'pending' AND j.state = 'running'"
            ).fetchone()[0]

    def claim_shard(self, worker: str) -> Optional[dict]:
        """Atomically claim one pending shard of a running job (lowest
        job, round, shard first — deterministic drain order), or None."""
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT s.job, s.round, s.shard, s.indices, j.request, "
                "j.accel FROM shards s JOIN jobs j ON j.id = s.job "
                "WHERE s.state = 'pending' AND j.state = 'running' "
                "ORDER BY s.job, s.round, s.shard LIMIT 1").fetchone()
            if row is None:
                return None
            cur = self._conn.execute(
                "UPDATE shards SET state = 'claimed', worker = ? "
                "WHERE job = ? AND round = ? AND shard = ? "
                "AND state = 'pending'",
                (worker, row["job"], row["round"], row["shard"]))
            if cur.rowcount != 1:  # raced with another claimer
                return None
        return {"job": row["job"], "round": row["round"],
                "shard": row["shard"],
                "indices": json.loads(row["indices"]),
                "request": json.loads(row["request"]),
                "accel": json.loads(row["accel"])}

    def finish_shard(self, job_id: int, round_no: int, shard: int,
                     payload: Optional[dict], wall_s: float,
                     error: Optional[str] = None) -> None:
        state = "failed" if error is not None else "done"
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE shards SET state = ?, payload = ?, error = ?, "
                "wall_s = ? WHERE job = ? AND round = ? AND shard = ?",
                (state,
                 json.dumps(payload, sort_keys=True)
                 if payload is not None else None,
                 error, wall_s, job_id, round_no, shard))

    def shards_for(self, job_id: int,
                   round_no: Optional[int] = None) -> List[dict]:
        query = "SELECT * FROM shards WHERE job = ?"
        params: list = [job_id]
        if round_no is not None:
            query += " AND round = ?"
            params.append(round_no)
        with self._lock:
            rows = self._conn.execute(
                query + " ORDER BY round, shard", params).fetchall()
        out = []
        for row in rows:
            record = dict(row)
            record["indices"] = json.loads(record["indices"])
            if record["payload"] is not None:
                record["payload"] = json.loads(record["payload"])
            out.append(record)
        return out


def open_store(spec: Optional[str],
               default_dir: str = "results") -> CampaignStore:
    """Open a store from its CLI spec.

    ``sqlite:<path>`` (or a bare path ending in ``.db`` / ``.sqlite``)
    opens a :class:`SQLiteStore`; ``dir:<path>`` or any other path opens
    the compat :class:`DirectoryStore`; None falls back to
    ``default_dir`` (the classic results directory)."""
    if spec is None or spec == "":
        return DirectoryStore(default_dir)
    if spec.startswith("sqlite:"):
        return SQLiteStore(spec[len("sqlite:"):])
    if spec.startswith("dir:"):
        return DirectoryStore(spec[len("dir:"):])
    if spec.endswith((".db", ".sqlite", ".sqlite3")):
        return SQLiteStore(spec)
    return DirectoryStore(spec)


def as_store(store: Union[CampaignStore, str, None],
             default_dir: str = "results") -> CampaignStore:
    """Coerce a store argument: CampaignStore passes through, a string is
    an :func:`open_store` spec (so callers holding the old ``results_dir``
    string keep working), None opens the default directory."""
    if isinstance(store, CampaignStore):
        return store
    return open_store(store, default_dir)
