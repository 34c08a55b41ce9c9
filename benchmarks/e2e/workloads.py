"""The benchmark's workloads and the runners that execute them.

Every workload is closed-loop: one benchmark process issues a fixed list
of campaign cells (or service jobs), each only after the previous one it
issued has returned, with at most two callers at a time (the workloads
are sized for a 2-core machine).  A *pass* issues every cell once into a
fresh store, so every cell is real work; the service then re-submits
some of them, which its store answers (the hit phase).  A run makes a
fixed number of passes (see :attr:`Workload.pass_s`); ``--seed`` only
shuffles the order of cells within each pass.

Every cell runs at the ``CampaignConfig`` default seed, so its result is
exactly the one ``reference.json`` pins.  Letting ``--seed`` pick the
campaign seed instead would move the trial mix, and with it the grid's
trials/s by about ±7% between seeds, on top of the machine's own noise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import re
import resource
import select
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import campaign_cell
from repro.fi import CATEGORIES, CampaignConfig, InjectorSpec, shutdown_pool
from repro.fi.campaign import prepare_campaign
from repro.fi.engine import forget_workload, injector_for_spec
from repro.service import client
from repro.service.request import CampaignRequest
from repro.service.store import DirectoryStore, SQLiteStore
from repro.workloads import registry, workload_names

from spans import SpanRecorder
from stats import Ledger, digest

#: The seed of every campaign cell; reference.json pins its results.
CAMPAIGN_SEED = CampaignConfig().seed
TOOLS = ("LLFI", "PINFI")
#: Service answers served from the store per run (the hit phase),
#: enough for a p75 with ten samples above it.
MIN_HITS = 40
#: Seconds one service job may take before it counts as failed.
JOB_TIMEOUT_S = 120.0
#: Client poll interval while a service job runs.
POLL_S = 0.01


@dataclass(frozen=True)
class Cell:
    workload: str
    tool: str
    category: str


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in README.md."""

    name: str
    #: "campaign" (``campaign_cell`` in this process) or "service".
    kind: str
    programs: Tuple[str, ...]
    categories: Tuple[str, ...]
    trials: int
    #: Seconds one pass took on the reference machine (2 cores); a run
    #: of ``--seconds`` makes ceil(seconds / pass_s) passes, so the work
    #: of a run is fixed and never depends on how fast it went.
    pass_s: float
    jobs: int = 2
    ci_margin: float = 0.0
    round_size: int = 0
    shards: int = 2

    def cells(self) -> List[Cell]:
        return [Cell(p, t, c) for p in self.programs for t in TOOLS
                for c in self.categories]

    def config(self) -> CampaignConfig:
        """The configuration users of this path get by default: the
        experiments CLI runs with automatic checkpoints and block
        compilation, the service with neither checkpoints nor batching
        (its ``accel`` is empty)."""
        return CampaignConfig(
            trials=self.trials, seed=CAMPAIGN_SEED, jobs=self.jobs,
            checkpoint_stride=-1 if self.kind == "campaign" else 0,
            ci_margin=self.ci_margin, round_size=self.round_size)


def scalar_config(config: CampaignConfig) -> CampaignConfig:
    """The reference path: no checkpoints, no block compilation, no
    batching, one process."""
    return dataclasses.replace(config, jobs=1, checkpoint_stride=0,
                               no_compile=True, batch=0, trace=False,
                               trace_dir=None)


def workload_defs(smoke: bool = False) -> Dict[str, Workload]:
    """The four workloads by name; ``smoke`` shrinks every one to a few
    libquantumm trials that check the plumbing and measure nothing."""
    everything = tuple(workload_names())
    if smoke:
        tiny = ("libquantumm",)
        return {w.name: w for w in (
            Workload("grid", "campaign", tiny, ("cmp", "all"), 2, 1),
            Workload("deep", "campaign", tiny, ("all",), 8, 1, jobs=1),
            Workload("adaptive", "campaign", tiny, ("all",), 40, 1,
                     ci_margin=0.3, round_size=10),
            Workload("service", "service", tiny, ("cmp", "all"), 2, 1),
        )}
    return {w.name: w for w in (
        Workload("grid", "campaign", everything, tuple(CATEGORIES), 12, 15.0),
        Workload("deep", "campaign", ("libquantumm",), ("all",), 240, 8.5,
                 jobs=1),
        Workload("adaptive", "campaign", ("hmmerm",), ("cmp", "all"), 300,
                 7.0, ci_margin=0.1, round_size=30),
        Workload("service", "service", ("libquantumm", "mcfm"),
                 tuple(CATEGORIES), 12, 11.0),
    )}


def reference_key(cell: Cell, config: CampaignConfig, service: bool) -> str:
    """reference.json key of one cell: local cells pin
    ``to_json(include_records=True)``, service cells the fetched
    ``to_json()``, which carries no records."""
    request = CampaignRequest.from_config(cell.workload, cell.tool,
                                          cell.category, config)
    return ("service:" if service else "local:") + request.key()


# -- results of one pass -------------------------------------------------------

@dataclass
class PassResult:
    #: Seconds spent issuing every cell once: the pass's real work.
    wall: float = 0.0
    slots: int = 0
    #: Per cell: its result's ``to_json()``.
    results: Dict[Cell, dict] = field(default_factory=dict)
    #: Per cell, in issue order: seconds its caller waited for the
    #: result (the ``campaign_cell`` call, or service submit to fetched).
    waits: List[float] = field(default_factory=list)
    #: Service only: the id of each new job, then the ids and
    #: milliseconds of the jobs the store answered.
    jobs: List[int] = field(default_factory=list)
    hit_jobs: List[int] = field(default_factory=list)
    hit_ms: List[float] = field(default_factory=list)


class Checker:
    """The reference-digest gate: every result must match
    ``reference.json``."""

    def __init__(self, reference: Dict[str, str], ledger: Ledger) -> None:
        self.reference = reference
        self.ledger = ledger

    def check(self, key: str, data: dict) -> bool:
        got = digest(data)
        want = self.reference.get(key)
        ok = got == want
        if not ok:
            print(f"digest mismatch for {key}: got {got}, want {want}",
                  file=sys.stderr)
        return self.ledger.record(ok)


def _span(spans: Optional[SpanRecorder], name: str):
    return spans.span(name) if spans is not None else contextlib.nullcontext()


def _failed(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# -- campaign workloads --------------------------------------------------------

class CampaignRunner:
    """grid, deep and adaptive: ``campaign_cell`` in this process."""

    def __init__(self, workload: Workload, work: str,
                 checker: Checker) -> None:
        self.workload = workload
        self.config = workload.config()
        self.work = work
        self.checker = checker
        self.ledger = checker.ledger
        self.spans: Optional[SpanRecorder] = None
        #: Whole-program preparation runs, Minstr and snapshots held
        #: after the last setup.
        self.prep: Dict[str, float] = {}

    def setup(self) -> float:
        """Build and prepare (golden run, profiling, checkpoint
        recording) every injector the workload uses, from scratch: the
        program's per-process build and injector caches are emptied
        first, so every repetition does the same work."""
        for program in self.workload.programs:
            forget_workload(program)
            entry = registry.get(program)
            registry.unregister(program)
            registry.register(entry)
        # Free the previous repetition's injectors now, so their garbage
        # never adds to main_peak_rss_mb.
        gc.collect()
        t0 = time.perf_counter()
        injectors = [injector_for_spec(InjectorSpec(program, tool))
                     for program in self.workload.programs
                     for tool in TOOLS]
        for injector in injectors:
            prepare_campaign(injector, "all", self.config)
        elapsed = time.perf_counter() - t0
        self.prep = {
            "runs": sum(i.executions for i in injectors),
            "minstr": sum(i.instructions_simulated for i in injectors) / 1e6,
            "checkpoints": sum(len(i.ensure_checkpoints() or ())
                               for i in injectors),
        }
        return elapsed

    def run_pass(self, tag: str, order: Sequence[Cell],
                 trace_dir: Optional[str] = None) -> PassResult:
        """Issue every cell once into a fresh store.  There is no hit
        phase: a local store hit takes some 30 microseconds, too little
        to time steadily on a shared machine, and no user waits on it.

        Garbage is collected before each cell, outside the timing.
        Without it, how much of one cell's cyclic garbage was still
        waiting for the collector when the next cell peaked depended on
        the cell order, and moved ``deep``'s peak RSS between 247 and
        416 MiB from seed to seed; with it, 200-204 MiB."""
        store = DirectoryStore(os.path.join(self.work, f"store-{tag}"))
        config = dataclasses.replace(self.config, trace_dir=trace_dir)
        out = PassResult()
        for cell in order:
            gc.collect()
            t0 = time.perf_counter()
            try:
                with _span(self.spans, "cell"):
                    result = campaign_cell(cell.workload, cell.tool,
                                           cell.category, config, store=store)
            except Exception:
                _failed(f"{self.workload.name} {cell}")
                self.ledger.record(False)
                continue
            finally:
                wait = time.perf_counter() - t0
                out.wall += wait
            out.waits.append(wait)
            key = reference_key(cell, config, service=False)
            if self.checker.check(key, result.to_json(include_records=True)):
                out.results[cell] = result.to_json()
            out.slots += result.trials
        return out

    def close(self) -> None:
        shutdown_pool()

    def peak_rss(self) -> Tuple[float, float]:
        """Peak RSS in MiB of this process, which drives the campaigns,
        and of the largest pool worker (0 at ``jobs=1``).  Read after
        :meth:`close`, so the workers have been waited for."""
        main = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return main, workers / 1024 if self.workload.jobs > 1 else 0.0


# -- the service workload ------------------------------------------------------

_LISTENING = re.compile(r"listening on (http://\S+)")


def _children(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(c) for c in f.read().split()]
    except OSError:
        return []


def _peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process in MiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _is_service_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            argv = f.read().split(b"\0")
    except OSError:
        return False
    return b"repro.service" in argv and b"worker" in argv


def _default_sigint() -> None:
    # A shell starting a command in the background makes it ignore
    # SIGINT, and that survives exec; the server must see SIGINT, since
    # only its KeyboardInterrupt path stops its workers.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """``python -m repro.service serve`` as a child process."""

    def __init__(self, root: str, db: str, log: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        with open(log, "w") as log_file:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--store", f"sqlite:{db}", "--port", "0",
                 "--workers", "2"],
                cwd=root, env=env, stdout=subprocess.PIPE, stderr=log_file,
                preexec_fn=_default_sigint)
        self.url = self._address(deadline=time.monotonic() + 60)

    def _address(self, deadline: float) -> str:
        line = b""
        while not line.endswith(b"\n"):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("campaign service did not start")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                line += os.read(self.proc.stdout.fileno(), 4096)
        match = _LISTENING.search(line.decode())
        if match is None:
            self.stop()
            raise RuntimeError(f"unexpected service banner {line!r}")
        return match.group(1)

    def stop(self) -> bool:
        """Read the peak RSS of the server and its workers, then SIGINT
        (SIGTERM would orphan the workers), wait, and report whether
        every spawned worker is gone; stragglers are killed and
        awaited."""
        workers = _children(self.proc.pid)
        self.peak_rss = (_peak_rss_mb(self.proc.pid),
                         max(map(_peak_rss_mb, workers), default=0.0))
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        alive = [pid for pid in workers if _is_service_worker(pid)]
        for pid in alive:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while (any(_is_service_worker(pid) for pid in alive)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        return not alive


class ServiceRunner:
    """The campaign service under load from two closed-loop clients."""

    def __init__(self, workload: Workload, work: str, checker: Checker,
                 root: str, hits_per_pass: int) -> None:
        self.workload = workload
        self.hits_per_pass = hits_per_pass
        self.config = workload.config()
        self.work = work
        self.root = root
        self.checker = checker
        self.ledger = checker.ledger
        self.spans: Optional[SpanRecorder] = None
        self.server: Optional[Server] = None
        #: Peak RSS in MiB of the last server stopped and of its largest
        #: worker; read by :meth:`peak_rss`.
        self.last_peak_rss = (0.0, 0.0)
        #: Store of the last server started; read by :meth:`rows`.
        self.db = ""
        self.setups = 0
        #: Job ids of the last set-up's warm-up jobs.
        self.warmup_jobs: List[int] = []

    def request(self, cell: Cell, variant: str) -> CampaignRequest:
        return CampaignRequest.from_config(cell.workload, cell.tool,
                                           cell.category, self.config,
                                           variant=variant)

    def setup(self) -> float:
        """Server start until the last warm-up job (one per program and
        tool, 2 shards, so the workers build and prepare the injectors)
        has been fetched.  A repeated set-up first stops the previous
        server and starts over on a fresh store."""
        self.stop_server()
        self.setups += 1
        self.db = os.path.join(self.work, f"service-{self.setups}.db")
        t0 = time.perf_counter()
        self.server = Server(self.root, self.db,
                             os.path.join(self.work, "service.log"))
        warmups = [CampaignRequest(program, tool, "all", trials=2,
                                   seed=self.config.seed, variant="warmup")
                   for program in self.workload.programs for tool in TOOLS]
        done = self.closed_loop(warmups)
        elapsed = time.perf_counter() - t0
        for _request, job, _latency, data in done:
            self.ledger.record(data is not None)
        self.warmup_jobs = [job for _, job, _, _ in done]
        return elapsed

    def _one(self, request: CampaignRequest):
        """submit -> wait -> fetch; (job id, seconds, result JSON or
        None on failure)."""
        t0 = time.perf_counter()
        job = -1
        try:
            with _span(self.spans, "service.submit"):
                job = client.submit(self.server.url, request,
                                    shards=self.workload.shards)["job"]
            state = client.wait(self.server.url, job,
                                timeout_s=JOB_TIMEOUT_S, poll_s=POLL_S)
            if state["state"] != "done":
                print(f"job {job} ended {state['state']}: "
                      f"{state.get('error')}", file=sys.stderr)
                return job, time.perf_counter() - t0, None
            with _span(self.spans, "service.fetch"):
                result = client.fetch(self.server.url, job)
        except Exception:
            _failed(f"service job {request.key()}")
            return job, time.perf_counter() - t0, None
        return job, time.perf_counter() - t0, result.to_json()

    def closed_loop(self, requests: Sequence[CampaignRequest]):
        """Two client threads, one request in flight each; returns
        (request, job, seconds, result JSON or None) in request order."""
        out: List[Optional[tuple]] = [None] * len(requests)
        lock = threading.Lock()
        pending = iter(range(len(requests)))

        def client_thread():
            while True:
                with lock:
                    i = next(pending, None)
                if i is None:
                    return
                out[i] = (requests[i],) + self._one(requests[i])

        threads = [threading.Thread(target=client_thread) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return out

    def run_pass(self, tag: str, order: Sequence[Cell],
                 trace_dir: Optional[str] = None) -> PassResult:
        """Submit every cell as a new job (``tag`` is its variant, so no
        earlier pass can have cached it), then re-submit
        :attr:`hits_per_pass` of them, which the store answers.
        ``trace_dir`` is ignored: the service takes no tracing knob, so
        its workers write no manifests."""
        out = PassResult()
        requests = [self.request(cell, tag) for cell in order]
        t0 = time.perf_counter()
        done = self.closed_loop(requests)
        out.wall = time.perf_counter() - t0
        for cell, (_request, job, seconds, data) in zip(order, done):
            out.jobs.append(job)
            out.waits.append(seconds)
            if data is None:
                self.ledger.record(False)
                continue
            key = reference_key(cell, self.config, service=True)
            if self.checker.check(key, data):
                out.results[cell] = data
            out.slots += data["trials"]
        again = [order[i % len(order)] for i in range(self.hits_per_pass)]
        for cell, (_request, job, seconds, data) in zip(
                again, self.closed_loop([self.request(cell, tag)
                                         for cell in again])):
            out.hit_jobs.append(job)
            out.hit_ms.append(seconds * 1e3)
            self.ledger.record(data is not None
                               and data == out.results.get(cell))
        return out

    def rows(self) -> Tuple[Dict[int, dict], Dict[int, List[dict]]]:
        """Jobs and shards of the last server's store, read after it
        stopped."""
        store = SQLiteStore(self.db)
        try:
            jobs = {job["id"]: job for job in store.jobs()}
            shards = {job_id: store.shards_for(job_id) for job_id in jobs}
        finally:
            store.close()
        return jobs, shards

    def stop_server(self) -> None:
        if self.server is not None:
            self.ledger.record(self.server.stop())
            self.last_peak_rss = self.server.peak_rss
            self.server = None

    def close(self) -> None:
        self.stop_server()
        shutdown_pool()

    def peak_rss(self) -> Tuple[float, float]:
        """Peak RSS in MiB of the last server stopped and of its largest
        worker."""
        return self.last_peak_rss

