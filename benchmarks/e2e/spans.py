"""In-memory spans around the program's public calls, recorded from the
benchmark's own process.

The benchmark never edits the program: it wraps public functions and
methods in place for the traced run and restores them afterwards.  A
name that another module imported with ``from x import name`` is a
separate binding, so :data:`WRAPS` lists it in every module that holds
it; wrapping only the defining module would miss those calls.

Only the process that installed the wrappers records: a forked pool
worker inherits them and calls straight through, so workers pay nothing
and their numbers come from the program's run manifests instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute, span name).  An attribute of the form
#: ``Class.method`` wraps a method on that class.
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.minic.compiler", "compile_source", "compile.minic"),
    ("repro.minic", "compile_source", "compile.minic"),
    ("repro.workloads.registry", "compile_source", "compile.minic"),
    ("repro.backend.compiler", "compile_module", "compile.backend"),
    ("repro.backend", "compile_module", "compile.backend"),
    ("repro.workloads.registry", "compile_module", "compile.backend"),
    ("repro.fi.base", "BaseInjector.golden", "prep.golden"),
    ("repro.fi.base", "BaseInjector.ensure_checkpoints", "prep.ckpt_record"),
    ("repro.fi.llfi", "LLFIInjector.run_with_fault", "vm.run_with_fault"),
    ("repro.fi.pinfi", "PINFIInjector.run_with_fault", "vm.run_with_fault"),
    ("repro.fi.campaign", "run_trial_slot", "campaign.slot"),
    ("repro.fi.engine", "run_trial_slot", "campaign.slot"),
    ("repro.fi.campaign", "order_round", "campaign.order"),
    ("repro.fi.engine", "order_round", "campaign.order"),
    ("repro.fi.campaign", "order_round_batches", "campaign.order"),
    ("repro.fi.engine", "order_round_batches", "campaign.order"),
    ("repro.service.store", "DirectoryStore.put_result", "store.put"),
    ("repro.service.store", "DirectoryStore.get_result", "store.get"),
)

class SpanRecorder:
    """Spans of one benchmark process: name, start, end, parent id and
    run id, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.run = ""
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, keep: Optional[Callable[[], bool]] = None):
        """Record the enclosed block as one span; ``keep()``, called at
        the end, may veto it."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if keep is None or keep():
                self.spans.append({"id": span_id, "name": name,
                                   "start": start, "end": end,
                                   "parent": parent, "run": self.run})

    def select(self, name: str, run: Optional[str] = None) -> List[dict]:
        return [s for s in self.spans
                if s["name"] == name and (run is None or s["run"] == run)]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children may overlap each other (threads), so the covered part is
    the length of the union of their intervals, clipped to the parent."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def _wrap(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    # ensure_checkpoints runs once per injection run as a memo lookup;
    # only the calls that record (the injector's run count moved) are
    # kept, so the span list stays small and its sum means recording.
    keep_only_if_runs = name == "prep.ckpt_record"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != recorder.pid:
            return fn(*args, **kwargs)
        keep = None
        if keep_only_if_runs:
            before = args[0].executions
            keep = lambda: args[0].executions != before  # noqa: E731
        with recorder.span(name, keep):
            return fn(*args, **kwargs)

    return wrapper


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every :data:`WRAPS` entry; returns the function that restores
    the originals."""
    undo = []
    for module_name, attr, name in WRAPS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, _wrap(recorder, name, original))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
