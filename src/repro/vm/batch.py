"""Batched suffix execution: fork N trials from one shared prefix.

The campaign scheduler already groups a round's trials by (category,
checkpoint) bucket (``repro.fi.campaign.order_round``).  This module is
the execution half: instead of N scalar runs that each restore the
bucket's checkpoint and replay the same golden prefix up to their
injection point, one **sweep** machine replays the bucket's shared
prefix once, and each trial **forks** from it at its own injection
boundary:

* The sweep restores the checkpoint once (or cold-starts for the
  pre-checkpoint bucket) over a :class:`~repro.vm.memory.COWMemory`
  built zero-copy from the bucket's decoded snapshot images, and runs
  with a plain candidate-counting hook — it is the golden execution, so
  every lane agrees with it up to its fork point by determinism.
* At each instruction boundary the sweep checks its pending instruction:
  when the next retired candidate would be some waiting lane's dynamic
  instance ``k``, that lane forks — an O(pages) copy-on-write memory
  fork plus a shallow state snapshot (registers / frame stack), no
  memory copied at all until someone writes.
* The forked lane is an ordinary engine instance that re-executes the
  pending candidate under its own injection hook and runs the existing
  scalar main loop to completion — so a lane diverges from the batch
  *lazily and for free*: nothing downstream depends on the batched fast
  path, and results are bit-identical to the scalar path by
  construction.
* A lane whose ``k`` cannot land on an exact instruction boundary (IR
  phi batches and call results retire between boundaries) is *detached*:
  the caller runs it through the unmodified scalar path instead.

Lock-stepping N identical machines (the obvious reading of "batched")
would be strictly more work here: until its injection point every lane
is byte-identical to the sweep, so the agreeing-lanes lane-array
degenerates to one shared machine — which is what this implements (see
DESIGN.md for the argument).

Both engines share one driver (:func:`run_batch`, which takes the
engine from the caller's template machine) and one fork/detach decision
(:class:`_Sweep`); the per-engine sweeps only locate the pending
instruction.

Layering: this module knows nothing about fault injection.  Lane
requests are opaque objects with a ``k`` attribute; injection hooks are
built by a caller-supplied ``hook_for`` factory
(:meth:`repro.fi.base.BaseInjector.run_batch` passes its tool's
injection hook and reads the fault record back off it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.vm.asmsim import AsmHook, AsmSimulator
from repro.vm.irinterp import InterpHook, IRInterpreter
from repro.vm.memory import COWMemory, CowStats
from repro.vm.result import ExecutionResult
from repro.vm.snapshot import Checkpoint, MachineSnapshot

#: Lanes per batch group when ``--batch`` is negative ("auto").
DEFAULT_BATCH_LANES = 32


class _SweepDone(Exception):
    """Raised inside the sweep once every waiting lane has forked or
    detached; unwinds the engine main loop without touching its result
    handling (``run()`` only catches Trap/HangTimeout)."""


def _no_sink(snapshot: MachineSnapshot) -> None:
    """Checkpoint sink passed to sweep engines purely to turn the
    per-boundary recording check on; never actually called (the sweeps
    override ``_take_checkpoint``)."""
    raise AssertionError("sweep checkpoint sink should never fire")


@dataclass
class _Fork:
    """A lane peeled off the sweep at its injection boundary."""

    request: object
    #: Memoryless machine snapshot at the fork boundary (shared between
    #: lanes forked at the same boundary; restore() copies per lane).
    snapshot: MachineSnapshot
    #: Private COW view of the sweep's memory at the boundary.
    memory: COWMemory
    #: Dynamic candidate count at the boundary (the lane's hook resumes
    #: counting here, exactly like a checkpoint restore).
    count: int


@dataclass
class LaneRun:
    """One forked lane, run to completion."""

    request: object
    hook: object
    machine: object
    result: ExecutionResult
    #: Shared-prefix instructions this lane skipped (its fork boundary).
    fork_executed: int
    wall_s: float


@dataclass
class BatchStats:
    """Per-group accounting for manifests and benchmarks."""

    lanes: int = 0
    forked: int = 0
    detached: int = 0
    #: Instructions the sweep retired once on behalf of every forked lane.
    shared_instructions: int = 0
    #: Instructions the lanes retired themselves (suffixes + detached
    #: scalar runs); filled in by the injector.
    lane_instructions: int = 0
    sweep_wall_s: float = 0.0
    #: COW page traffic (see repro.vm.memory.CowStats).
    forks: int = 0
    pages_shared: int = 0
    pages_cow: int = 0

    def to_record(self, round_no: int, group: int, checkpoint: int) -> dict:
        return {
            "round": round_no,
            "group": group,
            "checkpoint": checkpoint,
            "lanes": self.lanes,
            "forked": self.forked,
            "detached": self.detached,
            "shared_instructions": self.shared_instructions,
            "lane_instructions": self.lane_instructions,
            "sweep_wall_s": round(self.sweep_wall_s, 6),
            "forks": self.forks,
            "pages_shared": self.pages_shared,
            "pages_cow": self.pages_cow,
        }


class _CountingHook(InterpHook, AsmHook):
    """Counts retired candidates on either engine (the engine's
    hook_filter pre-selects them), mirroring the injectors' counting
    exactly."""

    def __init__(self, count: int) -> None:
        self.count = count

    def on_result(self, inst, value, interp):
        self.count += 1
        return value

    def on_executed(self, inst, sim) -> None:
        self.count += 1


class _Sweep:
    """Golden sweep over a bucket's shared prefix, mixed into an engine.

    Runs with ``checkpoint_stride=1`` and ``_next_checkpoint=0`` so the
    recording branch of the main loop fires at *every* instruction
    boundary, with ``_take_checkpoint`` overridden to make the
    fork/detach decision instead of recording a snapshot.  The sweep
    never compiles: a compiled recording run only checks its tap at
    segment boundaries, and a lane may fork at any instruction."""

    def __init__(self, subject, requests, base_count: int, **kwargs) -> None:
        super().__init__(subject, hook=_CountingHook(base_count),
                         checkpoint_stride=1, checkpoint_sink=_no_sink,
                         compile_blocks=False, **kwargs)
        # Fire the boundary check from the very first boundary (executed
        # may be 0 on a cold start); never advanced, so it fires at all.
        self._next_checkpoint = 0
        self._waiting = sorted(requests, key=lambda r: r.k)
        self._forks: List[_Fork] = []
        self._missed: List[object] = []

    def _take_checkpoint(self, *loc) -> None:
        # ``loc`` is the asm tier's program counter; the IR tier passes
        # none (its frames carry their resume positions).
        count = self.hook.count
        waiting = self._waiting
        while waiting and waiting[0].k <= count:
            # The lane's k retired between boundaries (IR phi batches
            # and pending-call results; never at the asm tier, where
            # every candidate is a boundary instruction): detach it to
            # the scalar path.
            self._missed.append(waiting.pop(0))
        if not waiting:
            raise _SweepDone
        if waiting[0].k == count + 1 \
                and id(self._pending(*loc)) in self.hook_filter:
            snapshot = self.capture(*loc, include_memory=False)
            while waiting and waiting[0].k == count + 1:
                self._forks.append(_Fork(waiting.pop(0), snapshot,
                                         self.memory.fork(), count))
            if not waiting:
                raise _SweepDone


class _AsmSweep(_Sweep, AsmSimulator):
    def _pending(self, loc):
        return loc.func.blocks[loc.block][loc.index]


class _IRSweep(_Sweep, IRInterpreter):
    def _pending(self):
        frame = self.current_frame
        return frame.resume_block.instructions[frame.resume_index]


def _bucket_memory(checkpoint: Optional[Checkpoint],
                   decoded_images: Optional[Sequence[bytes]],
                   pristine_layout: Sequence[Tuple[str, int, int]],
                   pristine_images: Sequence[bytes],
                   stats: CowStats) -> COWMemory:
    """COW memory over the bucket's shared image: the checkpoint's
    decoded regions, or the pristine program image for the cold bucket.
    Zero bytes are copied either way."""
    if checkpoint is not None:
        layout = [(img.name, img.base, img.size)
                  for img in checkpoint.snapshot.memory]
        return COWMemory.from_images(layout, decoded_images, stats)
    return COWMemory.from_images(pristine_layout, pristine_images, stats)


def run_batch(template: Union[IRInterpreter, AsmSimulator],
              requests: Sequence[object], *,
              candidate_ids: frozenset,
              hook_for: Callable[[object], object],
              budget: int,
              pristine: Tuple[Sequence[Tuple[str, int, int]],
                              Sequence[bytes]],
              checkpoint: Optional[Checkpoint] = None,
              decoded_images: Optional[Sequence[bytes]] = None,
              base_count: int = 0,
              compile_blocks: bool = True):
    """One bucket's worth of trials: shared sweep + COW forks.

    ``template`` is a never-run engine of either tier; the sweep and
    every lane are engines of its type sharing its tables.
    ``pristine`` is its cold-start image (:func:`pristine_image_of`).
    Returns ``(lane_runs, detached_requests, stats)``; detached requests
    must be run by the caller through the scalar path."""
    if isinstance(template, IRInterpreter):
        sweep_type, subject = _IRSweep, template.module
    else:
        sweep_type, subject = _AsmSweep, template.program

    def engine(engine_type, memory, **kwargs):
        return engine_type(subject, max_instructions=budget,
                           max_call_depth=template.max_call_depth,
                           hook_filter=candidate_ids, template=template,
                           memory=memory, **kwargs)

    cow_stats = CowStats()
    memory = _bucket_memory(checkpoint, decoded_images, *pristine,
                            cow_stats)
    t0 = time.perf_counter()
    sweep = engine(sweep_type, memory, requests=requests,
                   base_count=base_count)
    start_executed = 0
    if checkpoint is not None:
        sweep.restore(checkpoint.snapshot, skip_memory=True)
        start_executed = checkpoint.snapshot.executed
    try:
        sweep.run()
    except _SweepDone:
        pass
    sweep_wall = time.perf_counter() - t0

    runs: List[LaneRun] = []
    for fork in sweep._forks:
        t0 = time.perf_counter()
        hook = hook_for(fork.request)
        hook.count = fork.count
        lane = engine(type(template), fork.memory, hook=hook,
                      compile_blocks=compile_blocks)
        lane.restore(fork.snapshot, skip_memory=True)
        result = lane.run()
        runs.append(LaneRun(fork.request, hook, lane, result,
                            fork.snapshot.executed,
                            time.perf_counter() - t0))
    detached = sweep._missed + sweep._waiting
    stats = BatchStats(
        lanes=len(requests),
        forked=len(runs),
        detached=len(detached),
        shared_instructions=sweep.executed - start_executed,
        sweep_wall_s=sweep_wall,
        forks=cow_stats.forks,
        pages_shared=cow_stats.pages_shared,
        pages_cow=cow_stats.pages_cow,
    )
    return runs, detached, stats


def pristine_image_of(machine) -> Tuple[Tuple[Tuple[str, int, int], ...],
                                        Tuple[bytes, ...]]:
    """(layout, full-region images) of a never-run engine's memory — the
    cold-bucket base image.  Captured once per injector off its template
    machine and shared by every cold sweep."""
    regions = machine.memory.regions()
    layout = tuple((r.name, r.base, r.size) for r in regions)
    images = tuple(bytes(r.data) for r in regions)
    return layout, images
