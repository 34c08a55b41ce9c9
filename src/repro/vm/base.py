"""BaseEngine: the run protocol both execution engines share.

The IR interpreter (under LLFI) and the SimX86 simulator (under PINFI)
simulate different machines, but the paper's comparison of the two tools
is only sound if both end a run the same way: a trap is a crash, the
instruction budget is a hang, and a run that converged onto a golden
checkpoint is the golden run.  :class:`BaseEngine` defines that protocol
once: the run state (budget, call-depth limit, hook, output, heap,
retired instructions, activation, runtime counters), the boundary tap
that records checkpoints or takes the convergence exit
(``_take_checkpoint``, :meth:`~BaseEngine.probe`), :meth:`~BaseEngine.run`
with its outcome and recorder counters, and the engine-independent half
of ``capture`` and ``restore``.  A subclass keeps only its machine: its
state, its main loop ``_execute(entry)``, the state dict of its
snapshots, its half of ``restore`` and ``_converged_on``, the state
comparison behind the convergence exit.

A :class:`Hook` is how fault injection, candidate counting and tracing
observe a run; its ``filter`` decides which instructions reach it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import ReproError
from repro.obs import get_recorder
from repro.vm.io import OutputBuffer
from repro.vm.memory import BumpAllocator
from repro.vm.result import ExecutionResult
from repro.vm.snapshot import (
    NEVER, Converged, ConvergenceProbe, MachineSnapshot, capture_memory,
    restore_memory,
)
from repro.vm.traps import HangTimeout, Trap


class Hook:
    """Base class for the hooks both engines call (fault injection,
    candidate counting, tracing).  The IR interpreter calls
    :meth:`on_result`, the simulator :meth:`on_executed`."""

    #: Ids (``id()``) of the instructions the engine calls this hook for;
    #: None means every instruction.  Fault injectors set it to their
    #: candidate set, keeping per-instruction overhead off the hot path.
    filter: Optional[frozenset] = None

    #: Set to True by hooks that will never act again this run (e.g. an
    #: injection hook after it fired).  From then on the engine chains
    #: compiled segments (see repro.vm.blockcache).
    finished = False

    def on_result(self, inst, value, interp):
        """Called after each value-producing instruction; the return value
        replaces the instruction's result."""
        return value

    def on_executed(self, inst, sim) -> None:
        """Called after each instruction retires; may corrupt state."""

    def on_segment(self, segment) -> bool:
        """May compiled ``segment`` (a :class:`~repro.vm.blockcache.Segment`)
        run in place of one ``on_result`` / ``on_executed`` call per
        candidate in it?  A hook that answers True has booked the
        segment's candidates (``segment.ids``, or
        :meth:`~repro.vm.blockcache.Segment.candidates` for its own
        candidate set) and will not act on them; False runs the segment
        on the scalar loop.  The default keeps every call."""
        return False


class BaseEngine:
    """Run state, boundary tap, convergence exit and outcome of one run
    of either engine."""

    #: Recorder counter namespace ("vm.ir" or "vm.asm").
    counter_prefix: str

    def __init__(self, max_instructions: int, max_call_depth: int,
                 hook: Optional[Hook], checkpoint_stride: int,
                 checkpoint_sink: Optional[Callable], template, memory,
                 compile_blocks: bool) -> None:
        if (template is None) != (memory is None):
            raise ReproError("template and memory must be given together")
        self.max_instructions = max_instructions
        self.max_call_depth = max_call_depth
        self.hook = hook
        #: The hook's filter, read once per run by the main loop.
        self.hook_filter = hook.filter if hook is not None else None
        self.output = OutputBuffer()
        self.heap = BumpAllocator()
        self.executed = 0
        self.call_depth = 0
        #: Set when a planted fault is read; cleared never (one injection
        #: per run).  Read by the fault-injection campaign.
        self.fault_activated = False
        #: Checkpoint recording: every ``checkpoint_stride`` retired
        #: instructions (0 = off), pass a MachineSnapshot to the sink; a
        #: sink may return a new stride (a provisional recording).
        self._checkpoint_stride = checkpoint_stride
        self._checkpoint_sink = checkpoint_sink
        self._recording = checkpoint_sink is not None and checkpoint_stride > 0
        #: Boundary tap: armed while recording or probing (see probe()),
        #: at ``_next_checkpoint`` (NEVER while unarmed, which compiled
        #: regions read as their mark).
        self._tap = self._recording
        self._next_checkpoint = checkpoint_stride if self._recording \
            else NEVER
        self._probe: Optional[ConvergenceProbe] = None
        #: Set when run() returned through the convergence exit; the run
        #: simulated up to ``executed`` and reports the golden result.
        self.converged = False
        #: Generated-source regions (see repro.vm.blockcache) on or off.
        self._compiling = compile_blocks
        #: Runtime counters: entries into the dispatch loop, segments run
        #: compiled (chained ones included) and segments that fell back to
        #: the scalar loop while compilation was on.
        self.dispatches = 0
        self.compiled_blocks = 0
        self.fallback_blocks = 0

    # -- snapshot / restore ----------------------------------------------------
    def _snapshot(self, state: dict, include_memory: bool) -> MachineSnapshot:
        """The snapshot of this boundary around the engine's ``state``.

        ``include_memory=False`` leaves the memory images empty — for
        batched forks, which carry memory separately as a COW fork."""
        return MachineSnapshot(
            executed=self.executed,
            call_depth=self.call_depth,
            memory=capture_memory(self.memory) if include_memory else (),
            heap=self.heap.checkpoint(),
            output=self.output.checkpoint(),
            state=state)

    def restore(self, snapshot: MachineSnapshot,
                skip_memory: bool = False) -> None:
        """Load a snapshot; the next run() continues from its boundary
        instead of entering ``main``.  The snapshot is not consumed — any
        number of engines (over the same program instance) may restore
        from the same one.

        ``skip_memory`` — leave ``self.memory`` untouched (the engine was
        built over memory that already holds the snapshot's bytes: an
        injection run's span-built memory or a batched lane's COW fork)."""
        if not skip_memory:
            restore_memory(self.memory, snapshot.memory)
        self.heap.restore(snapshot.heap)
        self.output.restore(snapshot.output)
        self.executed = snapshot.executed

    # -- boundary tap ------------------------------------------------------------
    def _take_checkpoint(self, *position) -> None:
        """The tap at ``_next_checkpoint``: take the convergence exit or
        arm the next mark when probing, else pass this boundary's
        snapshot to the sink.  ``position`` is the asm tier's program
        counter; the IR tier passes none (its frames carry their resume
        positions)."""
        probe = self._probe
        if probe is not None:
            mark = probe.due(self.executed)
            hook = self.hook
            if (mark is not None and (hook is None or hook.finished)
                    and self._converged_on(mark, *position)):
                raise Converged
            self._next_checkpoint = probe.next_executed()
            return
        stride = self._checkpoint_sink(self.capture(*position))
        if stride:
            self._checkpoint_stride = stride
        self._next_checkpoint = self.executed + self._checkpoint_stride

    def probe(self, marks: Sequence[MachineSnapshot], first: int,
              final: ExecutionResult) -> None:
        """Arm the convergence exit for the next run(): at each of the
        golden ``marks[first:]`` it lands on, the run stops and returns
        ``final`` (the golden result) if its hook will never act again
        and its state equals the mark (see
        :class:`~repro.vm.snapshot.ConvergenceProbe`).  Not armed when
        the golden run would not fit this run's budget — then the run
        itself must hang."""
        if first >= len(marks) or final.instructions > self.max_instructions:
            return
        self._probe = ConvergenceProbe(marks, first, final)
        self._tap = True
        self._next_checkpoint = marks[first].executed

    # -- top level -------------------------------------------------------------
    def run(self, entry: str = "main") -> ExecutionResult:
        """Run the program and classify the outcome: ``ok``, ``trap``
        (a crash), ``hang`` (the instruction budget ran out) or, through
        the convergence exit, the golden result."""
        try:
            exit_value = self._execute(entry)
            outcome = ExecutionResult("ok", None, self.output.text(),
                                      self.executed, exit_value)
        except Converged:
            self.converged = True
            outcome = self._probe.final
        except Trap as trap:
            # Keep no traceback: its frames would tie this engine (and its
            # address space) into a cycle with the stored result.
            outcome = ExecutionResult("trap", trap.with_traceback(None),
                                      self.output.text(), self.executed)
        except HangTimeout:
            outcome = ExecutionResult("hang", None, self.output.text(),
                                      self.executed)
        # Observability: one recorder call per whole-program run — never
        # per instruction — so the disabled path costs a no-op call.
        rec = get_recorder()
        if rec.enabled:
            prefix = self.counter_prefix
            rec.incr(f"{prefix}.runs")
            rec.incr(f"{prefix}.instructions", outcome.instructions)
            if self.dispatches:
                rec.incr(f"{prefix}.dispatches", self.dispatches)
            if self.compiled_blocks:
                rec.incr(f"{prefix}.compiled_blocks", self.compiled_blocks)
            if self.fallback_blocks:
                rec.incr(f"{prefix}.fallback_blocks", self.fallback_blocks)
            if outcome.hung:
                rec.incr(f"{prefix}.hang_budget_trips")
            elif outcome.crashed:
                rec.incr(f"{prefix}.traps")
        return outcome
