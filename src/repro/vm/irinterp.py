"""IR interpreter: executes repro-IR modules directly.

This is the runtime under LLFI. It mirrors LLVM IR semantics with the
following deliberate deviations, chosen so that both execution engines
behave identically under injected faults (the paper's comparison would be
confounded otherwise):

* shift counts are masked to the operand width (x86 semantics) instead of
  producing poison;
* ``sdiv INT_MIN, -1`` and division by zero trap (x86 ``#DE``) instead of
  being undefined;
* out-of-range ``fptosi`` produces the x86 "integer indefinite"
  (``0x8000...``) instead of poison.

Faults are delivered through an optional :class:`InterpHook`: after an
instruction with a result executes, the hook may replace the result value
(LLFI's injection hook lives in :mod:`repro.fi.llfi`). Activation tracking
is a single identity comparison on the operand-read path.

Instruction, cast and binary-op semantics dispatch through precomputed
tables of plain functions (``IRInterpreter._dispatch`` and module-level
dicts) instead of if/elif chains.  The tables are class- or module-level
on purpose: a per-instance table of bound methods would make every
interpreter a reference cycle, keeping its 5 MiB address space alive
until the cyclic collector runs.

The interpreter supports ``capture()``/``restore()`` of its complete state
(see :mod:`repro.vm.snapshot`).  Because the simulated call stack is the
Python call stack, a snapshot stores one :class:`~repro.vm.snapshot.FrameState`
per live frame; ``restore()`` + ``run()`` rebuilds the recursion and
continues at the captured instruction boundary, retiring the exact stream
a cold run would from there — which is what lets fault-injection trials
skip their fault-free prefix.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.ir import types as irty
from repro.ir.instructions import (
    Alloca, BinaryOp, Branch, Call, Cast, FCmp, GetElementPtr, ICmp,
    Instruction, Load, Phi, Ret, Select, Store, Unreachable,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import (
    Argument, ConstantDouble, ConstantInt, ConstantNull, ConstantUndef,
    GlobalVariable, Value, wrap_signed,
)
from repro.obs import get_recorder
from repro.vm.io import OutputBuffer
from repro.vm.memory import BumpAllocator, STACK_TOP
from repro.vm.result import ExecutionResult
from repro.vm.snapshot import (
    Converged, ConvergenceProbe, FrameState, MachineSnapshot,
    capture_memory, memory_matches, restore_memory,
)
from repro.vm.blockcache import UNCOMPILABLE, cache_for, compile_ir_segment
from repro.vm.traps import HangTimeout, Trap, TrapKind

MASK64 = (1 << 64) - 1
_MISSING = object()


def _same_values(live: Dict[int, object], frozen: Dict[int, object]) -> bool:
    """SSA value maps equal bit for bit: type-strict (``True == 1`` in
    Python) and floats by their bits (``0.0 == -0.0``, NaN != NaN)."""
    if len(live) != len(frozen):
        return False
    for key, value in live.items():
        other = frozen.get(key, _MISSING)
        if type(value) is not type(other):
            return False
        if type(value) is float:
            if struct.pack("<d", value) != struct.pack("<d", other):
                return False
        elif value != other:
            return False
    return True


class InterpHook:
    """Base class for fault-injection hooks into the interpreter."""

    #: Set to True by hooks that will never act again this run (e.g. an
    #: injection hook after it fired).  The block compiler uses this to
    #: run the post-injection suffix on the compiled path.
    finished = False

    #: True for hooks whose ``on_result`` mutates nothing but the hook
    #: itself (pure observers, e.g. candidate counters): every compiled
    #: span is safe for them regardless of its candidate count.
    observer = False

    #: Segment counting: a dict instead of None makes the engine run the
    #: *plain* compiled variant of every segment that holds a filtered
    #: instruction and add one to ``segment_counts[segment]`` per
    #: dispatch, in place of the per-instruction calls (which the scalar
    #: loop and phi batches still make).  ``segment.ids`` is the
    #: segment's static instruction set, from which the hook derives its
    #: counts.  Only hooks that observe, never replace, a result may set
    #: it.
    segment_counts: Optional[Dict[object, int]] = None

    def on_result(self, inst: Instruction, value, interp: "IRInterpreter"):
        """Called after each value-producing instruction; the return value
        replaces the instruction's result."""
        return value

    def compiled_span_ok(self, ncand: int) -> bool:
        """May a compiled block that will invoke this hook ``ncand``
        times run without scalar fallback?  Override for hooks that can
        bound when they next act (injection hooks: the block is safe
        while its candidate count cannot reach the trigger index)."""
        return self.observer


@dataclass
class Frame:
    function: Function
    values: Dict[int, object] = field(default_factory=dict)
    saved_sp: int = 0
    #: When fault injection poisons an SSA value in this frame, this is the
    #: poisoned instruction; reading it marks the fault activated.
    poison_inst: Optional[Instruction] = None
    #: Position of the instruction this frame is currently executing, kept
    #: up to date only while the boundary tap is armed (at every scalar
    #: instruction and tapped compiled-segment start; a compiled ``Call``
    #: step stores it before calling).  For a suspended frame this is its
    #: pending ``call`` instruction.
    resume_block: Optional[BasicBlock] = None
    resume_index: int = 0


class IRInterpreter:
    def __init__(self, module: Module,
                 max_instructions: int = 50_000_000,
                 max_call_depth: int = 400,
                 hook: Optional[InterpHook] = None,
                 hook_filter: Optional[frozenset] = None,
                 checkpoint_stride: int = 0,
                 checkpoint_sink: Optional[Callable[[MachineSnapshot], None]]
                 = None,
                 template: Optional["IRInterpreter"] = None,
                 memory=None,
                 compile_blocks: bool = True) -> None:
        if (template is None) != (memory is None):
            raise ReproError("template and memory must be given together")
        self.module = module
        self.max_instructions = max_instructions
        self.max_call_depth = max_call_depth
        self.hook = hook
        #: When set, the hook only fires for instructions whose id() is in
        #: this set (fault injectors pass their candidate set here).
        self.hook_filter = hook_filter
        # Simulated calls consume several Python frames each; make sure the
        # simulated call-depth limit is reached before CPython's.
        needed = max_call_depth * 10 + 2000
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        self.output = OutputBuffer()
        self.executed = 0
        self.call_depth = 0
        #: Frame currently executing (hooks use this to poison SSA values).
        self.current_frame: Optional[Frame] = None
        #: Set by the hook when it poisons a value; cleared never (one
        #: injection per run). Read by the fault-injection campaign.
        self.fault_activated = False
        #: Checkpoint recording: every ``checkpoint_stride`` retired
        #: instructions (0 = off), pass a MachineSnapshot to the sink; a
        #: sink may return a new stride (a provisional recording).
        self._checkpoint_stride = checkpoint_stride
        self._checkpoint_sink = checkpoint_sink
        self._next_checkpoint = checkpoint_stride
        self._recording = checkpoint_sink is not None and checkpoint_stride > 0
        #: Boundary tap: armed while recording or probing (see probe()).
        self._tap = self._recording
        self._probe: Optional[ConvergenceProbe] = None
        #: Set when run() returned through the convergence exit; the run
        #: simulated up to ``executed`` and reports the golden result.
        self.converged = False
        #: Live frame stack, innermost last (for capture()).
        self._frames: List[Frame] = []
        #: Set by restore(): frame states run() rebuilds instead of calling
        #: the entry function.
        self._resume: Optional[Sequence[FrameState]] = None
        self._global_addr: Dict[int, int] = {}
        if template is not None:
            # Share the immutable global-address map and take the caller's
            # memory — this is how batched lanes fork cheaply from one
            # decoded image (see repro.vm.batch).
            self._global_addr = template._global_addr
            self.memory = memory
            self.heap = BumpAllocator()
            self._stack_sp = STACK_TOP
        else:
            self.memory, self.heap, self._stack_sp = self._load_globals()
        #: Threaded-code execution (see repro.vm.blockcache).  Recording
        #: runs compile too: the boundary tap is checked once per compiled
        #: segment, so a checkpoint lands on the first segment boundary at
        #: or past its stride mark; segments holding a call run scalar
        #: while recording, so every suspended frame's resume position is
        #: exact at capture.
        self._compiling = compile_blocks
        self._block_cache = cache_for(module) if self._compiling else None
        #: Runtime counters: blocks executed compiled vs blocks that fell
        #: back to the scalar loop while compilation was on.
        self.compiled_blocks = 0
        self.fallback_blocks = 0
        #: Memoised hook_filter-disjointness per compiled segment key.
        self._hookfree: Dict[tuple, bool] = {}
        #: Memoised hooked-variant blocks per segment key (the filter is
        #: fixed for an engine's lifetime; the shared cache keys hooked
        #: variants by filter *value* so same-category runs share them).
        self._hooked: Dict[tuple, object] = {}
        self._filter_key = (frozenset(hook_filter)
                            if hook_filter is not None else None)

    # -- program image -----------------------------------------------------
    def _load_globals(self):
        from repro.vm.image import build_global_image

        memory, addrs = build_global_image(self.module)
        self._global_addr = addrs
        return memory, BumpAllocator(), STACK_TOP

    # -- snapshot / restore -------------------------------------------------
    def capture(self, include_memory: bool = True) -> MachineSnapshot:
        """Freeze complete interpreter state at the current instruction
        boundary (each live frame's ``resume_*`` position, maintained while
        recording, names the instruction about to execute / pending).

        ``include_memory=False`` leaves the memory images empty — for
        batched forks, which carry memory separately as a COW fork."""
        frames = tuple(
            FrameState(f.function, f.resume_block, f.resume_index,
                       dict(f.values), f.saved_sp)
            for f in self._frames)
        return MachineSnapshot(
            executed=self.executed,
            call_depth=self.call_depth,
            memory=capture_memory(self.memory) if include_memory else (),
            heap=self.heap.checkpoint(),
            output=self.output.checkpoint(),
            state={"frames": frames, "stack_sp": self._stack_sp})

    def restore(self, snapshot: MachineSnapshot,
                skip_memory: bool = False) -> None:
        """Load a snapshot; the next run() rebuilds the captured call stack
        and continues from its boundary instead of entering ``main``.  The
        snapshot is not consumed — any number of interpreters (over the
        same module instance) may restore from the same one.

        ``skip_memory`` — leave ``self.memory`` untouched (the engine was
        built over memory that already holds the snapshot's bytes: an
        injection run's span-built memory or a batched lane's COW fork)."""
        if not skip_memory:
            restore_memory(self.memory, snapshot.memory)
        self.heap.restore(snapshot.heap)
        self.output.restore(snapshot.output)
        self.executed = snapshot.executed
        self.call_depth = 0
        self._stack_sp = snapshot.state["stack_sp"]
        self._resume = snapshot.state["frames"]

    def _take_checkpoint(self) -> None:
        probe = self._probe
        if probe is not None:
            mark = probe.due(self.executed)
            if mark is not None and self._converged_on(mark):
                raise Converged
            self._next_checkpoint = probe.next_executed()
            return
        stride = self._checkpoint_sink(self.capture())
        if stride:
            self._checkpoint_stride = stride
        self._next_checkpoint = self.executed + self._checkpoint_stride

    # -- convergence exit ------------------------------------------------------
    def probe(self, marks: Sequence[MachineSnapshot], first: int,
              final: ExecutionResult) -> None:
        """Arm the convergence exit for the next run(): at each of the
        golden ``marks[first:]`` it lands on, the run stops and returns
        ``final`` (the golden result) if its state equals the mark (see
        :class:`~repro.vm.snapshot.ConvergenceProbe`).  Not armed when
        the golden run would not fit this run's budget — then the run
        itself must hang."""
        if first >= len(marks) or final.instructions > self.max_instructions:
            return
        self._probe = ConvergenceProbe(marks, first, final)
        self._tap = True
        self._next_checkpoint = marks[first].executed

    def _converged_on(self, mark: MachineSnapshot) -> bool:
        """Whether the run may exit at ``mark``: the hook will never act
        again, activation can no longer change, and the state equals the
        mark bit for bit — cheap fields first, memory last."""
        hook = self.hook
        if hook is not None and not hook.finished:
            return False
        frames = self._frames
        if not self.fault_activated and any(
                f.poison_inst is not None for f in frames):
            return False
        state = mark.state
        marked = state["frames"]
        if (self.call_depth != mark.call_depth
                or self._stack_sp != state["stack_sp"]
                or len(frames) != len(marked)
                or self.heap.checkpoint() != mark.heap):
            return False
        for live, frozen in zip(frames, marked):
            if (live.function is not frozen.function
                    or live.resume_block is not frozen.block
                    or live.resume_index != frozen.index
                    or live.saved_sp != frozen.saved_sp):
                return False
        if self.output.checkpoint() != mark.output:
            return False
        for live, frozen in zip(frames, marked):
            if not _same_values(live.values, frozen.values):
                return False
        return memory_matches(self.memory, mark.memory)

    # -- top level -----------------------------------------------------------
    def run(self, entry: str = "main") -> ExecutionResult:
        try:
            if self._resume is not None:
                frames = self._resume
                self._resume = None
                result = self._resume_depth(frames, 0)
            else:
                func = self.module.get_function(entry)
                result = self._call_function(func, [])
            outcome = ExecutionResult("ok", None, self.output.text(),
                                      self.executed, result)
        except Converged:
            self.converged = True
            outcome = self._probe.final
        except Trap as trap:
            # Keep no traceback: its frames would tie this interpreter (and
            # its address space) into a cycle with the stored result.
            outcome = ExecutionResult("trap", trap.with_traceback(None),
                                      self.output.text(), self.executed)
        except HangTimeout:
            outcome = ExecutionResult("hang", None, self.output.text(),
                                      self.executed)
        return self._record_run(outcome)

    def _record_run(self, outcome: ExecutionResult) -> ExecutionResult:
        # Observability: one recorder call per whole-program run — never
        # per instruction — so the disabled path costs a no-op call.
        rec = get_recorder()
        if rec.enabled:
            rec.incr("vm.ir.runs")
            rec.incr("vm.ir.instructions", outcome.instructions)
            if self.compiled_blocks:
                rec.incr("vm.ir.compiled_blocks", self.compiled_blocks)
            if self.fallback_blocks:
                rec.incr("vm.ir.fallback_blocks", self.fallback_blocks)
            if outcome.hung:
                rec.incr("vm.ir.hang_budget_trips")
            elif outcome.crashed:
                rec.incr("vm.ir.traps")
        return outcome

    def _resume_depth(self, frames: Sequence[FrameState], depth: int):
        """Rebuild the captured recursion from ``depth`` inward and continue
        execution.  Suspended frames complete their pending call with the
        inner frame's return value — applying the hook exactly as the cold
        run would — then continue at the next instruction."""
        fs = frames[depth]
        self.call_depth += 1
        # Copy the values dict: the snapshot is shared across trials and a
        # resumed frame mutates its values.  Seed resume_block/resume_index
        # from the frame state so a capture() during resumed execution (a
        # batched fork) sees valid positions for still-suspended outer
        # frames; _run_frame overwrites them once the frame is live again.
        frame = Frame(fs.function, values=dict(fs.values),
                      saved_sp=fs.saved_sp,
                      resume_block=fs.block, resume_index=fs.index)
        prev_frame = self.current_frame
        self.current_frame = frame
        self._frames.append(frame)
        try:
            if depth + 1 < len(frames):
                inner = self._resume_depth(frames, depth + 1)
                inst = fs.block.instructions[fs.index]  # the pending call
                if inst.has_result():
                    hook = self.hook
                    if hook is not None and (self.hook_filter is None
                                             or id(inst) in self.hook_filter):
                        inner = hook.on_result(inst, inner, self)
                    frame.values[id(inst)] = inner
                # A call is never a block terminator, so index+1 is valid.
                return self._run_frame(frame, start_block=fs.block,
                                       start_index=fs.index + 1)
            return self._run_frame(frame, start_block=fs.block,
                                   start_index=fs.index)
        finally:
            self._frames.pop()
            self.current_frame = prev_frame
            self._stack_sp = frame.saved_sp
            self.call_depth -= 1

    # -- calls -----------------------------------------------------------------
    def _call_function(self, func: Function, args: List[object]):
        if func.is_intrinsic:
            return self._call_intrinsic(func, args)
        if func.is_declaration:
            raise ReproError(f"call to undefined function {func.name}")
        if self.call_depth >= self.max_call_depth:
            raise Trap(TrapKind.CALL_DEPTH, func.name)
        self.call_depth += 1
        frame = Frame(func, saved_sp=self._stack_sp)
        for arg, value in zip(func.args, args):
            frame.values[id(arg)] = value
        prev_frame = self.current_frame
        self.current_frame = frame
        self._frames.append(frame)
        try:
            return self._run_frame(frame)
        finally:
            self._frames.pop()
            self.current_frame = prev_frame
            self._stack_sp = frame.saved_sp
            self.call_depth -= 1

    def _call_intrinsic(self, func: Function, args: List[object]):
        name = func.name
        if name == "print_int":
            self.output.print_int(args[0])  # type: ignore[arg-type]
            return None
        if name == "print_long":
            self.output.print_long(args[0])  # type: ignore[arg-type]
            return None
        if name == "print_double":
            self.output.print_double(args[0])  # type: ignore[arg-type]
            return None
        if name == "print_char":
            self.output.print_char(args[0])  # type: ignore[arg-type]
            return None
        if name == "print_str":
            self.output.print_str(self.memory.read_cstring(args[0]))  # type: ignore[arg-type]
            return None
        if name == "malloc":
            return self.heap.malloc(args[0])  # type: ignore[arg-type]
        if name == "free":
            self.heap.free(args[0])  # type: ignore[arg-type]
            return None
        raise ReproError(f"unknown intrinsic {name}")

    # -- the main loop -----------------------------------------------------------
    def _run_frame(self, frame: Frame,
                   start_block: Optional[BasicBlock] = None,
                   start_index: int = 0):
        if start_block is None:
            block = frame.function.entry
            skip = 0
        else:
            # Resuming mid-block: the phi batch (if any) already ran before
            # the snapshot was taken, so jump straight to start_index.
            block = start_block
            skip = start_index
        prev_block: Optional[BasicBlock] = None
        hook = self.hook
        hook_filter = self.hook_filter
        segment_counts = hook.segment_counts if hook is not None else None
        values = frame.values
        recording = self._recording
        tap = self._tap
        while True:
            insts = block.instructions
            if skip:
                index = skip
                skip = 0
            else:
                # Evaluate all phis for this (prev -> block) edge at once.
                index = 0
                if insts and isinstance(insts[0], Phi):
                    phi_values = []
                    while index < len(insts) and isinstance(insts[index], Phi):
                        phi = insts[index]
                        incoming = phi.incoming_for_block(prev_block)  # type: ignore[arg-type]
                        phi_values.append((phi, self._value_of(incoming, frame)))
                        index += 1
                    for phi, value in phi_values:
                        self.executed += 1
                        if hook is not None and (hook_filter is None
                                                 or id(phi) in hook_filter):
                            value = hook.on_result(phi, value, self)
                        values[id(phi)] = value
                    if self.executed > self.max_instructions:
                        raise HangTimeout(self.executed)
            if self._compiling:
                # Threaded-code fast path (repro.vm.blockcache): run the
                # rest of the block as compiled closures when no observer
                # could tell the difference.  A segment-counting hook gets
                # the plain variant plus one count per dispatch; any other
                # armed hook may still run compiled through the hooked
                # variant (inline hook calls) when it declares the span
                # safe — otherwise fall back to the scalar loop below for
                # this block.
                if frame.poison_inst is None or self.fault_activated:
                    cache = self._block_cache
                    key = (id(insts), index)
                    cb = cache.ir.get(key)
                    if cb is None:
                        cb = compile_ir_segment(cache, insts, index,
                                                self._global_addr)
                        cache.ir[key] = (cb if cb is not None
                                         else UNCOMPILABLE)
                    if cb is not None and cb is not UNCOMPILABLE \
                            and not (recording and cb.calls):
                        if tap and self.executed >= self._next_checkpoint:
                            frame.resume_block = block
                            frame.resume_index = index
                            self._take_checkpoint()
                        if hook is None or hook.finished:
                            pass  # plain variant is exact
                        elif hook_filter is not None:
                            ok = self._hookfree.get(key)
                            if ok is None:
                                ok = hook_filter.isdisjoint(cb.ids)
                                self._hookfree[key] = ok
                            if ok:
                                pass
                            elif segment_counts is not None:
                                segment_counts[cb] = \
                                    segment_counts.get(cb, 0) + 1
                            else:
                                cb = self._hooked_variant(key, insts, index)
                        else:
                            cb = None
                        if cb is not None:
                            self.compiled_blocks += 1
                            for step in cb.steps:
                                step(self, frame, values)
                            t = cb.term(self, frame, values)
                            if type(t) is tuple:  # (_RET, value)
                                return t[1]
                            prev_block = block
                            block = t
                            continue
                self.fallback_blocks += 1
            while index < len(insts):
                if tap:
                    # Checkpoints land only at non-phi boundaries, so a
                    # resumed frame never needs the (prev -> block) edge.
                    frame.resume_block = block
                    frame.resume_index = index
                    if self.executed >= self._next_checkpoint:
                        self._take_checkpoint()
                inst = insts[index]
                self.executed += 1
                if self.executed > self.max_instructions:
                    raise HangTimeout(self.executed)
                cls = type(inst)
                if cls is Branch:
                    if inst.is_conditional:
                        cond = self._value_of(inst.condition, frame)
                        target = inst.targets[0] if cond else inst.targets[1]
                    else:
                        target = inst.targets[0]
                    prev_block = block
                    block = target
                    break
                if cls is Ret:
                    if inst.value is not None:
                        return self._value_of(inst.value, frame)
                    return None
                if cls is Unreachable:
                    raise Trap(TrapKind.BAD_JUMP, "unreachable executed")
                handler = self._dispatch.get(cls)
                if handler is None:
                    raise ReproError(f"cannot interpret {inst.opcode}")
                result = handler(self, inst, frame)
                if inst.has_result():
                    if hook is not None and (hook_filter is None
                                             or id(inst) in hook_filter):
                        result = hook.on_result(inst, result, self)
                    values[id(inst)] = result
                index += 1
            else:
                raise ReproError(
                    f"block {block.name} fell through without terminator")

    def _hooked_variant(self, key, insts, index: int):
        """The hooked variant of the segment at ``key`` when the armed hook
        declares its span safe, else None (run it scalar)."""
        hcb = self._hooked.get(key)
        if hcb is None:
            cache = self._block_cache
            gkey = (key[0], key[1], self._filter_key)
            hcb = cache.ir.get(gkey)
            if hcb is None:
                hcb = compile_ir_segment(cache, insts, index,
                                         self._global_addr, self.hook_filter)
                if hcb is None:
                    hcb = UNCOMPILABLE
                cache.ir[gkey] = hcb
            self._hooked[key] = hcb
        if hcb is not UNCOMPILABLE and self.hook.compiled_span_ok(hcb.ncand):
            return hcb
        return None

    # -- operand evaluation -------------------------------------------------------
    def _value_of(self, operand: Value, frame: Frame):
        if isinstance(operand, Instruction):
            if operand is frame.poison_inst:
                self.fault_activated = True
            return frame.values[id(operand)]
        if isinstance(operand, ConstantInt):
            return operand.value
        if isinstance(operand, ConstantDouble):
            return operand.value
        if isinstance(operand, ConstantNull):
            return 0
        if isinstance(operand, Argument):
            if operand is frame.poison_inst:
                self.fault_activated = True
            return frame.values[id(operand)]
        if isinstance(operand, GlobalVariable):
            return self._global_addr[id(operand)]
        if isinstance(operand, ConstantUndef):
            return 0.0 if operand.type.is_double() else 0
        raise ReproError(f"cannot evaluate operand {type(operand).__name__}")

    def global_address(self, g: GlobalVariable) -> int:
        return self._global_addr[id(g)]

    # -- instruction semantics -----------------------------------------------------
    def _exec_binop(self, inst: BinaryOp, frame: Frame):
        a = self._value_of(inst.lhs, frame)
        b = self._value_of(inst.rhs, frame)
        op = inst.opcode
        handler = _FLOAT_BINOPS.get(op)
        if handler is not None:
            return handler(a, b)
        handler = _INT_BINOPS.get(op)
        if handler is None:
            raise ReproError(f"unknown binop {op}")
        return handler(a, b, inst.type.bits)  # type: ignore[attr-defined]

    def _exec_icmp(self, inst: ICmp, frame: Frame):
        a = self._value_of(inst.lhs, frame)
        b = self._value_of(inst.rhs, frame)
        if inst.lhs.type.is_pointer():
            # pointers are stored unsigned
            ua, ub = a & MASK64, b & MASK64
            return int({
                "eq": ua == ub, "ne": ua != ub,
                "ult": ua < ub, "ule": ua <= ub, "ugt": ua > ub, "uge": ua >= ub,
                "slt": wrap_signed(ua, 64) < wrap_signed(ub, 64),
                "sle": wrap_signed(ua, 64) <= wrap_signed(ub, 64),
                "sgt": wrap_signed(ua, 64) > wrap_signed(ub, 64),
                "sge": wrap_signed(ua, 64) >= wrap_signed(ub, 64),
            }[inst.predicate])
        bits = inst.lhs.type.bits  # type: ignore[attr-defined]
        mask = (1 << bits) - 1
        ua, ub = a & mask, b & mask
        sa, sb = wrap_signed(ua, bits), wrap_signed(ub, bits)
        return int({
            "eq": ua == ub, "ne": ua != ub,
            "slt": sa < sb, "sle": sa <= sb, "sgt": sa > sb, "sge": sa >= sb,
            "ult": ua < ub, "ule": ua <= ub, "ugt": ua > ub, "uge": ua >= ub,
        }[inst.predicate])

    def _exec_fcmp(self, inst: FCmp, frame: Frame):
        a = self._value_of(inst.lhs, frame)
        b = self._value_of(inst.rhs, frame)
        if a != a or b != b:
            # Unordered: only ``une`` holds; ordered predicates are false.
            return int(inst.predicate == "une")
        return int({
            "oeq": a == b, "one": a != b, "une": a != b,
            "olt": a < b, "ole": a <= b, "ogt": a > b, "oge": a >= b,
        }[inst.predicate])

    def _exec_load(self, inst: Load, frame: Frame):
        addr = self._value_of(inst.pointer, frame) & MASK64
        t = inst.type
        if t.is_double():
            return self.memory.read_double(addr)
        if t.is_pointer():
            return self.memory.read_int(addr, 8, signed=False)
        if t.is_integer(1):
            return 1 if self.memory.read_int(addr, 1, signed=False) else 0
        return self.memory.read_int(addr, t.size, signed=True)

    def _exec_store(self, inst: Store, frame: Frame):
        value = self._value_of(inst.value, frame)
        addr = self._value_of(inst.pointer, frame) & MASK64
        t = inst.value.type
        if t.is_double():
            self.memory.write_double(addr, value)
        elif t.is_pointer():
            self.memory.write_int(addr, 8, value & MASK64)
        elif t.is_integer(1):
            self.memory.write_int(addr, 1, 1 if value else 0)
        else:
            self.memory.write_int(addr, t.size, value & ((1 << (t.size * 8)) - 1))
        return None

    def _exec_gep(self, inst: GetElementPtr, frame: Frame):
        addr = self._value_of(inst.pointer, frame) & MASK64
        current = inst.pointer.type.pointee  # type: ignore[attr-defined]
        indices = inst.indices
        first = self._value_of(indices[0], frame)
        addr = (addr + first * current.size) & MASK64
        for idx_val in indices[1:]:
            if current.is_array():
                idx = self._value_of(idx_val, frame)
                current = current.element
                addr = (addr + idx * current.size) & MASK64
            else:  # struct
                idx = idx_val.value  # type: ignore[attr-defined]
                addr = (addr + current.field_offset(idx)) & MASK64
                current = current.field_type(idx)
        return addr

    def _exec_cast(self, inst: Cast, frame: Frame):
        handler = _CAST_OPS.get(inst.opcode)
        if handler is None:
            raise ReproError(f"unknown cast {inst.opcode}")
        return handler(inst, self._value_of(inst.value, frame))

    def _exec_select(self, inst: Select, frame: Frame):
        cond = self._value_of(inst.condition, frame)
        return self._value_of(inst.true_value if cond else inst.false_value,
                              frame)

    def _exec_alloca(self, inst: Alloca, frame: Frame):
        t = inst.allocated_type
        size = max(t.size, 1)
        align = max(t.alignment, 8)
        sp = self._stack_sp - size
        sp -= sp % align
        stack = self.memory.region_named("stack")
        if sp < stack.base:
            raise Trap(TrapKind.STACK_OVERFLOW, frame.function.name)
        self._stack_sp = sp
        # Zero the slot: frames are reused and stale bytes would make runs
        # depend on execution history.
        self.memory.write_bytes(sp, b"\x00" * size)
        return sp

    def _exec_call(self, inst: Call, frame: Frame):
        args = [self._value_of(a, frame) for a in inst.args]
        return self._call_function(inst.callee, args)

    #: instruction class -> handler, called as ``handler(interp, inst,
    #: frame)``; terminators and phis are handled inline by the loop.
    _dispatch: Dict[type, Callable] = {
        BinaryOp: _exec_binop,
        ICmp: _exec_icmp,
        FCmp: _exec_fcmp,
        Load: _exec_load,
        Store: _exec_store,
        GetElementPtr: _exec_gep,
        Cast: _exec_cast,
        Select: _exec_select,
        Alloca: _exec_alloca,
        Call: _exec_call,
    }


# -- arithmetic helpers ---------------------------------------------------------

def _ib_add(a: int, b: int, bits: int) -> int:
    return wrap_signed(a + b, bits)


def _ib_sub(a: int, b: int, bits: int) -> int:
    return wrap_signed(a - b, bits)


def _ib_mul(a: int, b: int, bits: int) -> int:
    return wrap_signed(a * b, bits)


def _ib_sdiv(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise Trap(TrapKind.DIVIDE_ERROR, "sdiv by zero")
    if a == -(1 << (bits - 1)) and b == -1:
        raise Trap(TrapKind.DIVIDE_ERROR, "sdiv overflow")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _ib_srem(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise Trap(TrapKind.DIVIDE_ERROR, "srem by zero")
    if a == -(1 << (bits - 1)) and b == -1:
        raise Trap(TrapKind.DIVIDE_ERROR, "srem overflow")
    q = abs(a) // abs(b)
    q = -q if (a < 0) != (b < 0) else q
    return a - q * b


def _ib_udiv(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise Trap(TrapKind.DIVIDE_ERROR, "udiv by zero")
    mask = (1 << bits) - 1
    return wrap_signed((a & mask) // (b & mask), bits)


def _ib_urem(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise Trap(TrapKind.DIVIDE_ERROR, "urem by zero")
    mask = (1 << bits) - 1
    return wrap_signed((a & mask) % (b & mask), bits)


def _ib_and(a: int, b: int, bits: int) -> int:
    return wrap_signed(a & b, bits)


def _ib_or(a: int, b: int, bits: int) -> int:
    return wrap_signed(a | b, bits)


def _ib_xor(a: int, b: int, bits: int) -> int:
    return wrap_signed(a ^ b, bits)


def _shift_count(b: int, bits: int) -> int:
    # x86 masks shift counts to the operand width.
    return (b & ((1 << bits) - 1)) & (63 if bits == 64 else 31)


def _ib_shl(a: int, b: int, bits: int) -> int:
    return wrap_signed(a << _shift_count(b, bits), bits)


def _ib_lshr(a: int, b: int, bits: int) -> int:
    return wrap_signed((a & ((1 << bits) - 1)) >> _shift_count(b, bits), bits)


def _ib_ashr(a: int, b: int, bits: int) -> int:
    return wrap_signed(a >> _shift_count(b, bits), bits)


#: opcode -> (a, b, bits) -> result; the per-opcode dispatch table behind
#: :func:`_int_binop` and the interpreter's BinaryOp handler.
_INT_BINOPS: Dict[str, Callable[[int, int, int], int]] = {
    "add": _ib_add, "sub": _ib_sub, "mul": _ib_mul,
    "sdiv": _ib_sdiv, "srem": _ib_srem,
    "udiv": _ib_udiv, "urem": _ib_urem,
    "and": _ib_and, "or": _ib_or, "xor": _ib_xor,
    "shl": _ib_shl, "lshr": _ib_lshr, "ashr": _ib_ashr,
}


def _int_binop(op: str, a: int, b: int, bits: int) -> int:
    handler = _INT_BINOPS.get(op)
    if handler is None:
        raise ReproError(f"unknown binop {op}")
    return handler(a, b, bits)


def _fb_fadd(a: float, b: float) -> float:
    return a + b


def _fb_fsub(a: float, b: float) -> float:
    return a - b


def _fb_fmul(a: float, b: float) -> float:
    return a * b


def _fb_fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or a != a:
            return float("nan")
        return float("inf") if (a > 0) == (math.copysign(1.0, b) > 0) \
            else float("-inf")
    return a / b


def _fb_frem(a: float, b: float) -> float:
    if b == 0.0:
        return float("nan")
    return math.fmod(a, b)


_FLOAT_BINOPS: Dict[str, Callable[[float, float], float]] = {
    "fadd": _fb_fadd, "fsub": _fb_fsub, "fmul": _fb_fmul,
    "fdiv": _fb_fdiv, "frem": _fb_frem,
}


def _float_binop(op: str, a: float, b: float) -> float:
    handler = _FLOAT_BINOPS.get(op)
    if handler is None:
        raise ReproError(f"unknown float binop {op}")
    return handler(a, b)


def _fptosi(value: float, bits: int) -> int:
    """x86 cvttsd2si semantics: truncate toward zero; out of range or NaN
    produces the "integer indefinite" (minimum signed value)."""
    indefinite = -(1 << (bits - 1))
    if value != value or value in (float("inf"), float("-inf")):
        return indefinite
    truncated = int(value)
    if not (-(1 << (bits - 1)) <= truncated < (1 << (bits - 1))):
        return indefinite
    return truncated


def _cast_trunc(inst: Cast, value):
    return wrap_signed(value, inst.type.bits)  # type: ignore[attr-defined]


def _cast_zext(inst: Cast, value):
    src_bits = inst.value.type.bits  # type: ignore[attr-defined]
    return value & ((1 << src_bits) - 1)


def _cast_sext(inst: Cast, value):
    return value  # already signed


def _cast_fptosi(inst: Cast, value):
    return _fptosi(value, inst.type.bits)  # type: ignore[attr-defined]


def _cast_fptoui(inst: Cast, value):
    bits = inst.type.bits  # type: ignore[attr-defined]
    try:
        result = int(value)
    except (OverflowError, ValueError):
        return wrap_signed(1 << (bits - 1), bits)
    return wrap_signed(result & ((1 << bits) - 1), bits)


def _cast_sitofp(inst: Cast, value):
    return float(value)


def _cast_uitofp(inst: Cast, value):
    src_bits = inst.value.type.bits  # type: ignore[attr-defined]
    return float(value & ((1 << src_bits) - 1))


def _cast_bitcast(inst: Cast, value):
    return value


def _cast_ptrtoint(inst: Cast, value):
    return wrap_signed(value, 64)


def _cast_inttoptr(inst: Cast, value):
    return value & MASK64


#: opcode -> (inst, operand value) -> result; per-opcode cast dispatch.
_CAST_OPS: Dict[str, Callable] = {
    "trunc": _cast_trunc, "zext": _cast_zext, "sext": _cast_sext,
    "fptosi": _cast_fptosi, "fptoui": _cast_fptoui,
    "sitofp": _cast_sitofp, "uitofp": _cast_uitofp,
    "bitcast": _cast_bitcast,
    "ptrtoint": _cast_ptrtoint, "inttoptr": _cast_inttoptr,
}
