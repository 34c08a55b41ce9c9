"""SimX86 simulator: executes compiled machine programs.

This is the runtime under PINFI. It shares the memory model, global image,
output formatting and trap/hang conventions with the IR interpreter, so a
fault-free run produces byte-identical output at both levels.

Machine state: sixteen 64-bit GPRs, sixteen 128-bit XMM registers (doubles
live in the low 64 bits — the basis of the paper's XMM pruning heuristic),
and five EFLAGS bits (CF, PF, ZF, SF, OF) at their real bit positions.

Return addresses are synthetic code addresses (``CODE_BASE + 16*site``)
pushed through rsp into simulated stack memory; a corrupted return address
or stack pointer therefore faults exactly the way it would on hardware.

Opcodes dispatch through a class-level table of plain handler functions
(``AsmSimulator._ops``) instead of an if/elif chain; a per-instance table
of bound methods would make every simulator a reference cycle, keeping
its 5 MiB address space alive until the cyclic collector runs.  The
simulator can ``capture()``/``restore()`` its complete state at any
instruction boundary (see :mod:`repro.vm.snapshot`): a restored run
retires the exact stream a cold run would from that boundary on, which is
what lets fault-injection trials skip their fault-free prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.backend.machine import (
    FLAG_NAMES, FuncRef, GlobalAddr, Imm, Label, MBlock, MFunction, MInst,
    Mem, MProgram, Reg, evaluate_condition,
)
from repro.ir.values import bits_to_double, double_to_bits
from repro.obs import get_recorder
from repro.vm.blockcache import UNCOMPILABLE, cache_for, compile_asm_segment
from repro.vm.image import build_global_image
from repro.vm.io import OutputBuffer
from repro.vm.memory import BumpAllocator, STACK_TOP
from repro.vm.result import ExecutionResult
from repro.vm.snapshot import (
    Converged, ConvergenceProbe, MachineSnapshot, capture_memory,
    memory_matches, restore_memory,
)
from repro.vm.traps import HangTimeout, Trap, TrapKind

MASK64 = (1 << 64) - 1
CODE_BASE = 0x0000_4000_0000_0000
EXIT_TOKEN = CODE_BASE

#: Parity of each byte value (PF=1 when the low result byte has an even
#: number of set bits), precomputed like hardware.
_PARITY = tuple(1 if bin(i).count("1") % 2 == 0 else 0 for i in range(256))


class AsmHook:
    """Base class for fault-injection hooks into the simulator."""

    #: Set to True by hooks that will never act again this run (e.g. an
    #: injection hook after it fired).  The block compiler uses this to
    #: run the post-injection suffix on the compiled path.
    finished = False

    #: True for hooks whose ``on_executed`` mutates nothing but the hook
    #: itself (pure observers, e.g. candidate counters): every compiled
    #: span is safe for them regardless of its candidate count.
    observer = False

    #: Segment counting: a dict instead of None makes the engine run the
    #: *plain* compiled variant of every segment that holds a filtered
    #: instruction and add one to ``segment_counts[segment]`` per
    #: dispatch, in place of the per-instruction calls (which the scalar
    #: loop still makes).  ``segment.ids`` is the segment's static
    #: instruction set, from which the hook derives its counts.
    segment_counts: Optional[Dict[object, int]] = None

    def on_executed(self, inst: MInst, sim: "AsmSimulator") -> None:
        """Called after each instruction retires; may corrupt state."""

    def compiled_span_ok(self, ncand: int) -> bool:
        """May a compiled block that will invoke this hook ``ncand``
        times run without scalar fallback?  Override for hooks that can
        bound when they next act (injection hooks: the block is safe
        while its candidate count cannot reach the trigger index)."""
        return self.observer


@dataclass
class _Loc:
    """Program counter: function record + block index + instruction index."""
    func: "_FuncRec"
    block: int
    index: int


class _FuncRec:
    __slots__ = ("name", "mfunc", "blocks", "block_index")

    def __init__(self, mfunc: MFunction) -> None:
        self.name = mfunc.name
        self.mfunc = mfunc
        self.blocks = [b.insts for b in mfunc.blocks]
        self.block_index = {id(b): i for i, b in enumerate(mfunc.blocks)}


class AsmSimulator:
    def __init__(self, program: MProgram,
                 max_instructions: int = 100_000_000,
                 max_call_depth: int = 400,
                 hook: Optional[AsmHook] = None,
                 hook_filter: Optional[frozenset] = None,
                 checkpoint_stride: int = 0,
                 checkpoint_sink: Optional[Callable[[MachineSnapshot], None]]
                 = None,
                 template: Optional["AsmSimulator"] = None,
                 memory=None,
                 compile_blocks: bool = True) -> None:
        if program.ir_module is None:
            raise ReproError("program has no IR module attached")
        if (template is None) != (memory is None):
            raise ReproError("template and memory must be given together")
        self.program = program
        self.max_instructions = max_instructions
        self.max_call_depth = max_call_depth
        self.hook = hook
        #: When set, the hook only fires for instructions whose id() is in
        #: this set (fault injectors pass their candidate set here, keeping
        #: per-instruction overhead off the hot path).
        self.hook_filter = hook_filter
        self.output = OutputBuffer()
        self.executed = 0
        self.call_depth = 0
        self.fault_activated = False
        #: Poisoned targets: ('gpr', name) / ('xmm', name) / ('flag', name).
        self.poison: Dict[Tuple[str, str], bool] = {}
        #: Last scalar memory read: (instruction ordinal, addr, nbytes).
        #: Memory-cell fault models (memflip) match the ordinal against
        #: ``executed`` to corrupt the cell the firing instruction just
        #: read; compiled blocks bypass the tag, which is safe because a
        #: firing instruction always runs on a scalar-fallback block.
        self.last_read: Optional[Tuple[int, int, int]] = None

        #: Checkpoint recording: every ``checkpoint_stride`` retired
        #: instructions (0 = off), pass a MachineSnapshot to the sink; a
        #: sink may return a new stride (a provisional recording).
        self._checkpoint_stride = checkpoint_stride
        self._checkpoint_sink = checkpoint_sink
        self._next_checkpoint = checkpoint_stride
        self._probe: Optional[ConvergenceProbe] = None
        #: Set when run() returned through the convergence exit; the run
        #: simulated up to ``executed`` and reports the golden result.
        self.converged = False
        #: Set by restore(): where run() continues instead of ``main``.
        self._resume_loc: Optional[_Loc] = None

        if template is not None:
            # Share the immutable per-program structures (function records,
            # poison metadata, intrinsic map, global addresses) and take the
            # caller's memory — this is how batched lanes fork cheaply from
            # one decoded image (see repro.vm.batch).
            self.memory = memory
            self.global_addr: Dict[str, int] = template.global_addr
            self.funcs: Dict[str, _FuncRec] = template.funcs
            self.intrinsics = template.intrinsics
            self._meta: Dict[int, Tuple[Tuple, Tuple]] = template._meta
        else:
            self.memory, addr_by_id = build_global_image(program.ir_module)
            self.global_addr = {
                g.name: addr_by_id[id(g)]
                for g in program.ir_module.globals.values()}
            self.funcs = {
                name: _FuncRec(mf) for name, mf in program.functions.items()}
            self.intrinsics = {name: f.name for name, f in
                               program.ir_module.functions.items()
                               if f.is_intrinsic}
            #: Static per-instruction metadata (uses/defs as poison targets).
            self._meta = {}
            for rec in self.funcs.values():
                for insts in rec.blocks:
                    for inst in insts:
                        self._meta[id(inst)] = _poison_meta(inst)
        self.heap = BumpAllocator()

        self.regs: Dict[str, int] = {}
        self.xmm: Dict[str, int] = {}
        self.flags: Dict[str, int] = {n: 0 for n in FLAG_NAMES}

        #: call-site token <-> return location registry.
        self._site_tokens: Dict[Tuple[str, int, int], int] = {}
        self._token_sites: Dict[int, Tuple[str, int, int]] = {}

        #: Threaded-code execution (see repro.vm.blockcache).  Recording
        #: runs compile too: the boundary tap is checked once per compiled
        #: segment, so a checkpoint lands on the first segment boundary at
        #: or past its stride mark (and on the exact mark when scalar).
        self._recording = (checkpoint_sink is not None
                           and checkpoint_stride > 0)
        #: Boundary tap: armed while recording or probing (see probe()).
        self._tap = self._recording
        self._compiling = compile_blocks
        self._block_cache = cache_for(program) if self._compiling else None
        #: Runtime counters: straight-line runs executed compiled vs runs
        #: that fell back to the scalar loop while compilation was on.
        self.compiled_blocks = 0
        self.fallback_blocks = 0
        #: Memoised hook_filter-disjointness per compiled segment key.
        self._hookfree: Dict[Tuple[int, int], bool] = {}
        #: Memoised hooked-variant blocks per segment key (the filter is
        #: fixed for an engine's lifetime; the shared cache keys hooked
        #: variants by filter *value* so same-category runs share them).
        self._hooked: Dict[Tuple[int, int], object] = {}
        self._filter_key = (frozenset(hook_filter)
                            if hook_filter is not None else None)
        #: Throwaway location for compiled steps that delegate to scalar
        #: handlers (the handler's _advance mutates it harmlessly).
        self._scratch_loc = _Loc(None, 0, 0)  # type: ignore[arg-type]

    # -- register access ------------------------------------------------------
    def get_gpr(self, name: str) -> int:
        return self.regs.get(name, 0)

    def set_gpr(self, name: str, value: int) -> None:
        self.regs[name] = value & MASK64

    def get_xmm(self, name: str) -> int:
        return self.xmm.get(name, 0)

    def set_xmm(self, name: str, value: int) -> None:
        self.xmm[name] = value & ((1 << 128) - 1)

    def get_xmm_double(self, name: str) -> float:
        return bits_to_double(self.get_xmm(name) & MASK64)

    def set_xmm_double(self, name: str, value: float) -> None:
        high = self.get_xmm(name) & ~MASK64
        self.xmm[name] = high | double_to_bits(value)

    # -- snapshot / restore ---------------------------------------------------
    def capture(self, loc: _Loc,
                include_memory: bool = True) -> MachineSnapshot:
        """Freeze complete machine state at the boundary *before* the
        instruction at ``loc`` executes (``executed`` retired so far).

        ``include_memory=False`` leaves the memory images empty — for
        batched forks, which carry memory separately as a COW fork."""
        return MachineSnapshot(
            executed=self.executed,
            call_depth=self.call_depth,
            memory=capture_memory(self.memory) if include_memory else (),
            heap=self.heap.checkpoint(),
            output=self.output.checkpoint(),
            state={
                "regs": dict(self.regs),
                "xmm": dict(self.xmm),
                "flags": dict(self.flags),
                "loc": (loc.func.name, loc.block, loc.index),
                "site_tokens": dict(self._site_tokens),
            })

    def restore(self, snapshot: MachineSnapshot,
                skip_memory: bool = False) -> None:
        """Load a snapshot; the next run() continues from its boundary
        instead of entering ``main``.  The snapshot is not consumed — any
        number of simulators may restore from the same one.

        ``skip_memory`` — leave ``self.memory`` untouched (the simulator
        was built over memory that already holds the snapshot's bytes: an
        injection run's span-built memory or a batched lane's COW fork)."""
        state = snapshot.state
        if not skip_memory:
            restore_memory(self.memory, snapshot.memory)
        self.heap.restore(snapshot.heap)
        self.output.restore(snapshot.output)
        self.executed = snapshot.executed
        self.call_depth = snapshot.call_depth
        self.regs = dict(state["regs"])
        self.xmm = dict(state["xmm"])
        self.flags = dict(state["flags"])
        self._site_tokens = dict(state["site_tokens"])
        self._token_sites = {tok: site
                             for site, tok in self._site_tokens.items()}
        func_name, block, index = state["loc"]
        self._resume_loc = _Loc(self.funcs[func_name], block, index)

    def _take_checkpoint(self, loc: _Loc) -> None:
        probe = self._probe
        if probe is not None:
            mark = probe.due(self.executed)
            if mark is not None and self._converged_on(mark, loc):
                raise Converged
            self._next_checkpoint = probe.next_executed()
            return
        stride = self._checkpoint_sink(self.capture(loc))
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

    def _converged_on(self, mark: MachineSnapshot, loc: _Loc) -> bool:
        """Whether the run may exit at ``mark``: the hook will never act
        again, no poisoned target is left to activate, and the state
        equals the mark bit for bit — cheap fields first, memory last."""
        hook = self.hook
        if hook is not None and not hook.finished:
            return False
        if self.poison and not self.fault_activated:
            return False
        state = mark.state
        return (self.call_depth == mark.call_depth
                and (loc.func.name, loc.block, loc.index) == state["loc"]
                and self.flags == state["flags"]
                and self.regs == state["regs"]
                and self.xmm == state["xmm"]
                and self._site_tokens == state["site_tokens"]
                and self.heap.checkpoint() == mark.heap
                and self.output.checkpoint() == mark.output
                and memory_matches(self.memory, mark.memory))

    # -- top level -----------------------------------------------------------------
    def run(self, entry: str = "main") -> ExecutionResult:
        try:
            exit_value = self._execute(entry)
            outcome = ExecutionResult("ok", None, self.output.text(),
                                      self.executed, exit_value)
        except Converged:
            self.converged = True
            outcome = self._probe.final
        except Trap as trap:
            # Keep no traceback: its frames would tie this simulator (and
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
            rec.incr("vm.asm.runs")
            rec.incr("vm.asm.instructions", outcome.instructions)
            if self.compiled_blocks:
                rec.incr("vm.asm.compiled_blocks", self.compiled_blocks)
            if self.fallback_blocks:
                rec.incr("vm.asm.fallback_blocks", self.fallback_blocks)
            if outcome.hung:
                rec.incr("vm.asm.hang_budget_trips")
            elif outcome.crashed:
                rec.incr("vm.asm.traps")
        return outcome

    def _execute(self, entry: str) -> int:
        if self._resume_loc is not None:
            loc = self._resume_loc
            self._resume_loc = None
        else:
            rec = self.funcs.get(entry)
            if rec is None:
                raise ReproError(f"no function {entry} in program")
            self.set_gpr("rsp", STACK_TOP)
            self._push(EXIT_TOKEN)
            loc = _Loc(rec, 0, 0)
            self.call_depth = 1
        hook = self.hook
        hook_filter = self.hook_filter
        segment_counts = hook.segment_counts if hook is not None else None
        ops = self._ops
        tap = self._tap
        while True:
            insts = loc.func.blocks[loc.block]
            while loc.index >= len(insts):
                # Fall through to the next block in layout order.
                loc.block += 1
                loc.index = 0
                if loc.block >= len(loc.func.blocks):
                    raise Trap(TrapKind.BAD_JUMP,
                               f"fell off function {loc.func.name}")
                insts = loc.func.blocks[loc.block]
            if self._compiling:
                # Threaded-code fast path (repro.vm.blockcache): run the
                # rest of this straight line as compiled closures when no
                # observer could tell the difference.  A segment-counting
                # hook gets the plain variant plus one count per dispatch;
                # any other armed hook may still run compiled through the
                # hooked variant (inline hook calls) when it declares the
                # span safe — otherwise fall back to the scalar loop until
                # the next transfer.
                if not self.poison or self.fault_activated:
                    cache = self._block_cache
                    key = (id(insts), loc.index)
                    cb = cache.asm.get(key)
                    if cb is None:
                        cb = compile_asm_segment(cache, insts, loc.index,
                                                 self, loc.func)
                        cache.asm[key] = (cb if cb is not None
                                          else UNCOMPILABLE)
                    if cb is not None and cb is not UNCOMPILABLE:
                        if tap and self.executed >= self._next_checkpoint:
                            self._take_checkpoint(loc)
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
                                cb = self._hooked_variant(key, insts, loc)
                        else:
                            cb = None
                        if cb is not None:
                            self.compiled_blocks += 1
                            for step in cb.steps:
                                step(self)
                            loc.index = cb.term_index
                            next_loc = cb.term(self, loc)
                            if next_loc is None:  # program exit
                                return wrap_signed32(self.get_gpr("rax"))
                            loc = next_loc
                            continue
                self.fallback_blocks += 1
            # Scalar loop: execute until control leaves this straight
            # line, then hand back to the outer loop (which may compile
            # the next one).
            while True:
                if tap and self.executed >= self._next_checkpoint:
                    self._take_checkpoint(loc)
                inst = insts[loc.index]
                self.executed += 1
                if self.executed > self.max_instructions:
                    raise HangTimeout(self.executed)
                if self.poison:
                    self._check_poison(inst)
                handler = ops.get(inst.opcode)
                if handler is None:
                    raise ReproError(f"cannot simulate {inst.opcode}")
                next_loc = handler(self, inst, loc)
                if hook is not None and (hook_filter is None
                                         or id(inst) in hook_filter):
                    hook.on_executed(inst, self)
                if next_loc is None:  # program exit
                    return wrap_signed32(self.get_gpr("rax"))
                if next_loc is not loc or next_loc.index == 0:
                    # call/ret returned a fresh location, or a taken jump
                    # reset this one: new straight line.
                    loc = next_loc
                    break
                loc = next_loc
                if loc.index >= len(insts):
                    break  # fell off the block: outer loop normalizes

    def _hooked_variant(self, key, insts, loc: _Loc):
        """The hooked variant of the segment at ``key`` when the armed hook
        declares its span safe, else None (run it scalar)."""
        hcb = self._hooked.get(key)
        if hcb is None:
            cache = self._block_cache
            gkey = (key[0], key[1], self._filter_key)
            hcb = cache.asm.get(gkey)
            if hcb is None:
                hcb = compile_asm_segment(cache, insts, loc.index, self,
                                          loc.func, self.hook_filter)
                if hcb is None:
                    hcb = UNCOMPILABLE
                cache.asm[gkey] = hcb
            self._hooked[key] = hcb
        if hcb is not UNCOMPILABLE and self.hook.compiled_span_ok(hcb.ncand):
            return hcb
        return None

    # -- poison / activation -----------------------------------------------------
    def _check_poison(self, inst: MInst) -> None:
        uses, defs = self._meta[id(inst)]
        poison = self.poison
        for target in uses:
            if target in poison:
                self.fault_activated = True
        for target in defs:
            poison.pop(target, None)

    def poison_target(self, target: Tuple[str, str]) -> None:
        self.poison[target] = True

    # -- operand helpers --------------------------------------------------------
    def _mem_addr(self, mem: Mem) -> int:
        addr = mem.disp
        if mem.sym is not None:
            addr += self.global_addr[mem.sym]
        if mem.base is not None:
            addr += self.get_gpr(mem.base.name)  # type: ignore[union-attr]
        if mem.index is not None:
            addr += self.get_gpr(mem.index.name) * mem.scale  # type: ignore[union-attr]
        return addr & MASK64

    def _read_int_operand(self, op, width: int) -> int:
        """Unsigned value of a GPR/Imm/Mem operand at the given width."""
        mask = (1 << width) - 1
        if isinstance(op, Reg):
            return self.get_gpr(op.name) & mask
        if isinstance(op, Imm):
            return op.value & mask
        if isinstance(op, GlobalAddr):
            return self.global_addr[op.name] & mask
        if isinstance(op, Mem):
            addr = self._mem_addr(op)
            nbytes = width // 8
            self.last_read = (self.executed, addr, nbytes)
            return self.memory.read_int(addr, nbytes, signed=False)
        raise ReproError(f"bad integer operand {op!r}")

    def _read_double_operand(self, op) -> float:
        if isinstance(op, Reg):
            return self.get_xmm_double(op.name)
        if isinstance(op, Mem):
            addr = self._mem_addr(op)
            self.last_read = (self.executed, addr, 8)
            return self.memory.read_double(addr)
        raise ReproError(f"bad double operand {op!r}")

    def _write_gpr_or_mem(self, op, value: int, width: int) -> None:
        value &= (1 << width) - 1
        if isinstance(op, Reg):
            self.set_gpr(op.name, value)  # zero-extend (SimX86 convention)
        elif isinstance(op, Mem):
            self.memory.write_int(self._mem_addr(op), width // 8, value)
        else:
            raise ReproError(f"bad destination {op!r}")

    def _push(self, value: int) -> None:
        rsp = (self.get_gpr("rsp") - 8) & MASK64
        self.memory.write_int(rsp, 8, value & MASK64)
        self.set_gpr("rsp", rsp)

    def _pop(self) -> int:
        rsp = self.get_gpr("rsp")
        value = self.memory.read_int(rsp, 8, signed=False)
        self.last_read = (self.executed, rsp, 8)
        self.set_gpr("rsp", (rsp + 8) & MASK64)
        return value

    # -- flags --------------------------------------------------------------------
    def _set_flags_logic(self, result: int, width: int) -> None:
        mask = (1 << width) - 1
        r = result & mask
        self.flags["CF"] = 0
        self.flags["OF"] = 0
        self.flags["ZF"] = 1 if r == 0 else 0
        self.flags["SF"] = (r >> (width - 1)) & 1
        self.flags["PF"] = _PARITY[r & 0xFF]

    def _set_flags_sub(self, a: int, b: int, width: int) -> None:
        mask = (1 << width) - 1
        r = (a - b) & mask
        self.flags["ZF"] = 1 if r == 0 else 0
        self.flags["SF"] = (r >> (width - 1)) & 1
        self.flags["CF"] = 1 if (a & mask) < (b & mask) else 0
        self.flags["OF"] = ((a ^ b) & (a ^ r)) >> (width - 1) & 1
        self.flags["PF"] = _PARITY[r & 0xFF]

    def _set_flags_add(self, a: int, b: int, width: int) -> None:
        mask = (1 << width) - 1
        full = (a & mask) + (b & mask)
        r = full & mask
        self.flags["ZF"] = 1 if r == 0 else 0
        self.flags["SF"] = (r >> (width - 1)) & 1
        self.flags["CF"] = 1 if full > mask else 0
        self.flags["OF"] = ((a ^ r) & (b ^ r)) >> (width - 1) & 1
        self.flags["PF"] = _PARITY[r & 0xFF]

    def _set_flags_ucomisd(self, a: float, b: float) -> None:
        unordered = (a != a) or (b != b)
        self.flags["OF"] = 0
        self.flags["SF"] = 0
        if unordered:
            self.flags["ZF"] = 1
            self.flags["PF"] = 1
            self.flags["CF"] = 1
        else:
            self.flags["ZF"] = 1 if a == b else 0
            self.flags["PF"] = 0
            self.flags["CF"] = 1 if a < b else 0

    # -- opcode handlers ----------------------------------------------------------
    def _op_mov(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, src = inst.operands
        w = inst.width
        self._write_gpr_or_mem(dst, self._read_int_operand(src, w), w)
        return self._advance(loc)

    def _op_movx(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, src = inst.operands
        w = inst.width
        sw = inst.src_width
        raw = self._read_int_operand(src, sw)
        if inst.opcode == "movsx" and raw >> (sw - 1) & 1:
            raw |= ((1 << w) - 1) ^ ((1 << sw) - 1)
        self.set_gpr(dst.name, raw & ((1 << w) - 1))
        return self._advance(loc)

    def _op_lea(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, mem = inst.operands
        self.set_gpr(dst.name, self._mem_addr(mem))
        return self._advance(loc)

    def _op_imul3(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, src, imm = inst.operands
        w = inst.width
        mask = (1 << w) - 1
        a = wrap_signed(self._read_int_operand(src, w), w)
        r = (a * imm.value) & mask
        self._set_flags_logic(r, w)
        self.set_gpr(dst.name, r)
        return self._advance(loc)

    def _op_alu(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        op = inst.opcode
        w = inst.width
        dst, src = inst.operands
        a = self._read_int_operand(dst, w)
        b = self._read_int_operand(src, w)
        mask = (1 << w) - 1
        if op == "add":
            r = (a + b) & mask
            self._set_flags_add(a, b, w)
        elif op == "sub":
            r = (a - b) & mask
            self._set_flags_sub(a, b, w)
        elif op == "imul":
            r = (wrap_signed(a, w) * wrap_signed(b, w)) & mask
            self._set_flags_logic(r, w)
        else:
            r = {"and": a & b, "or": a | b, "xor": a ^ b}[op] & mask
            self._set_flags_logic(r, w)
        self._write_gpr_or_mem(dst, r, w)
        return self._advance(loc)

    def _op_neg(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        (dst,) = inst.operands
        w = inst.width
        a = self._read_int_operand(dst, w)
        r = (-a) & ((1 << w) - 1)
        self._set_flags_sub(0, a, w)
        self._write_gpr_or_mem(dst, r, w)
        return self._advance(loc)

    def _op_not(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        (dst,) = inst.operands
        w = inst.width
        a = self._read_int_operand(dst, w)
        self._write_gpr_or_mem(dst, ~a, w)
        return self._advance(loc)

    def _op_shift(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        op = inst.opcode
        w = inst.width
        dst, cnt = inst.operands
        a = self._read_int_operand(dst, w)
        count = self._read_int_operand(cnt, 64) & (63 if w == 64 else 31)
        if op == "shl":
            r = (a << count) & ((1 << w) - 1)
        elif op == "shr":
            r = a >> count
        else:
            r = (wrap_signed(a, w) >> count) & ((1 << w) - 1)
        self._set_flags_logic(r, w)
        self._write_gpr_or_mem(dst, r, w)
        return self._advance(loc)

    def _op_sign_extend_acc(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        if inst.opcode == "cdq":
            sign = (self.get_gpr("rax") >> 31) & 1
            self.set_gpr("rdx", 0xFFFF_FFFF if sign else 0)
        else:  # cqo
            sign = (self.get_gpr("rax") >> 63) & 1
            self.set_gpr("rdx", MASK64 if sign else 0)
        return self._advance(loc)

    def _op_idiv(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        (src,) = inst.operands
        w = inst.width
        divisor = wrap_signed(self._read_int_operand(src, w), w)
        lo = self.get_gpr("rax") & ((1 << w) - 1)
        hi = self.get_gpr("rdx") & ((1 << w) - 1)
        dividend = wrap_signed((hi << w) | lo, 2 * w)
        if divisor == 0:
            raise Trap(TrapKind.DIVIDE_ERROR, "idiv by zero")
        q = abs(dividend) // abs(divisor)
        if (dividend < 0) != (divisor < 0):
            q = -q
        if not (-(1 << (w - 1)) <= q < (1 << (w - 1))):
            raise Trap(TrapKind.DIVIDE_ERROR, "idiv overflow")
        rem = dividend - q * divisor
        self.set_gpr("rax", q & ((1 << w) - 1))
        self.set_gpr("rdx", rem & ((1 << w) - 1))
        return self._advance(loc)

    def _op_cmp(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        w = inst.width
        a = self._read_int_operand(inst.operands[0], w)
        b = self._read_int_operand(inst.operands[1], w)
        self._set_flags_sub(a, b, w)
        return self._advance(loc)

    def _op_test(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        w = inst.width
        a = self._read_int_operand(inst.operands[0], w)
        b = self._read_int_operand(inst.operands[1], w)
        self._set_flags_logic(a & b, w)
        return self._advance(loc)

    def _op_setcc(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        (dst,) = inst.operands
        self.set_gpr(dst.name,
                     1 if evaluate_condition(inst.cond, self.flags) else 0)
        return self._advance(loc)

    def _op_cmovcc(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, src = inst.operands
        w = inst.width
        if evaluate_condition(inst.cond, self.flags):
            self._write_gpr_or_mem(dst, self._read_int_operand(src, w), w)
        return self._advance(loc)

    def _op_jmp(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        return self._jump(loc, inst.operands[0])

    def _op_jcc(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        if evaluate_condition(inst.cond, self.flags):
            return self._jump(loc, inst.operands[0])
        return self._advance(loc)

    def _op_push(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        self._push(self._read_int_operand(inst.operands[0], 64))
        return self._advance(loc)

    def _op_pop(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        self.set_gpr(inst.operands[0].name, self._pop())
        return self._advance(loc)

    def _op_call(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        return self._call(loc, inst.operands[0])

    def _op_ret(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        return self._ret()

    def _op_movsd(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, src = inst.operands
        if isinstance(dst, Mem):
            self.memory.write_double(self._mem_addr(dst),
                                     self._read_double_operand(src))
        else:
            self.set_xmm_double(dst.name, self._read_double_operand(src))
        return self._advance(loc)

    def _op_movq(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, src = inst.operands
        if dst.name.startswith("xmm"):
            self.set_xmm(dst.name, self.get_gpr(src.name))
        else:
            self.set_gpr(dst.name, self.get_xmm(src.name) & MASK64)
        return self._advance(loc)

    def _op_sse_arith(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, src = inst.operands
        a = self.get_xmm_double(dst.name)
        b = self._read_double_operand(src)
        self.set_xmm_double(dst.name, _fp_op(inst.opcode, a, b))
        return self._advance(loc)

    def _op_pxor(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, src = inst.operands
        self.set_xmm(dst.name, self.get_xmm(dst.name)
                     ^ self.get_xmm(src.name))
        return self._advance(loc)

    def _op_ucomisd(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        a = self.get_xmm_double(inst.operands[0].name)
        b = self._read_double_operand(inst.operands[1])
        self._set_flags_ucomisd(a, b)
        return self._advance(loc)

    def _op_cvtsi2sd(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, src = inst.operands
        w = inst.width
        value = wrap_signed(self._read_int_operand(src, w), w)
        self.set_xmm_double(dst.name, float(value))
        return self._advance(loc)

    def _op_cvttsd2si(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        dst, src = inst.operands
        value = self._read_double_operand(src)
        self.set_gpr(dst.name, _cvttsd2si(value, inst.width))
        return self._advance(loc)

    def _op_ud2(self, inst: MInst, loc: _Loc) -> Optional[_Loc]:
        raise Trap(TrapKind.BAD_JUMP, "ud2 executed")

    # -- control flow helpers ---------------------------------------------------
    def _advance(self, loc: _Loc) -> _Loc:
        loc.index += 1
        return loc

    def _jump(self, loc: _Loc, label: Label) -> _Loc:
        target = loc.func.block_index.get(id(label.block))
        if target is None:
            raise Trap(TrapKind.BAD_JUMP, label.block.name)
        loc.block = target
        loc.index = 0
        return loc

    def _call(self, loc: _Loc, ref: FuncRef) -> Optional[_Loc]:
        name = ref.name
        if name in self.intrinsics:
            self._intrinsic(name)
            return self._advance(loc)
        rec = self.funcs.get(name)
        if rec is None:
            raise Trap(TrapKind.BAD_JUMP, f"call to unknown {name}")
        if self.call_depth >= self.max_call_depth:
            raise Trap(TrapKind.CALL_DEPTH, name)
        site = (loc.func.name, loc.block, loc.index + 1)
        token = self._site_tokens.get(site)
        if token is None:
            token = CODE_BASE + 16 * (len(self._site_tokens) + 1)
            self._site_tokens[site] = token
            self._token_sites[token] = site
        self._push(token)
        self.call_depth += 1
        return _Loc(rec, 0, 0)

    def _ret(self) -> Optional[_Loc]:
        token = self._pop()
        self.call_depth -= 1
        if token == EXIT_TOKEN:
            if self.call_depth == 0:
                return None
            raise Trap(TrapKind.BAD_RETURN, "exit token mid-stack")
        site = self._token_sites.get(token)
        if site is None:
            raise Trap(TrapKind.BAD_RETURN, f"{token:#x}")
        func_name, block, index = site
        return _Loc(self.funcs[func_name], block, index)

    # -- intrinsics ---------------------------------------------------------------
    def _intrinsic(self, name: str) -> None:
        if name == "print_int":
            self.output.print_int(wrap_signed32(self.get_gpr("rdi")))
        elif name == "print_long":
            self.output.print_long(wrap_signed(self.get_gpr("rdi"), 64))
        elif name == "print_double":
            self.output.print_double(self.get_xmm_double("xmm0"))
        elif name == "print_char":
            self.output.print_char(self.get_gpr("rdi") & 0xFF)
        elif name == "print_str":
            self.output.print_str(self.memory.read_cstring(self.get_gpr("rdi")))
        elif name == "malloc":
            self.set_gpr("rax", self.heap.malloc(
                wrap_signed(self.get_gpr("rdi"), 64)))
        elif name == "free":
            self.heap.free(self.get_gpr("rdi"))
        else:
            raise ReproError(f"unknown intrinsic {name}")

    #: opcode -> handler, called as ``handler(sim, inst, loc)``.
    _ops: Dict[str, Callable[["AsmSimulator", MInst, _Loc],
                             Optional[_Loc]]] = {
        "mov": _op_mov,
        "movsx": _op_movx, "movzx": _op_movx,
        "lea": _op_lea,
        "imul3": _op_imul3,
        "add": _op_alu, "sub": _op_alu, "and": _op_alu,
        "or": _op_alu, "xor": _op_alu, "imul": _op_alu,
        "neg": _op_neg,
        "not": _op_not,
        "shl": _op_shift, "sar": _op_shift, "shr": _op_shift,
        "cdq": _op_sign_extend_acc, "cqo": _op_sign_extend_acc,
        "idiv": _op_idiv,
        "cmp": _op_cmp,
        "test": _op_test,
        "setcc": _op_setcc,
        "cmovcc": _op_cmovcc,
        "jmp": _op_jmp,
        "jcc": _op_jcc,
        "push": _op_push,
        "pop": _op_pop,
        "call": _op_call,
        "ret": _op_ret,
        "movsd": _op_movsd,
        "movq": _op_movq,
        "addsd": _op_sse_arith, "subsd": _op_sse_arith,
        "mulsd": _op_sse_arith, "divsd": _op_sse_arith,
        "pxor": _op_pxor,
        "ucomisd": _op_ucomisd,
        "cvtsi2sd": _op_cvtsi2sd,
        "cvttsd2si": _op_cvttsd2si,
        "ud2": _op_ud2,
    }


# -- helpers ---------------------------------------------------------------------

def wrap_signed(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value >= (1 << (bits - 1)):
        value -= (1 << bits)
    return value


def wrap_signed32(value: int) -> int:
    return wrap_signed(value, 32)


def _fp_op(op: str, a: float, b: float) -> float:
    import math

    if op == "addsd":
        return a + b
    if op == "subsd":
        return a - b
    if op == "mulsd":
        return a * b
    # divsd
    if b == 0.0:
        if a == 0.0 or a != a:
            return float("nan")
        return float("inf") if (a > 0) == (math.copysign(1.0, b) > 0) \
            else float("-inf")
    return a / b


def _cvttsd2si(value: float, width: int) -> int:
    indefinite = 1 << (width - 1)  # unsigned encoding of INT_MIN
    if value != value or value in (float("inf"), float("-inf")):
        return indefinite
    truncated = int(value)
    if not (-(1 << (width - 1)) <= truncated < (1 << (width - 1))):
        return indefinite
    return truncated & ((1 << width) - 1)


def _poison_meta(inst: MInst) -> Tuple[Tuple, Tuple]:
    """Static (uses, defs) poison-target tuples for activation tracking."""
    uses: List[Tuple[str, str]] = []
    defs: List[Tuple[str, str]] = []
    for r in inst.reg_uses():
        if isinstance(r, Reg):
            cls = "xmm" if r.name.startswith("xmm") else "gpr"
            uses.append((cls, r.name))
    for name in inst.flags_read():
        uses.append(("flag", name))
    for r in inst.reg_defs():
        if isinstance(r, Reg):
            cls = "xmm" if r.name.startswith("xmm") else "gpr"
            defs.append((cls, r.name))
    if inst.writes_flags():
        for name in FLAG_NAMES:
            defs.append(("flag", name))
    # A conditional move does not reliably overwrite its destination, so it
    # must not clear poison.
    if inst.opcode == "cmovcc":
        defs = []
    return tuple(uses), tuple(defs)
