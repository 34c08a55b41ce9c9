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

Faults are delivered through an optional :class:`~repro.vm.base.Hook`,
whose ``on_executed`` runs after each instruction its ``filter`` admits
retires (PINFI's injection hook lives in :mod:`repro.fi.pinfi`).  The run
protocol (budget, boundary tap, convergence exit, outcome and counters)
is :class:`~repro.vm.base.BaseEngine`'s; this module is the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.backend.machine import (
    FLAG_NAMES, FuncRef, GlobalAddr, Imm, Label, MBlock, MFunction, MInst,
    Mem, MProgram, Reg, evaluate_condition,
)
from repro.ir.values import bits_to_double, double_to_bits
from repro.vm.base import BaseEngine, Hook
from repro.vm.blockcache import (
    UNCOMPILABLE, asm_region, cache_for, compile_asm_regions,
)
from repro.vm.image import build_global_image
from repro.vm.memory import STACK_TOP
from repro.vm.snapshot import MachineSnapshot, memory_matches
from repro.vm.traps import HangTimeout, Trap, TrapKind

MASK64 = (1 << 64) - 1
CODE_BASE = 0x0000_4000_0000_0000
EXIT_TOKEN = CODE_BASE

#: Opcodes that end a straight line of machine code.
_TRANSFERS = frozenset(("jmp", "jcc", "call", "ret"))

#: Parity of each byte value (PF=1 when the low result byte has an even
#: number of set bits), precomputed like hardware.
_PARITY = tuple(1 if bin(i).count("1") % 2 == 0 else 0 for i in range(256))


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


class AsmSimulator(BaseEngine):
    counter_prefix = "vm.asm"

    def __init__(self, program: MProgram,
                 max_instructions: int = 100_000_000,
                 max_call_depth: int = 400,
                 hook: Optional[Hook] = None,
                 checkpoint_stride: int = 0,
                 checkpoint_sink: Optional[Callable[[MachineSnapshot], None]]
                 = None,
                 template: Optional["AsmSimulator"] = None,
                 memory=None,
                 compile_blocks: bool = True) -> None:
        if program.ir_module is None:
            raise ReproError("program has no IR module attached")
        super().__init__(max_instructions, max_call_depth, hook,
                         checkpoint_stride, checkpoint_sink, template,
                         memory, compile_blocks)
        self.program = program
        #: Poisoned targets: ('gpr', name) / ('xmm', name) / ('flag', name).
        self.poison: Dict[Tuple[str, str], bool] = {}
        #: Last scalar memory read: (instruction ordinal, addr, nbytes).
        #: Memory-cell fault models (memflip) match the ordinal against
        #: ``executed`` to corrupt the cell the firing instruction just
        #: read; compiled blocks bypass the tag, which is safe because a
        #: firing instruction always runs on a scalar-fallback block.
        self.last_read: Optional[Tuple[int, int, int]] = None
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
            if compile_blocks:
                compile_asm_regions(program)
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

        self.regs: Dict[str, int] = {}
        self.xmm: Dict[str, int] = {}
        self.flags: Dict[str, int] = {n: 0 for n in FLAG_NAMES}

        #: call-site token <-> return location registry.
        self._site_tokens: Dict[Tuple[str, int, int], int] = {}
        self._token_sites: Dict[int, Tuple[str, int, int]] = {}

        #: Generated-source regions (see repro.vm.blockcache).  Recording
        #: runs compile too, one segment per dispatch: the boundary tap is
        #: checked once per compiled segment, so a checkpoint lands on the
        #: first segment boundary at or past its stride mark (and on the
        #: exact mark when scalar).
        self._block_cache = cache_for(program) if compile_blocks else None
        #: Throwaway location for compiled segments that delegate to scalar
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
        instruction at ``loc`` executes (``executed`` retired so far)."""
        return self._snapshot({
            "regs": dict(self.regs),
            "xmm": dict(self.xmm),
            "flags": dict(self.flags),
            "loc": (loc.func.name, loc.block, loc.index),
            "site_tokens": dict(self._site_tokens),
        }, include_memory)

    def restore(self, snapshot: MachineSnapshot,
                skip_memory: bool = False) -> None:
        """See :meth:`BaseEngine.restore`; the next run() continues at the
        captured location."""
        super().restore(snapshot, skip_memory)
        state = snapshot.state
        self.call_depth = snapshot.call_depth
        self.regs = dict(state["regs"])
        self.xmm = dict(state["xmm"])
        self.flags = dict(state["flags"])
        self._site_tokens = dict(state["site_tokens"])
        self._token_sites = {tok: site
                             for site, tok in self._site_tokens.items()}
        func_name, block, index = state["loc"]
        self._resume_loc = _Loc(self.funcs[func_name], block, index)

    # -- convergence exit ------------------------------------------------------
    def _converged_on(self, mark: MachineSnapshot, loc: _Loc) -> bool:
        """Whether the run may exit at ``mark``: no poisoned target is
        left to activate, and the state equals the mark bit for bit —
        cheap fields first, memory last."""
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
        ops = self._ops
        recording = self._recording
        tap = self._tap
        cache = self._block_cache
        global_addr = self.global_addr
        max_instructions = self.max_instructions
        while True:
            self.dispatches += 1
            insts = loc.func.blocks[loc.block]
            while loc.index >= len(insts):
                # Fall through to the next block in layout order.
                loc.block += 1
                loc.index = 0
                if loc.block >= len(loc.func.blocks):
                    raise Trap(TrapKind.BAD_JUMP,
                               f"fell off function {loc.func.name}")
                insts = loc.func.blocks[loc.block]
            quiet = False
            if cache is not None:
                # Compiled fast path (repro.vm.blockcache): the function's
                # region runs the segment at this position when no
                # observer could tell the difference and it cannot cross
                # the budget, and chains on across the function's edges
                # unless a hook may still act or the run records (lim =
                # -1: one segment).  A hook that is not finished takes the
                # counting path, or leaves the segment to the scalar loop.
                mfunc = loc.func.mfunc
                region = cache.regions.get(id(mfunc))
                if region is None:
                    region = asm_region(cache, mfunc, global_addr)
                segment = UNCOMPILABLE
                if region is not UNCOMPILABLE:
                    key = (loc.block, loc.index)
                    segment = region.entries.get(key)
                    if segment is None:
                        segment = region.segment_at(key)
                if (segment is not UNCOMPILABLE
                        and (not self.poison or self.fault_activated)
                        and self.executed + segment.count
                        <= max_instructions):
                    if tap and self.executed >= self._next_checkpoint:
                        self._take_checkpoint(loc)
                    if hook is None or hook.finished:
                        lim = -1 if recording else max_instructions
                    elif hook.on_segment(segment):
                        lim = -1
                    else:
                        segment = None
                    if segment is not None:
                        if segment.pc is not None:
                            self.compiled_blocks += 1
                            next_loc = region.run(self, loc, segment.pc, lim)
                            if type(next_loc) is tuple:  # same function
                                loc.block, loc.index = next_loc
                            elif next_loc is None:  # program exit
                                return wrap_signed32(self.get_gpr("rax"))
                            else:  # a call or return
                                loc = next_loc
                            continue
                        quiet = True
                self.fallback_blocks += 1
            # Scalar loop: execute until control leaves this straight
            # line, then hand back to the outer loop (which may compile
            # the next one).  A quiet stretch is a position inside a
            # compiled block that no segment starts at (a restored one):
            # it runs as the one segment it is, with the tap checked and
            # the hook booked at its start only, up to its transfer.
            scalar_tap, scalar_hook = (False, None) if quiet else (tap, hook)
            while True:
                if scalar_tap and self.executed >= self._next_checkpoint:
                    self._take_checkpoint(loc)
                inst = insts[loc.index]
                self.executed += 1
                if self.executed > max_instructions:
                    raise HangTimeout(self.executed)
                if self.poison:
                    self._check_poison(inst)
                handler = ops.get(inst.opcode)
                if handler is None:
                    raise ReproError(f"cannot simulate {inst.opcode}")
                next_loc = handler(self, inst, loc)
                if scalar_hook is not None and (hook_filter is None
                                                or id(inst) in hook_filter):
                    scalar_hook.on_executed(inst, self)
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
                if quiet and inst.opcode in _TRANSFERS:
                    break  # the segment ends at its transfer

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
