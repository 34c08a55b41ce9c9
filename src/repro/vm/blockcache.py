"""Generated-source segment compilation shared by both engines.

The scalar interpreter loops in ``repro.vm.irinterp`` and
``repro.vm.asmsim`` pay a per-instruction dispatch tax: a dict lookup on
the instruction class or opcode, an ``isinstance`` chain per operand, and
re-derivation of immutable facts (operand widths, global addresses,
branch targets) on every dynamic execution.  This module removes that tax
by emitting, for each straight-line *segment*, the Python source of one
function and ``compile()``-ing it once per program.  A segment is an IR
block from its first non-phi instruction (or a resume index) through its
terminator, or a machine-code run from an index to the next control
transfer or the end of its block.  Operands, widths, masks, addresses
and branch targets are baked into the source, and the machine state the
segment touches lives in locals: SSA values produced in the segment,
general-purpose and XMM register values, the operands of the last flag
write, and the entry value of ``executed``.  An engine makes one call
per segment, and nothing dispatches between two instructions of a
segment (DESIGN.md compares the calls per instruction).

The generated code is bit-identical to the scalar loop:

* ``executed`` is read on entry and stored exactly wherever something
  outside the function can see it: before a memory access that can trap,
  a division or a delegated scalar handler, an IR ``Call`` and an inline
  hook call, and at exit.
* The hang check is hoisted out of the function: an engine dispatches a
  segment only when ``executed + count <= max_instructions`` and runs it
  on the scalar loop otherwise, so ``HangTimeout`` fires at the same
  instruction with the same count.  An IR ``Call`` nests execution, so
  after it returns the function checks the rest of the segment again and,
  if the rest could cross the budget, hands the rest of the block to the
  scalar loop.
* Register, XMM and flag values are written back to the machine before
  delegated handlers, hook calls and exit.  Flags are architectural state
  (snapshots, probes and PINFI's flag injection read them), so the last
  flag write before each write-back is materialized; earlier ones are
  dead.  A branch or ``setcc`` whose flags come from a compare in the
  segment is decided from the compare's operands; ``superinstructions``
  counts the compare+branch pairs decided that way.
* Rare or stateful machine opcodes (``neg``, ``not``, shifts, ``cdq``,
  ``cqo``, ``idiv``, ``ud2``) and the IR's divisions, ``alloca`` and
  float-to-int casts call the scalar handler.  Anything else the
  generator does not understand marks the segment ``UNCOMPILABLE`` and
  the scalar loop reproduces the scalar behaviour, errors included.

Only integers and the backend's fixed register and flag names are
interpolated into the source.  Everything else — blocks, instructions,
callees, handlers, float constants (``repr`` cannot print ``inf``, ``nan``
or NaN payloads) and any name from MiniC source — is bound through the
function's namespace.  Each function's filename names its program
position, so a traceback names the segment.

Compilations are cached on the program object (``cache_for``), so the
golden run, every trial and every forked worker share one compilation,
and the cache dies with its program.  Engines run a segment compiled
only when no observer could tell the difference: a run with pending
poison stays on the scalar loop until the fault activates.  Checkpoint
recording and convergence probes compile: the engine checks its boundary
tap before each dispatched segment, so a checkpoint lands on the first
segment boundary at or past its stride mark.  While recording, the IR
engine runs segments holding a ``Call`` on the scalar loop, which keeps
each suspended frame's resume position exact; a compiled ``Call`` stores
its caller's resume position before calling, so a probe inside the
callee sees every suspended frame at its pending call.

Candidate counting needs no hooked variant: a hook with
``segment_counts`` gets the plain variant and one count per dispatch.
Other armed hooks get a *hooked* variant (cached per filter value) that
calls the hook inline after each candidate, exactly where the scalar
loop would; the engine runs it only when the hook declares the span safe
(``compiled_span_ok(ncand)``), so an injection can only fire on the
scalar loop, where poison tracking sees every read.  An IR ``Call`` can
grow the dynamic candidate count mid-segment, so a hooked candidate at or
after one makes the span unsafe for non-observer hooks.
"""

from __future__ import annotations

import functools
import re
import struct
import time
from typing import Dict, List, Optional

from repro.backend.machine import (
    FuncRef, GlobalAddr, Imm, Label, Mem, Reg, evaluate_condition,
)
from repro.ir.instructions import (
    Alloca, BinaryOp, Branch, Call, Cast, FCmp, GetElementPtr, ICmp,
    Instruction, Load, Phi, Ret, Select, Store, Unreachable,
)
from repro.ir.values import (
    Argument, ConstantDouble, ConstantInt, ConstantNull, ConstantUndef,
    GlobalVariable,
)
from repro.vm.traps import Trap, TrapKind

MASK64 = (1 << 64) - 1

#: Sentinel stored in a cache tier when a segment cannot be compiled, so
#: the (cheap) "can't compile" answer is itself memoised.
UNCOMPILABLE = object()

#: ``ncand`` of a hooked IR segment with a candidate at or after a nested
#: call: the dynamic candidate count can grow mid-segment, so
#: ``count + ncand < k`` must always fail for injection hooks.
NCAND_UNSAFE = 1 << 62

#: First element of the tuple a generated IR function returns for ``ret``
#: (``(RET, value)``) and for "finish this block on the scalar loop from
#: ``index``" (``(SCALAR, index)``); any other return is the next block.
RET = object()
SCALAR = object()


class BlockCache:
    """Per-program compilation cache plus compile-time statistics.

    ``ir`` and ``asm`` map ``(id(instruction_list), start_index)`` (plus
    the hook filter, for hooked variants) to a :class:`Segment` or
    ``UNCOMPILABLE``; ``phis`` maps an IR edge ``(id(instruction_list),
    id(predecessor))`` to its phis' incoming operands.  The statistics
    cover compile-time work; runtime counts live on the engines."""

    __slots__ = ("ir", "asm", "phis", "blocks_compiled",
                 "superinstructions", "compile_wall_s")

    def __init__(self) -> None:
        self.ir: Dict[tuple, object] = {}
        self.asm: Dict[tuple, object] = {}
        self.phis: Dict[tuple, tuple] = {}
        self.blocks_compiled = 0
        self.superinstructions = 0
        self.compile_wall_s = 0.0

    def stats(self) -> dict:
        return {
            "blocks_compiled": self.blocks_compiled,
            "superinstructions": self.superinstructions,
            "compile_wall_s": self.compile_wall_s,
        }


def cache_for(program) -> BlockCache:
    """The shared compilation cache for ``program`` (an IR ``Module`` or
    an ``MProgram``), created on first request.  It is stored on the
    program itself, so it lives exactly as long as the program does."""
    cache = getattr(program, "_block_cache", None)
    if cache is None:
        cache = BlockCache()
        program._block_cache = cache
    return cache


def peek_cache(program) -> Optional[BlockCache]:
    """The cache for ``program`` if one exists, else None (for stats)."""
    return getattr(program, "_block_cache", None)


def invalidate_cache(program) -> None:
    """Drop every compiled segment and phi edge for ``program``.

    Segments bake operand identities, branch targets and block indices,
    so they must not survive an in-place transformation of the module.
    IR pass orchestration (``PassManager.run``, ``prepare_for_backend``)
    calls this after mutating; anything else that rewrites instructions
    in place must do the same.
    """
    cache = peek_cache(program)
    if cache is not None:
        cache.ir.clear()
        cache.asm.clear()
        cache.phis.clear()


class Segment:
    """One compiled segment.

    ``run`` is the generated function: ``run(interp, frame, values)``
    returns the next block or a ``(RET, value)`` / ``(SCALAR, index)``
    tuple; ``run(sim, loc)`` returns the next location, or None at
    program exit.  ``count`` is the static instruction count, ``ids`` the
    id-set of the covered instructions (hook-filter disjointness and
    segment counting), ``ncand`` the number of inline hook calls a hooked
    variant makes per dispatch (0 for plain variants) and ``calls`` True
    when an IR segment holds a ``Call``."""

    __slots__ = ("run", "count", "ids", "ncand", "calls")

    def __init__(self, run, count, ids, ncand, calls) -> None:
        self.run = run
        self.count = count
        self.ids = ids
        self.ncand = ncand
        self.calls = calls


class _Unsupported(Exception):
    """The generator does not handle this instruction or operand."""


_ATOM = re.compile(r"(?:[A-Za-z_]\w*|\d+|\(-\d+\))\Z")
#: Expressions that read state or call a handler (everything else the
#: generators emit is arithmetic on locals and literals).
_IMPURE = re.compile(r"[.\[:]|\b(?:k\d+|[A-Z][A-Z0-9_]*)\(")
_REGISTER = re.compile(r"[a-z][a-z0-9]*\Z")


def _lit(value) -> str:
    """Source text of an integer operand."""
    if type(value) is not int:
        raise _Unsupported(value)
    return str(value) if value >= 0 else f"({value})"


def _wrap(expr: str, bits: int) -> str:
    """``wrap_signed(expr, bits)`` as one expression."""
    half = 1 << (bits - 1)
    return f"((({expr}) + {half} & {(1 << bits) - 1}) - {half})"


class _Source:
    """Lines and namespace of one generated function."""

    def __init__(self, namespace: dict) -> None:
        self.ns = dict(namespace)
        self.lines: List[str] = []
        self.depth = 1
        self._bound: Dict[int, str] = {}
        self._temps = 0
        self.bits: Dict[str, int] = {}
        #: Pure expression -> the local holding its value.
        self.memo: Dict[str, str] = {}
        #: Executed offset ``s.executed`` was last stored at (the entry
        #: value counts as offset 0).
        self.exact = 0

    def bind(self, obj) -> str:
        """A namespace name for ``obj``."""
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = f"k{len(self._bound)}"
            self.ns[name] = obj
        return name

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def atom(self, expr: str, bits: int = 64) -> str:
        """``expr`` as a name or literal, via a temporary if needed (which
        holds at most ``bits`` unsigned bits, when that is known).  A pure
        expression computed before is not computed again."""
        if _ATOM.match(expr):
            return expr
        name = self.memo.get(expr)
        if name is None:
            name = self.temp()
            self.emit(f"{name} = {expr}")
            self.remember(expr, name)
        if bits < self.bits.get(name, 64):
            self.bits[name] = bits
        return name

    def remember(self, expr: str, name: str) -> None:
        """Note that local ``name`` holds ``expr``, when ``expr`` reads
        nothing but locals and literals and the line runs whenever later
        ones do."""
        if self.depth == 1 and not _IMPURE.search(expr):
            self.memo[expr] = name

    def known(self, text: str) -> int:
        """An upper bound on the unsigned bit length of a register value
        held in local or literal ``text``."""
        if text.isdigit():
            return int(text).bit_length()
        return self.bits.get(text, 64)

    def executed(self, offset: int) -> None:
        if self.exact != offset:
            self.emit(f"s.executed = e + {offset}")
            self.exact = offset

    def function(self, params: str, prologue: List[str], filename: str):
        source = "\n".join([f"def seg({params}):"]
                           + ["    " + line for line in prologue]
                           + self.lines) + "\n"
        exec(compile(source, filename, "exec"), self.ns)
        return self.ns.pop("seg")


# -- lazily-bound engine tables ----------------------------------------------
#
# blockcache is imported by both engines, so their module-level tables are
# fetched lazily to avoid import cycles.

@functools.lru_cache(maxsize=None)
def _ir_tables():
    from repro.vm import irinterp
    namespace = {"Trap": Trap, "TrapKind": TrapKind, "RET": RET,
                 "RET_NONE": (RET, None), "SCALAR": SCALAR}
    return (namespace, irinterp._INT_BINOPS, irinterp._FLOAT_BINOPS,
            irinterp._CAST_OPS, irinterp.IRInterpreter._exec_alloca)


@functools.lru_cache(maxsize=None)
def _asm_tables():
    from repro.vm import asmsim
    quad = struct.Struct("<Q")
    double = struct.Struct("<d")
    namespace = {"Trap": Trap, "TrapKind": TrapKind, "PQ": quad.pack,
                 "UQ": quad.unpack, "PD": double.pack, "UD": double.unpack,
                 "PAR": asmsim._PARITY, "COND": evaluate_condition,
                 "DIVSD": functools.partial(asmsim._fp_op, "divsd"),
                 "CVTTSD2SI": asmsim._cvttsd2si}
    return namespace, asmsim.AsmSimulator._ops


# ============================================================================
# IR segments
# ============================================================================

_IR_ARITH = {"add": "+", "sub": "-", "mul": "*",
             "and": "&", "or": "|", "xor": "^"}
_IR_FARITH = {"fadd": "+", "fsub": "-", "fmul": "*"}
_IR_UREL = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
            "ugt": ">", "uge": ">="}
_IR_SREL = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_IR_FREL = {"oeq": "==", "une": "!=", "olt": "<", "ole": "<=",
            "ogt": ">", "oge": ">="}


class _IRGen(_Source):
    """Source of one IR segment: ``seg(s, frame, values)``."""

    def __init__(self, global_addr, hook_ids) -> None:
        namespace, self.int_ops, self.float_ops, self.cast_ops, \
            self.alloca = _ir_tables()
        super().__init__(namespace)
        self.global_addr = global_addr
        self.hook_ids = hook_ids
        #: id(value) -> the local holding it.
        self.local: Dict[int, str] = {}
        #: id(value) -> operand reads of it in this segment.
        self.uses: Dict[int, int] = {}
        #: Locals known to hold a value within 64 unsigned bits.
        self.masked = set()

    def val(self, op, atom: bool = False) -> str:
        """Source text of an operand.  A value from outside the segment
        read more than once is loaded into a local at its first read —
        which must then be the first in evaluation order, so callers
        render operands in the order the source evaluates them, and pass
        ``atom`` for operands of conditional expressions."""
        key = id(op)
        name = self.local.get(key)
        if name is not None:
            return name
        if isinstance(op, (Instruction, Argument)):
            if atom or self.uses.get(key, 0) > 1:
                name = self.local[key] = self.temp()
                if atom:
                    self.emit(f"{name} = values[{key}]")
                    return name
                return f"({name} := values[{key}])"
            return f"values[{key}]"
        if isinstance(op, ConstantInt):
            return _lit(op.value)
        if isinstance(op, ConstantDouble):
            return self.bind(op.value)
        if isinstance(op, ConstantNull):
            return "0"
        if isinstance(op, GlobalVariable):
            return _lit(self.global_addr[id(op)])
        if isinstance(op, ConstantUndef):
            return self.bind(0.0) if op.type.is_double() else "0"
        raise _Unsupported(op)

    def address(self, pointer) -> str:
        """A pointer operand masked to 64 bits, as the scalar loop reads
        addresses (the mask is left out where the value is known to be
        within 64 bits already)."""
        text = self.val(pointer)
        if text in self.masked or text.isdigit():
            return text
        return f"{text} & {MASK64}"

    def compare(self, inst) -> str:
        """A boolean expression for an ICmp/FCmp, as ``_exec_icmp`` and
        ``_exec_fcmp`` evaluate it."""
        pred = inst.predicate
        if type(inst) is ICmp:
            bits = 64 if inst.lhs.type.is_pointer() else inst.lhs.type.bits
            mask = (1 << bits) - 1
            a = self.val(inst.lhs)
            b = self.val(inst.rhs)
            rel = _IR_UREL.get(pred)
            if rel is not None:
                return f"({a} & {mask}) {rel} ({b} & {mask})"
            half = 1 << (bits - 1)
            return (f"({a} + {half} & {mask}) {_IR_SREL[pred]} "
                    f"({b} + {half} & {mask})")
        if pred == "one":  # ordered and unequal: false on NaN
            a = self.val(inst.lhs, atom=True)
            b = self.val(inst.rhs, atom=True)
            return f"({a} < {b} or {a} > {b})"
        rel = _IR_FREL[pred]
        return f"{self.val(inst.lhs)} {rel} {self.val(inst.rhs)}"

    def expression(self, inst, off: int) -> str:
        """The value of a non-terminator, non-call instruction (Store:
        the statement that performs it)."""
        cls = type(inst)
        if cls is BinaryOp:
            op = inst.opcode
            a = self.val(inst.lhs)
            b = self.val(inst.rhs)
            sym = _IR_FARITH.get(op)
            if sym is not None:
                return f"{a} {sym} {b}"
            handler = self.float_ops.get(op)
            if handler is not None:
                self.executed(off)
                return f"{self.bind(handler)}({a}, {b})"
            bits = inst.type.bits
            sym = _IR_ARITH.get(op)
            if sym is not None:
                return _wrap(f"{a} {sym} {b}", bits)
            mask = (1 << bits) - 1
            count = f"({b} & {mask & (63 if bits == 64 else 31)})"
            if op == "shl":
                return _wrap(f"{a} << {count}", bits)
            if op == "lshr":
                return _wrap(f"({a} & {mask}) >> {count}", bits)
            if op == "ashr":
                return _wrap(f"{a} >> {count}", bits)
            self.executed(off)
            return f"{self.bind(self.int_ops[op])}({a}, {b}, {bits})"
        if cls is ICmp or cls is FCmp:
            return f"1 if {self.compare(inst)} else 0"
        if cls is Load:
            addr = self.address(inst.pointer)
            self.executed(off)
            t = inst.type
            if t.is_double():
                return f"mem.read_double({addr})"
            if t.is_pointer():
                return f"mem.read_int({addr}, 8, False)"
            if t.is_integer(1):
                return f"1 if mem.read_int({addr}, 1, False) else 0"
            return f"mem.read_int({addr}, {t.size}, True)"
        if cls is Store:
            addr = self.address(inst.pointer)
            value = self.val(inst.value)
            self.executed(off)
            t = inst.value.type
            if t.is_double():
                return f"mem.write_double({addr}, {value})"
            if t.is_integer(1):
                return f"mem.write_int({addr}, 1, 1 if {value} else 0)"
            # write_int masks the value to its size, as _exec_store does.
            size = 8 if t.is_pointer() else t.size
            return f"mem.write_int({addr}, {size}, {value})"
        if cls is GetElementPtr:
            # Per-step masking in _exec_gep is addition mod 2**64, so one
            # final mask is equivalent.
            parts = [self.val(inst.pointer)]
            static = 0
            current = inst.pointer.type.pointee
            for n, index in enumerate(inst.indices):
                if n and not current.is_array():
                    static += current.field_offset(index.value)
                    current = current.field_type(index.value)
                    continue
                if n:
                    current = current.element
                if isinstance(index, ConstantInt):
                    static += index.value * current.size
                else:
                    parts.append(f"{self.val(index)} * {current.size}")
            if static:
                parts.append(_lit(static))
            return f"({' + '.join(parts)}) & {MASK64}"
        if cls is Cast:
            op = inst.opcode
            x = self.val(inst.value)
            if op in ("sext", "bitcast"):
                return x
            if op == "trunc":
                return _wrap(x, inst.type.bits)
            if op == "ptrtoint":
                return _wrap(x, 64)
            if op == "inttoptr":
                return f"{x} & {MASK64}"
            if op == "sitofp":
                return f"float({x})"
            if op in ("zext", "uitofp"):
                mask = (1 << inst.value.type.bits) - 1
                return (f"{x} & {mask}" if op == "zext"
                        else f"float({x} & {mask})")
            self.executed(off)
            return f"{self.bind(self.cast_ops[op])}({self.bind(inst)}, {x})"
        if cls is Select:
            cond = self.val(inst.condition, atom=True)
            yes = self.val(inst.true_value, atom=True)
            no = self.val(inst.false_value, atom=True)
            return f"{yes} if {cond} else {no}"
        if cls is Alloca:
            self.executed(off)
            return f"{self.bind(self.alloca)}(s, {self.bind(inst)}, frame)"
        raise _Unsupported(inst)

    def result(self, inst, expr: str, off: int, hooked: bool) -> None:
        """Store a result in ``values`` (and a local, if read later in the
        segment), through the hook for a hooked candidate."""
        key = id(inst)
        if not hooked:
            if not self.uses.get(key):
                self.emit(f"values[{key}] = {expr}")
                return
            name = expr if _ATOM.match(expr) else self.memo.get(expr)
            if name is not None:  # a copy: read the same local
                self.local[key] = name
                self.emit(f"values[{key}] = {name}")
                return
            name = self.local[key] = f"v{off}"
            self.emit(f"values[{key}] = {name} = {expr}")
            self.remember(expr, name)
            if type(inst) is GetElementPtr or (
                    type(inst) is Load and inst.type.is_pointer()):
                self.masked.add(name)
            return
        name = self.local[key] = f"v{off}"
        self.emit(f"{name} = {expr}")
        self.executed(off)
        self.emit(f"{name} = hook.on_result({self.bind(inst)}, {name}, s)")
        self.emit(f"values[{key}] = {name}")

    def build(self, insts, start: int):
        end = start
        while not isinstance(insts[end], (Branch, Ret, Unreachable)):
            if type(insts[end]) is Phi:
                return None  # phi mid-segment: the scalar loop handles it
            end += 1
            if end == len(insts):
                return None  # no terminator: the scalar loop raises
        seg = insts[start:end + 1]
        count = len(seg)
        hook_ids = self.hook_ids
        for inst in seg:
            for op in inst.operands:
                self.uses[id(op)] = self.uses.get(id(op), 0) + 1
        ncand = fused = 0
        calls = unsafe = False
        for j, inst in enumerate(seg):
            off = j + 1
            cls = type(inst)
            key = id(inst)
            if cls is Branch or cls is Ret or cls is Unreachable:
                # The scalar loop calls no hook on terminators.
                if cls is Ret:
                    value = (self.val(inst.value) if inst.value is not None
                             else None)
                    self.executed(count)
                    self.emit("return RET_NONE" if value is None
                              else f"return (RET, {value})")
                elif cls is Unreachable:
                    self.executed(count)
                    message = self.bind("unreachable executed")
                    self.emit(f"raise Trap(TrapKind.BAD_JUMP, {message})")
                elif inst.is_conditional:
                    cond = self.val(inst.condition)
                    yes, no = (self.bind(b) for b in inst.targets[:2])
                    self.executed(count)
                    self.emit(f"return {yes} if {cond} else {no}")
                else:
                    target = self.bind(inst.targets[0])
                    self.executed(count)
                    self.emit(f"return {target}")
                break
            hooked = (hook_ids is not None and key in hook_ids
                      and inst.has_result())
            nxt = seg[j + 1]
            if ((cls is ICmp or cls is FCmp) and type(nxt) is Branch
                    and nxt.is_conditional and nxt.condition is inst
                    and not (hook_ids is not None
                             and (key in hook_ids or id(nxt) in hook_ids))):
                # Compare+branch: decided from the compare's operands;
                # later blocks may still read the compare's value.
                cond = self.compare(inst)
                yes, no = (self.bind(b) for b in nxt.targets[:2])
                self.emit(f"if {cond}:")
                self.depth += 1
                self.emit(f"values[{key}] = 1")
                self.emit(f"s.executed = e + {count}")
                self.emit(f"return {yes}")
                self.depth -= 1
                self.emit(f"values[{key}] = 0")
                self.emit(f"s.executed = e + {count}")
                self.emit(f"return {no}")
                fused = 1
                break
            if hooked:
                ncand += 1
            if cls is Call:
                calls = True
                unsafe = unsafe or hooked
                args = ", ".join(self.val(a) for a in inst.args)
                self.emit(f"frame.resume_block = {self.bind(inst.parent)}")
                self.emit(f"frame.resume_index = {start + j}")
                self.executed(off)
                call = f"s._call_function({self.bind(inst.callee)}, [{args}])"
                # A hook sees the count the callee left (``exact`` is
                # already ``off``, so result() stores nothing before it).
                if inst.has_result():
                    self.result(inst, call, off, hooked)
                else:
                    self.emit(call)
                # The callee advanced ``executed``: re-base, and hand the
                # rest of the block to the scalar loop if it could cross
                # the budget.
                self.emit(f"e = s.executed - {off}")
                self.emit(f"if e + {count} > s.max_instructions:")
                self.emit(f"    return (SCALAR, {start + off})")
                continue
            unsafe = unsafe or (hooked and calls)
            expr = self.expression(inst, off)
            if inst.has_result():
                self.result(inst, expr, off, hooked)
            else:
                self.emit(expr)
        prologue = ["e = s.executed"]
        if any("mem." in line for line in self.lines):
            prologue.append("mem = s.memory")
        if ncand:
            prologue.append("hook = s.hook")
        block = seg[0].parent
        run = self.function(
            "s, frame, values", prologue,
            f"<ir {block.parent.name}:{block.name}+{start}>")
        segment = Segment(run, count, frozenset(id(i) for i in seg),
                          NCAND_UNSAFE if unsafe else ncand, calls)
        return segment, fused


def compile_ir_segment(cache: BlockCache, insts, start, global_addr,
                       hook_ids=None) -> Optional[Segment]:
    """Compile one IR segment, recording stats on ``cache``.

    Any compile-time exception marks the segment uncompilable — the
    scalar loop then reproduces the scalar behaviour exactly, including
    the scalar error if the block is genuinely malformed.
    """
    t0 = time.perf_counter()
    try:
        built = _IRGen(global_addr, hook_ids).build(insts, start)
    except Exception:
        built = None
    cache.compile_wall_s += time.perf_counter() - t0
    if built is None:
        return None
    segment, fused = built
    cache.blocks_compiled += 1
    cache.superinstructions += fused
    return segment


# ============================================================================
# machine-code segments
# ============================================================================

_U_COND = {"e": "==", "ne": "!=", "b": "<", "ae": ">=", "be": "<=",
           "a": ">"}
_S_COND = {"l": "<", "ge": ">=", "le": "<=", "g": ">"}
_ALU = {"and": "&", "or": "|", "xor": "^"}
_SSE = {"addsd": "+", "subsd": "-", "mulsd": "*"}
#: Opcodes that call their scalar handler.
_DELEGATED = frozenset(("neg", "not", "shl", "sar", "shr", "cdq", "cqo",
                        "idiv", "ud2"))
_TRANSFERS = frozenset(("jmp", "jcc", "call", "ret"))
_RSP = Reg("rsp")


def _decided(flags, cond: str) -> Optional[str]:
    """A boolean expression for ``cond`` from the operands of a pending
    flag write, or None when only the flag values can decide it."""
    kind = flags[0]
    if kind == "sub":  # a - b: cmp, sub
        _, a, b, _, width = flags
        rel = _U_COND.get(cond)
        if rel is not None:
            return f"{a} {rel} {b}"
        rel = _S_COND.get(cond)
        if rel is not None:
            half = 1 << (width - 1)
            return f"({a} ^ {half}) {rel} ({b} ^ {half})"
        return None
    if kind == "logic":  # CF = OF = 0
        _, r, width = flags
        sign = f"{r} >> {width - 1} & 1"
        return {"e": f"not {r}", "be": f"not {r}", "ne": r, "a": r,
                "l": sign, "ge": f"not {sign}",
                "le": f"not {r} or {sign}",
                "g": f"{r} and not {sign}"}.get(cond)
    if kind == "ucomisd":  # unordered sets ZF, PF and CF
        _, a, b = flags
        ne = f"({a} < {b} or {a} > {b})"
        return {"a": f"{a} > {b}", "ae": f"{a} >= {b}",
                "b": f"not {a} >= {b}", "be": f"not {a} > {b}",
                "eq_o": f"{a} == {b}", "ne_uo": f"{a} != {b}",
                "ne_o": ne, "ne": ne, "e": f"not {ne}"}.get(cond)
    return None


class _AsmGen(_Source):
    """Source of one machine-code segment: ``seg(s, loc)``."""

    def __init__(self, sim, rec, hook_ids) -> None:
        namespace, self.handlers = _asm_tables()
        super().__init__(namespace)
        self.global_addr = sim.global_addr
        self.rec = rec
        self.hook_ids = hook_ids
        #: Register name -> the local holding its value, and the names
        #: whose local is newer than the machine, in first-write order.
        self.gpr: Dict[str, str] = {}
        self.gdirty: List[str] = []
        #: XMM name -> the local holding its low double.
        self.xval: Dict[str, str] = {}
        self.xdirty: List[str] = []
        #: The operands of the last flag write (which decide conditions),
        #: and whether it is still to be stored in ``flags``.
        self.flags = None
        self.flags_pending = False
        self.off = 0

    # -- state ------------------------------------------------------------
    @staticmethod
    def name(op) -> str:
        """A register operand's name, checked to be a plain register name
        before it is interpolated into the source."""
        if not isinstance(op, Reg) or not _REGISTER.match(op.name):
            raise _Unsupported(op)
        return op.name

    def reg(self, op) -> str:
        name = self.name(op)
        local = self.gpr.get(name)
        if local is None:
            local = self.gpr[name] = self.temp()
            self.emit(f"{local} = regs.get({name!r}, 0)")
        return local

    def set_reg(self, op, expr: str, bits: int = 64) -> None:
        """GPR ``op`` := ``expr`` (within ``bits`` <= 64 bits)."""
        name = self.name(op)
        self.gpr[name] = self.atom(expr, bits)
        if name not in self.gdirty:
            self.gdirty.append(name)

    def xmm(self, op) -> str:
        name = self.name(op)
        local = self.xval.get(name)
        if local is None:
            local = self.xval[name] = self.temp()
            self.emit(f"{local} = UD(PQ(xmm.get({name!r}, 0) & {MASK64}))[0]")
        return local

    def set_xmm(self, op, expr: str) -> None:
        """The low double of XMM ``op`` := ``expr``."""
        name = self.name(op)
        self.xval[name] = self.atom(expr)
        if name not in self.xdirty:
            self.xdirty.append(name)

    def sync_xmm(self) -> None:
        for name in self.xdirty:
            self.emit(f"xmm[{name!r}] = xmm.get({name!r}, 0) & {~MASK64} "
                      f"| UQ(PD({self.xval[name]}))[0]")
        self.xdirty = []

    def sync(self) -> None:
        """Write every pending register, XMM and flag value back."""
        for name in self.gdirty:
            self.emit(f"regs[{name!r}] = {self.gpr[name]}")
        self.gdirty = []
        self.sync_xmm()
        if self.flags_pending:
            self.store_flags()

    def forget(self) -> None:
        """After code whose effect the generator does not track (a scalar
        handler, a conditional write): reload state on use."""
        self.gpr = {}
        self.xval = {}
        self.flags = None

    def set_flags(self, *flags) -> None:
        self.flags = flags
        self.flags_pending = True

    def store_flags(self) -> None:
        """Materialize the pending flag write, as the ``_set_flags_*``
        helpers compute it."""
        flags = self.flags
        kind = flags[0]
        self.flags_pending = False
        if kind == "ucomisd":
            _, a, b = flags
            self.emit("flags['OF'] = flags['SF'] = 0")
            self.emit(f"if {a} != {a} or {b} != {b}:")
            self.emit("    flags['ZF'] = flags['PF'] = flags['CF'] = 1")
            self.emit("else:")
            self.emit(f"    flags['ZF'] = 1 if {a} == {b} else 0")
            self.emit("    flags['PF'] = 0")
            self.emit(f"    flags['CF'] = 1 if {a} < {b} else 0")
            return
        if kind == "logic":
            _, r, width = flags
            self.emit("flags['CF'] = flags['OF'] = 0")
        else:
            _, a, b, r, width = flags
            mask = (1 << width) - 1
            if r is None:
                r = a if b == "0" else self.atom(f"({a} - {b}) & {mask}")
            if kind == "sub":
                self.emit(f"flags['CF'] = 1 if {a} < {b} else 0")
                self.emit(f"flags['OF'] = (({a} ^ {b}) & ({a} ^ {r})) "
                          f">> {width - 1} & 1")
            else:
                self.emit(f"flags['CF'] = 1 if {a} + {b} > {mask} else 0")
                self.emit(f"flags['OF'] = (({a} ^ {r}) & ({b} ^ {r})) "
                          f">> {width - 1} & 1")
        self.emit(f"flags['ZF'] = 0 if {r} else 1")
        self.emit(f"flags['SF'] = {r} >> {width - 1} & 1")
        self.emit(f"flags['PF'] = PAR[{r} & 255]")

    def condition(self, cond: str):
        """``(expression, decided)`` for condition ``cond``: decided from
        a pending flag write's operands when possible, else read from the
        flags after storing them."""
        if self.flags is not None:
            expr = _decided(self.flags, cond)
            if expr is not None:
                return expr, True
        if self.flags_pending:
            self.store_flags()
        return f"COND({self.bind(cond)}, flags)", False

    # -- operands ---------------------------------------------------------
    def address(self, mem: Mem) -> str:
        disp = mem.disp
        if mem.sym is not None:
            disp += self.global_addr[mem.sym]
        parts = []
        if mem.base is not None:
            parts.append(self.reg(mem.base))
        if mem.index is not None:
            index = self.reg(mem.index)
            parts.append(index if mem.scale == 1
                         else f"{index} * {_lit(mem.scale)}")
        if not parts:
            return _lit(disp & MASK64)
        if mem.index is None and not disp:
            return parts[0]  # a register value is already within 64 bits
        if disp:
            parts.append(_lit(disp))
        return f"({' + '.join(parts)}) & {MASK64}"

    def read_int(self, op, width: int) -> str:
        """The unsigned ``width``-bit value of an integer operand, as a
        local or literal."""
        mask = (1 << width) - 1
        if isinstance(op, Reg):
            local = self.reg(op)
            if self.known(local) <= width:
                return local
            return self.atom(f"{local} & {mask}", width)
        if isinstance(op, Imm):
            return _lit(op.value & mask)
        if isinstance(op, GlobalAddr):
            return _lit(self.global_addr[op.name] & mask)
        if isinstance(op, Mem):
            addr = self.address(op)
            self.executed(self.off)
            return self.atom(f"mem.read_int({addr}, {width // 8}, False)",
                             width)
        raise _Unsupported(op)

    def write_int(self, op, width: int, expr: str) -> None:
        """Store ``expr`` (already within ``width`` bits)."""
        if isinstance(op, Reg):
            self.set_reg(op, expr)
        elif isinstance(op, Mem):
            addr = self.address(op)
            self.executed(self.off)
            self.emit(f"mem.write_int({addr}, {width // 8}, {expr})")
        else:
            raise _Unsupported(op)

    def read_double(self, op) -> str:
        if isinstance(op, Reg):
            return self.xmm(op)
        if isinstance(op, Mem):
            addr = self.address(op)
            self.executed(self.off)
            return f"mem.read_double({addr})"
        raise _Unsupported(op)

    # -- instructions -----------------------------------------------------
    def instruction(self, inst) -> None:
        """Emit one non-transfer instruction, as its ``_op_*`` handler
        executes it."""
        op = inst.opcode
        ops = inst.operands
        w = inst.width
        mask = (1 << w) - 1
        if op in _DELEGATED:
            handler = self.bind(self.handlers[op])
            self.sync()
            self.executed(self.off)
            self.emit(f"{handler}(s, {self.bind(inst)}, s._scratch_loc)")
            self.forget()
        elif op == "mov":
            self.write_int(ops[0], w, self.read_int(ops[1], w))
        elif op in ("movzx", "movsx"):
            dst, src = ops
            if not isinstance(dst, Reg):
                raise _Unsupported(dst)
            sw = inst.src_width
            raw = self.read_int(src, sw)
            if op == "movsx":
                fill = mask ^ ((1 << sw) - 1)
                raw = f"{raw} | {fill} if {raw} & {1 << (sw - 1)} else {raw}"
            if sw > w:
                raw = f"({raw}) & {mask}"
            self.set_reg(dst, raw, w if op == "movsx" or sw > w else sw)
        elif op == "lea":
            dst, src = ops
            if not isinstance(dst, Reg) or not isinstance(src, Mem):
                raise _Unsupported(inst)
            self.set_reg(dst, self.address(src))
        elif op == "imul3":
            dst, src, imm = ops
            if not isinstance(dst, Reg) or not isinstance(imm, Imm):
                raise _Unsupported(inst)
            # The product mod 2**w does not depend on the sign of ``src``.
            r = self.atom(f"{self.read_int(src, w)} * {_lit(imm.value)} "
                          f"& {mask}", w)
            self.set_flags("logic", r, w)
            self.set_reg(dst, r)
        elif op in ("add", "sub", "imul", "and", "or", "xor"):
            dst, src = ops
            a = self.read_int(dst, w)
            b = self.read_int(src, w)
            if op == "add" or op == "sub":
                sym = "+" if op == "add" else "-"
                r = self.atom(f"({a} {sym} {b}) & {mask}", w)
                self.set_flags(op, a, b, r, w)
            elif op == "imul":
                r = self.atom(f"{a} * {b} & {mask}", w)
                self.set_flags("logic", r, w)
            else:
                r = self.atom(f"{a} {_ALU[op]} {b}", w)
                self.set_flags("logic", r, w)
            self.write_int(dst, w, r)
        elif op == "cmp":
            self.set_flags("sub", self.read_int(ops[0], w),
                           self.read_int(ops[1], w), None, w)
        elif op == "test":
            a = self.read_int(ops[0], w)
            b = self.read_int(ops[1], w)
            r = a if a == b else self.atom(f"{a} & {b}", w)
            self.set_flags("logic", r, w)
        elif op == "setcc":
            if not isinstance(ops[0], Reg):
                raise _Unsupported(inst)
            cond, _ = self.condition(inst.cond)
            self.set_reg(ops[0], f"1 if {cond} else 0", 1)
        elif op == "cmovcc":
            dst, src = ops
            self.sync()
            self.executed(self.off)
            cond, _ = self.condition(inst.cond)
            self.emit(f"if {cond}:")
            self.depth += 1
            value = self.read_int(src, w)
            if isinstance(dst, Reg):
                self.emit(f"regs[{self.name(dst)!r}] = {value}")
            else:
                self.write_int(dst, w, value)
            self.depth -= 1
            self.forget()
        elif op == "push":
            value = self.read_int(ops[0], 64)
            sp = self.atom(f"({self.reg(_RSP)} - 8) & {MASK64}")
            self.executed(self.off)
            self.emit(f"mem.write_int({sp}, 8, {value})")
            self.set_reg(_RSP, sp)
        elif op == "pop":
            if not isinstance(ops[0], Reg):
                raise _Unsupported(inst)
            sp = self.reg(Reg("rsp"))
            self.executed(self.off)
            value = self.atom(f"mem.read_int({sp}, 8, False)")
            self.set_reg(_RSP, f"({sp} + 8) & {MASK64}")
            self.set_reg(ops[0], value)
        elif op == "movsd":
            dst, src = ops
            if isinstance(dst, Mem):
                addr = self.address(dst)
                value = self.read_double(src)
                self.executed(self.off)
                self.emit(f"mem.write_double({addr}, {value})")
            elif isinstance(dst, Reg):
                self.set_xmm(dst, self.read_double(src))
            else:
                raise _Unsupported(inst)
        elif op == "movq":
            dst, src = ops
            if not isinstance(dst, Reg) or not isinstance(src, Reg):
                raise _Unsupported(inst)
            self.sync_xmm()
            if self.name(dst).startswith("xmm"):
                self.emit(f"xmm[{dst.name!r}] = {self.reg(src)}")
                self.xval.pop(dst.name, None)
            else:
                self.set_reg(dst,
                             f"xmm.get({self.name(src)!r}, 0) & {MASK64}")
        elif op in ("addsd", "subsd", "mulsd", "divsd"):
            dst, src = ops
            if not isinstance(dst, Reg):
                raise _Unsupported(inst)
            a = self.xmm(dst)
            b = self.read_double(src)
            self.set_xmm(dst, f"DIVSD({a}, {b})" if op == "divsd"
                         else f"{a} {_SSE[op]} {b}")
        elif op == "pxor":
            dst, src = ops
            if not isinstance(dst, Reg) or not isinstance(src, Reg):
                raise _Unsupported(inst)
            self.sync_xmm()
            self.emit(f"xmm[{self.name(dst)!r}] = xmm.get({dst.name!r}, 0) "
                      f"^ xmm.get({self.name(src)!r}, 0)")
            self.xval.pop(dst.name, None)
        elif op == "ucomisd":
            a, b = ops
            if not isinstance(a, Reg):
                raise _Unsupported(inst)
            self.set_flags("ucomisd", self.xmm(a),
                           self.atom(self.read_double(b)))
        elif op == "cvtsi2sd":
            dst, src = ops
            if not isinstance(dst, Reg):
                raise _Unsupported(inst)
            v = self.read_int(src, w)
            half = 1 << (w - 1)
            self.set_xmm(dst, f"float(({v} ^ {half}) - {half})")
        elif op == "cvttsd2si":
            dst, src = ops
            if not isinstance(dst, Reg):
                raise _Unsupported(inst)
            self.set_reg(dst, f"CVTTSD2SI({self.read_double(src)}, {w})", w)
        else:
            raise _Unsupported(inst)

    def transfer(self, inst, index: int, hook: Optional[str]) -> bool:
        """Emit the segment's closing control transfer (the ``_op_*``
        handler, then the hook, then the return); True when a ``jcc``'s
        condition was decided from its compare's operands."""
        op = inst.opcode
        decided = False
        if op == "jmp" or op == "jcc":
            label = inst.operands[0]
            if not isinstance(label, Label):
                raise _Unsupported(inst)
            if op == "jcc":
                cond, decided = self.condition(inst.cond)
            target = self.rec.block_index.get(id(label.block))
            self.sync()
            self.executed(self.off)
            if op == "jcc":
                self.emit(f"if {cond}:")
                self.depth += 1
            if target is None:
                self.emit(f"raise Trap(TrapKind.BAD_JUMP, "
                          f"{self.bind(label.block.name)})")
            else:
                self.emit(f"loc.block = {target}")
                self.emit("loc.index = 0")
            if op == "jcc":
                self.depth -= 1
                self.emit("else:")
                self.emit(f"    loc.index = {index + 1}")
            result = "loc"
        elif op == "call" or op == "ret":
            self.sync()
            self.executed(self.off)
            if op == "call":
                ref = inst.operands[0]
                if not isinstance(ref, FuncRef):
                    raise _Unsupported(inst)
                self.emit(f"loc.index = {index}")
                call = f"s._call(loc, {self.bind(ref)})"
            else:
                call = "s._ret()"
            if hook is None:
                self.emit(f"return {call}")
                return False
            self.emit(f"nxt = {call}")
            result = "nxt"
        else:
            raise _Unsupported(inst)
        if hook is not None:
            self.emit(f"hook.on_executed({hook}, s)")
        self.emit(f"return {result}")
        return decided

    def build(self, insts, start: int):
        end = start
        while end < len(insts) and insts[end].opcode not in _TRANSFERS:
            end += 1
        seg = insts[start:end + 1]
        hook_ids = self.hook_ids
        ncand = fused = 0
        for j, inst in enumerate(seg):
            self.off = j + 1
            hooked = hook_ids is not None and id(inst) in hook_ids
            hook = self.bind(inst) if hooked else None
            ncand += hooked
            if inst.opcode in _TRANSFERS:
                if (self.transfer(inst, start + j, hook) and j
                        and seg[j - 1].opcode in ("cmp", "test", "ucomisd")):
                    fused = 1
                break
            self.instruction(inst)
            if hooked:
                # The hook sees the machine as the scalar loop leaves it;
                # in a span it declared safe it changes nothing.
                self.sync()
                self.executed(self.off)
                self.emit(f"hook.on_executed({hook}, s)")
        else:
            # Ran off the block: the engine's fall-through normalization
            # moves to the next block.
            self.sync()
            self.executed(self.off)
            self.emit(f"loc.index = {len(insts)}")
            self.emit("return loc")
        text = "\n".join(self.lines)
        prologue = ["e = s.executed"]
        for name, attr in (("regs", "regs"), ("xmm", "xmm"),
                           ("flags", "flags"), ("mem", "memory")):
            if re.search(rf"\b{name}\b", text):
                prologue.append(f"{name} = s.{attr}")
        if ncand:
            prologue.append("hook = s.hook")
        block = next(i for i, b in enumerate(self.rec.blocks) if b is insts)
        run = self.function("s, loc", prologue,
                            f"<asm {self.rec.name}:{block}+{start}>")
        segment = Segment(run, len(seg), frozenset(id(i) for i in seg),
                          ncand, False)
        return segment, fused


def compile_asm_segment(cache: BlockCache, insts, start, sim, rec,
                        hook_ids=None) -> Optional[Segment]:
    """Compile one straight-line machine-code run, recording stats."""
    t0 = time.perf_counter()
    try:
        segment, fused = _AsmGen(sim, rec, hook_ids).build(insts, start)
    except Exception:
        segment = None
    cache.compile_wall_s += time.perf_counter() - t0
    if segment is None:
        return None
    cache.blocks_compiled += 1
    cache.superinstructions += fused
    return segment
