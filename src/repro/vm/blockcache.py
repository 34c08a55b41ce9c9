"""Generated-source regions shared by both engines.

The scalar interpreter loops in ``repro.vm.irinterp`` and
``repro.vm.asmsim`` pay a per-instruction dispatch tax: a dict lookup on
the instruction class or opcode, an ``isinstance`` chain per operand, and
re-derivation of immutable facts (operand widths, global addresses,
branch targets) on every dynamic execution.  This module removes that tax
by emitting, for each IR function and each machine function, the Python
source of one function — a *region* — and ``compile()``-ing it once per
program.  A region holds the code of every compilable straight-line
*segment* of its function and selects one by segment number (``pc``)
through a balanced if-tree, so selecting costs O(log n) tests.  A segment
is an IR block from its first non-phi instruction, or from the
instruction after a ``Call``, through its terminator; or a machine-code
run from the start of a block, or the instruction after a transfer, to
the next control transfer or the end of its block.  Operands, widths,
masks, addresses and branch targets are baked into the source, and the
machine state a segment touches lives in locals: SSA values produced in
the segment, general-purpose and XMM register values, the operands of
the last flag write, and the entry value of ``executed``.

**Chaining.**  An engine enters a region at one segment.  At each edge
inside the function (IR ``br``; machine ``jmp``, ``jcc`` and
fall-through) the region continues into the successor without returning
to the engine's dispatch loop when the successor is compiled, it fits the
budget (``executed + count <= lim``) and no tap mark is due
(``executed < mark``); otherwise it returns the edge to the dispatch
loop, which then does exactly what it did for a segment of its own.  An
IR edge runs its phi moves before continuing (every incoming value is
read, then all are written, then ``executed`` grows by their number); a
machine edge leaves a pending flag write unmaterialized when the
successor overwrites all five flags before it reads one or transfers.
The engine passes ``lim = -1`` to run one segment: the region then
returns at that segment's first edge.  It does so while recording
checkpoints, while a hook may still act and while poison is pending, so
everything observable happens at the segment starts it happened at
before regions existed.  Calls, returns, tap marks, budget edges and
uncompiled successors return to the dispatch loop (an IR ``Call`` nests
a dispatch loop for the callee and then continues in the caller's
region, re-reading the mark the callee may have advanced).

The generated code is bit-identical to the scalar loop:

* ``executed`` is read on entry and stored exactly wherever something
  outside the function can see it: before a memory access that can trap,
  a division or a delegated scalar handler, an IR ``Call``, and on every
  exit.  ``compiled_blocks`` counts chained segments in a local that a
  ``finally`` flushes, so traps keep the count.
* The hang check is hoisted out of the code: a segment runs only when
  ``executed + count <= max_instructions``, otherwise the scalar loop runs
  it, so ``HangTimeout`` fires at the same instruction with the same
  count.  After an IR ``Call`` returns, the rest of the block runs only
  if it fits; otherwise the region hands it to the scalar loop.
* Register, XMM and flag values are written back to the machine before
  delegated handlers and on every exit.  Flags are architectural state
  (snapshots, probes and PINFI's flag injection read them), so the last
  flag write before each write-back is materialized; earlier ones are
  dead.  A branch or ``setcc`` whose flags come from a compare in the
  segment is decided from the compare's operands; ``superinstructions``
  counts the compare+branch pairs decided that way.
* Rare or stateful machine opcodes (``neg``, ``not``, shifts, ``cdq``,
  ``cqo``, ``idiv``, ``ud2``) and the IR's divisions, ``alloca`` and
  float-to-int casts call the scalar handler.  A segment with anything
  else the generator does not understand is left out of its region (an
  IR block is left out whole) and runs on the scalar loop, which
  reproduces the scalar behaviour, errors included.

Only integers and the backend's fixed register and flag names are
interpolated into the source.  Everything else — blocks, instructions,
callees, handlers, float constants (``repr`` cannot print ``inf``, ``nan``
or NaN payloads) and any name from MiniC source — is bound through the
region's namespace.  A region's filename names its function, and a
comment heads each segment's code with its block and start index.

Regions are cached on the program object (``cache_for``), keyed by the
function they compile (which the region holds), so the golden run, every
trial and every forked worker share one compilation, and the cache dies
with its program.  An engine compiles its program's regions when it is
built, before its address space exists (``compile_ir_regions``,
``compile_asm_regions``), so compiling's transient memory never adds to
a run's.  A region holds no engine, memory or frame.

**Hooks.**  A :class:`~repro.vm.base.Hook` takes a counting path instead
of inline hook calls: at a dispatched segment the engine asks
``hook.on_segment(segment)`` and runs the segment compiled when it
answers True (the hook has booked the segment's candidates:
:meth:`Segment.candidates` is memoised per candidate set, usually the
hook's ``filter``), or on the scalar loop when it answers False, where
each instruction the filter admits gets its ``on_result`` /
``on_executed`` call.  A finished hook (or none) lets regions chain.  An
IR segment with a candidate at or after a ``Call`` counts as
``NCAND_UNSAFE``: the callee's candidates come between the segment's.
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
from repro.errors import IRError
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

#: Sentinel for a function, or a position, with no compiled code, so the
#: (cheap) "can't compile" answer is itself memoised.
UNCOMPILABLE = object()

#: Candidate count of an IR segment with a candidate at or after a nested
#: call: the dynamic candidate count can grow mid-segment, so
#: ``count + ncand < k`` must always fail for injection hooks.
NCAND_UNSAFE = 1 << 62

#: First element of the tuple an IR region returns: ``(EDGE, block,
#: successor)`` when it leaves over an edge, ``(RET, value)`` when the
#: function returns and ``(SCALAR, block, index)`` when the rest of a
#: block after a call must run on the scalar loop.
EDGE = object()
RET = object()
SCALAR = object()

_NO_IDS: frozenset = frozenset()


class BlockCache:
    """Per-program compilation cache plus compile-time statistics.

    ``regions`` maps ``id(function)`` (an IR ``Function`` or an
    ``MFunction``, which the region holds) to its :class:`Region` or
    ``UNCOMPILABLE``; ``phis`` maps an IR edge ``(id(instruction_list),
    id(predecessor))`` to its phis' incoming operands, for the dispatch
    loop's phi batches.  The statistics cover compile-time work (segments
    and fused pairs counted once each); runtime counts live on the
    engines."""

    __slots__ = ("regions", "phis", "blocks_compiled",
                 "superinstructions", "compile_wall_s")

    def __init__(self) -> None:
        self.regions: Dict[int, object] = {}
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
    """Drop every compiled region and phi edge for ``program``.

    Regions bake operand identities, branch targets, block indices and
    phi moves, so they must not survive an in-place transformation of the
    module.  IR pass orchestration (``PassManager.run``,
    ``prepare_for_backend``) calls this after mutating; anything else that
    rewrites instructions in place must do the same.
    """
    cache = peek_cache(program)
    if cache is not None:
        cache.regions.clear()
        cache.phis.clear()


class Segment:
    """One place where an engine can enter a region.

    ``pc`` selects the segment's code in its region; it is None for a
    position inside a compiled block that no segment starts at (a resumed
    frame's), which the scalar loop runs as one segment.  ``count`` is the
    static instruction count (for an IR segment: through the block's
    terminator, calls included), ``ids`` the id-set of the instructions a
    hook sees (IR: those with a result), ``late`` the part of ``ids`` at
    or after the first IR ``Call`` and ``calls`` True when an IR segment
    holds a ``Call``."""

    __slots__ = ("pc", "count", "ids", "late", "calls", "_ncand")

    def __init__(self, pc, count, ids, late, calls) -> None:
        self.pc = pc
        self.count = count
        self.ids = ids
        self.late = late
        self.calls = calls
        self._ncand: Dict[frozenset, int] = {}

    def candidates(self, ids: frozenset) -> int:
        """``|ids ∩ segment|`` — or ``NCAND_UNSAFE`` when one of them is
        at or after an IR ``Call`` — memoised per candidate set."""
        n = self._ncand.get(ids)
        if n is None:
            n = (NCAND_UNSAFE if not ids.isdisjoint(self.late)
                 else len(ids & self.ids))
            self._ncand[ids] = n
        return n


class Region:
    """One function's generated code and its entry points.

    ``run`` is the generated function: ``run(interp, frame, values, pc,
    lim)`` for IR returns an ``EDGE``, ``RET`` or ``SCALAR`` tuple;
    ``run(sim, loc, pc, lim)`` for machine code returns the location a
    call or return leads to, a ``(block index, index)`` position in the
    function, or None at program exit.  ``entries`` maps a position (IR:
    ``(block, index)``; machine code: ``(block index, index)``) to its
    :class:`Segment`."""

    __slots__ = ("owner", "run", "entries", "blocks")

    def __init__(self, owner, run, entries, blocks) -> None:
        #: The compiled function; holding it keeps the cache key valid.
        self.owner = owner
        self.run = run
        self.entries: Dict[tuple, object] = entries
        #: Blocks whose code the region holds.
        self.blocks = blocks

    def segment_at(self, key) -> object:
        """The segment at ``key``, a code-less one for a position inside
        a compiled block, or ``UNCOMPILABLE``; memoised."""
        segment = self.entries.get(key)
        if segment is None:
            block, index = key
            segment = None
            if block in self.blocks:
                segment = self._tail(block, index)
            if segment is None:
                segment = UNCOMPILABLE
            self.entries[key] = segment
        return segment

    def _tail(self, block, index) -> Optional[Segment]:
        if type(block) is int:
            return _asm_segment(self.owner.blocks[block].insts, index, None)
        return _ir_segment(block.instructions, index, None)


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


class _Namespace:
    """The namespace of one region: every object its source names."""

    def __init__(self, namespace: dict) -> None:
        self.ns = dict(namespace)
        self._bound: Dict[int, str] = {}

    def bind(self, obj) -> str:
        """A namespace name for ``obj``."""
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = f"k{len(self._bound)}"
            self.ns[name] = obj
        return name


def _assemble(namespace: _Namespace, params: str, prologue: List[str],
              leaves: List[List[str]], filename: str):
    """Compile the region: ``prologue``, then a loop that runs leaf
    ``pc`` (selected by a balanced if-tree), with the chained-segment
    counter flushed in a ``finally``."""
    lines = [f"def region({params}):"]
    lines += ["    " + line for line in prologue]
    lines += ["    n = 0", "    try:", "        while True:"]

    def tree(lo: int, hi: int, depth: int) -> None:
        pad = "    " * depth
        if hi - lo == 1:
            lines.extend(pad + line for line in leaves[lo])
            return
        mid = (lo + hi) // 2
        lines.append(f"{pad}if pc < {mid}:")
        tree(lo, mid, depth + 1)
        lines.append(f"{pad}else:")
        tree(mid, hi, depth + 1)

    tree(0, len(leaves), 3)
    lines += ["    finally:", "        s.compiled_blocks += n"]
    exec(compile("\n".join(lines) + "\n", filename, "exec"), namespace.ns)
    return namespace.ns.pop("region")


class _Source:
    """Lines of one segment's code (its leaf of the region)."""

    def __init__(self, namespace: _Namespace) -> None:
        self.namespace = namespace
        self.lines: List[str] = []
        self.depth = 1
        self._temps = 0
        self.bits: Dict[str, int] = {}
        #: Pure expression -> the local holding its value.
        self.memo: Dict[str, str] = {}
        #: Executed offset ``s.executed`` was last stored at in this
        #: segment (nothing is stored at offset 0, so every store emits).
        self.exact = 0

    def bind(self, obj) -> str:
        return self.namespace.bind(obj)

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * (self.depth - 1) + line)

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

    def chain(self, offset: int, successor: "Segment", extra: int = 0,
              moves: str = "") -> None:
        """The chained edge into ``successor`` after this segment's
        ``offset`` instructions (plus ``extra`` phis, moved by the
        statement ``moves``), taken when the successor fits the budget and
        no tap mark is due."""
        step = offset + extra
        self.emit(f"if e + {step + successor.count} <= lim "
                  f"and e + {step} < mark:")
        self.depth += 1
        if moves:
            self.emit(moves)
        self.emit(f"e += {step}")
        self.emit("n += 1")
        self.emit(f"pc = {successor.pc}")
        self.emit("continue")
        self.depth -= 1


# -- lazily-bound engine tables ----------------------------------------------
#
# blockcache is imported by both engines, so their module-level tables are
# fetched lazily to avoid import cycles.

@functools.lru_cache(maxsize=None)
def _ir_tables():
    from repro.vm import irinterp
    namespace = {"Trap": Trap, "TrapKind": TrapKind, "RET": RET,
                 "RET_NONE": (RET, None)}
    return (namespace, irinterp._INT_BINOPS, irinterp._FLOAT_BINOPS,
            irinterp._CAST_OPS, irinterp.IRInterpreter._exec_alloca)


@functools.lru_cache(maxsize=None)
def _asm_tables():
    from repro.vm import asmsim
    quad = struct.Struct("<Q")
    double = struct.Struct("<d")
    namespace = {"Trap": Trap, "TrapKind": TrapKind, "PQ": quad.pack,
                 "UQ": quad.unpack, "PD": double.pack, "UD": double.unpack,
                 "COND": evaluate_condition,
                 "DIVSD": functools.partial(asmsim._fp_op, "divsd"),
                 "CVTTSD2SI": asmsim._cvttsd2si}
    return namespace, asmsim.AsmSimulator._ops


def _compile_region(cache: BlockCache, build, owner) -> object:
    """Build a region with ``build(owner)`` — returning ``(region,
    segments, fused)`` — recording stats on ``cache``.  Any compile-time
    exception leaves the whole function to the scalar loop, which then
    reproduces the scalar behaviour exactly."""
    t0 = time.perf_counter()
    try:
        region, segments, fused = build(owner)
    except Exception:
        region = UNCOMPILABLE
    else:
        cache.blocks_compiled += segments
        cache.superinstructions += fused
    cache.compile_wall_s += time.perf_counter() - t0
    cache.regions[id(owner)] = region
    return region


def _leaves(generate, plan) -> tuple:
    """Generate each planned leaf's lines with ``generate(item)``
    (returning ``(lines, fused)``); the items whose generation failed
    are returned instead when there are any, so the caller can plan
    again without them."""
    leaves, failed, fused = [], [], 0
    for item in plan:
        try:
            lines, pair = generate(item)
        except Exception:
            failed.append(item)
            continue
        leaves.append(lines)
        fused += pair
    return leaves, failed, fused


# ============================================================================
# IR regions
# ============================================================================

_IR_ARITH = {"add": "+", "sub": "-", "mul": "*",
             "and": "&", "or": "|", "xor": "^"}
_IR_FARITH = {"fadd": "+", "fsub": "-", "fmul": "*"}
_IR_UREL = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
            "ugt": ">", "uge": ">="}
_IR_SREL = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_IR_FREL = {"oeq": "==", "une": "!=", "olt": "<", "ole": "<=",
            "ogt": ">", "oge": ">="}


def _ir_segment(insts, start: int, pc) -> Optional[Segment]:
    """The IR segment from ``start`` through its block's terminator, or
    None when a phi or no terminator follows ``start``."""
    ids, late = [], []
    calls = False
    for j in range(start, len(insts)):
        inst = insts[j]
        cls = type(inst)
        if cls is Phi:
            return None
        if cls is Call:
            calls = True
        if inst.has_result():
            ids.append(id(inst))
            if calls:
                late.append(id(inst))
        if cls is Branch or cls is Ret or cls is Unreachable:
            return Segment(pc, j + 1 - start, frozenset(ids),
                           frozenset(late) if late else _NO_IDS, calls)
    return None


def _phi_count(insts) -> int:
    count = 0
    while count < len(insts) and type(insts[count]) is Phi:
        count += 1
    return count


class _IRGen(_Source):
    """Source of one IR leaf: a segment's code up to its first ``Call``
    (inclusive) or its terminator."""

    def __init__(self, namespace, tables, global_addr, heads) -> None:
        super().__init__(namespace)
        _, self.int_ops, self.float_ops, self.cast_ops, self.alloca = tables
        self.global_addr = global_addr
        #: Block -> the segment at its first non-phi instruction, for the
        #: blocks the region compiles.
        self.heads = heads
        #: id(value) -> the local holding it.
        self.local: Dict[int, str] = {}
        #: id(value) -> operand reads of it in this leaf.
        self.uses: Dict[int, int] = {}
        #: Locals known to hold a value within 64 unsigned bits.
        self.masked = set()

    def val(self, op, atom: bool = False) -> str:
        """Source text of an operand.  A value from outside the leaf read
        more than once is loaded into a local at its first read — which
        must then be the first in evaluation order, so callers render
        operands in the order the source evaluates them, and pass ``atom``
        for operands of conditional expressions."""
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

    def peek(self, op) -> str:
        """Source text of an operand read on one path only (a phi move):
        it loads no local that later code could rely on."""
        name = self.local.get(id(op))
        if name is not None:
            return name
        if isinstance(op, (Instruction, Argument)):
            return f"values[{id(op)}]"
        return self.val(op)

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

    def result(self, inst, expr: str, off: int) -> None:
        """Store a result in ``values`` (and a local, if read later in the
        leaf)."""
        key = id(inst)
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

    def edge(self, block, target, count: int) -> None:
        """Leave over ``block`` -> ``target`` after the terminator at
        offset ``count``: chain into the target's first segment, phi moves
        first, or return the edge to the dispatch loop (which then runs
        the phi batch)."""
        successor = self.heads.get(target)
        if successor is not None:
            try:
                moves = [(phi, self.peek(phi.incoming_for_block(block)))
                         for phi in target.instructions[
                             :_phi_count(target.instructions)]]
            except (IRError, _Unsupported):
                successor = None  # a malformed edge: dispatch raises
        if successor is not None:
            statement = ""
            if moves:
                statement = (
                    ", ".join(f"values[{id(phi)}]" for phi, _ in moves)
                    + " = " + ", ".join(text for _, text in moves))
            self.chain(count, successor, len(moves), statement)
        self.emit(f"s.executed = e + {count}")
        self.emit(f"return {self.bind((EDGE, block, target))}")

    def leaf(self, block, start: int, end: int, after: Optional[Segment],
             number: int):
        """Emit ``block.instructions[start:end + 1]`` (block ``number`` of
        its function), which ends at a ``Call`` (continuing at segment
        ``after``) or the terminator; returns 1 when a compare+branch pair
        was decided from the compare's operands."""
        insts = block.instructions
        seg = insts[start:end + 1]
        count = len(seg)
        self.emit(f"# block {number}+{start}")
        operands = [op for inst in seg for op in inst.operands]
        if type(seg[-1]) is Branch:
            # Phi moves read too (so a result they move gets a local).
            for target in seg[-1].targets:
                for phi in target.instructions[
                        :_phi_count(target.instructions)]:
                    operands.extend(value for value, pred in phi.incoming
                                    if pred is block)
        for op in operands:
            self.uses[id(op)] = self.uses.get(id(op), 0) + 1
        for j, inst in enumerate(seg):
            off = j + 1
            cls = type(inst)
            key = id(inst)
            if cls is Ret:
                value = (self.val(inst.value) if inst.value is not None
                         else None)
                self.executed(count)
                self.emit("return RET_NONE" if value is None
                          else f"return (RET, {value})")
                return 0
            if cls is Unreachable:
                self.executed(count)
                message = self.bind("unreachable executed")
                self.emit(f"raise Trap(TrapKind.BAD_JUMP, {message})")
                return 0
            if cls is Branch:
                if inst.is_conditional:
                    self.emit(f"if {self.val(inst.condition)}:")
                    self.depth += 1
                    self.edge(block, inst.targets[0], count)
                    self.depth -= 1
                    self.edge(block, inst.targets[1], count)
                else:
                    self.edge(block, inst.targets[0], count)
                return 0
            if cls is Call:
                args = ", ".join(self.val(a) for a in inst.args)
                self.emit(f"frame.resume_block = {self.bind(block)}")
                self.emit(f"frame.resume_index = {start + j}")
                self.executed(off)
                call = f"s._call_function({self.bind(inst.callee)}, [{args}])"
                if inst.has_result():
                    self.result(inst, call, off)
                else:
                    self.emit(call)
                # The callee advanced ``executed`` and maybe the mark: the
                # rest of the block runs here only if it fits the budget.
                resume = self.bind((SCALAR, block, start + off))
                self.emit("e = s.executed")
                self.emit(f"if e + {after.count} > s.max_instructions:")
                self.emit(f"    return {resume}")
                self.emit("mark = s._next_checkpoint")
                self.emit(f"pc = {after.pc}")
                self.emit("continue")
                return 0
            nxt = seg[j + 1]
            if ((cls is ICmp or cls is FCmp) and type(nxt) is Branch
                    and nxt.is_conditional and nxt.condition is inst):
                # Compare+branch: decided from the compare's operands;
                # later blocks may still read the compare's value.
                self.emit(f"if {self.compare(inst)}:")
                self.depth += 1
                self.emit(f"values[{key}] = 1")
                self.edge(block, nxt.targets[0], count)
                self.depth -= 1
                self.emit(f"values[{key}] = 0")
                self.edge(block, nxt.targets[1], count)
                return 1
            expr = self.expression(inst, off)
            if inst.has_result():
                self.result(inst, expr, off)
            else:
                self.emit(expr)
        raise _Unsupported(block)  # unreachable: plans end at a transfer


def _build_ir_region(function, global_addr) -> tuple:
    tables = _ir_tables()
    excluded = set()
    while True:
        # Plan: each compilable block's leaves, split after every Call.
        heads: Dict[object, Segment] = {}
        plan = []
        for number, block in enumerate(function.blocks):
            if block in excluded:
                continue
            insts = block.instructions
            start = _phi_count(insts)
            segment = _ir_segment(insts, start, len(plan))
            if segment is None:
                continue
            heads[block] = segment
            end = start + segment.count
            for j in range(start, end):
                if type(insts[j]) is Call or j == end - 1:
                    plan.append((block, start, j, number))
                    start = j + 1
        entries: Dict[tuple, object] = {}
        for pc, (block, start, _, _) in enumerate(plan):
            entries[(block, start)] = (
                heads[block] if heads[block].pc == pc
                else _ir_segment(block.instructions, start, pc))
        namespace = _Namespace(tables[0])

        def generate(item):
            block, start, end, number = item
            after = entries.get((block, end + 1))
            gen = _IRGen(namespace, tables, global_addr, heads)
            fused = gen.leaf(block, start, end, after, number)
            return gen.lines, fused

        leaves, failed, fused = _leaves(generate, plan)
        if not failed:
            break
        excluded.update(item[0] for item in failed)
    if not leaves:
        return UNCOMPILABLE, 0, 0
    prologue = ["e = s.executed", "mem = s.memory",
                "mark = s._next_checkpoint"]
    run = _assemble(namespace, "s, frame, values, pc, lim", prologue,
                    leaves, f"<ir {function.name}>")
    return (Region(function, run, entries, frozenset(heads)),
            len(leaves), fused)


def compile_ir_regions(module) -> None:
    """Compile the region of every function of ``module`` that has none.

    Engines call this when they are built, before their address space
    exists.  Compiling a region briefly takes several times its source
    size in parser and compiler memory (about 3 MiB for the largest,
    hmmerm's machine-code ``viterbi``); at a function's first call it
    would land on top of the running engine's 5 MiB and raise the
    process's peak.  Functions a run never calls (inlined everywhere)
    compile too: about 8% more compile time over the six workloads."""
    cache = cache_for(module)
    functions = list(module.defined_functions())
    if all(id(f) in cache.regions for f in functions):
        return
    from repro.vm.image import global_addresses
    global_addr = global_addresses(module)
    for function in functions:
        ir_region(cache, function, global_addr)


def ir_region(cache: BlockCache, function, global_addr) -> object:
    """The region of IR ``function`` (``UNCOMPILABLE`` when nothing in it
    compiles), compiled on first request."""
    region = cache.regions.get(id(function))
    if region is None:
        region = _compile_region(
            cache, lambda f: _build_ir_region(f, global_addr), function)
    return region


# ============================================================================
# machine-code regions
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
#: Opcodes that write all five flags (every flag writer of this ISA).
_FLAG_WRITERS = frozenset(("add", "sub", "imul", "imul3", "and", "or",
                           "xor", "cmp", "test", "ucomisd", "neg", "shl",
                           "sar", "shr"))
#: Opcodes that read flags.
_FLAG_READERS = frozenset(("jcc", "setcc", "cmovcc"))
_RSP = Reg("rsp")


def _asm_segment(insts, start: int, pc) -> Segment:
    """The machine-code segment from ``start`` to the next transfer
    (inclusive) or the end of the block."""
    end = start
    while end < len(insts) and insts[end].opcode not in _TRANSFERS:
        end += 1
    seg = insts[start:end + 1]
    return Segment(pc, len(seg), frozenset(id(i) for i in seg), _NO_IDS,
                   False)


def _kills_flags(insts, start: int) -> bool:
    """Whether the code at ``start`` writes all five flags before it reads
    one, transfers or calls a handler that does neither."""
    for inst in insts[start:]:
        op = inst.opcode
        if op in _FLAG_WRITERS:
            return True
        if op in _FLAG_READERS or op in _TRANSFERS or op in _DELEGATED:
            return False
    return False


def _decided(flags, cond: str) -> Optional[str]:
    """A boolean expression for ``cond`` from the operands of a pending
    flag write, or None when only the flag values can decide it."""
    kind = flags[0]
    if kind == "sub":  # a - b: cmp, sub
        _, a, b, width = flags
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
    """Source of one machine-code leaf (one segment)."""

    def __init__(self, namespace, handlers, global_addr, layout) -> None:
        super().__init__(namespace)
        self.handlers = handlers
        self.global_addr = global_addr
        self.layout = layout
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

    def sync_registers(self) -> None:
        """Write every pending register and XMM value back."""
        for name in self.gdirty:
            self.emit(f"regs[{name!r}] = {self.gpr[name]}")
        self.gdirty = []
        self.sync_xmm()

    def sync(self) -> None:
        """Write every pending register, XMM and flag value back."""
        self.sync_registers()
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
        """Materialize the pending flag write with the simulator's own
        ``_set_flags_*`` helper (its operands are already masked)."""
        flags = self.flags
        kind = flags[0]
        self.flags_pending = False
        if kind == "ucomisd":
            self.emit(f"s._set_flags_ucomisd({flags[1]}, {flags[2]})")
        elif kind == "logic":
            self.emit(f"s._set_flags_logic({flags[1]}, {flags[2]})")
        else:  # add, sub: (kind, a, b, width)
            self.emit(f"s._set_flags_{kind}({flags[1]}, {flags[2]}, "
                      f"{flags[3]})")

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
                self.set_flags(op, a, b, w)
            elif op == "imul":
                r = self.atom(f"{a} * {b} & {mask}", w)
                self.set_flags("logic", r, w)
            else:
                r = self.atom(f"{a} {_ALU[op]} {b}", w)
                self.set_flags("logic", r, w)
            self.write_int(dst, w, r)
        elif op == "cmp":
            self.set_flags("sub", self.read_int(ops[0], w),
                           self.read_int(ops[1], w), w)
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

    def edge(self, block: int, index: int) -> None:
        """Leave for position ``(block, index)`` after this segment's
        ``off`` instructions (registers already written back): chain into
        its segment, storing a pending flag write unless that segment
        overwrites all flags first, or return the position (a bound
        ``(block, index)`` tuple) to the dispatch loop with the flags
        stored."""
        target, successor, dead = self.layout.follow(block, index)
        if self.flags_pending and not dead:
            self.store_flags()
        if successor is not None:
            self.chain(self.off, successor)
        if self.flags_pending:
            self.store_flags()
        self.emit(f"s.executed = e + {self.off}")
        self.emit(f"return {self.bind(target)}")

    def transfer(self, inst, block: int, index: int) -> bool:
        """Emit the segment's closing control transfer, as its ``_op_*``
        handler executes it; True when a ``jcc``'s condition was decided
        from its compare's operands."""
        op = inst.opcode
        if op == "jmp" or op == "jcc":
            label = inst.operands[0]
            if not isinstance(label, Label):
                raise _Unsupported(inst)
            decided = False
            if op == "jcc":
                cond, decided = self.condition(inst.cond)
            target = self.layout.block_index.get(id(label.block))
            self.sync_registers()
            if op == "jcc":
                self.emit(f"if {cond}:")
                self.depth += 1
            pending = self.flags_pending
            if target is None:
                self.emit(f"s.executed = e + {self.off}")
                self.emit(f"raise Trap(TrapKind.BAD_JUMP, "
                          f"{self.bind(label.block.name)})")
            else:
                self.edge(target, 0)
            if op == "jcc":
                self.depth -= 1
                self.flags_pending = pending
                self.edge(block, index + 1)
            return decided
        self.sync()
        self.executed(self.off)
        if op == "call":
            ref = inst.operands[0]
            if not isinstance(ref, FuncRef):
                raise _Unsupported(inst)
            self.emit(f"loc.block = {block}")
            self.emit(f"loc.index = {index}")
            self.emit(f"return s._call(loc, {self.bind(ref)})")
        else:
            self.emit("return s._ret()")
        return False

    def leaf(self, block: int, start: int) -> int:
        """Emit the segment at ``(block, start)``; returns 1 when a
        compare+branch pair was decided from the compare's operands."""
        insts = self.layout.blocks[block]
        self.emit(f"# block {block}+{start}")
        j = start
        while j < len(insts):
            inst = insts[j]
            self.off = j - start + 1
            if inst.opcode in _TRANSFERS:
                decided = self.transfer(inst, block, j)
                return int(decided and j > start and insts[j - 1].opcode
                           in ("cmp", "test", "ucomisd"))
            self.instruction(inst)
            j += 1
        # Ran off the block: the engine's fall-through normalization moves
        # to the next block.
        self.sync_registers()
        self.edge(block, len(insts))
        return 0


class _Layout:
    """A machine function's blocks, and where each position leads."""

    def __init__(self, mfunc) -> None:
        self.blocks = [b.insts for b in mfunc.blocks]
        self.block_index = {id(b): i for i, b in enumerate(mfunc.blocks)}
        self.entries: Dict[tuple, object] = {}
        self.positions: Dict[tuple, tuple] = {}

    def position(self, block: int, index: int) -> tuple:
        """The one ``(block, index)`` tuple for a position."""
        return self.positions.setdefault((block, index), (block, index))

    def normalize(self, block: int, index: int):
        """The position the engine's fall-through normalization moves
        ``(block, index)`` to, or None when it falls off the function."""
        blocks = self.blocks
        while block < len(blocks) and index >= len(blocks[block]):
            block += 1
            index = 0
        return self.position(block, index) if block < len(blocks) else None

    def follow(self, block: int, index: int):
        """``(position, segment, dead)`` for leaving to ``(block,
        index)``: the position to return (normalized when possible), the
        compiled segment there (or None) and whether it overwrites all
        flags before reading one."""
        target = self.normalize(block, index)
        if target is None:
            return self.position(block, index), None, False
        successor = self.entries.get(target)
        dead = successor is not None and _kills_flags(
            self.blocks[target[0]], target[1])
        return target, successor, dead


def _build_asm_region(mfunc, global_addr) -> tuple:
    namespace_base, handlers = _asm_tables()
    layout = _Layout(mfunc)
    excluded = set()
    while True:
        # Plan: a leaf at each block start and after each transfer.
        plan = []
        for b, insts in enumerate(layout.blocks):
            starts = [0] + [j + 1 for j, inst in enumerate(insts)
                            if inst.opcode in _TRANSFERS]
            plan.extend((b, j) for j in starts
                        if j < len(insts) and (b, j) not in excluded)
        layout.entries = {
            (b, j): _asm_segment(layout.blocks[b], j, pc)
            for pc, (b, j) in enumerate(plan)}
        namespace = _Namespace(namespace_base)

        def generate(item):
            gen = _AsmGen(namespace, handlers, global_addr, layout)
            fused = gen.leaf(*item)
            return gen.lines, fused

        leaves, failed, fused = _leaves(generate, plan)
        if not failed:
            break
        excluded.update(failed)
    if not leaves:
        return UNCOMPILABLE, 0, 0
    text = "\n".join(line for lines in leaves for line in lines)
    prologue = ["e = s.executed"]
    for name, attr in (("regs", "regs"), ("xmm", "xmm"),
                       ("flags", "flags"), ("mem", "memory")):
        if re.search(rf"\b{name}\b", text):
            prologue.append(f"{name} = s.{attr}")
    prologue.append("mark = s._next_checkpoint")
    run = _assemble(namespace, "s, loc, pc, lim", prologue, leaves,
                    f"<asm {mfunc.name}>")
    blocks = frozenset(b for b, _ in plan)
    return Region(mfunc, run, layout.entries, blocks), len(leaves), fused


def compile_asm_regions(program) -> None:
    """Compile the region of every function of ``program`` that has none,
    before an engine's address space exists (see
    :func:`compile_ir_regions`)."""
    cache = cache_for(program)
    functions = list(program.functions.values())
    if all(id(f) in cache.regions for f in functions):
        return
    from repro.vm.image import global_addresses
    by_id = global_addresses(program.ir_module)
    global_addr = {g.name: by_id[id(g)]
                   for g in program.ir_module.globals.values()}
    for mfunc in functions:
        asm_region(cache, mfunc, global_addr)


def asm_region(cache: BlockCache, mfunc, global_addr) -> object:
    """The region of machine function ``mfunc`` (``UNCOMPILABLE`` when
    nothing in it compiles), compiled on first request."""
    region = cache.regions.get(id(mfunc))
    if region is None:
        region = _compile_region(
            cache, lambda f: _build_asm_region(f, global_addr), mfunc)
    return region
