"""Threaded-code block compilation shared by both engines.

The scalar interpreter loops in ``repro.vm.irinterp`` and
``repro.vm.asmsim`` pay a per-instruction dispatch tax: a dict lookup on
the instruction class/opcode, an ``isinstance`` chain to resolve each
operand, and re-derivation of immutable facts (operand widths, baked
global addresses, branch target indices) on every dynamic execution.
This module removes that tax by compiling each basic block once into a
flat tuple of specialized per-instruction closures (classic threaded
code): operand accessors are pre-resolved, opcode semantics are bound
directly, and the two ubiquitous instruction pairs — compare+branch and
load+binop — are fused into superinstructions.

Compilations are cached per *program object* (``cache_for``) so the
golden run, the batch sweep machine, and every forked lane in every
worker share one compilation: the cache key is ``id(program)`` with a
weakref anchor for eviction, and the per-block key is
``(id(instruction_list), start_index)`` — instruction lists are shared
across engine instances over the same program, and COW-forked workers
inherit the parent's populated cache for free.

Semantics are bit-identical to the scalar loop by construction:

* every compiled step performs the exact scalar hang check
  (``executed += 1; if executed > max_instructions: raise``), so
  ``HangTimeout`` fires at the same dynamic instruction with the same
  count — including between the two halves of a fused pair;
* traps (division, bad jumps, stack overflow, ...) are raised by the
  same code paths with the same arguments;
* anything the compiler does not understand — an unknown opcode, a phi
  mid-block, an operand shape the scalar path would reject — marks the
  segment ``UNCOMPILABLE`` and the engine's scalar loop reproduces the
  scalar behaviour (including the scalar error).

Engines only run a compiled block when no observer could tell the
difference: a lane with a pending poison check falls back to the
per-instruction loop for that block (see the gate logic in each engine).
Checkpoint recording compiles: the engine checks its boundary tap before
each dispatched segment, so a checkpoint lands on the first segment
boundary at or past its stride mark (the scalar loop still checks every
instruction).  While recording, the IR engine runs blocks holding a
``Call`` (``CompiledIRBlock.calls``) on the scalar loop, which keeps each
suspended frame's resume position exact and its segment count taken at
dispatch; asm segments never nest.  An injection run's convergence probe
uses the same tap and compiles call segments too: the compiled ``Call``
step stores its caller's resume position before calling, so every
suspended frame is at its pending call when a probe inside the callee
compares the frame stack.

Candidate counting needs no hooked variant at all: a hook with
``segment_counts`` gets the plain variant and one count per dispatch,
and derives its per-category totals from the counted segments' ``ids``.

Other armed hooks get a middle path.  A block whose instructions intersect the
engine's ``hook_filter`` compiles a second, *hooked* variant (cached per
filter value) whose candidate steps invoke the hook inline, exactly
where the scalar loop would.  The engine runs it only when the hook
declares the whole span safe (``compiled_span_ok``): counting hooks
(``observer = True``) always are; injection hooks are safe while the
block's candidate count cannot reach their trigger index, so the fault
can only ever fire on a scalar-fallback block — where poison tracking
sees every read.  IR ``Call`` steps nest execution (the dynamic
candidate count can grow mid-block), so a hooked candidate at or after a
call marks the block span-unsafe for non-observer hooks; the asm engine
is a flat loop, so its spans are always exact.
"""

from __future__ import annotations

import operator
import time
import weakref
from typing import Dict, Optional

from repro.backend.machine import (
    FuncRef, GlobalAddr, Imm, Label, Mem, Reg, evaluate_condition,
)
from repro.errors import ReproError
from repro.ir.instructions import (
    Alloca, BinaryOp, Branch, Call, Cast, FCmp, GetElementPtr, ICmp,
    Instruction, Load, Phi, Ret, Select, Store, Unreachable,
)
from repro.ir.values import (
    Argument, ConstantDouble, ConstantInt, ConstantNull, ConstantUndef,
    GlobalVariable, wrap_signed,
)
from repro.vm.traps import HangTimeout, Trap, TrapKind

MASK64 = (1 << 64) - 1

#: Sentinel stored in a cache tier when a segment cannot be compiled, so
#: the (cheap) "can't compile" answer is itself memoised.
UNCOMPILABLE = object()


class BlockCache:
    """Per-program compilation cache plus compile-time statistics.

    ``ir`` and ``asm`` map ``(id(instruction_list), start_index)`` to a
    compiled segment or ``UNCOMPILABLE``.  The statistics cover compile
    *time* work (what ``compile_*_segment`` did); runtime execution
    counts live on the engines.
    """

    __slots__ = ("ir", "asm", "blocks_compiled", "superinstructions",
                 "compile_wall_s", "_anchor")

    def __init__(self) -> None:
        self.ir: Dict[tuple, object] = {}
        self.asm: Dict[tuple, object] = {}
        self.blocks_compiled = 0
        self.superinstructions = 0
        self.compile_wall_s = 0.0
        self._anchor = None

    def stats(self) -> dict:
        return {
            "blocks_compiled": self.blocks_compiled,
            "superinstructions": self.superinstructions,
            "compile_wall_s": self.compile_wall_s,
        }


_caches: Dict[int, BlockCache] = {}


def cache_for(program) -> BlockCache:
    """The shared compilation cache for ``program`` (an IR ``Module`` or
    an ``MProgram``), created on first request."""
    key = id(program)
    cache = _caches.get(key)
    if cache is not None:
        return cache
    cache = BlockCache()
    _caches[key] = cache

    def _evict(_ref, key=key):
        _caches.pop(key, None)

    try:
        cache._anchor = weakref.ref(program, _evict)
    except TypeError:
        # Not weakref-able: the cache simply lives for the process (the
        # id-keyed entry may then alias a future object, but programs in
        # this codebase are immortal per-process in practice).
        cache._anchor = None
    return cache


def peek_cache(program) -> Optional[BlockCache]:
    """The cache for ``program`` if one exists, else None (for stats)."""
    return _caches.get(id(program))


def invalidate_cache(program) -> None:
    """Drop every compiled block for ``program``.

    Compiled segments bake operand identities, branch targets and block
    indices, so they must not survive an in-place transformation of the
    underlying module.  IR pass orchestration (``PassManager.run``,
    ``prepare_for_backend``) calls this after mutating; anything else
    that rewrites instructions in place must do the same.
    """
    cache = _caches.get(id(program))
    if cache is not None:
        cache.ir.clear()
        cache.asm.clear()


# -- lazily-bound engine tables ----------------------------------------------
#
# blockcache is imported by both engines, so their module-level tables are
# fetched lazily to avoid import cycles.

_IR_TABLES = None
_ASM_HELPERS = None


def _ir_tables():
    global _IR_TABLES
    if _IR_TABLES is None:
        from repro.vm import irinterp
        _IR_TABLES = (irinterp._INT_BINOPS, irinterp._FLOAT_BINOPS,
                      irinterp._CAST_OPS)
    return _IR_TABLES


def _asm_helpers():
    global _ASM_HELPERS
    if _ASM_HELPERS is None:
        from repro.vm import asmsim
        _ASM_HELPERS = (asmsim.wrap_signed, asmsim._fp_op,
                        asmsim._cvttsd2si)
    return _ASM_HELPERS


# ============================================================================
# IR tier
# ============================================================================

class CompiledIRBlock:
    """A compiled IR block segment: straight-line ``steps`` then one
    ``term`` closure.  ``ids`` is the id-set of every covered
    instruction, used for hook-filter disjointness checks.  ``ncand`` is
    the number of inline hook invocations a hooked variant makes per
    dispatch (0 for plain variants; ``NCAND_UNSAFE`` when a nested call
    makes the span unpredictable).  ``calls`` is True when the segment
    holds a ``Call``: execution then nests inside it."""

    __slots__ = ("steps", "term", "count", "ids", "ncand", "calls")

    def __init__(self, steps, term, count, ids, ncand=0, calls=False):
        self.steps = steps
        self.term = term
        self.count = count
        self.ids = ids
        self.ncand = ncand
        self.calls = calls


#: Marker for Ret terminators: ``term`` returns ``(_RET, value)`` so the
#: engine can distinguish "return value" from "next block".
_RET = object()
_RET_NONE = (_RET, None)

#: ``ncand`` value for hooked IR blocks where a candidate executes at or
#: after a nested call: the dynamic candidate count can grow arbitrarily
#: mid-block, so no finite bound exists and ``count + ncand < k`` must
#: always fail for injection hooks (observer hooks ignore ncand).
NCAND_UNSAFE = 1 << 62


def _ir_hooked_step(step, inst):
    """Wrap a plain step so the hook sees (and may replace) the result,
    exactly where the scalar loop would call it."""
    key = id(inst)

    def hooked(s, frame, values):
        step(s, frame, values)
        values[key] = s.hook.on_result(inst, values[key], s)
    return hooked


def _ir_getter(operand, global_addr):
    """A ``getter(values) -> python value`` closure for one operand, or
    None if the operand shape is not understood."""
    if isinstance(operand, (Instruction, Argument)):
        key = id(operand)
        return lambda values: values[key]
    if isinstance(operand, (ConstantInt, ConstantDouble)):
        v = operand.value
        return lambda values: v
    if isinstance(operand, ConstantNull):
        return lambda values: 0
    if isinstance(operand, GlobalVariable):
        addr = global_addr[id(operand)]
        return lambda values: addr
    if isinstance(operand, ConstantUndef):
        v = 0.0 if operand.type.is_double() else 0
        return lambda values: v
    return None


_U_REL = {"ult": operator.lt, "ule": operator.le,
          "ugt": operator.gt, "uge": operator.ge}
_S_REL = {"slt": operator.lt, "sle": operator.le,
          "sgt": operator.gt, "sge": operator.ge}
_F_REL = {"oeq": operator.eq, "one": operator.ne, "une": operator.ne,
          "olt": operator.lt, "ole": operator.le,
          "ogt": operator.gt, "oge": operator.ge}


def _ir_cmp2(inst, ga, gb):
    """A two-operand comparator ``cmp2(a_values, b_values) -> 0/1`` baked
    for ``inst`` (an ICmp or FCmp), or None if unsupported."""
    pred = inst.predicate
    if isinstance(inst, ICmp):
        bits = 64 if inst.lhs.type.is_pointer() else inst.lhs.type.bits
        mask = (1 << bits) - 1
        if pred == "eq":
            return lambda values: int((ga(values) & mask)
                                      == (gb(values) & mask))
        if pred == "ne":
            return lambda values: int((ga(values) & mask)
                                      != (gb(values) & mask))
        rel = _U_REL.get(pred)
        if rel is not None:
            return lambda values: int(rel(ga(values) & mask,
                                          gb(values) & mask))
        rel = _S_REL.get(pred)
        if rel is not None:
            return lambda values: int(rel(wrap_signed(ga(values) & mask,
                                                      bits),
                                          wrap_signed(gb(values) & mask,
                                                      bits)))
        return None
    # FCmp: NaN short-circuit matches _exec_fcmp exactly.
    rel = _F_REL.get(pred)
    if rel is None:
        return None
    une = int(pred == "une")

    def cmp2(values):
        a = ga(values)
        b = gb(values)
        if a != a or b != b:
            return une
        return int(rel(a, b))
    return cmp2


def _ir_load_value(inst, gp):
    """A ``load(s, values) -> value`` closure matching _exec_load."""
    t = inst.type
    if t.is_double():
        return lambda s, values: s.memory.read_double(gp(values) & MASK64)
    if t.is_pointer():
        return lambda s, values: s.memory.read_int(
            gp(values) & MASK64, 8, signed=False)
    if t.is_integer(1):
        return lambda s, values: (
            1 if s.memory.read_int(gp(values) & MASK64, 1, signed=False)
            else 0)
    size = t.size
    return lambda s, values: s.memory.read_int(
        gp(values) & MASK64, size, signed=True)


def _ir_step(inst, global_addr):
    """One unfused compiled step for ``inst``, or None if uncompilable.

    Step protocol: ``step(s, frame, values)`` where ``s`` is the
    interpreter.  Every step begins with the exact scalar hang check.
    """
    int_binops, float_binops, cast_ops = _ir_tables()
    cls = type(inst)
    key = id(inst)

    if cls is BinaryOp:
        ga = _ir_getter(inst.lhs, global_addr)
        gb = _ir_getter(inst.rhs, global_addr)
        if ga is None or gb is None:
            return None
        fh = float_binops.get(inst.opcode)
        if fh is not None:
            def step(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                values[key] = fh(ga(values), gb(values))
            return step
        ih = int_binops.get(inst.opcode)
        if ih is None:
            return None
        bits = inst.type.bits

        def step(s, frame, values):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            values[key] = ih(ga(values), gb(values), bits)
        return step

    if cls is ICmp or cls is FCmp:
        ga = _ir_getter(inst.lhs, global_addr)
        gb = _ir_getter(inst.rhs, global_addr)
        if ga is None or gb is None:
            return None
        cmp2 = _ir_cmp2(inst, ga, gb)
        if cmp2 is None:
            return None

        def step(s, frame, values):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            values[key] = cmp2(values)
        return step

    if cls is Load:
        gp = _ir_getter(inst.pointer, global_addr)
        if gp is None:
            return None
        loadf = _ir_load_value(inst, gp)

        def step(s, frame, values):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            values[key] = loadf(s, values)
        return step

    if cls is Store:
        gv = _ir_getter(inst.value, global_addr)
        gp = _ir_getter(inst.pointer, global_addr)
        if gv is None or gp is None:
            return None
        t = inst.value.type
        if t.is_double():
            def step(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                value = gv(values)
                s.memory.write_double(gp(values) & MASK64, value)
        elif t.is_pointer():
            def step(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                value = gv(values)
                s.memory.write_int(gp(values) & MASK64, 8, value & MASK64)
        elif t.is_integer(1):
            def step(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                value = gv(values)
                s.memory.write_int(gp(values) & MASK64, 1,
                                   1 if value else 0)
        else:
            size = t.size
            vmask = (1 << (size * 8)) - 1

            def step(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                value = gv(values)
                s.memory.write_int(gp(values) & MASK64, size,
                                   value & vmask)
        return step

    if cls is GetElementPtr:
        gp = _ir_getter(inst.pointer, global_addr)
        if gp is None:
            return None
        # Walk the indices at compile time, splitting into a static byte
        # offset (constant indices) and dynamic (getter, scale) terms.
        # Per-step & MASK64 in the scalar path is mod-2^64 addition, so
        # one final mask is equivalent.
        try:
            static = 0
            terms = []
            current = None
            for n, index in enumerate(inst.indices):
                if n == 0:
                    size = inst.pointer.type.pointee.size
                    if isinstance(index, ConstantInt):
                        static += index.value * size
                    else:
                        g = _ir_getter(index, global_addr)
                        if g is None:
                            return None
                        terms.append((g, size))
                    current = inst.pointer.type.pointee
                elif current.is_array():
                    current = current.element
                    size = current.size
                    if isinstance(index, ConstantInt):
                        static += index.value * size
                    else:
                        g = _ir_getter(index, global_addr)
                        if g is None:
                            return None
                        terms.append((g, size))
                else:  # struct: scalar path requires a constant index
                    if not isinstance(index, ConstantInt):
                        return None
                    idx = index.value
                    static += current.field_offset(idx)
                    current = current.field_type(idx)
        except AttributeError:
            return None
        if not terms:
            def step(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                values[key] = (gp(values) + static) & MASK64
        elif len(terms) == 1 and static == 0:
            g0, size0 = terms[0]

            def step(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                values[key] = (gp(values) + g0(values) * size0) & MASK64
        else:
            tterms = tuple(terms)

            def step(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                addr = gp(values) + static
                for g, size in tterms:
                    addr += g(values) * size
                values[key] = addr & MASK64
        return step

    if cls is Cast:
        handler = cast_ops.get(inst.opcode)
        if handler is None:
            return None
        g = _ir_getter(inst.value, global_addr)
        if g is None:
            return None

        def step(s, frame, values, inst=inst):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            values[key] = handler(inst, g(values))
        return step

    if cls is Select:
        gc_ = _ir_getter(inst.condition, global_addr)
        gt_ = _ir_getter(inst.true_value, global_addr)
        gf_ = _ir_getter(inst.false_value, global_addr)
        if gc_ is None or gt_ is None or gf_ is None:
            return None

        def step(s, frame, values):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            values[key] = gt_(values) if gc_(values) else gf_(values)
        return step

    if cls is Alloca:
        t = inst.allocated_type
        size = max(t.size, 1)
        align = max(t.alignment, 8)
        zeros = b"\x00" * size

        def step(s, frame, values):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            sp = s._stack_sp - size
            sp -= sp % align
            if sp < s.memory.region_named("stack").base:
                raise Trap(TrapKind.STACK_OVERFLOW, frame.function.name)
            s._stack_sp = sp
            s.memory.write_bytes(sp, zeros)
            values[key] = sp
        return step

    if cls is Call:
        getters = []
        for arg in inst.args:
            g = _ir_getter(arg, global_addr)
            if g is None:
                return None
            getters.append(g)
        tgetters = tuple(getters)
        callee = inst.callee
        # The caller's resume position while it is suspended here: a
        # convergence probe inside the callee compares it.
        block = inst.parent
        index = next(i for i, other in enumerate(block.instructions)
                     if other is inst)
        if inst.has_result():
            def step(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                frame.resume_block = block
                frame.resume_index = index
                values[key] = s._call_function(
                    callee, [g(values) for g in tgetters])
        else:
            def step(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                frame.resume_block = block
                frame.resume_index = index
                s._call_function(callee, [g(values) for g in tgetters])
        return step

    return None


def _ir_term(inst, global_addr):
    """A terminator closure for ``inst``: returns the next BasicBlock or
    an ``(_RET, value)`` tuple.  None if uncompilable."""
    cls = type(inst)
    if cls is Branch:
        if inst.is_conditional:
            g = _ir_getter(inst.condition, global_addr)
            if g is None:
                return None
            t0_ = inst.targets[0]
            t1_ = inst.targets[1]

            def term(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                return t0_ if g(values) else t1_
            return term
        t0_ = inst.targets[0]

        def term(s, frame, values):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            return t0_
        return term
    if cls is Ret:
        if inst.value is None:
            def term(s, frame, values):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                return _RET_NONE
            return term
        g = _ir_getter(inst.value, global_addr)
        if g is None:
            return None

        def term(s, frame, values):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            return (_RET, g(values))
        return term
    if cls is Unreachable:
        def term(s, frame, values):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            raise Trap(TrapKind.BAD_JUMP, "unreachable executed")
        return term
    return None


def _ir_fused_cmp_branch(cmp_inst, br_inst, global_addr):
    """Fused compare+branch terminator (counts as two instructions)."""
    ga = _ir_getter(cmp_inst.lhs, global_addr)
    gb = _ir_getter(cmp_inst.rhs, global_addr)
    if ga is None or gb is None:
        return None
    cmp2 = _ir_cmp2(cmp_inst, ga, gb)
    if cmp2 is None:
        return None
    key = id(cmp_inst)
    t0_ = br_inst.targets[0]
    t1_ = br_inst.targets[1]

    def term(s, frame, values):
        e = s.executed + 1
        s.executed = e
        if e > s.max_instructions:
            raise HangTimeout(e)
        c = cmp2(values)
        values[key] = c  # later blocks may read the cmp result
        e = s.executed + 1
        s.executed = e
        if e > s.max_instructions:
            raise HangTimeout(e)
        return t0_ if c else t1_
    return term


def _ir_fused_load_binop(load_inst, bin_inst, global_addr):
    """Fused load+binop step (counts as two instructions), or None."""
    int_binops, float_binops, _ = _ir_tables()
    gp = _ir_getter(load_inst.pointer, global_addr)
    if gp is None:
        return None
    loadf = _ir_load_value(load_inst, gp)
    lkey = id(load_inst)
    bkey = id(bin_inst)
    uses_lhs = bin_inst.lhs is load_inst
    uses_rhs = bin_inst.rhs is load_inst
    if uses_lhs and uses_rhs:
        def pair(a, values):
            return (a, a)
    elif uses_lhs:
        g = _ir_getter(bin_inst.rhs, global_addr)
        if g is None:
            return None

        def pair(a, values):
            return (a, g(values))
    else:
        g = _ir_getter(bin_inst.lhs, global_addr)
        if g is None:
            return None

        def pair(a, values):
            return (g(values), a)
    fh = float_binops.get(bin_inst.opcode)
    if fh is not None:
        def step(s, frame, values):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            a = loadf(s, values)
            values[lkey] = a
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            x, y = pair(a, values)
            values[bkey] = fh(x, y)
        return step
    ih = int_binops.get(bin_inst.opcode)
    if ih is None:
        return None
    bits = bin_inst.type.bits

    def step(s, frame, values):
        e = s.executed + 1
        s.executed = e
        if e > s.max_instructions:
            raise HangTimeout(e)
        a = loadf(s, values)
        values[lkey] = a
        e = s.executed + 1
        s.executed = e
        if e > s.max_instructions:
            raise HangTimeout(e)
        x, y = pair(a, values)
        values[bkey] = ih(x, y, bits)
    return step


def _build_ir_segment(insts, start, global_addr, hook_ids=None):
    """Compile ``insts[start:]`` or return None.  Also returns the fused
    pair count: ``(CompiledIRBlock, fused)``.

    With ``hook_ids`` (a hooked variant), result-producing candidate
    instructions get hook-invoking steps, candidate pairs are never
    fused, and ``ncand`` counts the inline hook calls — degraded to
    ``NCAND_UNSAFE`` when a candidate executes at or after a nested
    call, whose recursion can advance the hook's dynamic count."""
    steps = []
    ids = set()
    count = 0
    fused = 0
    ncand = 0
    seen_call = False
    unsafe = False
    i = start
    n = len(insts)
    while i < n:
        inst = insts[i]
        cls = type(inst)
        if cls is Phi:
            return None  # phi mid-segment: scalar loop handles it
        if cls is Branch or cls is Ret or cls is Unreachable:
            # The scalar loop never calls the hook on terminators, so
            # the plain terminator closure is exact in hooked variants.
            term = _ir_term(inst, global_addr)
            if term is None:
                return None
            ids.add(id(inst))
            return (CompiledIRBlock(tuple(steps), term, count + 1,
                                    frozenset(ids),
                                    NCAND_UNSAFE if unsafe else ncand,
                                    seen_call),
                    fused)
        if (cls is ICmp or cls is FCmp) and i + 1 < n:
            nxt = insts[i + 1]
            if (type(nxt) is Branch and nxt.is_conditional
                    and nxt.condition is inst
                    and not (hook_ids is not None
                             and (id(inst) in hook_ids
                                  or id(nxt) in hook_ids))):
                term = _ir_fused_cmp_branch(inst, nxt, global_addr)
                if term is not None:
                    ids.add(id(inst))
                    ids.add(id(nxt))
                    return (CompiledIRBlock(
                        tuple(steps), term, count + 2, frozenset(ids),
                        NCAND_UNSAFE if unsafe else ncand, seen_call),
                        fused + 1)
        if cls is Load and i + 1 < n:
            nxt = insts[i + 1]
            if (type(nxt) is BinaryOp
                    and (nxt.lhs is inst or nxt.rhs is inst)
                    and not (hook_ids is not None
                             and (id(inst) in hook_ids
                                  or id(nxt) in hook_ids))):
                step = _ir_fused_load_binop(inst, nxt, global_addr)
                if step is not None:
                    steps.append(step)
                    ids.add(id(inst))
                    ids.add(id(nxt))
                    count += 2
                    fused += 1
                    i += 2
                    continue
        if cls is Call:
            seen_call = True
        step = _ir_step(inst, global_addr)
        if step is None:
            return None
        if (hook_ids is not None and id(inst) in hook_ids
                and inst.has_result()):
            if seen_call:
                unsafe = True
            step = _ir_hooked_step(step, inst)
            ncand += 1
        steps.append(step)
        ids.add(id(inst))
        count += 1
        i += 1
    return None  # fell off without a terminator: scalar loop raises


def compile_ir_segment(cache: BlockCache, insts, start, global_addr,
                       hook_ids=None) -> Optional[CompiledIRBlock]:
    """Compile one IR block segment, recording stats on ``cache``.

    Any compile-time exception marks the segment uncompilable — the
    scalar loop then reproduces the scalar behaviour exactly, including
    the scalar error if the block is genuinely malformed.
    """
    t0 = time.perf_counter()
    try:
        built = _build_ir_segment(insts, start, global_addr, hook_ids)
    except Exception:
        built = None
    cache.compile_wall_s += time.perf_counter() - t0
    if built is None:
        return None
    cb, fused = built
    cache.blocks_compiled += 1
    cache.superinstructions += fused
    return cb


# ============================================================================
# asm tier
# ============================================================================

class CompiledAsmBlock:
    """A compiled straight-line machine-code run: ``steps`` then ``term``.

    ``term_index`` is the instruction index of the terminator within the
    block's instruction list — the engine presets ``loc.index`` to it
    before calling ``term(s, loc)`` so call/ret site bookkeeping matches
    the scalar path exactly.  ``ncand`` is the number of inline hook
    invocations a hooked variant makes per dispatch (always exact: the
    asm engine is a flat loop, calls never nest)."""

    __slots__ = ("steps", "term", "term_index", "count", "ids", "ncand")

    def __init__(self, steps, term, term_index, count, ids, ncand=0):
        self.steps = steps
        self.term = term
        self.term_index = term_index
        self.count = count
        self.ids = ids
        self.ncand = ncand


def _asm_mem_addr(mem, global_addr):
    """An address closure for a Mem operand, shape-specialized.

    GPR reads go through ``regs.get(name, 0)`` exactly like ``get_gpr``
    (registers are created lazily)."""
    disp = mem.disp
    if mem.sym is not None:
        disp += global_addr[mem.sym]
    scale = mem.scale
    if mem.base is None and mem.index is None:
        addr = disp & MASK64
        return lambda s: addr
    if mem.index is None:
        bname = mem.base.name
        return lambda s: (disp + s.regs.get(bname, 0)) & MASK64
    iname = mem.index.name
    if mem.base is None:
        return lambda s: (disp + s.regs.get(iname, 0) * scale) & MASK64
    bname = mem.base.name
    return lambda s: (disp + s.regs.get(bname, 0)
                      + s.regs.get(iname, 0) * scale) & MASK64


def _asm_read_int(op, width, global_addr):
    """``read(s) -> unsigned int`` closure matching _read_int_operand."""
    mask = (1 << width) - 1
    if isinstance(op, Reg):
        name = op.name
        if width == 64:
            # gpr values are always stored pre-masked to 64 bits
            return lambda s: s.regs.get(name, 0)
        return lambda s: s.regs.get(name, 0) & mask
    if isinstance(op, Imm):
        v = op.value & mask
        return lambda s: v
    if isinstance(op, GlobalAddr):
        name = op.name

        def read(s):
            return s.global_addr[name] & mask
        return read
    if isinstance(op, Mem):
        ma = _asm_mem_addr(op, global_addr)
        size = width // 8
        return lambda s: s.memory.read_int(ma(s), size, signed=False)
    return None


def _asm_read_double(op, global_addr):
    if isinstance(op, Reg):
        name = op.name
        return lambda s: s.get_xmm_double(name)
    if isinstance(op, Mem):
        ma = _asm_mem_addr(op, global_addr)
        return lambda s: s.memory.read_double(ma(s))
    return None


def _asm_write(op, width, global_addr):
    """``write(s, v)`` closure; contract: ``v`` is pre-masked to width."""
    if isinstance(op, Reg):
        name = op.name
        def write(s, v):
            s.regs[name] = v
        return write
    if isinstance(op, Mem):
        ma = _asm_mem_addr(op, global_addr)
        size = width // 8

        def write(s, v):
            s.memory.write_int(ma(s), size, v)
        return write
    return None


def _asm_step(inst, sim, global_addr):
    """One unfused compiled asm step, or None.  Protocol: ``step(s)``."""
    _wrap_signed, _fp_op, _cvttsd2si = _asm_helpers()
    op = inst.opcode
    ops = inst.operands
    w = inst.width

    if op == "mov":
        dst, src = ops
        r = _asm_read_int(src, w, global_addr)
        wr = _asm_write(dst, w, global_addr)
        if r is None or wr is None:
            return None

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            wr(s, r(s))
        return step

    if op in ("movzx", "movsx"):
        dst, src = ops
        if not isinstance(dst, Reg):
            return None  # scalar path requires a Reg dst (set_gpr)
        sw = inst.src_width
        r = _asm_read_int(src, sw, global_addr)
        if r is None:
            return None
        name = dst.name
        mask = (1 << w) - 1
        if op == "movzx":
            if w == 64:
                def step(s):
                    e = s.executed + 1
                    s.executed = e
                    if e > s.max_instructions:
                        raise HangTimeout(e)
                    s.regs[name] = r(s)
            else:
                def step(s):
                    e = s.executed + 1
                    s.executed = e
                    if e > s.max_instructions:
                        raise HangTimeout(e)
                    s.regs[name] = r(s) & mask
            return step
        signbit = 1 << (sw - 1)
        fill = ((1 << w) - 1) ^ ((1 << sw) - 1)

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            raw = r(s)
            if raw & signbit:
                raw |= fill
            s.regs[name] = raw & mask
        return step

    if op == "lea":
        dst, src = ops
        if not isinstance(dst, Reg) or not isinstance(src, Mem):
            return None
        ma = _asm_mem_addr(src, global_addr)
        name = dst.name

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            s.regs[name] = ma(s)
        return step

    if op == "imul3":
        dst, src, imm = ops
        if not isinstance(dst, Reg) or not isinstance(imm, Imm):
            return None
        r = _asm_read_int(src, w, global_addr)
        if r is None:
            return None
        name = dst.name
        iv = imm.value
        mask = (1 << w) - 1

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            a = _wrap_signed(r(s), w)
            result = (a * iv) & mask
            s._set_flags_logic(result, w)
            s.regs[name] = result
        return step

    if op in ("add", "sub", "imul", "and", "or", "xor"):
        dst, src = ops
        ra = _asm_read_int(dst, w, global_addr)
        rb = _asm_read_int(src, w, global_addr)
        wr = _asm_write(dst, w, global_addr)
        if ra is None or rb is None or wr is None:
            return None
        mask = (1 << w) - 1
        if op == "add":
            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                a = ra(s)
                b = rb(s)
                result = (a + b) & mask
                s._set_flags_add(a, b, w)
                wr(s, result)
        elif op == "sub":
            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                a = ra(s)
                b = rb(s)
                result = (a - b) & mask
                s._set_flags_sub(a, b, w)
                wr(s, result)
        elif op == "imul":
            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                a = ra(s)
                b = rb(s)
                result = (_wrap_signed(a, w) * _wrap_signed(b, w)) & mask
                s._set_flags_logic(result, w)
                wr(s, result)
        else:
            bitop = {"and": operator.and_, "or": operator.or_,
                     "xor": operator.xor}[op]

            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                a = ra(s)
                b = rb(s)
                result = bitop(a, b)
                s._set_flags_logic(result, w)
                wr(s, result)
        return step

    if op == "cmp":
        a_, b_ = ops
        ra = _asm_read_int(a_, w, global_addr)
        rb = _asm_read_int(b_, w, global_addr)
        if ra is None or rb is None:
            return None

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            s._set_flags_sub(ra(s), rb(s), w)
        return step

    if op == "test":
        a_, b_ = ops
        ra = _asm_read_int(a_, w, global_addr)
        rb = _asm_read_int(b_, w, global_addr)
        if ra is None or rb is None:
            return None

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            s._set_flags_logic(ra(s) & rb(s), w)
        return step

    if op == "setcc":
        dst = ops[0]
        if not isinstance(dst, Reg):
            return None
        name = dst.name
        cond = inst.cond

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            s.regs[name] = 1 if evaluate_condition(cond, s.flags) else 0
        return step

    if op == "cmovcc":
        dst, src = ops
        r = _asm_read_int(src, w, global_addr)
        wr = _asm_write(dst, w, global_addr)
        if r is None or wr is None:
            return None
        cond = inst.cond

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            if evaluate_condition(cond, s.flags):
                wr(s, r(s))
        return step

    if op == "push":
        r = _asm_read_int(ops[0], 64, global_addr)
        if r is None:
            return None

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            s._push(r(s))
        return step

    if op == "pop":
        dst = ops[0]
        if not isinstance(dst, Reg):
            return None
        name = dst.name

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            s.regs[name] = s._pop()
        return step

    if op == "movsd":
        dst, src = ops
        rd = _asm_read_double(src, global_addr)
        if rd is None:
            return None
        if isinstance(dst, Mem):
            ma = _asm_mem_addr(dst, global_addr)

            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                s.memory.write_double(ma(s), rd(s))
        elif isinstance(dst, Reg):
            name = dst.name

            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                s.set_xmm_double(name, rd(s))
        else:
            return None
        return step

    if op == "movq":
        dst, src = ops
        if not isinstance(dst, Reg) or not isinstance(src, Reg):
            return None
        dname = dst.name
        sname = src.name
        if dname.startswith("xmm"):
            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                s.set_xmm(dname, s.regs.get(sname, 0))
        else:
            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                s.regs[dname] = s.get_xmm(sname) & MASK64
        return step

    if op in ("addsd", "subsd", "mulsd", "divsd"):
        dst, src = ops
        if not isinstance(dst, Reg):
            return None
        rd = _asm_read_double(src, global_addr)
        if rd is None:
            return None
        name = dst.name
        if op == "addsd":
            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                s.set_xmm_double(name, s.get_xmm_double(name) + rd(s))
        elif op == "subsd":
            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                s.set_xmm_double(name, s.get_xmm_double(name) - rd(s))
        elif op == "mulsd":
            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                s.set_xmm_double(name, s.get_xmm_double(name) * rd(s))
        else:  # divsd: zero-division semantics live in _fp_op
            def step(s):
                e = s.executed + 1
                s.executed = e
                if e > s.max_instructions:
                    raise HangTimeout(e)
                s.set_xmm_double(name, _fp_op(
                    "divsd", s.get_xmm_double(name), rd(s)))
        return step

    if op == "pxor":
        dst, src = ops
        if not isinstance(dst, Reg) or not isinstance(src, Reg):
            return None
        dname = dst.name
        sname = src.name

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            s.set_xmm(dname, s.get_xmm(dname) ^ s.get_xmm(sname))
        return step

    if op == "ucomisd":
        a_, b_ = ops
        if not isinstance(a_, Reg):
            return None
        aname = a_.name
        rb = _asm_read_double(b_, global_addr)
        if rb is None:
            return None

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            s._set_flags_ucomisd(s.get_xmm_double(aname), rb(s))
        return step

    if op == "cvtsi2sd":
        dst, src = ops
        if not isinstance(dst, Reg):
            return None
        r = _asm_read_int(src, w, global_addr)
        if r is None:
            return None
        name = dst.name

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            s.set_xmm_double(name, float(_wrap_signed(r(s), w)))
        return step

    if op == "cvttsd2si":
        dst, src = ops
        if not isinstance(dst, Reg):
            return None
        rd = _asm_read_double(src, global_addr)
        if rd is None:
            return None
        name = dst.name
        width = inst.width

        def step(s):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            s.regs[name] = _cvttsd2si(rd(s), width)
        return step

    if op in ("neg", "not", "shl", "sar", "shr", "cdq", "cqo", "idiv",
              "ud2"):
        # Rare/stateful opcodes: delegate to the scalar handler through a
        # throwaway location.  The table holds plain functions, so baking
        # one into a block shared across engine instances is safe.
        handler = sim._ops.get(op)
        if handler is None:
            return None

        def step(s, inst=inst):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            handler(s, inst, s._scratch_loc)
        return step

    return None


def _asm_fused_compare(cmp_inst, jcc_inst, i, rec, global_addr):
    """Fused cmp/test/ucomisd + jcc terminator (two instructions).

    ``i`` is the compare's instruction index; fall-through resumes at
    ``i + 2`` (past both fused instructions)."""
    op = cmp_inst.opcode
    w = cmp_inst.width
    ops = cmp_inst.operands
    if op == "ucomisd":
        a_, b_ = ops
        if not isinstance(a_, Reg):
            return None
        aname = a_.name
        rb = _asm_read_double(b_, global_addr)
        if rb is None:
            return None

        def flagsf(s):
            s._set_flags_ucomisd(s.get_xmm_double(aname), rb(s))
    else:
        a_, b_ = ops
        ra = _asm_read_int(a_, w, global_addr)
        rb = _asm_read_int(b_, w, global_addr)
        if ra is None or rb is None:
            return None
        if op == "cmp":
            def flagsf(s):
                s._set_flags_sub(ra(s), rb(s), w)
        else:  # test
            def flagsf(s):
                s._set_flags_logic(ra(s) & rb(s), w)
    label = jcc_inst.operands[0]
    if not isinstance(label, Label):
        return None
    ti = rec.block_index.get(id(label.block))
    bname = label.block.name
    cond = jcc_inst.cond
    fall = i + 2

    def term(s, loc):
        e = s.executed + 1
        s.executed = e
        if e > s.max_instructions:
            raise HangTimeout(e)
        flagsf(s)
        e = s.executed + 1
        s.executed = e
        if e > s.max_instructions:
            raise HangTimeout(e)
        if evaluate_condition(cond, s.flags):
            if ti is None:
                raise Trap(TrapKind.BAD_JUMP, bname)
            loc.block = ti
            loc.index = 0
        else:
            loc.index = fall
        return loc
    return term


def _asm_term(inst, i, rec, global_addr):
    """A terminator closure for a control-flow instruction at index
    ``i``; the engine presets ``loc.index = i`` first.  Protocol:
    ``term(s, loc) -> next loc or None`` (None = program exit)."""
    op = inst.opcode
    if op == "jmp":
        label = inst.operands[0]
        if not isinstance(label, Label):
            return None
        ti = rec.block_index.get(id(label.block))
        bname = label.block.name

        def term(s, loc):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            if ti is None:
                raise Trap(TrapKind.BAD_JUMP, bname)
            loc.block = ti
            loc.index = 0
            return loc
        return term
    if op == "jcc":
        label = inst.operands[0]
        if not isinstance(label, Label):
            return None
        ti = rec.block_index.get(id(label.block))
        bname = label.block.name
        cond = inst.cond

        def term(s, loc):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            if evaluate_condition(cond, s.flags):
                if ti is None:
                    raise Trap(TrapKind.BAD_JUMP, bname)
                loc.block = ti
                loc.index = 0
            else:
                loc.index += 1
            return loc
        return term
    if op == "call":
        ref = inst.operands[0]
        if not isinstance(ref, FuncRef):
            return None

        def term(s, loc, ref=ref):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            return s._call(loc, ref)
        return term
    if op == "ret":
        def term(s, loc):
            e = s.executed + 1
            s.executed = e
            if e > s.max_instructions:
                raise HangTimeout(e)
            return s._ret()
        return term
    return None


def _fall_through_term(s, loc):
    # Segment ran off the end of the block's instruction list: hand back
    # to the outer loop, whose fall-through normalization advances to the
    # next block (or traps off the end of the function) — no instruction
    # is counted here.
    return loc


def _asm_hooked_step(step, inst):
    """Wrap a plain asm step so the hook fires after the handler work,
    exactly where the scalar loop would call it."""
    def hooked(s):
        step(s)
        s.hook.on_executed(inst, s)
    return hooked


def _asm_hooked_term(term, inst):
    """Wrap a terminator: scalar order is handler, then hook, then the
    next-location check — so the hook fires after the transfer closure
    and before the engine inspects its return."""
    def hooked(s, loc):
        next_loc = term(s, loc)
        s.hook.on_executed(inst, s)
        return next_loc
    return hooked


def _build_asm_segment(insts, start, sim, rec, hook_ids=None):
    steps = []
    ids = set()
    count = 0
    fused = 0
    ncand = 0
    global_addr = sim.global_addr
    i = start
    n = len(insts)
    while i < n:
        inst = insts[i]
        op = inst.opcode
        if (op in ("cmp", "test", "ucomisd") and i + 1 < n
                and insts[i + 1].opcode == "jcc"
                and not (hook_ids is not None
                         and (id(inst) in hook_ids
                              or id(insts[i + 1]) in hook_ids))):
            term = _asm_fused_compare(inst, insts[i + 1], i, rec,
                                      global_addr)
            if term is not None:
                ids.add(id(inst))
                ids.add(id(insts[i + 1]))
                return (CompiledAsmBlock(tuple(steps), term, i, count + 2,
                                         frozenset(ids), ncand), fused + 1)
        if op in ("jmp", "jcc", "call", "ret"):
            term = _asm_term(inst, i, rec, global_addr)
            if term is None:
                return None
            if hook_ids is not None and id(inst) in hook_ids:
                term = _asm_hooked_term(term, inst)
                ncand += 1
            ids.add(id(inst))
            return (CompiledAsmBlock(tuple(steps), term, i, count + 1,
                                     frozenset(ids), ncand), fused)
        step = _asm_step(inst, sim, global_addr)
        if step is None:
            return None
        if hook_ids is not None and id(inst) in hook_ids:
            step = _asm_hooked_step(step, inst)
            ncand += 1
        steps.append(step)
        ids.add(id(inst))
        count += 1
        i += 1
    return (CompiledAsmBlock(tuple(steps), _fall_through_term, n, count,
                             frozenset(ids), ncand), fused)


def compile_asm_segment(cache: BlockCache, insts, start, sim, rec,
                        hook_ids=None) -> Optional[CompiledAsmBlock]:
    """Compile one straight-line machine-code run, recording stats."""
    t0 = time.perf_counter()
    try:
        built = _build_asm_segment(insts, start, sim, rec, hook_ids)
    except Exception:
        built = None
    cache.compile_wall_s += time.perf_counter() - t0
    if built is None:
        return None
    cb, fused = built
    cache.blocks_compiled += 1
    cache.superinstructions += fused
    return cb
