"""PINFI: the low-level (assembly) fault injector.

Same three-step workflow as LLFI but over the SimX86 program, plus the two
activation heuristics from the paper's §IV:

* **flag pruning** — before a conditional jump, inject only into the
  EFLAGS bit(s) that the jump actually reads (e.g. only ZF before ``jne``);
* **XMM pruning** — for double-precision operations, inject only into the
  low 64 bits of the 128-bit XMM destination.

Both heuristics can be disabled (``PINFIOptions``) to measure how much
activation they buy — the §IV ablation.

The injection procedure itself (profiling, checkpoint resume, the
trigger, batched first attempts and run accounting) lives on
:class:`repro.fi.base.BaseInjector`; this module provides what is
PINFI's own: the assembly candidate selection, the simulator and the
corruption of a destination register or flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.errors import FaultInjectionError
from repro.backend.machine import (
    CONDITION_FLAGS, FLAG_BITS, MInst, MProgram, Reg,
)
from repro.fi.base import BaseInjector, InjectionHook
from repro.fi.categories import CATEGORIES, pinfi_is_candidate
from repro.fi.fault import FaultModel, FaultRecord
from repro.vm.asmsim import AsmSimulator
from repro.vm.result import ExecutionResult

#: Opcodes whose XMM destination holds a double in the low 64 bits.
_DOUBLE_DEST_OPS = frozenset({
    "movsd", "addsd", "subsd", "mulsd", "divsd", "cvtsi2sd", "pxor", "movq",
})

#: Modeled EFLAGS bit positions (name by position).
_FLAG_BY_POS = {pos: name for name, pos in FLAG_BITS.items()}
#: Size of the architectural flag register considered by the no-heuristic
#: ablation (low 16 bits of RFLAGS, like the paper's Figure 2a discussion).
_FLAGS_REGISTER_BITS = 16


@dataclass(frozen=True)
class PINFIOptions:
    """PINFI configuration; the two paper heuristics default to on."""

    flag_dependent_bits: bool = True
    xmm_low64: bool = True
    max_call_depth: int = 400


# A precomputed injection target for one candidate instruction.
#   ('gpr', reg name, width)
#   ('xmm', reg name, is_double)
#   ('flags', dependent flag names tuple)
_Target = Tuple


def _injection_target(inst: MInst, next_inst: Optional[MInst]) -> Optional[_Target]:
    dest = inst.dest_register()
    if isinstance(dest, Reg):
        if dest.cls == "xmm":
            return ("xmm", dest.name, inst.opcode in _DOUBLE_DEST_OPS)
        return ("gpr", dest.name, inst.width)
    if inst.opcode in ("cmp", "test", "ucomisd") and next_inst is not None \
            and next_inst.opcode == "jcc":
        return ("flags", CONDITION_FLAGS[next_inst.cond])
    implicit = inst.implicit_dest_register()
    if implicit is not None:
        return ("gpr", implicit.name, 64)
    return None


class _InjectionHook(InjectionHook):
    """Flips bits of the k-th dynamic candidate's destination register or
    of the EFLAGS bit(s) its conditional jump reads, and poisons the
    target so the run reports whether the fault was activated (read).
    A memory fault corrupts the cell the instruction just read, found
    through the simulator's ``last_read`` tag."""

    def __init__(self, candidate_ids: FrozenSet[int], k: int,
                 model: FaultModel, rng: random.Random,
                 targets: Dict[int, _Target],
                 options: PINFIOptions) -> None:
        super().__init__(candidate_ids, k, model, rng)
        self.targets = targets
        self.options = options

    def on_executed(self, inst, sim: AsmSimulator):
        if id(inst) not in self.candidate_ids:
            return
        self.count += 1
        if self.count < self.k or self.fires_left <= 0:
            return
        self._fire()
        if self.memory_fault:
            # The firing instruction always runs on a scalar-fallback
            # block (compiled_span_ok), so its memory reads were tagged
            # by the scalar operand helpers.
            tag = sim.last_read
            cell = tag[1:] if tag is not None and tag[0] == sim.executed \
                else None
            self._corrupt_cell(sim.memory, cell, inst.opcode)
            return
        target = self.targets[id(inst)]
        kind = target[0]
        changed = True
        if kind == "gpr":
            _, name, width = target
            positions = self.model.pick_bits(width, self.rng)
            old = sim.get_gpr(name)
            value = self.model.apply(old, positions, 64)
            # flips above the operation width never occur: pick_bits was
            # bounded by width, apply masks to 64 which keeps upper bits.
            changed = value != old
            if changed:
                sim.set_gpr(name, value)
                sim.poison_target(("gpr", name))
            desc = f"{inst.opcode} -> {name}"
        elif kind == "xmm":
            _, name, is_double = target
            width = 64 if (is_double and self.options.xmm_low64) else 128
            positions = self.model.pick_bits(width, self.rng)
            old = sim.get_xmm(name)
            value = self.model.apply(old, positions, 128)
            changed = value != old
            if changed:
                sim.set_xmm(name, value)
                if is_double and all(p >= 64 for p in positions):
                    # Double-precision ops only ever read the low 64 bits;
                    # a flip confined to the high half can never be
                    # activated.  (This is exactly what the paper's XMM
                    # heuristic prunes.)
                    sim.poison_target(("xmm", f"{name}#hi"))
                else:
                    sim.poison_target(("xmm", name))
            desc = f"{inst.opcode} -> {name}"
        else:  # flags
            _, dependent = target
            if self.options.flag_dependent_bits:
                flag = self.rng.choice(dependent)
                changed = self._corrupt_flag(sim, flag)
                positions = [FLAG_BITS[flag]]
                desc = f"{inst.opcode} -> {flag}"
            else:
                # Ablation: any bit of the low 16 bits of RFLAGS. Bits we
                # do not model are never read, so such faults are never
                # activated — which is the point of the heuristic.
                pos = self.rng.randrange(_FLAGS_REGISTER_BITS)
                positions = [pos]
                flag = _FLAG_BY_POS.get(pos)
                if flag is not None:
                    changed = self._corrupt_flag(sim, flag)
                    desc = f"{inst.opcode} -> {flag}"
                else:
                    sim.poison_target(("flag", f"RAW{pos}"))
                    desc = f"{inst.opcode} -> FLAGS[{pos}]"
            width = _FLAGS_REGISTER_BITS
        self._note(positions, desc, width)

    def _corrupt_flag(self, sim: AsmSimulator, flag: str) -> bool:
        """Apply the model to one modeled EFLAGS bit; returns changed?"""
        old = sim.flags[flag] & 1
        new = self.model.apply(old, [0], 1) & 1
        if new == old:
            return False
        sim.flags[flag] = new
        sim.poison_target(("flag", flag))
        return True


class PINFIInjector(BaseInjector):
    """Low-level injector over a compiled SimX86 program."""

    name = "PINFI"
    default_max_instructions = 100_000_000

    def __init__(self, program: MProgram,
                 options: Optional[PINFIOptions] = None) -> None:
        super().__init__()
        self.program = program
        self.options = options or PINFIOptions()
        candidate_ids: Dict[str, Set[int]] = {c: set() for c in CATEGORIES}
        self._targets: Dict[int, _Target] = {}
        for mfunc in program.functions.values():
            for block in mfunc.blocks:
                insts = block.insts
                for i, inst in enumerate(insts):
                    nxt = insts[i + 1] if i + 1 < len(insts) else None
                    target = _injection_target(inst, nxt)
                    matched = False
                    for category in CATEGORIES:
                        if pinfi_is_candidate(inst, nxt, category):
                            candidate_ids[category].add(id(inst))
                            matched = True
                    if matched:
                        if target is None:
                            raise FaultInjectionError(
                                f"candidate without target: {inst!r}")
                        self._targets[id(inst)] = target
        self._candidate_ids: Dict[str, FrozenSet[int]] = {
            c: frozenset(ids) for c, ids in candidate_ids.items()}

    def _compile_subject(self):
        return self.program

    def _engine(self, hook, max_instructions: int, hook_filter=None,
                **kwargs) -> AsmSimulator:
        kwargs.setdefault("compile_blocks", self.compile_enabled)
        return AsmSimulator(self.program, max_instructions=max_instructions,
                            max_call_depth=self.options.max_call_depth,
                            hook=hook, hook_filter=hook_filter, **kwargs)

    def _injection_hook(self, category, k, model, rng) -> _InjectionHook:
        return _InjectionHook(self._candidate_ids[category], k, model, rng,
                              self._targets, self.options)

    def run_with_fault(self, category: str, k: int, rng: random.Random,
                       model: Optional[FaultModel] = None,
                       max_instructions: Optional[int] = None,
                       ) -> Tuple[ExecutionResult, Optional[FaultRecord], bool]:
        """One injection run: flip a bit in the destination of the k-th
        dynamic candidate (see :meth:`BaseInjector._inject`)."""
        return self._inject(category, k, rng, model, max_instructions)
