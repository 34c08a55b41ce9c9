"""LLFI: the high-level (IR) fault injector.

Workflow, mirroring the paper's Figure 1:

1. *Select* — a static pass over the module picks the injection candidates
   for the requested instruction category (Table III), restricted to
   instructions whose results are used (def-use pruning).
2. *Profile* — one instrumented run counts N, the number of dynamic
   candidate instances.
3. *Inject* — a run is re-executed with a uniformly random k in [1, N];
   after the k-th dynamic candidate executes, one bit of its result
   (destination register) is flipped. The SSA value is poisoned so the
   run reports whether the fault was *activated* (read).

Options expose the paper's §VII accuracy fixes as ablations:
``gep_as_arithmetic`` and ``include_pointer_casts``.

The injection procedure itself (profiling, checkpoint resume, the
trigger, batched first attempts and run accounting) lives on
:class:`repro.fi.base.BaseInjector`; this module provides what is
LLFI's own: the IR candidate selection, the interpreter and the
corruption of an IR result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.ir.instructions import Instruction, Load
from repro.ir.module import Module
from repro.ir.values import bits_to_double, double_to_bits, wrap_signed
from repro.fi.base import BaseInjector, InjectionHook
from repro.fi.categories import CATEGORIES, llfi_is_candidate
from repro.fi.fault import FaultModel, FaultRecord
from repro.vm.irinterp import IRInterpreter
from repro.vm.result import ExecutionResult

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class LLFIOptions:
    """Configuration of the LLFI selector (paper §VII ablations)."""

    gep_as_arithmetic: bool = False
    include_pointer_casts: bool = False
    max_call_depth: int = 400

    def selector_kwargs(self) -> dict:
        return {"gep_as_arithmetic": self.gep_as_arithmetic,
                "include_pointer_casts": self.include_pointer_casts}


class _InjectionHook(InjectionHook):
    """Flips bits of the k-th dynamic candidate's result (destination
    register); the SSA value is poisoned so the run reports whether the
    fault was activated (read)."""

    def on_result(self, inst, value, interp):
        if id(inst) not in self.candidate_ids:
            return value
        self.count += 1
        if self.count < self.k or self.fires_left <= 0:
            return value
        self._fire()
        target = f"{inst.opcode} %{inst.name}"
        if self.memory_fault:
            self._corrupt_cell(interp.memory, _cell_read(inst, interp),
                               target)
            return value
        corrupted, positions, width, changed = self._corrupt(inst, value)
        self._note(positions, target, width)
        if not changed:
            return value
        interp.current_frame.poison_inst = inst
        return corrupted

    def _corrupt(self, inst: Instruction, value):
        """Returns (corrupted value, positions, width, changed?)."""
        model, rng = self.model, self.rng
        t = inst.type
        if t.is_double():
            positions = model.pick_bits(64, rng)
            bits = double_to_bits(value)
            new = model.apply(bits, positions, 64)
            return bits_to_double(new), positions, 64, new != bits
        if t.is_pointer():
            positions = model.pick_bits(64, rng)
            bits = value & _MASK64
            new = model.apply(bits, positions, 64)
            return new, positions, 64, new != bits
        width = t.bits  # type: ignore[attr-defined]
        if width == 1:
            # i1 holds 0/1; pick_bits draws nothing at width 1.
            positions = model.pick_bits(1, rng)
            bits = 1 if value else 0
            new = model.apply(bits, positions, 1) & 1
            return new, positions, 1, new != bits
        positions = model.pick_bits(width, rng)
        bits = value & ((1 << width) - 1)
        new = model.apply(bits, positions, width)
        return wrap_signed(new, width), positions, width, new != bits


def _cell_read(inst, interp) -> Optional[Tuple[int, int]]:
    """(address, bytes) of the memory cell a Load just read; None for a
    candidate without a memory operand at the IR level."""
    if not isinstance(inst, Load):
        return None
    addr = interp._value_of(inst.pointer, interp.current_frame) & _MASK64
    t = inst.type
    return addr, 8 if (t.is_double() or t.is_pointer()) else t.size


class LLFIInjector(BaseInjector):
    """High-level injector over a compiled IR module."""

    name = "LLFI"
    default_max_instructions = 50_000_000

    def __init__(self, module: Module,
                 options: Optional[LLFIOptions] = None) -> None:
        super().__init__()
        self.module = module
        self.options = options or LLFIOptions()
        selector = self.options.selector_kwargs()
        self._candidate_ids: Dict[str, FrozenSet[int]] = {
            category: frozenset(
                id(inst) for func in module.defined_functions()
                for inst in func.instructions()
                if llfi_is_candidate(inst, category, **selector))
            for category in CATEGORIES}

    def _compile_subject(self):
        return self.module

    def _engine(self, hook, max_instructions: int, hook_filter=None,
                **kwargs) -> IRInterpreter:
        kwargs.setdefault("compile_blocks", self.compile_enabled)
        return IRInterpreter(self.module, max_instructions=max_instructions,
                             max_call_depth=self.options.max_call_depth,
                             hook=hook, hook_filter=hook_filter, **kwargs)

    def _injection_hook(self, category, k, model, rng) -> _InjectionHook:
        return _InjectionHook(self._candidate_ids[category], k, model, rng)

    def run_with_fault(self, category: str, k: int, rng: random.Random,
                       model: Optional[FaultModel] = None,
                       max_instructions: Optional[int] = None,
                       ) -> Tuple[ExecutionResult, Optional[FaultRecord], bool]:
        """One injection run: flip a bit in the result of the k-th dynamic
        candidate (see :meth:`BaseInjector._inject`)."""
        return self._inject(category, k, rng, model, max_instructions)
