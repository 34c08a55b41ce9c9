"""Error-propagation tracing (the LLFI feature from paper §III:
"enables tracing the propagation of the fault among instructions").

After the fault is injected, every SSA value computed from a poisoned
operand becomes poisoned too; stores of/through poisoned values taint the
written bytes, and loads from tainted bytes re-poison. The trace records
each propagation step, giving:

* the set of *static* instructions the fault flowed through,
* the number of dynamic propagation events,
* whether the fault reached memory, a branch decision, or program output.

This is a dynamic forward slice of the fault — the raw material for
error-propagation studies and detector placement (the paper's related
work [12], [24]). Tracing runs are slower than plain injection runs
(every executed instruction checks its operands once the fault is live),
so use them for case studies, not campaigns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.errors import FaultInjectionError
from repro.ir.instructions import Branch, Call, Instruction, Load, Store
from repro.fi.fault import FaultModel, SingleBitFlip
from repro.fi.llfi import LLFIInjector, _InjectionHook
from repro.vm.irinterp import InterpHook, IRInterpreter
from repro.vm.result import ExecutionResult

_MASK64 = (1 << 64) - 1


@dataclass
class PropagationEvent:
    """One dynamic step of fault propagation."""

    step: int                 # dynamic order (0 = the injection itself)
    opcode: str
    name: str                 # SSA name of the newly poisoned value
    source_line: int
    #: 'value' | 'memory-write' | 'memory-read' | 'branch' | 'output'
    kind: str


@dataclass
class PropagationTrace:
    result: ExecutionResult
    injected_into: str
    events: List[PropagationEvent] = field(default_factory=list)

    @property
    def dynamic_steps(self) -> int:
        return len(self.events)

    @property
    def static_instructions(self) -> int:
        return len({(e.opcode, e.name) for e in self.events})

    @property
    def reached_memory(self) -> bool:
        return any(e.kind == "memory-write" for e in self.events)

    @property
    def reached_branch(self) -> bool:
        return any(e.kind == "branch" for e in self.events)

    @property
    def reached_output(self) -> bool:
        return any(e.kind == "output" for e in self.events)

    def summary(self) -> str:
        reach = [label for flag, label in
                 ((self.reached_memory, "memory"),
                  (self.reached_branch, "control-flow"),
                  (self.reached_output, "output")) if flag]
        return (f"fault in {self.injected_into}: {self.dynamic_steps} "
                f"propagation events over {self.static_instructions} static "
                f"instructions; reached: {', '.join(reach) or 'nothing'}")


class _TracingHook(InterpHook):
    """Wraps the injection hook with forward taint propagation over SSA
    values (per frame) and memory bytes."""

    def __init__(self, inner: _InjectionHook) -> None:
        self.inner = inner
        self.poisoned: Set[Tuple[int, int]] = set()   # (frame id, value id)
        self.tainted_mem: Set[int] = set()
        self.events: List[PropagationEvent] = []

    @property
    def live(self) -> bool:
        return self.inner.record is not None

    def poison(self, interp, inst: Instruction, kind: str) -> None:
        self.poisoned.add((id(interp.current_frame), id(inst)))
        self.events.append(PropagationEvent(
            step=len(self.events), opcode=inst.opcode,
            name=inst.name or "<unnamed>", source_line=inst.source_line,
            kind=kind))
        # A value consumed by a conditional branch is a corrupted decision.
        if any(isinstance(u, Branch) for u in inst.users()):
            self.events.append(PropagationEvent(
                step=len(self.events), opcode="br",
                name=inst.name or "<cond>", source_line=inst.source_line,
                kind="branch"))

    def value_poisoned(self, interp, value) -> bool:
        return (id(interp.current_frame), id(value)) in self.poisoned

    def on_result(self, inst, value, interp):
        new_value = self.inner.on_result(inst, value, interp)
        if not self.live:
            return new_value
        if not self.events and new_value is not value:
            self.poison(interp, inst, "value")      # the injection itself
        elif any(self.value_poisoned(interp, op) for op in inst.operands):
            self.poison(interp, inst, "value")
        elif isinstance(inst, Load):
            addr = interp._value_of(inst.pointer, interp.current_frame)
            if any((addr + off) & _MASK64 in self.tainted_mem
                   for off in range(inst.type.size)):
                self.poison(interp, inst, "memory-read")
        return new_value


def trace_propagation(injector: LLFIInjector, category: str, k: int,
                      rng: Optional[random.Random] = None,
                      model: Optional[FaultModel] = None,
                      max_instructions: int = 50_000_000
                      ) -> PropagationTrace:
    """Run one injection with full forward-propagation tracing."""
    rng = rng or random.Random(0)
    ids = frozenset(injector._candidate_ids[category])
    if not ids:
        raise FaultInjectionError(f"no candidates for {category!r}")
    inner = _InjectionHook(ids, k, model or SingleBitFlip(), rng)
    hook = _TracingHook(inner)
    interp = IRInterpreter(injector.module,
                           max_instructions=max_instructions,
                           max_call_depth=injector.options.max_call_depth,
                           hook=hook)  # no hook filter: watch everything

    dispatch = dict(IRInterpreter._dispatch)
    original_store = dispatch[Store]
    original_call = dispatch[Call]

    def watched_store(interp, inst, frame):
        if hook.live and (hook.value_poisoned(interp, inst.value)
                          or hook.value_poisoned(interp, inst.pointer)):
            addr = interp._value_of(inst.pointer, frame)
            for off in range(inst.value.type.size):
                hook.tainted_mem.add((addr + off) & _MASK64)
            hook.events.append(PropagationEvent(
                step=len(hook.events), opcode="store",
                name=inst.pointer.name or "<ptr>",
                source_line=inst.source_line, kind="memory-write"))
        return original_store(interp, inst, frame)

    def watched_call(interp, inst, frame):
        if hook.live and inst.callee.is_intrinsic \
                and inst.callee.name.startswith("print") \
                and any(hook.value_poisoned(interp, op)
                        for op in inst.operands):
            hook.events.append(PropagationEvent(
                step=len(hook.events), opcode="call",
                name=inst.callee.name, source_line=inst.source_line,
                kind="output"))
        return original_call(interp, inst, frame)

    dispatch[Store] = watched_store
    dispatch[Call] = watched_call
    interp._dispatch = dispatch

    result = interp.run()
    if inner.record is None:
        raise FaultInjectionError(f"dynamic instance {k} never reached")
    return PropagationTrace(result=result,
                            injected_into=inner.record.target,
                            events=hook.events)
