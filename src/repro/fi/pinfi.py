"""PINFI: the low-level (assembly) fault injector.

Same three-step workflow as LLFI but over the SimX86 program, plus the two
activation heuristics from the paper's §IV:

* **flag pruning** — before a conditional jump, inject only into the
  EFLAGS bit(s) that the jump actually reads (e.g. only ZF before ``jne``);
* **XMM pruning** — for double-precision operations, inject only into the
  low 64 bits of the 128-bit XMM destination.

Both heuristics can be disabled (``PINFIOptions``) to measure how much
activation they buy — the §IV ablation.

Golden-run memoization, profiling, checkpoint policy and run accounting
live on :class:`repro.fi.base.BaseInjector`; this module provides the
SimX86 plumbing and the injection hook.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.errors import FaultInjectionError
from repro.backend.machine import (
    CONDITION_FLAGS, FLAG_BITS, FLAG_NAMES, MInst, MProgram, Reg,
)
from repro.fi.base import BaseInjector, BatchRequest, FirstAttempt
from repro.fi.categories import CATEGORIES, pinfi_is_candidate
from repro.fi.fault import FaultModel, FaultRecord, SingleBitFlip
from repro.vm.asmsim import AsmHook, AsmSimulator
from repro.vm.batch import pristine_image_of, run_asm_batch
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


class _CountingHook(AsmHook):
    """One category's dynamic candidate count, one hook call per candidate
    (:meth:`PINFIInjector.count_dynamic_candidates`, the per-instruction
    reference for the shared :class:`~repro.fi.base.CandidateCounter`)."""

    observer = True  # mutates only its own counter: any span is safe

    def __init__(self, candidate_ids: Set[int]) -> None:
        self.candidate_ids = candidate_ids
        self.count = 0

    def on_executed(self, inst, sim):
        if id(inst) in self.candidate_ids:
            self.count += 1


class _InjectionHook(AsmHook):
    """Runtime fault injection at the k-th dynamic candidate instance.

    Same model semantics as the LLFI hook: ``repeat > 1`` re-fires at the
    following instances, ``kind == "memory"`` corrupts the cell the
    instruction just read (via the simulator's ``last_read`` tag), and a
    bit-level no-op firing (stuck-at on a matching bit) records the
    attempt without poisoning — the RNG draw happens either way, so the
    trial stream is independent of activation."""

    def __init__(self, candidate_ids: Set[int], targets: Dict[int, _Target],
                 k: int, model: FaultModel, rng: random.Random,
                 options: PINFIOptions) -> None:
        self.candidate_ids = candidate_ids
        self.targets = targets
        self.k = k
        self.model = model
        self.rng = rng
        self.options = options
        self.count = 0
        self.fires_left = model.repeat
        self.memory_fault = model.kind == "memory"
        self.record: Optional[FaultRecord] = None

    def compiled_span_ok(self, ncand: int) -> bool:
        # Safe while the block's candidates cannot reach the trigger
        # index: every firing (and the poison it plants, which must be
        # tracked scalar) can only land on a fallback block.  Mid-burst
        # (intermittent) the window is open, so nothing is safe.
        return (self.fires_left == self.model.repeat
                and self.count + ncand < self.k)

    def on_executed(self, inst, sim: AsmSimulator):
        if id(inst) not in self.candidate_ids:
            return
        self.count += 1
        if self.count < self.k or self.fires_left <= 0:
            return
        self.fires_left -= 1
        if self.fires_left == 0:
            # Last (for transients: only) application — the suffix may
            # run block-compiled.
            self.finished = True
        if self.memory_fault:
            self._corrupt_memory(inst, sim)
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
        if self.record is None:
            self.record = FaultRecord(dynamic_index=self.k,
                                      bit_positions=positions,
                                      target=desc, width=width)

    def _corrupt_flag(self, sim: AsmSimulator, flag: str) -> bool:
        """Apply the model to one modeled EFLAGS bit; returns changed?"""
        old = sim.flags[flag] & 1
        new = self.model.apply(old, [0], 1) & 1
        if new == old:
            return False
        sim.flags[flag] = new
        sim.poison_target(("flag", flag))
        return True

    def _corrupt_memory(self, inst, sim: AsmSimulator) -> None:
        """memflip: corrupt the cell this instruction just read, in
        place.  No poison — activation is judged by outcome divergence
        (see MemoryBitFlip).  The firing instruction always runs on a
        scalar-fallback block (compiled_span_ok), so its memory reads
        were tagged by the scalar operand helpers."""
        tag = sim.last_read
        if tag is None or tag[0] != sim.executed:
            # Candidate read no memory: automatic not-activated redraw.
            if self.record is None:
                self.record = FaultRecord(
                    dynamic_index=self.k, bit_positions=[],
                    target=f"{inst.opcode} (no memory read)", width=0)
            return
        _, addr, nbytes = tag
        width = nbytes * 8
        positions = self.model.pick_bits(width, self.rng)
        bits = sim.memory.read_int(addr, nbytes, signed=False)
        new = self.model.apply(bits, positions, width)
        if new != bits:
            sim.memory.write_int(addr, nbytes, new)
        if self.record is None:
            self.record = FaultRecord(
                dynamic_index=self.k, bit_positions=positions,
                target=f"{inst.opcode} @0x{addr:x}", width=width)


class PINFIInjector(BaseInjector):
    """Low-level injector over a compiled SimX86 program."""

    name = "PINFI"
    default_max_instructions = 100_000_000

    def __init__(self, program: MProgram,
                 options: Optional[PINFIOptions] = None) -> None:
        super().__init__()
        self.program = program
        self.options = options or PINFIOptions()
        self._candidate_ids: Dict[str, Set[int]] = {c: set() for c in CATEGORIES}
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
                            self._candidate_ids[category].add(id(inst))
                            matched = True
                    if matched:
                        if target is None:
                            raise FaultInjectionError(
                                f"candidate without target: {inst!r}")
                        self._targets[id(inst)] = target
        #: Lazily built batch-execution template: a never-run simulator
        #: whose shared tables and pristine memory image every sweep and
        #: lane reuses (see run_batch).
        self._template: Optional[AsmSimulator] = None
        self._pristine = None

    def static_candidate_count(self, category: str) -> int:
        return len(self._candidate_ids[category])

    def _compile_subject(self):
        return self.program

    def _engine(self, hook, max_instructions: int, hook_filter=None,
                **kwargs) -> AsmSimulator:
        kwargs.setdefault("compile_blocks", self.compile_enabled)
        return AsmSimulator(self.program, max_instructions=max_instructions,
                            max_call_depth=self.options.max_call_depth,
                            hook=hook, hook_filter=hook_filter, **kwargs)

    def count_dynamic_candidates(self, category: str,
                                 max_instructions: int = 100_000_000) -> int:
        ids = frozenset(self._candidate_ids[category])
        hook = _CountingHook(ids)
        result = self._execute(hook, max_instructions, hook_filter=ids)
        self._account_run(result)
        if not result.completed:
            raise FaultInjectionError(
                f"profiling run did not complete: {result.status}")
        return hook.count

    def run_with_fault(self, category: str, k: int, rng: random.Random,
                       model: Optional[FaultModel] = None,
                       max_instructions: Optional[int] = None,
                       ) -> Tuple[ExecutionResult, Optional[FaultRecord], bool]:
        """One injection run; with checkpoints enabled it resumes from the
        last golden checkpoint before the k-th dynamic candidate (the hook
        resumes counting from the checkpoint's candidate count, and the RNG
        is only consumed at the injection point, so the resumed trial is
        bit-identical to a cold start)."""
        ids = frozenset(self._candidate_ids[category])
        hook = _InjectionHook(ids, self._targets,
                              k, model or SingleBitFlip(), rng, self.options)
        sim = self._engine(hook,
                           max_instructions or self.default_max_instructions,
                           hook_filter=ids)
        skipped = self._resume_from_checkpoint(sim, hook, category, k)
        result = sim.run()
        self._absorb_compile(sim)
        self._account_run(result, skipped)
        if hook.record is None:
            raise FaultInjectionError(
                f"dynamic instance {k} was never reached")
        return result, hook.record, sim.fault_activated

    # -- batched execution ----------------------------------------------------
    def _batch_template(self) -> AsmSimulator:
        """Never-run simulator providing the shared function records /
        poison metadata and the pristine cold-start memory image."""
        if self._template is None:
            sim = self._engine(None, self.default_max_instructions)
            self._template = sim
            self._pristine = pristine_image_of(sim)
        return self._template

    def run_batch(self, category, requests, model=None,
                  max_instructions=None):
        """One (category, checkpoint-bucket) group of first attempts as a
        shared sweep + COW forks; detached lanes fall back to the scalar
        path (see :mod:`repro.vm.batch`)."""
        ids = frozenset(self._candidate_ids[category])
        model = model or SingleBitFlip()
        budget = max_instructions or self.default_max_instructions
        store = self.ensure_checkpoints()
        checkpoint = images = None
        base_count = 0
        if store is not None:
            checkpoint = store.best_for(category, requests[0].k)
            if checkpoint is not None:
                images = store.decoded_memory(checkpoint)
                base_count = checkpoint.counts[category]
        template = self._batch_template()
        layout, pristine = self._pristine

        def hook_for(request: BatchRequest) -> _InjectionHook:
            return _InjectionHook(ids, self._targets, request.k, model,
                                  request.rng, self.options)

        lane_runs, detached, stats = run_asm_batch(
            self.program, requests, candidate_ids=ids, hook_for=hook_for,
            budget=budget, max_call_depth=self.options.max_call_depth,
            template=template, pristine_layout=layout,
            pristine_images=pristine, checkpoint=checkpoint,
            decoded_images=images, base_count=base_count,
            compile_blocks=self.compile_enabled)

        self._account_batch_sweep(stats.shared_instructions)
        firsts = {}
        for run in lane_runs:
            self._absorb_compile(run.machine)
            self._account_batch_lane(run.result, run.fork_executed)
            firsts[run.request.index] = FirstAttempt(
                k=run.request.k, result=run.result, record=run.hook.record,
                activated=run.machine.fault_activated,
                instructions=run.result.instructions - run.fork_executed,
                restores=1 if run.fork_executed else 0,
                skipped=run.fork_executed, wall_s=run.wall_s)
        self.batch_detached += len(detached)
        for request in detached:
            firsts[request.index] = self._scalar_first(category, request,
                                                       model, budget)
        stats.lane_instructions = sum(f.instructions
                                      for f in firsts.values())
        return firsts, stats
