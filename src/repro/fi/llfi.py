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

Golden-run memoization, profiling, checkpoint policy and run accounting
live on :class:`repro.fi.base.BaseInjector`; this module provides the
IR-interpreter plumbing and the injection hook.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.errors import FaultInjectionError
from repro.ir.instructions import Instruction, Load
from repro.ir.module import Module
from repro.ir.values import bits_to_double, double_to_bits, wrap_signed
from repro.fi.base import BaseInjector, BatchRequest, FirstAttempt
from repro.fi.categories import CATEGORIES, llfi_is_candidate
from repro.fi.fault import FaultModel, FaultRecord, SingleBitFlip
from repro.vm.batch import pristine_image_of, run_ir_batch
from repro.vm.irinterp import InterpHook, IRInterpreter
from repro.vm.result import ExecutionResult


@dataclass(frozen=True)
class LLFIOptions:
    """Configuration of the LLFI selector (paper §VII ablations)."""

    gep_as_arithmetic: bool = False
    include_pointer_casts: bool = False
    max_call_depth: int = 400

    def selector_kwargs(self) -> dict:
        return {"gep_as_arithmetic": self.gep_as_arithmetic,
                "include_pointer_casts": self.include_pointer_casts}


class _CountingHook(InterpHook):
    """One category's dynamic candidate count, one hook call per candidate
    (:meth:`LLFIInjector.count_dynamic_candidates`, the per-instruction
    reference for the shared :class:`~repro.fi.base.CandidateCounter`)."""

    observer = True  # mutates only its own counter: any span is safe

    def __init__(self, candidate_ids: Set[int]) -> None:
        self.candidate_ids = candidate_ids
        self.count = 0

    def on_result(self, inst, value, interp):
        if id(inst) in self.candidate_ids:
            self.count += 1
        return value


class _InjectionHook(InterpHook):
    """Runtime fault injection at the k-th dynamic candidate instance.

    Models with ``repeat > 1`` (intermittent) re-fire at the following
    ``repeat - 1`` instances too; ``kind == "memory"`` models corrupt the
    cell a Load just read instead of the destination value.  A firing
    whose corruption is a bit-level no-op (stuck-at on an already-matching
    bit) records the attempt but plants no poison, so the run equals the
    golden run and is classified NOT_ACTIVATED — the RNG draw happened
    regardless, keeping the trial stream independent of activation."""

    def __init__(self, candidate_ids: Set[int], k: int, model: FaultModel,
                 rng: random.Random) -> None:
        self.candidate_ids = candidate_ids
        self.k = k
        self.model = model
        self.rng = rng
        self.count = 0
        self.fires_left = model.repeat
        self.memory_fault = model.kind == "memory"
        self.record: Optional[FaultRecord] = None

    def compiled_span_ok(self, ncand: int) -> bool:
        # Safe while the block's candidates cannot reach the trigger
        # index: every firing (and the poison write that must be tracked
        # scalar) can only land on a fallback block.  Mid-burst
        # (intermittent) the window is open, so nothing is safe.
        return (self.fires_left == self.model.repeat
                and self.count + ncand < self.k)

    def on_result(self, inst, value, interp):
        if id(inst) not in self.candidate_ids:
            return value
        self.count += 1
        if self.count < self.k or self.fires_left <= 0:
            return value
        self.fires_left -= 1
        if self.fires_left == 0:
            # Last (for transients: only) application — the suffix may
            # run block-compiled.
            self.finished = True
        if self.memory_fault:
            self._corrupt_memory(inst, interp)
            return value
        corrupted, positions, width, changed = self._corrupt(inst, value)
        if self.record is None:
            self.record = FaultRecord(
                dynamic_index=self.k, bit_positions=positions,
                target=f"{inst.opcode} %{inst.name}", width=width)
        if not changed:
            return value
        frame = interp.current_frame
        assert frame is not None
        frame.poison_inst = inst
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
            bits = value & ((1 << 64) - 1)
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

    def _corrupt_memory(self, inst, interp) -> None:
        """memflip: corrupt the cell the Load just read, in place. The
        loaded value stays pristine and no poison is planted — activation
        is judged by outcome divergence (see MemoryBitFlip)."""
        if not isinstance(inst, Load):
            # Candidate without a memory operand at the IR level: the
            # attempt is an automatic not-activated redraw (no RNG draw,
            # which is fine — consumption is a function of the golden
            # instruction stream, identical across job counts).
            if self.record is None:
                self.record = FaultRecord(
                    dynamic_index=self.k, bit_positions=[],
                    target=f"{inst.opcode} %{inst.name} (no memory read)",
                    width=0)
            return
        frame = interp.current_frame
        assert frame is not None
        addr = interp._value_of(inst.pointer, frame) & ((1 << 64) - 1)
        t = inst.type
        nbytes = 8 if (t.is_double() or t.is_pointer()) else t.size
        width = nbytes * 8
        positions = self.model.pick_bits(width, self.rng)
        bits = interp.memory.read_int(addr, nbytes, signed=False)
        new = self.model.apply(bits, positions, width)
        if new != bits:
            interp.memory.write_int(addr, nbytes, new)
        if self.record is None:
            self.record = FaultRecord(
                dynamic_index=self.k, bit_positions=positions,
                target=f"{inst.opcode} %{inst.name} @0x{addr:x}",
                width=width)


class LLFIInjector(BaseInjector):
    """High-level injector over a compiled IR module."""

    name = "LLFI"
    default_max_instructions = 50_000_000

    def __init__(self, module: Module,
                 options: Optional[LLFIOptions] = None) -> None:
        super().__init__()
        self.module = module
        self.options = options or LLFIOptions()
        self._candidate_ids: Dict[str, Set[int]] = {}
        self._static_counts: Dict[str, int] = {}
        for category in CATEGORIES:
            ids = set()
            for func in module.defined_functions():
                for inst in func.instructions():
                    if llfi_is_candidate(inst, category,
                                         **self.options.selector_kwargs()):
                        ids.add(id(inst))
            self._candidate_ids[category] = ids
            self._static_counts[category] = len(ids)
        #: Lazily built batch-execution template: a never-run interpreter
        #: whose global-address map and pristine memory image every sweep
        #: and lane reuses (see run_batch).
        self._template: Optional[IRInterpreter] = None
        self._pristine = None

    def static_candidate_count(self, category: str) -> int:
        return self._static_counts[category]

    def _compile_subject(self):
        return self.module

    def _engine(self, hook, max_instructions: int, hook_filter=None,
                **kwargs) -> IRInterpreter:
        kwargs.setdefault("compile_blocks", self.compile_enabled)
        return IRInterpreter(self.module, max_instructions=max_instructions,
                             max_call_depth=self.options.max_call_depth,
                             hook=hook, hook_filter=hook_filter, **kwargs)

    def count_dynamic_candidates(self, category: str,
                                 max_instructions: int = 50_000_000) -> int:
        """Profiling run: N, the dynamic candidate-instance count."""
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
        """One injection run: flip a bit in the result of the k-th dynamic
        candidate. Returns (result, fault record, activated?).

        With checkpoints enabled the run resumes from the last golden
        checkpoint before the k-th dynamic candidate; the fault-free prefix
        is provably bit-identical to the golden run, so the resumed trial
        matches a cold-start trial exactly (the RNG is only consumed at the
        injection point, and the hook resumes counting from the
        checkpoint's candidate count)."""
        ids = frozenset(self._candidate_ids[category])
        hook = _InjectionHook(ids, k, model or SingleBitFlip(), rng)
        interp = self._engine(hook,
                              max_instructions or
                              self.default_max_instructions,
                              hook_filter=ids)
        skipped = self._resume_from_checkpoint(interp, hook, category, k)
        result = interp.run()
        self._absorb_compile(interp)
        self._account_run(result, skipped)
        if hook.record is None:
            raise FaultInjectionError(
                f"dynamic instance {k} was never reached "
                f"(program behaviour diverged before injection?)")
        return result, hook.record, interp.fault_activated

    # -- batched execution ----------------------------------------------------
    def _batch_template(self) -> IRInterpreter:
        """Never-run interpreter providing the shared global-address map
        and the pristine cold-start memory image."""
        if self._template is None:
            interp = self._engine(None, self.default_max_instructions)
            self._template = interp
            self._pristine = pristine_image_of(interp)
        return self._template

    def run_batch(self, category, requests, model=None,
                  max_instructions=None):
        """One (category, checkpoint-bucket) group of first attempts as a
        shared sweep + COW forks; lanes whose k retires between
        instruction boundaries (phi batches, pending-call results) detach
        to the scalar path (see :mod:`repro.vm.batch`)."""
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
            return _InjectionHook(ids, request.k, model, request.rng)

        lane_runs, detached, stats = run_ir_batch(
            self.module, requests, candidate_ids=ids, hook_for=hook_for,
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
