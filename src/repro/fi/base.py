"""BaseInjector: the injection procedure both tools share.

Both fault injectors — LLFI over the IR interpreter and PINFI over the
SimX86 simulator — follow the paper's three-step workflow (select,
profile, inject).  They differ only in *where* the bit flips: an IR
result for LLFI, an x86 destination register or flag for PINFI.  Every
other step is defined once, here:

* the memoised **golden run** (``golden_cached``) and **per-category
  profiling pass** (``dynamic_counts``), so a grid of campaigns performs
  one of each per injector instead of one per (tool, category) cell, and
  the per-instruction reference count (``count_dynamic_candidates``);
* the **checkpoint policy** (``configure_checkpoints`` /
  ``ensure_checkpoints``): one recording run doubles as golden +
  profiling pass — at the automatic stride too, which records at a
  provisional stride and thins once the run's length is known — and its
  :class:`~repro.vm.snapshot.CheckpointStore` lets every injection run
  skip its fault-free prefix and stop once it has converged back onto
  the golden run;
* the **injection run** (``_inject``: build the engine on the never-run
  template over the checkpoint's memory spans, arm the convergence
  probe, run, account) and the **batched first attempts** (``run_batch``:
  one shared sweep, copy-on-write lanes, see :mod:`repro.vm.batch`);
* the **trigger** of an injection hook (:class:`InjectionHook`: fire at
  the k-th dynamic candidate, ``repeat`` times, compiled-span safety);
* **run accounting** (``executions``, ``instructions_simulated``,
  ``ckpt_restores``, ``ckpt_instructions_skipped``, ``converged_runs``,
  ``converged_instructions``), mirrored into the active :mod:`repro.obs`
  recorder.

Subclasses provide what the paper says differs: candidate selection (the
per-category id sets, built in their constructor), :meth:`_engine` (a
fresh IR interpreter or SimX86 simulator with a hook installed),
:meth:`_injection_hook` (their :class:`InjectionHook` subclass, whose
engine callback corrupts the tool's target) and a one-line
:meth:`run_with_fault`.  Campaign, engine and experiment code type
against this ABC only.
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.fi.fault import FaultModel, FaultRecord, SingleBitFlip
from repro.obs import get_recorder
from repro.vm import batch as vm_batch
from repro.vm.asmsim import AsmHook
from repro.vm.batch import BatchStats
from repro.vm.irinterp import InterpHook
from repro.vm.result import ExecutionResult
from repro.vm.snapshot import (
    CheckpointStore, capture_memory, memory_from_images, record_checkpoints,
)


@dataclass
class BatchRequest:
    """One trial slot's first injection attempt, as a batch lane: its
    campaign slot index, the first-draw dynamic instance ``k``, and the
    slot's live RNG stream (already past the ``k`` draw; the injection
    hook consumes it next, then any redraws continue on it — exactly the
    scalar consumption order)."""

    index: int
    k: int
    rng: random.Random


@dataclass
class FirstAttempt:
    """The completed first attempt of a batched trial slot, with the
    accounting the scalar path would have observed for it."""

    k: int
    result: ExecutionResult
    record: Optional[FaultRecord]
    activated: bool
    #: Instructions this attempt actually simulated (suffix only).
    instructions: int
    #: Checkpoint/fork restores it performed (0 or 1).
    restores: int
    #: Prefix instructions it skipped (checkpoint or fork boundary).
    skipped: int
    wall_s: float


class CandidateCounter(InterpHook, AsmHook):
    """Dynamic candidate counts of every category from one run of either
    engine: the shared profiling pass and the checkpoint recording run.

    The engine adds one to ``segment_counts[segment]`` per dispatched
    compiled segment that holds a candidate (running its plain variant,
    with no hook call per candidate) and calls :meth:`on_result` /
    :meth:`on_executed` once per candidate on the scalar loop.
    :meth:`counts` derives the per-category totals from the counted
    segments' static instruction sets, so a read at any checkpoint
    capture, or after a completed run, equals what a per-instruction
    counter would have seen there."""

    def __init__(self, candidate_ids: Dict[str, FrozenSet[int]]) -> None:
        self.candidate_ids = candidate_ids
        #: Hook filter: every candidate of any category.
        self.filter = frozenset().union(*candidate_ids.values())
        self.segment_counts: Dict[object, int] = {}
        #: Scalar-loop counts per candidate id.
        self.instruction_counts: Dict[int, int] = {}
        self._categories_of: Dict[int, Tuple[str, ...]] = {
            key: tuple(c for c, ids in candidate_ids.items() if key in ids)
            for key in self.filter}
        #: Per counted segment: (category, candidates in it) pairs.
        self._per_segment: Dict[object, Tuple[Tuple[str, int], ...]] = {}

    def on_result(self, inst, value, interp):
        counts = self.instruction_counts
        key = id(inst)
        counts[key] = counts.get(key, 0) + 1
        return value

    def on_executed(self, inst, sim) -> None:
        counts = self.instruction_counts
        key = id(inst)
        counts[key] = counts.get(key, 0) + 1

    def counts(self) -> Dict[str, int]:
        totals = dict.fromkeys(self.candidate_ids, 0)
        per_segment = self._per_segment
        for segment, n in self.segment_counts.items():
            split = per_segment.get(segment)
            if split is None:
                split = tuple(
                    (c, len(segment.ids & ids))
                    for c, ids in self.candidate_ids.items())
                per_segment[segment] = split
            for category, m in split:
                totals[category] += n * m
        categories_of = self._categories_of
        for key, n in self.instruction_counts.items():
            for category in categories_of[key]:
                totals[category] += n
        return totals


class _CountingHook(InterpHook, AsmHook):
    """One category's dynamic candidate count, one hook call per candidate
    (:meth:`BaseInjector.count_dynamic_candidates`, the per-instruction
    reference for the shared :class:`CandidateCounter`)."""

    observer = True  # mutates only its own counter: any span is safe

    def __init__(self, candidate_ids: FrozenSet[int]) -> None:
        self.candidate_ids = candidate_ids
        self.count = 0

    def on_result(self, inst, value, interp):
        if id(inst) in self.candidate_ids:
            self.count += 1
        return value

    def on_executed(self, inst, sim) -> None:
        if id(inst) in self.candidate_ids:
            self.count += 1


class InjectionHook(InterpHook, AsmHook):
    """Runtime fault injection at the k-th dynamic candidate instance: the
    trigger both tools share.

    A tool's subclass keeps the per-candidate check inline in its engine
    callback (``on_result`` for LLFI, ``on_executed`` for PINFI): skip
    non-candidates, count, and return until ``count`` reaches ``k`` with
    ``fires_left``; only then call :meth:`_fire` and corrupt the tool's
    own target.  Models with ``repeat > 1`` (intermittent) fire again at
    the following ``repeat - 1`` instances; ``kind == "memory"`` models
    corrupt the cell the candidate just read (:meth:`_corrupt_cell`)
    instead of its destination.  A firing whose corruption is a
    bit-level no-op (stuck-at on an already-matching bit) records the
    attempt but plants no poison, so the run equals the golden run and is
    classified NOT_ACTIVATED — the RNG draw happened regardless, keeping
    the trial stream independent of activation."""

    def __init__(self, candidate_ids: FrozenSet[int], k: int,
                 model: FaultModel, rng: random.Random) -> None:
        self.candidate_ids = candidate_ids
        self.k = k
        self.model = model
        self.rng = rng
        #: Dynamic candidate instances retired so far (a checkpoint or
        #: fork restore starts it at the count of its boundary).
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

    def _fire(self) -> None:
        """Book one firing.  After the last (for transients: the only)
        one the hook never acts again, so the suffix may run
        block-compiled."""
        self.fires_left -= 1
        if self.fires_left == 0:
            self.finished = True

    def _note(self, positions, target: str, width: int) -> None:
        """Record the first firing (intermittent re-firings corrupt but
        keep the first record)."""
        if self.record is None:
            self.record = FaultRecord(dynamic_index=self.k,
                                      bit_positions=positions,
                                      target=target, width=width)

    def _corrupt_cell(self, memory, cell: Optional[Tuple[int, int]],
                      label: str) -> None:
        """memflip: corrupt in place the ``(address, bytes)`` memory cell
        the firing candidate just read.  The candidate's value stays
        pristine and no poison is planted — activation is judged by
        outcome divergence (see MemoryBitFlip).  A candidate that read
        no memory (``cell`` None) is an automatic not-activated redraw
        with no RNG draw, which is fine: consumption is still a function
        of the golden instruction stream, identical across job counts."""
        if cell is None:
            self._note([], f"{label} (no memory read)", 0)
            return
        addr, nbytes = cell
        width = nbytes * 8
        positions = self.model.pick_bits(width, self.rng)
        bits = memory.read_int(addr, nbytes, signed=False)
        new = self.model.apply(bits, positions, width)
        if new != bits:
            memory.write_int(addr, nbytes, new)
        self._note(positions, f"{label} @0x{addr:x}", width)


class BaseInjector(ABC):
    """Common machinery of the LLFI and PINFI injectors."""

    #: Tool name as it appears in campaign results ("LLFI" / "PINFI").
    name: str = "?"
    #: Per-engine default instruction budget for preparation runs.
    default_max_instructions: int = 50_000_000

    def __init__(self) -> None:
        #: Whole-program executions performed through this injector
        #: (golden + profiling + injection runs); campaign perf accounting.
        self.executions = 0
        #: Instructions actually simulated in this process (a resumed run
        #: contributes only what it executed past its checkpoint).
        self.instructions_simulated = 0
        #: Injection runs that resumed from a golden checkpoint.
        self.ckpt_restores = 0
        #: Golden-prefix instructions skipped via checkpoint restores.
        self.ckpt_instructions_skipped = 0
        #: Injection runs that stopped at golden-state convergence, and
        #: the golden tail instructions they did not simulate.
        self.converged_runs = 0
        self.converged_instructions = 0
        #: Requested checkpoint stride: 0 = off, <0 = auto (~N/20 of the
        #: golden instruction count), >0 = explicit instruction stride.
        self.checkpoint_request = 0
        #: Batched-execution accounting: sweeps run, shared (sweep)
        #: instructions, forked lanes, detached lanes.
        self.batch_sweeps = 0
        self.batch_shared_instructions = 0
        self.batch_lanes = 0
        self.batch_detached = 0
        #: Block-compiled execution (repro.vm.blockcache): enabled unless
        #: the campaign's ``--no-compile`` escape hatch turns it off.
        self.compile_enabled = True
        #: Basic blocks dispatched through compiled closures / through the
        #: scalar fallback loop, summed over every engine run.
        self.compiled_blocks = 0
        self.fallback_blocks = 0
        #: Workload registry name, when built from an ``InjectorSpec``.
        self.workload_name: Optional[str] = None
        self._checkpoints: Optional[CheckpointStore] = None
        self._checkpoints_request = 0
        self._golden_result: Optional[ExecutionResult] = None
        self._dynamic_counts: Optional[Dict[str, int]] = None
        #: Lazily built never-run engine whose shared tables (global
        #: addresses, function records, poison metadata) every injection
        #: run, sweep and lane reuses, and its cold-start memory spans.
        self._template = None
        self._pristine_spans = None
        #: Full-size cold-start image of the template: batched groups only
        #: (their copy-on-write lanes read it; see run_batch).
        self._pristine = None

    @property
    def tool_name(self) -> str:
        """The tool this injector models (alias of :attr:`name`)."""
        return self.name

    #: Category -> ids of its static candidate instructions (set by the
    #: subclass constructor: the tool's selection step).
    _candidate_ids: Dict[str, FrozenSet[int]]

    # -- engine plumbing (subclass responsibility) ---------------------------
    @abstractmethod
    def _engine(self, hook, max_instructions: int, hook_filter=None,
                **kwargs):
        """A fresh engine over this injector's program with ``hook``
        installed; ``kwargs`` go to the engine constructor."""

    @abstractmethod
    def _injection_hook(self, category: str, k: int, model: FaultModel,
                        rng: random.Random) -> InjectionHook:
        """The tool's injection hook for dynamic instance ``k`` of
        ``category``."""

    @abstractmethod
    def run_with_fault(self, category: str, k: int, rng: random.Random,
                       model: Optional[FaultModel] = None,
                       max_instructions: Optional[int] = None,
                       ) -> Tuple[ExecutionResult, Optional[FaultRecord], bool]:
        """One injection run at dynamic instance ``k`` under ``model``
        (default: the paper's single bit flip; see the registry in
        :mod:`repro.fi.fault` for the other models); returns
        (result, fault record, activated?).  Each tool defines it as a
        call to :meth:`_inject`.  Models must be stateless — one
        instance serves every trial slot — and their RNG consumption
        per firing must depend only on (model, target width), never on
        the value being corrupted, or jobs=1 ≡ jobs=N breaks."""

    def static_candidate_count(self, category: str) -> int:
        """Number of static injection candidates for a category."""
        return len(self._candidate_ids[category])

    def _execute(self, hook, max_instructions: int, hook_filter=None,
                 **kwargs) -> ExecutionResult:
        """One run of the underlying engine with ``hook`` installed."""
        engine = self._engine(hook, max_instructions, hook_filter, **kwargs)
        result = engine.run()
        self._absorb_compile(engine)
        return result

    def _counted_run(self, max_instructions: int,
                     store: Optional[CheckpointStore] = None,
                     ) -> Tuple[ExecutionResult, Dict[str, int]]:
        """One run with the every-category candidate counter; when
        ``store`` is given, record checkpoints (annotated with the live
        counts) into it at its stride.  The sink closes over the store
        and the counter, never the engine: a provisional store hands the
        engine its doubled stride as the sink's return value."""
        counter = CandidateCounter(self._candidate_ids)
        kwargs = {}
        if store is not None:
            kwargs = dict(
                checkpoint_stride=store.stride,
                checkpoint_sink=lambda snap: store.record(snap,
                                                          counter.counts()))
        result = self._execute(counter, max_instructions, counter.filter,
                               **kwargs)
        return result, counter.counts()

    # -- injection -----------------------------------------------------------
    def _inject(self, category: str, k: int, rng: random.Random,
                model: Optional[FaultModel],
                max_instructions: Optional[int],
                ) -> Tuple[ExecutionResult, Optional[FaultRecord], bool]:
        """One injection run (the body of both tools' ``run_with_fault``).

        The engine shares the never-run template's tables and gets a
        fresh address space holding only the payload spans of the state
        it starts from.  With checkpoints enabled that is the last golden
        checkpoint before the k-th dynamic candidate; the fault-free
        prefix is provably bit-identical to the golden run, so the
        resumed trial matches a cold-start trial exactly (the RNG is only
        consumed at the injection point, and the hook resumes counting
        from the checkpoint's candidate count).  The later checkpoints
        arm the convergence exit: a run whose state equals one of them
        once its fault is spent returns the golden result from there (see
        :class:`~repro.vm.snapshot.ConvergenceProbe`)."""
        hook = self._injection_hook(category, k, model or SingleBitFlip(),
                                    rng)
        template = self._trial_template()
        store = self.ensure_checkpoints()
        index = store.index_before(category, k) if store is not None \
            else None
        checkpoint = store[index] if index is not None else None
        images = (checkpoint.snapshot.memory if checkpoint is not None
                  else self._pristine_spans)
        engine = self._engine(
            hook, max_instructions or self.default_max_instructions,
            hook_filter=hook.candidate_ids, template=template,
            memory=memory_from_images(images))
        skipped = 0
        if checkpoint is not None:
            engine.restore(checkpoint.snapshot, skip_memory=True)
            hook.count = checkpoint.counts[category]
            skipped = checkpoint.snapshot.executed
        if store is not None:
            engine.probe(store.snapshots, 0 if index is None else index + 1,
                         store.final)
        result = engine.run()
        self._absorb_compile(engine)
        self._account_run(result, skipped,
                          tail=result.instructions - engine.executed)
        if hook.record is None:
            raise FaultInjectionError(
                f"dynamic instance {k} was never reached "
                f"(program behaviour diverged before injection?)")
        return result, hook.record, engine.fault_activated

    # -- compiled execution --------------------------------------------------
    def _compile_subject(self):
        """The program object compiled blocks are cached against (the IR
        module for LLFI, the machine program for PINFI); None when the
        subclass has no compiled engine."""
        return None

    def _absorb_compile(self, engine) -> None:
        """Fold one engine's compiled/fallback block counters into the
        injector totals (and zero them, so a reused engine is not double
        counted)."""
        compiled = getattr(engine, "compiled_blocks", 0)
        fallback = getattr(engine, "fallback_blocks", 0)
        if compiled:
            self.compiled_blocks += compiled
            engine.compiled_blocks = 0
        if fallback:
            self.fallback_blocks += fallback
            engine.fallback_blocks = 0

    def compile_stats(self) -> Dict[str, object]:
        """Compile-time + dispatch statistics for the run manifest."""
        stats: Dict[str, object] = {
            "enabled": bool(self.compile_enabled),
            "blocks_compiled": 0,
            "superinstructions": 0,
            "compile_wall_s": 0.0,
            "compiled_blocks": self.compiled_blocks,
            "fallback_blocks": self.fallback_blocks,
        }
        subject = self._compile_subject()
        if subject is not None:
            from repro.vm.blockcache import peek_cache
            cache = peek_cache(subject)
            if cache is not None:
                stats.update(cache.stats())
        return stats

    # -- run accounting ------------------------------------------------------
    def _account_run(self, result: ExecutionResult, skipped: int = 0,
                     tail: Optional[int] = None) -> None:
        """Book one whole-program run: local counters plus the active
        observability recorder (a no-op singleton unless tracing).

        A run simulates ``result.instructions`` minus the ``skipped``
        checkpoint prefix minus, for an injection run (``tail`` not
        None), the golden tail it did not simulate after converging."""
        self.executions += 1
        injection = tail is not None
        tail = tail or 0
        simulated = result.instructions - skipped - tail
        self.instructions_simulated += simulated
        if skipped:
            self.ckpt_restores += 1
            self.ckpt_instructions_skipped += skipped
        if tail:
            self.converged_runs += 1
            self.converged_instructions += tail
        rec = get_recorder()
        if rec.enabled:
            rec.incr(f"injector.{self.name}.runs")
            rec.incr(f"injector.{self.name}.instructions", simulated)
            if skipped:
                rec.incr(f"injector.{self.name}.ckpt_restores")
                rec.incr(f"injector.{self.name}.ckpt_skipped", skipped)
            if injection:
                rec.incr(f"injector.{self.name}.converged",
                         1 if tail else 0)
                rec.incr(f"injector.{self.name}.converged_instructions",
                         tail)

    def _account_batch_sweep(self, instructions: int) -> None:
        """Book one batch sweep: its instructions are simulated once on
        behalf of every lane in the group (they belong to no single
        trial; manifests carry them in per-group batch records)."""
        self.batch_sweeps += 1
        self.batch_shared_instructions += instructions
        self.instructions_simulated += instructions
        rec = get_recorder()
        if rec.enabled:
            rec.incr(f"injector.{self.name}.batch_sweeps")
            rec.incr(f"injector.{self.name}.batch_shared", instructions)

    def _account_batch_lane(self, result: ExecutionResult,
                            fork_skipped: int) -> None:
        """Book one forked lane: an ordinary run whose skipped prefix is
        its fork boundary (a restore from the sweep instead of from a
        recorded checkpoint).  Lanes never take the convergence exit."""
        self._account_run(result, skipped=fork_skipped, tail=0)
        self.batch_lanes += 1
        rec = get_recorder()
        if rec.enabled:
            rec.incr(f"injector.{self.name}.batch_lanes")

    def _trial_template(self):
        """Never-run engine providing the tables every injection run,
        sweep and lane shares (global addresses, function records, poison
        metadata), with its cold-start memory spans in
        ``_pristine_spans``."""
        if self._template is None:
            engine = self._engine(None, self.default_max_instructions)
            self._template = engine
            self._pristine_spans = capture_memory(engine.memory)
        return self._template

    # -- batched execution ---------------------------------------------------
    def _scalar_first(self, category: str, request: BatchRequest,
                      model: Optional[FaultModel],
                      max_instructions: Optional[int]) -> FirstAttempt:
        """One scalar first attempt, with the counter deltas it caused
        (the detach path of batched execution — byte-identical to what
        ``run_trial_slot`` would have done itself)."""
        t0 = time.perf_counter()
        instructions0 = self.instructions_simulated
        restores0 = self.ckpt_restores
        skipped0 = self.ckpt_instructions_skipped
        result, record, activated = self.run_with_fault(
            category, request.k, request.rng, model=model,
            max_instructions=max_instructions)
        return FirstAttempt(
            k=request.k, result=result, record=record, activated=activated,
            instructions=self.instructions_simulated - instructions0,
            restores=self.ckpt_restores - restores0,
            skipped=self.ckpt_instructions_skipped - skipped0,
            wall_s=time.perf_counter() - t0)

    def run_batch(self, category: str, requests: Sequence[BatchRequest],
                  model: Optional[FaultModel] = None,
                  max_instructions: Optional[int] = None,
                  ) -> Tuple[Dict[int, FirstAttempt], BatchStats]:
        """Run one (category, checkpoint-bucket) group's first attempts as
        a shared sweep + COW forks (:mod:`repro.vm.batch`).  Lanes whose
        k retires between instruction boundaries (IR phi batches and
        pending-call results) detach to the scalar path."""
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
        template = self._trial_template()
        if self._pristine is None:
            self._pristine = vm_batch.pristine_image_of(template)
        lane_runs, detached, stats = vm_batch.run_batch(
            template, requests,
            candidate_ids=self._candidate_ids[category],
            hook_for=lambda r: self._injection_hook(category, r.k, model,
                                                    r.rng),
            budget=budget, pristine=self._pristine, checkpoint=checkpoint,
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

    # -- golden + profiling (memoised) ---------------------------------------
    def golden(self, max_instructions: Optional[int] = None
               ) -> ExecutionResult:
        """Fault-free reference run."""
        result = self._execute(
            None, max_instructions or self.default_max_instructions)
        self._account_run(result)
        return result

    def golden_cached(self) -> ExecutionResult:
        """Memoised golden run: one per injector, not one per campaign."""
        if self._golden_result is None:
            self._golden_result = self.golden()
        return self._golden_result

    def adopt_prep(self, golden: ExecutionResult,
                   counts: Dict[str, int]) -> None:
        """Prime the golden/profiling memos from a persisted preparation
        artifact (see :mod:`repro.service.runtime`): a primed injector
        performs zero whole-program preparation runs, which is how the
        SQLite store dedups golden work across campaigns.  Existing memos
        win — an injector that already ran its own golden is the ground
        truth, the artifact is just its replica."""
        if self._golden_result is None:
            self._golden_result = golden
        if self._dynamic_counts is None:
            self._dynamic_counts = dict(counts)

    def dynamic_counts(self) -> Dict[str, int]:
        """Memoised per-category dynamic counts from one shared profiling
        pass (replaces a ``count_dynamic_candidates`` run per category)."""
        if self._dynamic_counts is None:
            self._dynamic_counts = self.count_all_categories()
        return self._dynamic_counts

    def _account_prep(self, result: ExecutionResult, what: str) -> None:
        """Book one preparation run, which must complete."""
        self._account_run(result)
        if not result.completed:
            raise FaultInjectionError(
                f"{what} run did not complete: {result.status}")

    def count_all_categories(self, max_instructions: Optional[int] = None
                             ) -> Dict[str, int]:
        """Dynamic candidate counts for every category in one run
        (each tool's side of the paper's Table IV)."""
        result, counts = self._counted_run(
            max_instructions or self.default_max_instructions)
        self._account_prep(result, "profiling")
        return counts

    def count_dynamic_candidates(self, category: str,
                                 max_instructions: Optional[int] = None
                                 ) -> int:
        """Profiling run: N, the dynamic candidate-instance count of one
        category, with one hook call per candidate (the reference the
        segment-counting :meth:`count_all_categories` is tested
        against)."""
        ids = self._candidate_ids[category]
        hook = _CountingHook(ids)
        result = self._execute(
            hook, max_instructions or self.default_max_instructions,
            hook_filter=ids)
        self._account_prep(result, "profiling")
        return hook.count

    # -- checkpoints ---------------------------------------------------------
    def configure_checkpoints(self, stride: int) -> None:
        """Set the checkpoint policy: 0 disables resume-from-checkpoint,
        <0 picks a stride of ~1/20 of the golden instruction count, >0 is
        an explicit instruction stride."""
        self.checkpoint_request = stride

    def ensure_checkpoints(self, max_instructions: Optional[int] = None
                           ) -> Optional[CheckpointStore]:
        """Record golden-run checkpoints (memoised per requested policy).

        The recording run executes the whole program once with the
        every-category :class:`CandidateCounter`, so it doubles as the
        golden run and the profiling pass: a fresh injector makes one
        preparation run instead of two.  It runs block-compiled (unless
        ``compile_enabled`` is off), so each checkpoint lands on the
        first compiled-segment boundary at or past its stride mark.

        The automatic stride (a negative request) needs the run's length
        N, which only the run itself tells: it records at a provisional
        stride that doubles as the store fills, then keeps the first
        checkpoint at or past each multiple of ``N // 20``
        (:func:`~repro.vm.snapshot.record_checkpoints`).  A program
        shorter than 20 provisional strides is re-recorded at ``N // 20``
        — the provisional checkpoints are too sparse for it — so it pays
        two runs, as it did when a golden run measured N first; an
        injector that already knows N (an adopted prep artifact) records
        it once.
        """
        request = self.checkpoint_request
        if request == 0:
            return None
        if self._checkpoints is not None \
                and self._checkpoints_request == request:
            return self._checkpoints
        budget = max_instructions or self.default_max_instructions

        def record(store: CheckpointStore) -> ExecutionResult:
            # One recording run, booked as a preparation run; its result
            # and counts fill the golden and profiling memos.
            result, counts = self._counted_run(budget, store)
            self._account_prep(result, "checkpoint recording")
            if self._golden_result is None:
                self._golden_result = result
            if self._dynamic_counts is None:
                self._dynamic_counts = counts
            return result

        golden = self._golden_result
        store = record_checkpoints(
            record, request, golden.instructions if golden else None)
        self._checkpoints = store
        self._checkpoints_request = request
        return store
