"""BaseInjector: the shared injector surface and memoization.

Both fault injectors — LLFI over the IR interpreter and PINFI over the
SimX86 simulator — follow the paper's three-step workflow (select,
profile, inject) and share everything that is not engine-specific:

* the memoised **golden run** (``golden_cached``) and **per-category
  profiling pass** (``dynamic_counts``), so a grid of campaigns performs
  one of each per injector instead of one per (tool, category) cell;
* the **checkpoint policy** (``configure_checkpoints`` /
  ``ensure_checkpoints``): the recording run doubles as golden + profiling
  pass and its :class:`~repro.vm.snapshot.CheckpointStore` lets every
  injection run skip its fault-free prefix;
* **run accounting** (``executions``, ``instructions_simulated``,
  ``ckpt_restores``, ``ckpt_instructions_skipped``), mirrored into the
  active :mod:`repro.obs` recorder.

Subclasses provide the engine plumbing: :meth:`_engine` (a fresh IR
interpreter or SimX86 simulator with a hook installed), the per-category
candidate id sets and :meth:`run_with_fault` (one injection run).
Campaign, engine and experiment code type against this ABC only.
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.errors import FaultInjectionError
from repro.fi.fault import FaultModel, FaultRecord
from repro.obs import get_recorder
from repro.vm.asmsim import AsmHook
from repro.vm.batch import BatchStats
from repro.vm.irinterp import InterpHook
from repro.vm.result import ExecutionResult
from repro.vm.snapshot import CheckpointStore


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

    def __init__(self, candidate_ids: Dict[str, Set[int]]) -> None:
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
        #: Requested checkpoint stride: 0 = off, <0 = auto (~N/20 of the
        #: golden instruction count), >0 = explicit instruction stride.
        self.checkpoint_request = 0
        #: Requested decoded-snapshot LRU capacity (0 = default).
        self.decoded_cache_request = 0
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
        self._checkpoints_request: Tuple[int, int] = (0, 0)
        self._golden_result: Optional[ExecutionResult] = None
        self._dynamic_counts: Optional[Dict[str, int]] = None

    @property
    def tool_name(self) -> str:
        """The tool this injector models (alias of :attr:`name`)."""
        return self.name

    #: Category -> ids of its static candidate instructions (set by the
    #: subclass constructor).
    _candidate_ids: Dict[str, Set[int]]

    # -- engine plumbing (subclass responsibility) ---------------------------
    @abstractmethod
    def _engine(self, hook, max_instructions: int, hook_filter=None,
                **kwargs):
        """A fresh engine over this injector's program with ``hook``
        installed; ``kwargs`` go to the engine constructor."""

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
        counts) into it at its stride."""
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

    @abstractmethod
    def static_candidate_count(self, category: str) -> int:
        """Number of static injection candidates for a category."""

    @abstractmethod
    def run_with_fault(self, category: str, k: int, rng: random.Random,
                       model: Optional[FaultModel] = None,
                       max_instructions: Optional[int] = None,
                       ) -> Tuple[ExecutionResult, Optional[FaultRecord], bool]:
        """One injection run at dynamic instance ``k`` under ``model``
        (default: the paper's single bit flip; see the registry in
        :mod:`repro.fi.fault` for the other models); returns
        (result, fault record, activated?).  Models must be stateless —
        one instance serves every trial slot — and their RNG consumption
        per firing must depend only on (model, target width), never on
        the value being corrupted, or jobs=1 ≡ jobs=N breaks."""

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
    def _account_run(self, result: ExecutionResult, skipped: int = 0) -> None:
        """Book one whole-program run: local counters plus the active
        observability recorder (a no-op singleton unless tracing)."""
        self.executions += 1
        simulated = result.instructions - skipped
        self.instructions_simulated += simulated
        if skipped:
            self.ckpt_restores += 1
            self.ckpt_instructions_skipped += skipped
        rec = get_recorder()
        if rec.enabled:
            rec.incr(f"injector.{self.name}.runs")
            rec.incr(f"injector.{self.name}.instructions", simulated)
            if skipped:
                rec.incr(f"injector.{self.name}.ckpt_restores")
                rec.incr(f"injector.{self.name}.ckpt_skipped", skipped)

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
        recorded checkpoint)."""
        self._account_run(result, skipped=fork_skipped)
        self.batch_lanes += 1
        rec = get_recorder()
        if rec.enabled:
            rec.incr(f"injector.{self.name}.batch_lanes")

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
        """Run one (category, checkpoint-bucket) group's first attempts.

        Engine-specific subclasses fork the lanes from a shared sweep
        (:mod:`repro.vm.batch`); this base implementation is the fully
        detached case — every lane runs the scalar path — so batching is
        safe on any injector."""
        firsts = {r.index: self._scalar_first(category, r, model,
                                              max_instructions)
                  for r in requests}
        self.batch_detached += len(requests)
        stats = BatchStats(lanes=len(requests), detached=len(requests))
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

    def count_all_categories(self, max_instructions: Optional[int] = None
                             ) -> Dict[str, int]:
        """Dynamic candidate counts for every category in one run
        (each tool's side of the paper's Table IV)."""
        result, counts = self._counted_run(
            max_instructions or self.default_max_instructions)
        self._account_run(result)
        if not result.completed:
            raise FaultInjectionError(
                f"profiling run did not complete: {result.status}")
        return counts

    # -- checkpoints ---------------------------------------------------------
    def configure_checkpoints(self, stride: int,
                              decoded_cache: int = 0) -> None:
        """Set the checkpoint policy: 0 disables resume-from-checkpoint,
        <0 picks a stride of ~1/20 of the golden instruction count, >0 is
        an explicit instruction stride.  ``decoded_cache`` sizes the
        store's decoded-snapshot LRU (0 = default)."""
        self.checkpoint_request = stride
        self.decoded_cache_request = decoded_cache

    def ensure_checkpoints(self, max_instructions: Optional[int] = None
                           ) -> Optional[CheckpointStore]:
        """Record golden-run checkpoints (memoised per requested policy).

        The recording run executes the whole program once with the
        every-category :class:`CandidateCounter`, so it doubles as the
        golden run and the profiling pass: with an explicit stride a fresh
        injector makes one preparation run instead of two.  It runs
        block-compiled (unless ``compile_enabled`` is off), so each
        checkpoint lands on the first compiled-segment boundary at or past
        its stride mark.
        """
        request = (self.checkpoint_request, self.decoded_cache_request)
        if request[0] == 0:
            return None
        if self._checkpoints is not None \
                and self._checkpoints_request == request:
            return self._checkpoints
        stride = request[0]
        if stride < 0:
            stride = max(1, self.golden_cached().instructions // 20)
        store = CheckpointStore(stride, decoded_cache=request[1])
        result, counts = self._counted_run(
            max_instructions or self.default_max_instructions, store)
        self._account_run(result)
        if not result.completed:
            raise FaultInjectionError(
                f"checkpoint recording run did not complete: {result.status}")
        if self._golden_result is None:
            self._golden_result = result
        if self._dynamic_counts is None:
            self._dynamic_counts = counts
        self._checkpoints = store
        self._checkpoints_request = request
        return store

    def _resume_from_checkpoint(self, engine, hook, category: str,
                                k: int) -> int:
        """Restore the latest golden checkpoint strictly before dynamic
        instance ``k`` into ``engine`` (if any), sync the injection hook's
        candidate count, and return the skipped instruction count.

        Memory is restored from the store's shared decoded image of the
        snapshot: the store expands each snapshot once and every trial in
        its (category, checkpoint) bucket copies from that decode instead
        of re-deriving the full region contents per trial."""
        store = self.ensure_checkpoints()
        if store is None:
            return 0
        checkpoint = store.best_for(category, k)
        if checkpoint is None:
            return 0
        engine.restore(checkpoint.snapshot,
                       memory_images=store.decoded_memory(checkpoint))
        hook.count = checkpoint.counts[category]
        return checkpoint.snapshot.executed
