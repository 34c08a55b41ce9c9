"""Campaign runner: N injections -> outcome distribution.

Implements the paper's experimental procedure (§V):

1. golden run (reference output + dynamic instruction count);
2. profiling run (N = dynamic candidate instances for the category);
3. ``trials`` injection runs, each picking a uniformly random dynamic
   instance k in [1, N] and flipping one random bit in its destination;
4. outcomes classified among *activated* faults; non-activated injections
   are re-drawn (up to ``max_attempts_factor`` attempts per trial slot).

Hangs are detected by an instruction budget of ``hang_factor`` × the golden
instruction count.

Determinism
-----------

Each of the ``trials`` slots owns an independent RNG stream seeded by a
SHA-256 digest over ``(seed, tool, category, slot index)`` — see
:func:`derive_trial_seed`.  This replaces the old shared sequential RNG
(whose ``hash((tool, category))`` derivation depended on the per-process
string-hash salt and was not reproducible across interpreter invocations)
and makes slots independent of each other: the parallel engine
(:mod:`repro.fi.engine`) can execute them in any order on any number of
workers and still produce bit-identical results to the sequential path.
The redraw-on-non-activated policy is preserved *per stream*: a slot that
draws a non-activated fault redraws from its own stream, up to
``max_attempts_factor`` attempts, then gives up (same worst-case run count
as the old global ``trials × max_attempts_factor`` cap).

The golden run and the per-category profiling counts are memoised on the
injector (``golden_cached`` / ``dynamic_counts``), so a grid of campaigns
over several categories performs one golden run and one profiling pass per
injector instead of one of each per (tool, category) cell.

Adaptive execution
------------------

Slots are dispatched in deterministic **rounds** (:func:`plan_rounds`).
With ``CampaignConfig.ci_margin`` set, the campaign checks convergence at
every round boundary (:func:`evaluate_stop`): once every outcome
proportion's Wilson CI margin over the activated trials so far is below
the target, the remaining rounds are skipped.  Because slots are
independent streams and stop decisions are functions of the slot prefix
``0..round end`` only, a stopped campaign is *exactly* the
``trials = n_stop`` campaign — same per-slot results, same aggregate,
same cache entry — and is still independent of ``jobs``.  With
``ci_margin = 0`` (the default) the campaign is a single round over all
``trials`` slots: today's behavior, bit for bit.

Within a round, slots are executed in **checkpoint-bucket order**
(:func:`order_round`): grouped by the golden checkpoint their first
attempt restores from.  Batch groups are cut from these buckets, so a
group's lanes share one decoded snapshot image (see
:meth:`repro.vm.snapshot.CheckpointStore.decoded_memory`); a scalar
trial builds its memory from the snapshot's spans and decodes nothing,
so for scalar trials the order is only a deterministic schedule.  The
bucket key is computed from a fresh copy of each slot's stream without
consuming the one the trial uses, so bucketing is pure scheduling: it
never changes any slot's randomness, and the aggregate sorts by slot
index anyway.

One round barrier, several executors
------------------------------------

Every way of running a campaign shares three pieces defined here:
:func:`run_slot_subset`, the only in-process unit of work (a whole
inline round, one pool chunk or one service shard); :func:`run_rounds`,
the only round barrier, which hands each round to an executor's
``run_round(round_no, indices)`` callable; and :func:`merged_result`.
Executors differ only in where a round's slots run: in this process
(:func:`run_campaign`), on a process pool (:mod:`repro.fi.engine`), or
as shards — in-process or on the service's store queue
(:mod:`repro.service`).

Observability
-------------

With ``CampaignConfig.trace`` (or a ``trace_dir``) set, every trial slot
additionally captures a :class:`TrialStats` — wall time, simulated
instructions, checkpoint restores and skipped prefix length — and the
campaign writes a JSONL run manifest (see :mod:`repro.obs.manifest`).
Tracing is *inert*: it never touches the per-slot RNG streams, so campaign
results are bit-identical with tracing on or off (proven by
``tests/obs/test_parity.py``).
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.fi.base import BaseInjector, BatchRequest, FirstAttempt
from repro.fi.fault import FaultModel, FaultRecord, get_fault_model
from repro.fi.llfi import LLFIInjector
from repro.fi.outcome import Outcome, classify
from repro.fi.pinfi import PINFIInjector
from repro.fi.stats import Proportion, outcome_margins
from repro.obs import NULL_RECORDER, recording
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION, RunManifest, manifest_filename, merge_counters,
    write_manifest,
)
from repro.vm.batch import DEFAULT_BATCH_LANES
from repro.vm.result import ExecutionResult

#: Schema version of ``CampaignResult.to_json``; bump on any field change.
RESULT_SCHEMA_VERSION = 1

#: Trials per scheduling round when early stopping is on and no explicit
#: ``round_size`` is configured.  Small enough that a converged cell stops
#: within ~5% of its minimum budget, large enough that the stop check and
#: round dispatch are negligible against whole-program injection runs.
DEFAULT_ROUND_SIZE = 50

#: Checkpoint stride of the experiments CLI and the service's shard
#: workers when none is given: automatic, ~1/20 of the golden run (see
#: ``CampaignConfig.checkpoint_stride``).  ``CampaignConfig()`` itself
#: keeps 0, the scalar path the differential tests compare against.
DEFAULT_CHECKPOINT_STRIDE = -1


@dataclass
class Trial:
    """One activated injection."""

    k: int
    record: FaultRecord
    outcome: Outcome


@dataclass
class CampaignResult:
    tool: str
    category: str
    trials: int
    dynamic_candidates: int
    golden_instructions: int
    counts: Dict[Outcome, int] = field(default_factory=dict)
    not_activated: int = 0
    records: List[Trial] = field(default_factory=list)

    @property
    def activated(self) -> int:
        return sum(self.counts.values())

    def proportion(self, outcome: Outcome) -> Proportion:
        return Proportion(self.counts.get(outcome, 0), self.activated)

    @property
    def crash(self) -> Proportion:
        return self.proportion(Outcome.CRASH)

    @property
    def sdc(self) -> Proportion:
        return self.proportion(Outcome.SDC)

    @property
    def hang(self) -> Proportion:
        return self.proportion(Outcome.HANG)

    @property
    def benign(self) -> Proportion:
        return self.proportion(Outcome.BENIGN)

    @property
    def activation_rate(self) -> Proportion:
        total = self.activated + self.not_activated
        return Proportion(self.activated, total)

    def summary(self) -> str:
        return (f"{self.tool}/{self.category}: n={self.activated} "
                f"crash={self.crash.percent()} sdc={self.sdc.percent()} "
                f"hang={self.hang.percent()} benign={self.benign.percent()} "
                f"(activation {self.activation_rate.percent()})")

    # -- schema-versioned serialization -------------------------------------
    def to_json(self, include_records: bool = False) -> dict:
        """Serializable form (the results cache, manifests, reports).

        Versioned by ``schema`` = :data:`RESULT_SCHEMA_VERSION`;
        :meth:`from_json` rejects anything else with a clear message."""
        data = {
            "schema": RESULT_SCHEMA_VERSION,
            "tool": self.tool,
            "category": self.category,
            "trials": self.trials,
            "dynamic_candidates": self.dynamic_candidates,
            "golden_instructions": self.golden_instructions,
            "counts": {o.value: n for o, n in self.counts.items()},
            "not_activated": self.not_activated,
        }
        if include_records:
            data["records"] = [
                {"k": t.k, "outcome": t.outcome.value,
                 "dynamic_index": t.record.dynamic_index,
                 "bit_positions": list(t.record.bit_positions),
                 "target": t.record.target, "width": t.record.width}
                for t in self.records]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CampaignResult":
        schema = data.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise FaultInjectionError(
                f"unsupported CampaignResult schema {schema!r}: this build "
                f"reads schema {RESULT_SCHEMA_VERSION}. If this came from "
                f"the results cache, delete the stale entry and re-run the "
                f"campaign.")
        result = cls(
            tool=data["tool"], category=data["category"],
            trials=data["trials"],
            dynamic_candidates=data["dynamic_candidates"],
            golden_instructions=data["golden_instructions"],
            not_activated=data["not_activated"])
        result.counts = {Outcome(k): v for k, v in data["counts"].items()}
        for r in data.get("records", []):
            result.records.append(Trial(
                k=r["k"], outcome=Outcome(r["outcome"]),
                record=FaultRecord(dynamic_index=r["dynamic_index"],
                                   bit_positions=list(r["bit_positions"]),
                                   target=r["target"], width=r["width"])))
        return result


@dataclass
class CampaignConfig:
    trials: int = 1000
    seed: int = 20140623  # DSN'14
    hang_factor: int = 20
    #: Fault-model spec resolved through the registry
    #: (:func:`repro.fi.fault.get_fault_model`): "bitflip" is the paper's
    #: model, "multibit-k" / "stuck-at-0" / "stuck-at-1" /
    #: "intermittent-n" / "memflip" are the sensitivity-study variants.
    #: Like ``ci_margin`` this **does** change the result, so it is part
    #: of the results cache key.
    fault_model: str = "bitflip"
    #: Explicit model instance; overrides ``fault_model`` when set (kept
    #: for programmatic callers — the spec string is what pickles to
    #: engine workers and lands in cache keys/manifests).
    model: Optional[FaultModel] = None
    #: Give up on a trial slot after this many redraws (guards against
    #: categories whose faults almost never activate).
    max_attempts_factor: int = 10
    #: Worker processes for the parallel engine; 1 = in-process, <=0 means
    #: one per CPU. Results are independent of this value by construction.
    jobs: int = 1
    #: Checkpoint-and-resume policy: 0 disables it, <0 records golden-run
    #: checkpoints every ~1/20 of the golden instruction count, >0 is an
    #: explicit instruction stride. A pure accelerator: trials resume from
    #: the last golden checkpoint before their injection point and are
    #: bit-identical to cold-start trials (the prefix they skip is by
    #: construction a replay of the golden run, the per-slot RNG is first
    #: consumed at the injection point, and the injection hook resumes
    #: counting from the checkpoint's per-category candidate count).
    #: Results are independent of this value, like ``jobs``.
    checkpoint_stride: int = 0
    #: Early-stopping target: stop at the first round boundary where every
    #: outcome proportion's Wilson CI margin (half-width, over activated
    #: trials) is below this. 0 disables early stopping and runs all
    #: ``trials`` slots — bit-identical to pre-adaptive campaigns. Unlike
    #: ``jobs``/``checkpoint_stride`` this **does** affect the result (it
    #: decides how many slots run), so it is part of the results cache key;
    #: a stopped campaign equals the ``trials = n_stop`` campaign exactly.
    ci_margin: float = 0.0
    #: Trials per scheduling round; 0 picks :data:`DEFAULT_ROUND_SIZE`.
    #: Only consulted when ``ci_margin`` > 0 (otherwise the campaign is a
    #: single round). Round boundaries depend on this config alone — never
    #: on ``jobs`` — so stop decisions are identical at any job count.
    round_size: int = 0
    #: Batched suffix execution: maximum trial slots forked from one
    #: shared sweep per (category, checkpoint) bucket. 0 disables it (the
    #: scalar path runs, untouched), <0 picks
    #: :data:`repro.vm.batch.DEFAULT_BATCH_LANES`. A pure accelerator
    #: like ``jobs``/``checkpoint_stride``: lanes are bit-identical to
    #: scalar trials by construction (they fork from a golden sweep at
    #: their injection boundary and re-execute the scalar main loop), so
    #: results are independent of this value and it is **not** part of
    #: the results cache key.
    batch: int = 0
    #: Escape hatch for block-compiled execution
    #: (:mod:`repro.vm.blockcache`): True forces every engine run —
    #: checkpoint recording included — onto the scalar per-instruction
    #: loop. A pure accelerator toggle like
    #: ``jobs``/``checkpoint_stride``/``batch`` — compiled execution is
    #: bit-identical by construction (a lane with a pending injection
    #: falls back to the scalar loop for that block; a compiled recording
    #: captures only at segment boundaries, which moves where checkpoints
    #: land but not what a resumed trial computes), so results are
    #: independent of this value and it is **not** part of the results
    #: cache key.
    no_compile: bool = False
    #: Collect per-trial statistics (wall time, simulated instructions,
    #: checkpoint restores) through :mod:`repro.obs`. Inert: results are
    #: bit-identical with tracing on or off.
    trace: bool = False
    #: Directory to write the JSONL run manifest into (implies ``trace``).
    trace_dir: Optional[str] = None

    @property
    def tracing(self) -> bool:
        return self.trace or self.trace_dir is not None

    @property
    def adaptive(self) -> bool:
        """Is Wilson-CI early stopping on?"""
        return self.ci_margin > 0

    def resolved_round_size(self) -> int:
        """The round size campaigns actually schedule with (0 = default)."""
        return self.round_size if self.round_size > 0 else DEFAULT_ROUND_SIZE

    def resolved_batch(self) -> int:
        """Lanes per batch group (0 = batching off, <0 = default size)."""
        if self.batch == 0:
            return 0
        return self.batch if self.batch > 0 else DEFAULT_BATCH_LANES

    def resolved_model(self) -> FaultModel:
        """The fault model campaigns actually inject with: the explicit
        ``model`` object if given, else ``fault_model`` resolved through
        the registry."""
        if self.model is not None:
            return self.model
        return get_fault_model(self.fault_model)


# -- deterministic per-trial RNG streams ---------------------------------------

def derive_trial_seed(seed: int, tool: str, category: str, index: int) -> int:
    """Stable 256-bit seed for one trial slot.

    Uses a SHA-256 digest so the stream depends only on the campaign seed,
    tool name, category and slot index — never on ``PYTHONHASHSEED`` or the
    process the slot happens to run in.
    """
    msg = f"{seed}\x1f{tool}\x1f{category}\x1f{index}".encode()
    return int.from_bytes(hashlib.sha256(msg).digest(), "big")


def trial_stream(seed: int, tool: str, category: str,
                 index: int) -> random.Random:
    """The independent RNG stream owned by one trial slot."""
    return random.Random(derive_trial_seed(seed, tool, category, index))


# -- campaign setup (golden + profiling, shared across cells) ------------------

@dataclass
class CampaignSetup:
    """Everything a trial slot needs besides its index: the golden
    reference, the hang budget, N and the fault model."""

    golden: ExecutionResult
    budget: int
    candidates: int
    model: FaultModel


def prepare_campaign(injector: BaseInjector, category: str,
                     config: CampaignConfig) -> CampaignSetup:
    """Golden + profiling phase. Both are memoised on the injector, so
    repeated campaigns over the same injector (different categories,
    seeds or trial counts) re-use one golden run and one profiling pass.
    With checkpoints on, the recording run is both: a fresh injector is
    prepared in one run at any stride, the automatic one included
    (programs shorter than 20 provisional strides take two)."""
    injector.compile_enabled = not config.no_compile
    injector.configure_checkpoints(config.checkpoint_stride)
    # The recording run fills the golden and profiling memos, so the two
    # calls below add no whole-program executions when it ran.
    injector.ensure_checkpoints()
    golden = injector.golden_cached()
    if not golden.completed:
        raise FaultInjectionError(
            f"golden run failed: {golden.status} "
            f"({golden.trap if golden.trap else ''})")
    budget = golden.instructions * config.hang_factor + 10_000
    n = injector.dynamic_counts()[category]
    if n == 0:
        raise FaultInjectionError(
            f"no dynamic {category!r} candidates for {injector.name}")
    return CampaignSetup(golden=golden, budget=budget, candidates=n,
                         model=config.resolved_model())


# -- trial slots ---------------------------------------------------------------

@dataclass
class TrialStats:
    """Observability sidecar of one trial slot (collected only when the
    campaign traces; never consulted by the campaign procedure itself)."""

    #: Wall-clock seconds the slot took (all redraw attempts included).
    wall_s: float
    #: Injection runs executed (1 + redraws, or just the redraws when the
    #: slot gave up).
    runs: int
    #: Instructions actually simulated (post-checkpoint suffixes only).
    instructions: int
    #: Runs that resumed from a golden checkpoint.
    ckpt_restores: int
    #: Golden-prefix instructions skipped via those restores.
    ckpt_skipped: int


@dataclass
class SlotResult:
    """What one trial slot produced: an activated trial (or None if every
    redraw failed to activate) plus its non-activated attempt count and,
    when tracing, its :class:`TrialStats`."""

    index: int
    trial: Optional[Trial]
    not_activated: int
    stats: Optional[TrialStats] = None


def run_trial_slot(injector: BaseInjector, category: str,
                   setup: CampaignSetup, config: CampaignConfig,
                   index: int, rng: Optional[random.Random] = None,
                   first: Optional[FirstAttempt] = None) -> SlotResult:
    """Execute one trial slot: draw k from the slot's own RNG stream,
    inject, classify; redraw on non-activation (same stream).

    Batched dispatch passes the slot's *live* stream as ``rng`` together
    with the pre-executed ``first`` attempt (the k was already drawn from
    that stream and run as a batch lane); the slot then consumes ``first``
    as attempt 0 and redraws on the same stream exactly as the scalar path
    would, so the slot's randomness — and therefore its result — is
    bit-identical either way."""
    tracing = config.tracing
    # Cost of the batched first attempt (already executed inside
    # run_batch, before this slot's counter baseline is taken).
    first_wall = first.wall_s if first is not None else 0.0
    first_instr = first.instructions if first is not None else 0
    first_restores = first.restores if first is not None else 0
    first_skipped = first.skipped if first is not None else 0
    if tracing:
        t0 = time.perf_counter()
        instr0 = injector.instructions_simulated
        restores0 = injector.ckpt_restores
        skipped0 = injector.ckpt_instructions_skipped
    if rng is None:
        rng = trial_stream(config.seed, injector.name, category, index)
    not_activated = 0
    trial: Optional[Trial] = None
    for _attempt in range(config.max_attempts_factor):
        if first is not None:
            k, run, record, activated = (first.k, first.result,
                                         first.record, first.activated)
            first = None
        else:
            k = rng.randint(1, setup.candidates)
            run, record, activated = injector.run_with_fault(
                category, k, rng, model=setup.model,
                max_instructions=setup.budget)
        if record is None:
            # Not an assert: asserts vanish under ``python -O`` and a
            # missing record would silently misclassify the trial.
            raise FaultInjectionError(
                f"{injector.name}/{category} slot {index}: injector "
                f"returned no fault record for dynamic instance {k}")
        outcome = classify(run, setup.golden.output, activated)
        if outcome is Outcome.NOT_ACTIVATED:
            not_activated += 1
            continue
        trial = Trial(k, record, outcome)
        break
    stats = None
    if tracing:
        stats = TrialStats(
            wall_s=time.perf_counter() - t0 + first_wall,
            runs=not_activated + (1 if trial is not None else 0),
            instructions=injector.instructions_simulated - instr0
            + first_instr,
            ckpt_restores=injector.ckpt_restores - restores0
            + first_restores,
            ckpt_skipped=injector.ckpt_instructions_skipped - skipped0
            + first_skipped)
    return SlotResult(index, trial, not_activated, stats)


# -- adaptive rounds + checkpoint-bucketed scheduling --------------------------

@dataclass(frozen=True)
class StopDecision:
    """Convergence check at one round boundary: Wilson CI margins of every
    outcome proportion over the slots executed so far."""

    #: Slots executed (the candidate ``n_stop``).
    executed: int
    #: Activated trials among them (the CI sample size).
    activated: int
    #: Outcome value -> CI margin (half-width).
    margins: Dict[str, float]
    #: The widest margin — what the target is compared against.
    max_margin: float
    #: Converged under the configured ``ci_margin``?
    stop: bool

    def to_record(self, round_no: int) -> dict:
        """Manifest ``round`` record of this decision."""
        return {"round": round_no, "executed": self.executed,
                "activated": self.activated,
                "margins": {k: round(v, 6)
                            for k, v in sorted(self.margins.items())},
                "max_margin": round(self.max_margin, 6),
                "stop": self.stop}


def evaluate_stop(slots: List[SlotResult],
                  config: CampaignConfig) -> StopDecision:
    """Stop decision over the slots executed so far.

    Evaluated only at round boundaries, on every slot below the boundary,
    so the decision is a pure function of (config, slot prefix) — never of
    scheduling order or job count.  An all-gave-up prefix has ``activated
    = 0`` and margins of 0.5 (see :func:`repro.fi.stats.outcome_margins`),
    so it never reads as converged."""
    counts = {o.value: 0 for o in Outcome if o is not Outcome.NOT_ACTIVATED}
    activated = 0
    for slot in slots:
        if slot.trial is not None:
            counts[slot.trial.outcome.value] += 1
            activated += 1
    margins = outcome_margins(counts, activated)
    max_margin = max(margins.values())
    return StopDecision(executed=len(slots), activated=activated,
                        margins=margins, max_margin=max_margin,
                        stop=config.adaptive and max_margin < config.ci_margin)


def plan_rounds(config: CampaignConfig) -> List[Tuple[int, int]]:
    """Deterministic ``[start, end)`` round boundaries over slot indices.

    Without early stopping the whole campaign is one round (no stop checks
    to schedule around); with it, rounds of ``resolved_round_size()``.
    Boundaries are derived from the config alone, which is what keeps
    ``jobs=1`` and ``jobs=N`` (and sequential vs parallel paths) executing
    identical slot prefixes."""
    if not config.adaptive:
        return [(0, config.trials)]
    size = config.resolved_round_size()
    return [(start, min(start + size, config.trials))
            for start in range(0, config.trials, size)]


def slot_checkpoint_bucket(injector: BaseInjector, category: str,
                           setup: CampaignSetup, config: CampaignConfig,
                           index: int) -> int:
    """Checkpoint bucket of one trial slot: the index of the golden
    checkpoint its *first* attempt resumes from, -1 for a cold start.

    The first draw is re-derived from a fresh copy of the slot's stream
    (streams are pure functions of the seed), so the stream the trial
    itself consumes is untouched — bucketing is a scheduling hint, not
    part of the procedure.  Redraws may resolve to other checkpoints;
    that never affects correctness."""
    store = injector.ensure_checkpoints()
    if store is None:
        return -1
    k = trial_stream(config.seed, injector.name, category,
                     index).randint(1, setup.candidates)
    i = store.index_before(category, k)
    return -1 if i is None else i


def _buckets(injector: BaseInjector, category: str, setup: CampaignSetup,
             config: CampaignConfig, round_no: int, indices: Iterable[int],
             ) -> Tuple[List[Tuple[int, List[int]]], List[dict]]:
    """``(checkpoint bucket, slot indices)`` pairs in schedule order —
    cold starts (-1) first, then ascending checkpoint index, ascending
    slot index within a bucket — plus one manifest ``bucket`` record per
    non-empty bucket."""
    buckets: Dict[int, List[int]] = {}
    for index in indices:
        bucket = slot_checkpoint_bucket(injector, category, setup, config,
                                        index)
        buckets.setdefault(bucket, []).append(index)
    ordered = sorted(buckets.items())
    records = [{"round": round_no, "checkpoint": bucket,
                "slots": len(slots)} for bucket, slots in ordered]
    return ordered, records


def order_round(injector: BaseInjector, category: str, setup: CampaignSetup,
                config: CampaignConfig, round_no: int,
                indices: Iterable[int]) -> Tuple[List[int], List[dict]]:
    """Bucket one round's slot indices by shared checkpoint.

    ``indices`` is any subset of the campaign's slot indices — a whole
    round for local runs, one shard of a round for service workers.
    Returns them reordered bucket by bucket (cold starts first, then
    ascending checkpoint index; ascending slot index within a bucket —
    fully deterministic) plus one manifest ``bucket`` record per
    non-empty bucket.  Scalar trials restore from their snapshot's
    spans, so the order decides nothing but the schedule; batch groups
    (:func:`order_round_batches`) share one decoded image per bucket."""
    buckets, records = _buckets(injector, category, setup, config,
                                round_no, indices)
    return [index for _, slots in buckets for index in slots], records


def order_round_batches(injector: BaseInjector, category: str,
                        setup: CampaignSetup, config: CampaignConfig,
                        round_no: int, indices: Iterable[int],
                        ) -> Tuple[List[Tuple[int, int, List[int]]],
                                   List[dict]]:
    """Split one round's slot indices into batch groups.

    Same bucketing as :func:`order_round` (one bucket per shared golden
    checkpoint, cold starts in bucket -1), then each bucket is cut into
    groups of at most ``resolved_batch()`` slots.  Returns ``(group id,
    checkpoint bucket, slot indices)`` triples in deterministic order plus
    the same manifest ``bucket`` records the scalar scheduler emits —
    batching refines the schedule, it never changes it."""
    lanes = config.resolved_batch()
    buckets, records = _buckets(injector, category, setup, config,
                                round_no, indices)
    groups: List[Tuple[int, int, List[int]]] = []
    for bucket, slots in buckets:
        for i in range(0, len(slots), lanes):
            groups.append((len(groups), bucket, slots[i:i + lanes]))
    return groups, records


def run_batch_group(injector: BaseInjector, category: str,
                    setup: CampaignSetup, config: CampaignConfig,
                    indices: List[int]):
    """Execute one batch group: every slot's first attempt is drawn from
    its own stream, then all first attempts run as forked lanes of one
    shared sweep (:meth:`BaseInjector.run_batch`).  Each slot then
    finishes through :func:`run_trial_slot` with its live stream and its
    pre-executed first attempt, so redraws — and every result — match the
    scalar path bit for bit.  Returns (slot results, batch stats)."""
    requests = []
    for index in indices:
        rng = trial_stream(config.seed, injector.name, category, index)
        k = rng.randint(1, setup.candidates)
        requests.append(BatchRequest(index=index, k=k, rng=rng))
    firsts, stats = injector.run_batch(category, requests,
                                       model=setup.model,
                                       max_instructions=setup.budget)
    slots = [run_trial_slot(injector, category, setup, config, r.index,
                            rng=r.rng, first=firsts[r.index])
             for r in requests]
    return slots, stats


# -- the round barrier and its unit of work -----------------------------------

@dataclass
class RunRecords:
    """Manifest records one campaign run accumulates while it executes.

    The round barrier (:func:`run_rounds`) appends ``rounds``; the unit
    of work (:func:`run_slot_subset`) appends ``buckets`` and, when
    tracing, ``batches``; the executors append what only they see —
    pool ``chunks``, service ``shards`` and worker recorder ``counters``.
    :func:`build_run_manifest` reads them all from here."""

    rounds: List[dict] = field(default_factory=list)
    buckets: List[dict] = field(default_factory=list)
    batches: List[dict] = field(default_factory=list)
    chunks: List[dict] = field(default_factory=list)
    shards: List[dict] = field(default_factory=list)
    counters: List[Dict[str, int]] = field(default_factory=list)


def run_slot_subset(injector: BaseInjector, category: str,
                    setup: CampaignSetup, config: CampaignConfig,
                    indices: Iterable[int], round_no: int,
                    records: RunRecords) -> List[SlotResult]:
    """The unit of work of every executor: run any subset of one
    round's slot indices in this process — a whole round inline, one
    pool chunk in a worker, or one service shard.

    The subset is checkpoint-bucket-ordered and, with
    ``config.resolved_batch() > 0``, cut into batch groups (shared sweep
    + COW forks) instead of run slot by slot.  Each slot runs its own
    RNG stream either way, so the slots produced are bit-identical to
    the same indices of any other partition."""
    if config.resolved_batch() > 0:
        groups, buckets = order_round_batches(injector, category, setup,
                                              config, round_no, indices)
        slots: List[SlotResult] = []
        for group_id, bucket, group_indices in groups:
            group_slots, stats = run_batch_group(injector, category, setup,
                                                 config, group_indices)
            slots.extend(group_slots)
            if config.tracing:
                records.batches.append(
                    stats.to_record(round_no, group_id, bucket))
    else:
        ordered, buckets = order_round(injector, category, setup, config,
                                       round_no, indices)
        slots = [run_trial_slot(injector, category, setup, config, index)
                 for index in ordered]
    records.buckets.extend(buckets)
    return slots


#: One executor's round: ``run_round(round_no, indices)`` runs those slot
#: indices wherever the executor runs them and returns their results in
#: any order.
RoundRunner = Callable[[int, Sequence[int]], List[SlotResult]]


def run_rounds(config: CampaignConfig, run_round: RoundRunner,
               records: RunRecords) -> List[SlotResult]:
    """The round barrier of every campaign path: per round from
    :func:`plan_rounds`, run the round's slots through ``run_round``,
    then evaluate the stop decision on the whole slot prefix so far and
    stop once converged.

    Rounds and stop decisions depend on the config alone, so any
    executor — inline, process pool, in-process shards or the service's
    store queue — executes the same slot prefix and stops at the same
    boundary.  Appends one ``round`` record per round to ``records``."""
    slots: List[SlotResult] = []
    for round_no, (start, end) in enumerate(plan_rounds(config)):
        slots.extend(run_round(round_no, range(start, end)))
        decision = evaluate_stop(slots, config)
        records.rounds.append(decision.to_record(round_no))
        if decision.stop:
            break
    return slots


def merged_result(tool: str, category: str, slots: List[SlotResult],
                  candidates: int,
                  golden_instructions: int) -> CampaignResult:
    """Fold slot results into a CampaignResult.  Slots are sorted by
    index, so the aggregate is identical however — and wherever — the
    slots were scheduled: this is the merge invariant the sharded service
    relies on (a coordinator with no live injector can aggregate shard
    payloads given the setup scalars alone).

    ``trials`` is the number of slots actually executed — for an
    early-stopped campaign that is ``n_stop``, making the result equal in
    every field to the ``trials = n_stop`` campaign's."""
    result = CampaignResult(tool=tool, category=category,
                            trials=len(slots),
                            dynamic_candidates=candidates,
                            golden_instructions=golden_instructions)
    counts: Dict[Outcome, int] = {o: 0 for o in Outcome
                                  if o is not Outcome.NOT_ACTIVATED}
    for slot in sorted(slots, key=lambda s: s.index):
        result.not_activated += slot.not_activated
        if slot.trial is not None:
            counts[slot.trial.outcome] += 1
            result.records.append(slot.trial)
    result.counts = counts
    return result


# -- the shard wire format -----------------------------------------------------

def slot_to_json(slot: SlotResult) -> dict:
    """Serializable form of one slot result — the wire format shard
    workers return their work in.  Round-trips exactly: the trial's
    FaultRecord and the optional tracing stats are carried in full, so a
    merged shard run aggregates bit-identically to a local one."""
    data: dict = {"index": slot.index, "not_activated": slot.not_activated,
                  "trial": None}
    if slot.trial is not None:
        t = slot.trial
        data["trial"] = {
            "k": t.k, "outcome": t.outcome.value,
            "dynamic_index": t.record.dynamic_index,
            "bit_positions": list(t.record.bit_positions),
            "target": t.record.target, "width": t.record.width}
    if slot.stats is not None:
        s = slot.stats
        data["stats"] = {
            "wall_s": s.wall_s, "runs": s.runs,
            "instructions": s.instructions,
            "ckpt_restores": s.ckpt_restores,
            "ckpt_skipped": s.ckpt_skipped}
    return data


def slot_from_json(data: dict) -> SlotResult:
    trial: Optional[Trial] = None
    t = data.get("trial")
    if t is not None:
        trial = Trial(
            k=t["k"], outcome=Outcome(t["outcome"]),
            record=FaultRecord(dynamic_index=t["dynamic_index"],
                               bit_positions=list(t["bit_positions"]),
                               target=t["target"], width=t["width"]))
    stats: Optional[TrialStats] = None
    s = data.get("stats")
    if s is not None:
        stats = TrialStats(wall_s=s["wall_s"], runs=s["runs"],
                           instructions=s["instructions"],
                           ckpt_restores=s["ckpt_restores"],
                           ckpt_skipped=s["ckpt_skipped"])
    return SlotResult(data["index"], trial, data["not_activated"], stats)


def merge_slot_shards(shards: Sequence[List[SlotResult]],
                      ) -> List[SlotResult]:
    """Merge shard slot lists into one index-ordered slot list, enforcing
    the partition invariant: no slot index may appear in two shards.
    (Per-slot RNG streams make each slot's result independent of which
    shard ran it, so a valid partition merges bit-identically to a local
    run by construction.)"""
    merged: Dict[int, SlotResult] = {}
    for shard in shards:
        for slot in shard:
            if slot.index in merged:
                raise FaultInjectionError(
                    f"slot {slot.index} was produced by two shards — "
                    f"the shard partition overlaps")
            merged[slot.index] = slot
    return [merged[i] for i in sorted(merged)]


# -- run manifests -------------------------------------------------------------

@dataclass
class PrepStats:
    """What campaign preparation cost on *this* injector in *this*
    campaign (0/0 when the memoised golden/profiling runs were reused)."""

    executions: int
    instructions: int


def snapshot_prep(injector: BaseInjector) -> Dict[str, int]:
    """Baseline for :func:`prep_delta`."""
    return {"executions": injector.executions,
            "instructions": injector.instructions_simulated}


def prep_delta(injector: BaseInjector, baseline: Dict[str, int]) -> PrepStats:
    return PrepStats(
        executions=injector.executions - baseline["executions"],
        instructions=injector.instructions_simulated
        - baseline["instructions"])


def _trial_record(slot: SlotResult) -> dict:
    stats = slot.stats or TrialStats(0.0, 0, 0, 0, 0)
    trial = slot.trial
    return {
        "index": slot.index,
        "outcome": trial.outcome.value if trial is not None else "gave_up",
        "k": trial.k if trial is not None else None,
        "runs": stats.runs,
        "redraws": slot.not_activated,
        "wall_s": round(stats.wall_s, 6),
        "instructions": stats.instructions,
        "ckpt_restores": stats.ckpt_restores,
        "ckpt_skipped": stats.ckpt_skipped,
    }


def build_run_manifest(injector: BaseInjector, category: str,
                       config: CampaignConfig, setup: CampaignSetup,
                       slots: List[SlotResult], result: CampaignResult,
                       prep: PrepStats, wall_s: float,
                       records: RunRecords,
                       service: Optional[dict] = None) -> RunManifest:
    """Assemble the JSONL run manifest of one campaign (see
    :mod:`repro.obs.manifest` for the schema and the accounting identity
    it guarantees) from its result and the records its run accumulated."""
    store = injector.ensure_checkpoints()
    trials = [_trial_record(slot)
              for slot in sorted(slots, key=lambda s: s.index)]
    rounds = records.rounds
    batches = records.batches
    header = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "workload": injector.workload_name or "adhoc",
        "tool": injector.name,
        "category": category,
        "trials": config.trials,
        "seed": config.seed,
        "jobs": config.jobs,
        "hang_factor": config.hang_factor,
        "max_attempts_factor": config.max_attempts_factor,
        "model": config.resolved_model().name,
        "checkpoint_stride": config.checkpoint_stride,
        "ci_margin": config.ci_margin,
        "round_size": config.resolved_round_size() if config.adaptive else 0,
        "batch": config.resolved_batch(),
    }
    if service:
        header["service"] = dict(service)
    setup_record = {
        "golden_instructions": setup.golden.instructions,
        "dynamic_candidates": setup.candidates,
        "checkpoints": len(store) if store is not None else 0,
        "prep_executions": prep.executions,
        "prep_instructions": prep.instructions,
    }
    n_stop = len(trials)
    merged = merge_counters(records.counters)
    compile_stats = injector.compile_stats()
    compile_records = [{
        "tool": injector.name,
        "enabled": compile_stats["enabled"],
        "blocks_compiled": compile_stats["blocks_compiled"],
        "superinstructions": compile_stats["superinstructions"],
        "compile_wall_s": round(compile_stats["compile_wall_s"], 6),
    }]
    # Runtime dispatch counts come from the recorder (merged over worker
    # chunks), not the injector: the injector's totals span its whole
    # lifetime while the manifest covers this campaign only.
    compile_summary = {
        "enabled": compile_stats["enabled"],
        "blocks_compiled": compile_stats["blocks_compiled"],
        "superinstructions": compile_stats["superinstructions"],
        "compile_wall_s": round(compile_stats["compile_wall_s"], 6),
        "compiled_blocks": (merged.get("vm.ir.compiled_blocks", 0)
                            + merged.get("vm.asm.compiled_blocks", 0)),
        "fallback_blocks": (merged.get("vm.ir.fallback_blocks", 0)
                            + merged.get("vm.asm.fallback_blocks", 0)),
    }
    summary = {
        "wall_s": round(wall_s, 6),
        "activated": result.activated,
        "not_activated": result.not_activated,
        "counts": {o.value: n for o, n in result.counts.items()},
        "instructions": sum(t["instructions"] for t in trials),
        "ckpt_restores": sum(t["ckpt_restores"] for t in trials),
        "ckpt_skipped": sum(t["ckpt_skipped"] for t in trials),
        "trials_requested": config.trials,
        "n_stop": n_stop,
        "stopped": n_stop < config.trials,
        "trials_saved": config.trials - n_stop,
        "margin_at_stop": rounds[-1]["max_margin"] if rounds else None,
        "rounds": len(rounds),
        "batch_groups": len(batches),
        "batch_shared_instructions": sum(b["shared_instructions"]
                                         for b in batches),
        "batch_lanes": sum(b["forked"] for b in batches),
        "batch_detached": sum(b["detached"] for b in batches),
        "compile": compile_summary,
        "counters": merged,
    }
    return RunManifest(header=header, setup=setup_record, trials=trials,
                       chunks=records.chunks, summary=summary,
                       rounds=rounds, buckets=records.buckets,
                       batches=batches, compiles=compile_records,
                       shards=records.shards)


def write_campaign_manifest(manifest: RunManifest, trace_dir: str) -> str:
    """Write a campaign manifest under ``trace_dir`` with its canonical
    name; returns the path."""
    h = manifest.header
    path = os.path.join(trace_dir, manifest_filename(
        h["workload"], h["tool"], h["category"], h["trials"], h["seed"],
        h["checkpoint_stride"], h.get("ci_margin", 0.0),
        h.get("model", "bitflip")))
    return write_manifest(path, manifest)


def drive_campaign(injector: BaseInjector, category: str,
                   config: CampaignConfig,
                   execute: Callable[..., List[SlotResult]],
                   ) -> CampaignResult:
    """The body every local campaign shares: prepare (golden, profile,
    checkpoints), drive the rounds under a recorder when tracing, merge,
    and write the run manifest when ``trace_dir`` is set.

    ``execute(setup, records, round_no, indices)`` runs one round once
    the setup is prepared: :func:`run_campaign` runs it inline,
    :func:`repro.fi.engine.run_parallel_campaign` over its worker
    pool."""
    t0 = time.perf_counter()
    baseline = snapshot_prep(injector)
    records = RunRecords()
    with recording() if config.tracing else nullcontext(NULL_RECORDER) \
            as rec:
        setup = prepare_campaign(injector, category, config)
        prep = prep_delta(injector, baseline)
        slots = run_rounds(config, partial(execute, setup, records),
                           records)
    result = merged_result(injector.name, category, slots, setup.candidates,
                           setup.golden.instructions)
    if config.trace_dir:
        records.counters.append(rec.counters_snapshot())
        manifest = build_run_manifest(
            injector, category, config, setup, slots, result, prep,
            wall_s=time.perf_counter() - t0, records=records)
        write_campaign_manifest(manifest, config.trace_dir)
    return result


def run_campaign(injector: BaseInjector, category: str,
                 config: Optional[CampaignConfig] = None) -> CampaignResult:
    """Run one (tool, category) fault-injection campaign in-process.

    Bit-identical to ``run_parallel_campaign`` at any job count: both
    drive the same rounds over the same per-slot streams and merge with
    :func:`merged_result`."""
    config = config or CampaignConfig()

    def execute(setup: CampaignSetup, records: RunRecords, round_no: int,
                indices: Sequence[int]) -> List[SlotResult]:
        return run_slot_subset(injector, category, setup, config, indices,
                               round_no, records)

    return drive_campaign(injector, category, config, execute)


def run_grid(llfi: LLFIInjector, pinfi: PINFIInjector,
             categories: List[str],
             config: Optional[CampaignConfig] = None,
             workload: Optional[str] = None,
             ) -> Dict[str, Dict[str, CampaignResult]]:
    """Run campaigns for both tools over a list of categories.
    Returns {category: {'LLFI': ..., 'PINFI': ...}}.

    When ``config.jobs != 1`` and the ``workload`` registry name is given,
    campaigns are dispatched through the parallel engine (workers rebuild
    the injectors from the workload name)."""
    config = config or CampaignConfig()
    grid: Dict[str, Dict[str, CampaignResult]] = {}
    if workload is not None and config.jobs != 1:
        from repro.fi.engine import InjectorSpec, run_parallel_campaign
        specs = {
            "LLFI": InjectorSpec(workload, "LLFI", llfi_options=llfi.options),
            "PINFI": InjectorSpec(workload, "PINFI",
                                  pinfi_options=pinfi.options),
        }
        for category in categories:
            grid[category] = {
                tool: run_parallel_campaign(spec, category, config)
                for tool, spec in specs.items()
            }
        return grid
    for category in categories:
        grid[category] = {
            "LLFI": run_campaign(llfi, category, config),
            "PINFI": run_campaign(pinfi, category, config),
        }
    return grid
