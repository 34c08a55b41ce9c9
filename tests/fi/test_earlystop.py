"""Adaptive campaign execution: Wilson-CI early stopping and
checkpoint-bucketed round scheduling.

Two contracts under test:

* **Prefix identity** — an early-stopped campaign is *exactly* the
  ``trials = n_stop`` campaign: same counts, same per-trial records, same
  serialized result; for both tools, with and without checkpoints, at any
  job count.  ``ci_margin = 0`` keeps today's full-budget behavior.
* **Bucket scheduling is pure** — reordering a round's slots by shared
  checkpoint never changes results, and restores within a bucket share
  one snapshot decode (fewer decodes than restores).
"""

import os

import pytest

from repro.backend import compile_module
from repro.fi import (
    CampaignConfig, InjectorSpec, LLFIInjector, PINFIInjector, StopDecision,
    Trial, evaluate_stop, plan_rounds, run_campaign, run_parallel_campaign,
    shutdown_pool,
)
from repro.fi.campaign import (
    RunRecords, SlotResult, order_round, prepare_campaign, run_rounds,
)
from repro.fi.fault import FaultRecord
from repro.fi.outcome import Outcome
from repro.minic import compile_source
from repro.obs.manifest import manifest_filename, read_manifest
from repro.obs.report import validate_stop_claims
from repro.workloads import build

from tests.conftest import PAPER_SEED
from tests.fi.test_checkpoint import SRC, _assert_identical, _fresh


@pytest.fixture(scope="module")
def built():
    module = compile_source(SRC)
    program = compile_module(module)
    return module, program


def _slot(index, outcome=None, not_activated=0):
    if outcome is None:
        return SlotResult(index, None, not_activated)
    record = FaultRecord(dynamic_index=1, bit_positions=[0], target="r",
                         width=32)
    return SlotResult(index, Trial(1, record, outcome), not_activated)


class TestEvaluateStop:
    def test_empty_prefix_never_converges(self):
        decision = evaluate_stop([], CampaignConfig(ci_margin=0.1))
        assert decision.activated == 0
        assert decision.max_margin == 0.5
        assert not decision.stop

    def test_all_gave_up_never_converges(self):
        slots = [_slot(i, not_activated=10) for i in range(100)]
        decision = evaluate_stop(slots, CampaignConfig(ci_margin=0.1))
        assert decision.executed == 100
        assert decision.activated == 0
        assert not decision.stop

    def test_unanimous_outcomes_converge(self):
        slots = [_slot(i, Outcome.CRASH) for i in range(1000)]
        decision = evaluate_stop(slots, CampaignConfig(ci_margin=0.03))
        assert decision.activated == 1000
        assert decision.max_margin < 0.03
        assert decision.stop

    def test_margin_zero_never_stops(self):
        slots = [_slot(i, Outcome.CRASH) for i in range(1000)]
        decision = evaluate_stop(slots, CampaignConfig(ci_margin=0.0))
        assert not decision.stop

    def test_margins_cover_every_outcome(self):
        decision = evaluate_stop([_slot(0, Outcome.SDC)],
                                 CampaignConfig(ci_margin=0.03))
        assert set(decision.margins) == {
            o.value for o in Outcome if o is not Outcome.NOT_ACTIVATED}
        assert decision.max_margin == max(decision.margins.values())

    def test_to_record_round_trips_the_decision(self):
        decision = StopDecision(executed=50, activated=40,
                                margins={"sdc": 0.12}, max_margin=0.12,
                                stop=False)
        record = decision.to_record(3)
        assert record["round"] == 3
        assert record["executed"] == 50
        assert record["max_margin"] == pytest.approx(0.12)
        assert record["stop"] is False


class TestPlanRounds:
    def test_not_adaptive_is_one_round(self):
        assert plan_rounds(CampaignConfig(trials=137)) == [(0, 137)]

    def test_adaptive_rounds_cover_exactly_the_budget(self):
        rounds = plan_rounds(CampaignConfig(trials=130, ci_margin=0.03))
        assert rounds[0] == (0, 50)
        assert rounds[-1] == (100, 130)
        assert [i for s, e in rounds for i in range(s, e)] == list(range(130))

    def test_explicit_round_size(self):
        rounds = plan_rounds(CampaignConfig(trials=10, ci_margin=0.03,
                                            round_size=4))
        assert rounds == [(0, 4), (4, 8), (8, 10)]

    def test_rounds_never_depend_on_jobs(self):
        a = plan_rounds(CampaignConfig(trials=64, ci_margin=0.05, jobs=1))
        b = plan_rounds(CampaignConfig(trials=64, ci_margin=0.05, jobs=8))
        assert a == b


class TestRunRounds:
    """The round barrier every executor drives, here with a stand-in
    executor that needs no injector."""

    def test_stop_decision_sees_the_whole_prefix(self):
        # A round of 5 all-benign slots never converges on its own
        # (margin 0.217 >= 0.2); the 10-slot prefix does (0.139).
        config = CampaignConfig(trials=40, ci_margin=0.2, round_size=5)
        calls = []

        def run_round(round_no, indices):
            calls.append((round_no, list(indices)))
            return [_slot(i, Outcome.BENIGN) for i in indices]

        records = RunRecords()
        slots = run_rounds(config, run_round, records)
        assert calls == [(0, [0, 1, 2, 3, 4]), (1, [5, 6, 7, 8, 9])]
        assert [s.index for s in slots] == list(range(10))
        assert [(r["round"], r["executed"], r["stop"])
                for r in records.rounds] == [(0, 5, False), (1, 10, True)]


class TestPrefixIdentity:
    """An early-stopped campaign == the trials=n_stop campaign, exactly."""

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    @pytest.mark.parametrize("stride", [0, -1])
    def test_stopped_equals_fresh_prefix_run(self, tool, stride, built):
        config = CampaignConfig(trials=24, seed=424242, ci_margin=0.45,
                                round_size=4, checkpoint_stride=stride)
        adaptive = run_campaign(_fresh(tool, built), "all", config)
        assert adaptive.trials < config.trials, \
            "margin chosen to stop early; tighten if this fires"
        prefix = run_campaign(
            _fresh(tool, built), "all",
            CampaignConfig(trials=adaptive.trials, seed=424242,
                           checkpoint_stride=stride))
        _assert_identical(adaptive, prefix)
        assert adaptive.trials == prefix.trials
        assert adaptive.to_json(include_records=True) == \
            prefix.to_json(include_records=True)

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_margin_zero_runs_the_full_budget(self, tool, built):
        config = CampaignConfig(trials=6, seed=7, ci_margin=0.0)
        result = run_campaign(_fresh(tool, built), "all", config)
        assert result.trials == 6
        assert result.activated + result.records.count(None) <= 6

    def test_stop_is_a_round_boundary_prefix(self, built):
        config = CampaignConfig(trials=24, seed=424242, ci_margin=0.45,
                                round_size=4)
        result = run_campaign(_fresh("LLFI", built), "all", config)
        assert result.trials % 4 == 0

    def test_round_size_moves_the_stop_but_stays_a_prefix(self, built):
        base = dict(trials=24, seed=424242, ci_margin=0.45)
        small = run_campaign(_fresh("LLFI", built), "all",
                             CampaignConfig(round_size=4, **base))
        large = run_campaign(_fresh("LLFI", built), "all",
                             CampaignConfig(round_size=8, **base))
        # Both are prefixes of the same slot sequence: the shorter one's
        # records are a prefix of the longer one's.
        shorter, longer = sorted([small, large], key=lambda r: r.trials)
        longer_keys = [(t.k, t.outcome) for t in longer.records]
        shorter_keys = [(t.k, t.outcome) for t in shorter.records]
        assert longer_keys[:len(shorter_keys)] == shorter_keys


class TestEngineParity:
    """Early stopping composes with the parallel engine: identical stop
    points and results at any job count."""

    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_jobs_do_not_move_the_stop(self, tool):
        config = CampaignConfig(trials=16, seed=5150, ci_margin=0.45,
                                round_size=4, checkpoint_stride=-1)
        spec = InjectorSpec("libquantumm", tool)
        seq = run_parallel_campaign(spec, "cmp", config, jobs=1)
        par = run_parallel_campaign(spec, "cmp", config, jobs=2)
        assert seq.trials < 16  # actually stopped early
        _assert_identical(seq, par)
        assert seq.trials == par.trials
        prefix = run_parallel_campaign(
            spec, "cmp",
            CampaignConfig(trials=seq.trials, seed=5150,
                           checkpoint_stride=-1), jobs=2)
        _assert_identical(seq, prefix)


#: Outcomes of the paper's LLFI-vs-PINFI CI-overlap verdicts.
VERDICT_OUTCOMES = (Outcome.CRASH, Outcome.SDC, Outcome.HANG, Outcome.BENIGN)


@pytest.fixture(scope="module")
def libquantumm_adaptive(tmp_path_factory):
    """libquantumm ``cmp`` and ``all`` per tool at the automatic stride,
    each run on a fresh injector: the full 24-trial run, the adaptive
    run (margin 0.35, rounds of 6, writing its manifest) and the run of
    its ``n_stop`` trials.  ``{(tool, category): {"full", "adaptive",
    "prefix", "injector", "manifest"}}``, where ``injector`` ran the
    adaptive campaign."""
    workload = build("libquantumm")
    built = (workload.module, workload.program)
    trace_dir = str(tmp_path_factory.mktemp("earlystop-manifests"))
    base = dict(seed=PAPER_SEED, checkpoint_stride=-1)
    cells = {}
    for category in ("cmp", "all"):
        for tool in ("LLFI", "PINFI"):
            full = run_campaign(_fresh(tool, built), category,
                                CampaignConfig(trials=24, **base))
            injector = _fresh(tool, built)
            injector.workload_name = "libquantumm"
            adaptive = run_campaign(injector, category, CampaignConfig(
                trials=24, ci_margin=0.35, round_size=6,
                trace_dir=trace_dir, **base))
            prefix = run_campaign(_fresh(tool, built), category,
                                  CampaignConfig(trials=adaptive.trials,
                                                 **base))
            name = manifest_filename("libquantumm", tool, category, 24,
                                     PAPER_SEED, -1, 0.35)
            cells[tool, category] = dict(
                full=full, adaptive=adaptive, prefix=prefix,
                injector=injector,
                manifest=read_manifest(os.path.join(trace_dir, name)))
    return cells


class TestRealWorkloadEarlyStop:
    """Early stopping on a real workload at the paper's seed: the
    stopped result is the ``n_stop`` run, the paper's verdicts survive
    the stop, and the adaptive manifests and restores hold up."""

    @pytest.mark.parametrize("category", ["cmp", "all"])
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_stopped_equals_n_stop_run(self, tool, category,
                                       libquantumm_adaptive):
        cell = libquantumm_adaptive[tool, category]
        assert cell["adaptive"].trials < 24, "margin chosen to stop early"
        assert cell["adaptive"].to_json(include_records=True) == \
            cell["prefix"].to_json(include_records=True)

    @pytest.mark.parametrize("outcome", VERDICT_OUTCOMES,
                             ids=lambda o: o.value)
    @pytest.mark.parametrize("category", ["cmp", "all"])
    def test_overlap_verdict_survives_the_stop(self, category, outcome,
                                               libquantumm_adaptive):
        llfi = libquantumm_adaptive["LLFI", category]
        pinfi = libquantumm_adaptive["PINFI", category]

        def overlap(run):
            return llfi[run].proportion(outcome).overlaps(
                pinfi[run].proportion(outcome))

        assert overlap("full") == overlap("adaptive")

    @pytest.mark.parametrize("category", ["cmp", "all"])
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_stop_claim_is_valid(self, tool, category,
                                 libquantumm_adaptive):
        manifest = libquantumm_adaptive[tool, category]["manifest"]
        assert validate_stop_claims(manifest) == []

    @pytest.mark.parametrize("category", ["cmp", "all"])
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_manifest_reproduces_the_injector_total(self, tool, category,
                                                    libquantumm_adaptive):
        cell = libquantumm_adaptive[tool, category]
        assert cell["manifest"].total_instructions() == \
            cell["injector"].instructions_simulated

    @pytest.mark.parametrize("category", ["cmp", "all"])
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_trials_restore_from_spans(self, tool, category,
                                       libquantumm_adaptive):
        # Scalar trials build memory from a snapshot's spans; only
        # batched groups decode a full-size image.
        injector = libquantumm_adaptive[tool, category]["injector"]
        assert injector.ckpt_restores > 0
        assert injector.ensure_checkpoints().decode_count == 0


class TestBucketScheduler:
    def test_order_round_is_a_permutation(self, built):
        inj = _fresh("LLFI", built)
        config = CampaignConfig(trials=12, seed=99, checkpoint_stride=25)
        setup = prepare_campaign(inj, "all", config)
        ordered, records = order_round(inj, "all", setup, config, 0,
                                       range(12))
        assert sorted(ordered) == list(range(12))
        assert sum(r["slots"] for r in records) == 12
        assert [r["checkpoint"] for r in records] == \
            sorted(r["checkpoint"] for r in records)
        # Deterministic: same inputs, same ordering.
        again, _ = order_round(inj, "all", setup, config, 0, range(12))
        assert again == ordered

    def test_no_checkpoints_is_identity_order(self, built):
        inj = _fresh("LLFI", built)
        config = CampaignConfig(trials=8, seed=99)  # stride 0: no store
        setup = prepare_campaign(inj, "all", config)
        ordered, records = order_round(inj, "all", setup, config, 0,
                                       range(2, 8))
        assert ordered == list(range(2, 8))
        assert records == [{"round": 0, "checkpoint": -1, "slots": 6}]

    def test_bucketed_restores_share_decodes(self, built):
        # A sparse stride yields few checkpoints, so by pigeonhole the
        # trials' restores share snapshots.  Scalar trials build their
        # memory from each snapshot's spans, so however the restores are
        # ordered none of them decodes a full-size image.
        inj = _fresh("LLFI", built)
        config = CampaignConfig(trials=12, seed=31337,
                                checkpoint_stride=300)
        result = run_campaign(inj, "all", config)
        store = inj.ensure_checkpoints()
        assert store is not None and len(store) >= 1
        assert inj.ckpt_restores > len(store)
        assert store.decode_count == 0
        assert result.trials == 12

    def test_decoded_restore_is_bit_identical(self, built):
        # The same campaign under per-trial restore_memory (old path,
        # stride off ordering aside) vs shared-decode restores must be
        # bit-identical; covered end-to-end by TestPrefixIdentity, and
        # here at the memory level via the checkpoint differential suite
        # contract: stride on == stride off.
        cold = run_campaign(_fresh("PINFI", built), "all",
                            CampaignConfig(trials=8, seed=2001))
        warm = run_campaign(_fresh("PINFI", built), "all",
                            CampaignConfig(trials=8, seed=2001,
                                           checkpoint_stride=150))
        _assert_identical(cold, warm)
