"""Differential tests for checkpoint-and-resume trial execution.

The contract under test (ISSUE 2's load-bearing invariant): campaigns run
with ``checkpoint_stride != 0`` must be *bit-identical* to cold-start
campaigns — same outcome counts, same per-trial ``FaultRecord``s — for
both tools, every category, and any job count.  Checkpointing is a pure
accelerator; only the number of simulated instructions may change.
"""

import pytest

from repro.backend import compile_module
from repro.fi import (
    CampaignConfig, InjectorSpec, LLFIInjector, PINFIInjector, run_campaign,
    run_parallel_campaign, shutdown_pool,
)
from repro.fi.categories import CATEGORIES
from repro.minic import compile_source

#: Mixed integer/double workload with int<->fp casts so that *all five*
#: categories (arithmetic, cast, cmp, load, all) have dynamic candidates
#: under both tools.
SRC = """
double table[16];
int main() {
    int i;
    long s = 0;
    for (i = 0; i < 16; i++) {
        table[i] = (double)(i * 3 + 1) * 0.25;
        s += (long)(table[i] * 4.0);
    }
    double d = 0.0;
    for (i = 0; i < 16; i++) { if (table[i] > 1.0) d = d + table[i]; }
    print_long(s); print_char(10);
    print_double(d);
    return (int)s % 31;
}
"""

TRIALS = 8
SEED = 90125


@pytest.fixture(scope="module")
def built():
    module = compile_source(SRC)
    program = compile_module(module)
    return module, program


def _fresh(tool, built):
    """A fresh injector (no memoised golden/profiling/checkpoint state), so
    cold and checkpointed campaigns cannot share anything by accident."""
    module, program = built
    if tool == "LLFI":
        return LLFIInjector(module)
    return PINFIInjector(program)


def _trial_key(t):
    return (t.k, t.outcome, t.record.dynamic_index, t.record.bit_positions,
            t.record.target, t.record.width)


def _assert_identical(cold, warm):
    assert cold.counts == warm.counts
    assert cold.not_activated == warm.not_activated
    assert cold.dynamic_candidates == warm.dynamic_candidates
    assert cold.golden_instructions == warm.golden_instructions
    assert [_trial_key(t) for t in cold.records] == \
        [_trial_key(t) for t in warm.records]


class TestDifferentialBitIdentity:
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_checkpointed_equals_cold(self, tool, category, built):
        cold_inj = _fresh(tool, built)
        warm_inj = _fresh(tool, built)
        cold = run_campaign(cold_inj, category,
                            CampaignConfig(trials=TRIALS, seed=SEED))
        warm = run_campaign(warm_inj, category,
                            CampaignConfig(trials=TRIALS, seed=SEED,
                                           checkpoint_stride=-1))
        _assert_identical(cold, warm)
        # A resumed trial only executes past its checkpoint, so the warm
        # campaign simulates no more instructions than the cold one.
        assert warm_inj.instructions_simulated <= \
            cold_inj.instructions_simulated

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_explicit_stride_equals_cold(self, tool, built):
        # A dense explicit stride exercises resume from many different
        # checkpoints (including mid-call-stack ones).
        cold = run_campaign(_fresh(tool, built), "all",
                            CampaignConfig(trials=TRIALS, seed=SEED + 1))
        warm = run_campaign(_fresh(tool, built), "all",
                            CampaignConfig(trials=TRIALS, seed=SEED + 1,
                                           checkpoint_stride=25))
        _assert_identical(cold, warm)

    def test_stride_choice_does_not_change_results(self, built):
        configs = [CampaignConfig(trials=TRIALS, seed=SEED + 2,
                                  checkpoint_stride=s)
                   for s in (0, -1, 25, 120)]
        results = [run_campaign(_fresh("LLFI", built), "arithmetic", c)
                   for c in configs]
        for other in results[1:]:
            _assert_identical(results[0], other)


class TestPreparationAccounting:
    def test_explicit_stride_prep_is_one_run(self, built):
        """The recording run doubles as golden + profiling: preparing a
        fresh injector with an explicit stride costs one whole-program run
        (the cold path costs two)."""
        inj = _fresh("LLFI", built)
        result = run_campaign(inj, "all",
                              CampaignConfig(trials=4, seed=3,
                                             checkpoint_stride=100))
        injections = result.activated + result.not_activated
        assert inj.executions == 1 + injections

    def test_auto_stride_prep_is_two_runs(self, built):
        """Auto stride records at a provisional stride; a program shorter
        than 20 provisional strides is then re-recorded at N // 20, so
        prep is two runs — the same two as the cold path."""
        inj = _fresh("PINFI", built)
        result = run_campaign(inj, "all",
                              CampaignConfig(trials=4, seed=3,
                                             checkpoint_stride=-1))
        injections = result.activated + result.not_activated
        assert inj.executions == 2 + injections

    def test_checkpoints_memoised_across_campaigns(self, built):
        inj = _fresh("LLFI", built)
        run_campaign(inj, "all", CampaignConfig(trials=2, seed=1,
                                                checkpoint_stride=100))
        store = inj.ensure_checkpoints()
        run_campaign(inj, "cmp", CampaignConfig(trials=2, seed=2,
                                                checkpoint_stride=100))
        assert inj.ensure_checkpoints() is store


class TestEngineCheckpointParity:
    """jobs=1 vs jobs=N with checkpoints enabled, on a real workload."""

    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    @pytest.mark.parametrize("tool,category", [("LLFI", "cmp"),
                                               ("PINFI", "arithmetic")])
    def test_jobs_and_checkpoints_compose(self, tool, category):
        spec = InjectorSpec("libquantumm", tool)
        cold = run_parallel_campaign(
            spec, category, CampaignConfig(trials=6, seed=77), jobs=1)
        warm_seq = run_parallel_campaign(
            spec, category,
            CampaignConfig(trials=6, seed=77, checkpoint_stride=-1), jobs=1)
        warm_par = run_parallel_campaign(
            spec, category,
            CampaignConfig(trials=6, seed=77, checkpoint_stride=-1), jobs=2)
        _assert_identical(cold, warm_seq)
        _assert_identical(cold, warm_par)


class TestInstructionSavings:
    def test_resume_skips_most_of_the_prefix(self):
        """On a real workload the default stride must cut the simulated
        instruction count of the injection phase substantially (this is
        the whole point of the subsystem). Deterministic: fixed seeds."""
        from repro.workloads import build
        built = build("libquantumm")
        cold_inj = LLFIInjector(built.module)
        warm_inj = LLFIInjector(built.module)
        config = dict(trials=10, seed=90210)
        cold = run_campaign(cold_inj, "load", CampaignConfig(**config))
        warm = run_campaign(warm_inj, "load",
                            CampaignConfig(checkpoint_stride=-1, **config))
        _assert_identical(cold, warm)
        assert warm_inj.instructions_simulated * 13 < \
            cold_inj.instructions_simulated * 10  # >= 1.3x reduction


class TestCacheKeyExcludesAccelerators:
    def test_cache_key_identical_for_any_stride_and_jobs(self):
        """``checkpoint_stride`` (like ``jobs``) is a pure accelerator:
        results are bit-identical for any value, so it must never become
        part of the disk-cache key — cached results stay valid whatever
        stride produced them."""
        from repro.service import CampaignRequest
        keys = {CampaignRequest.from_config(
                    "w", "LLFI", "all",
                    CampaignConfig(trials=5, seed=1, jobs=j,
                                   checkpoint_stride=s)).key()
                for j in (1, 8) for s in (0, -1, 1000)}
        assert len(keys) == 1
