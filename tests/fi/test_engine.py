"""Tests for the parallel campaign engine and the deterministic per-trial
RNG streams (regression coverage for the old ``hash()``-based seed
derivation, which depended on the interpreter's string-hash salt)."""

import json
import os
import subprocess
import sys

import pytest

from repro.backend import compile_module
from repro.fi import (
    CampaignConfig, InjectorSpec, LLFIInjector, derive_trial_seed,
    run_campaign, run_parallel_campaign, shutdown_pool, trial_stream,
)
from repro.fi.engine import _chunk_list, injector_for_spec
from repro.minic import compile_source

SRC = """
int acc[8];
int main() {
    int i;
    for (i = 0; i < 8; i++) acc[i] = (i * 7 + 5) % 13;
    int s = 0;
    for (i = 0; i < 8; i++) s += acc[i] * acc[i];
    print_int(s);
    return 0;
}
"""


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_pool()


@pytest.fixture(scope="module")
def llfi():
    module = compile_source(SRC)
    compile_module(module)
    return LLFIInjector(module)


class TestTrialStreams:
    def test_derivation_is_pinned(self):
        # These exact values are the determinism contract: campaign results
        # derived from them must never change across releases or platforms.
        assert derive_trial_seed(20140623, "LLFI", "all", 0) == (
            83584335789044972988580868873051833849901207759042666008524713551927394574597)
        assert derive_trial_seed(20140623, "PINFI", "cmp", 3) == (
            13296655003650228223281078453450230800384946122054212018781833687190017233731)

    def test_streams_reproducible_and_independent(self):
        a = trial_stream(7, "LLFI", "all", 0)
        b = trial_stream(7, "LLFI", "all", 0)
        c = trial_stream(7, "LLFI", "all", 1)
        seq_a = [a.randint(1, 10**9) for _ in range(5)]
        seq_b = [b.randint(1, 10**9) for _ in range(5)]
        seq_c = [c.randint(1, 10**9) for _ in range(5)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_distinct_per_tool_and_category(self):
        seeds = {derive_trial_seed(1, tool, cat, 0)
                 for tool in ("LLFI", "PINFI")
                 for cat in ("all", "cmp")}
        assert len(seeds) == 4


class TestChunking:
    def test_chunks_partition_indices(self):
        for trials, jobs in [(1, 1), (7, 2), (100, 4), (3, 8)]:
            # Any pre-ordered index list (e.g. bucket order) is cut into
            # contiguous chunks in that order.
            ordered = list(reversed(range(trials)))
            chunks = _chunk_list(ordered, jobs)
            flat = [i for chunk in chunks for i in chunk]
            assert flat == ordered
            assert all(chunks)  # no empty chunks


class TestParallelEngine:
    def test_jobs1_and_jobs2_bit_identical(self):
        spec = InjectorSpec("libquantumm", "LLFI")
        config = CampaignConfig(trials=8, seed=411)
        seq = run_parallel_campaign(spec, "cmp", config, jobs=1)
        par = run_parallel_campaign(spec, "cmp", config, jobs=2)
        assert seq.counts == par.counts
        assert seq.not_activated == par.not_activated
        assert [t.k for t in seq.records] == [t.k for t in par.records]
        assert [t.record.bit_positions for t in seq.records] == \
            [t.record.bit_positions for t in par.records]

    def test_engine_matches_run_campaign(self):
        spec = InjectorSpec("libquantumm", "LLFI")
        config = CampaignConfig(trials=6, seed=42)
        direct = run_campaign(injector_for_spec(spec), "cmp", config)
        engine = run_parallel_campaign(spec, "cmp", config, jobs=2)
        assert direct.counts == engine.counts
        assert direct.not_activated == engine.not_activated
        assert [t.k for t in direct.records] == [t.k for t in engine.records]

    def test_pinfi_parallel_identical(self):
        spec = InjectorSpec("libquantumm", "PINFI")
        config = CampaignConfig(trials=5, seed=11)
        seq = run_parallel_campaign(spec, "arithmetic", config, jobs=1)
        par = run_parallel_campaign(spec, "arithmetic", config, jobs=2)
        assert seq.counts == par.counts
        assert [t.k for t in seq.records] == [t.k for t in par.records]

    def test_spec_cache_returns_same_injector(self):
        a = injector_for_spec(InjectorSpec("libquantumm", "LLFI"))
        b = injector_for_spec(InjectorSpec("libquantumm", "LLFI"))
        assert a is b

    def test_config_jobs_used_when_jobs_arg_omitted(self):
        spec = InjectorSpec("libquantumm", "LLFI")
        config = CampaignConfig(trials=4, seed=5, jobs=2)
        par = run_parallel_campaign(spec, "cmp", config)
        seq = run_parallel_campaign(spec, "cmp",
                                    CampaignConfig(trials=4, seed=5, jobs=1))
        assert par.counts == seq.counts


class TestOnePassProfiling:
    def test_golden_and_profile_shared_across_campaigns(self, llfi):
        """Golden + profiling execute once per injector, not once per
        (tool, category) cell: total whole-program runs are 2 + injections."""
        base = llfi.executions
        r1 = run_campaign(llfi, "all", CampaignConfig(trials=4, seed=1))
        r2 = run_campaign(llfi, "cmp", CampaignConfig(trials=4, seed=2))
        r3 = run_campaign(llfi, "all", CampaignConfig(trials=3, seed=3))
        injections = sum(r.activated + r.not_activated for r in (r1, r2, r3))
        assert llfi.executions == base + 2 + injections

    def test_dynamic_counts_match_per_category_runs(self, llfi):
        counts = llfi.dynamic_counts()
        for category in ("all", "cmp", "arithmetic"):
            assert counts[category] == \
                llfi.count_dynamic_candidates(category)


class TestCrossInterpreterReproducibility:
    """Regression for the ``config.seed ^ hash((tool, category))``
    derivation: results must agree across interpreter invocations with
    different string-hash salts."""

    SCRIPT = """
import json, sys
from repro.backend import compile_module
from repro.fi import CampaignConfig, LLFIInjector, run_campaign
from repro.minic import compile_source

module = compile_source({src!r})
compile_module(module)
result = run_campaign(LLFIInjector(module), "all",
                      CampaignConfig(trials=6, seed=20140623))
print(json.dumps({{
    "counts": {{o.value: n for o, n in result.counts.items()}},
    "not_activated": result.not_activated,
    "ks": [t.k for t in result.records],
    "bits": [t.record.bit_positions for t in result.records],
}}, sort_keys=True))
"""

    def _run(self, hash_seed: str) -> dict:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_root) + os.pathsep + \
            env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(src=SRC)],
            env=env, capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    def test_two_invocations_with_different_hash_salts_agree(self):
        assert self._run("1") == self._run("31337")
