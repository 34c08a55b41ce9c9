"""Tracing is inert: campaign results are bit-identical with observability
on or off, in-process or fanned out over workers — and the manifest's
accounting adds up to the injector's own totals."""

import os

import pytest

from repro.backend import compile_module
from repro.fi import (
    CampaignConfig, InjectorSpec, LLFIInjector, PINFIInjector, run_campaign,
    run_parallel_campaign, shutdown_pool,
)
from repro.minic import compile_source
from repro.obs import get_recorder, NULL_RECORDER
from repro.obs.manifest import read_manifest
from tests.conftest import PAPER_SEED

SRC = """
int acc[8];
int main() {
    int i;
    for (i = 0; i < 8; i++) acc[i] = (i * 11 + 3) % 17;
    int s = 0;
    for (i = 0; i < 8; i++) s += acc[i] * acc[i];
    print_int(s);
    return 0;
}
"""


def fresh_injectors():
    module = compile_source(SRC)
    program = compile_module(module)
    return LLFIInjector(module), PINFIInjector(program)


def result_key(result):
    """Everything the campaign produced, bit-for-bit."""
    return result.to_json(include_records=True)


class TestTraceParity:
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_trace_on_off_bit_identical(self, tool):
        llfi, pinfi = fresh_injectors()
        injector = llfi if tool == "LLFI" else pinfi
        plain = run_campaign(injector, "all",
                             CampaignConfig(trials=15, seed=5))
        traced = run_campaign(injector, "all",
                              CampaignConfig(trials=15, seed=5, trace=True))
        assert result_key(plain) == result_key(traced)

    def test_trace_with_checkpoints_bit_identical(self):
        llfi, _ = fresh_injectors()
        plain = run_campaign(llfi, "all", CampaignConfig(
            trials=15, seed=5, checkpoint_stride=-1))
        traced = run_campaign(llfi, "all", CampaignConfig(
            trials=15, seed=5, checkpoint_stride=-1, trace=True))
        assert result_key(plain) == result_key(traced)

    def test_recorder_restored_after_campaign(self):
        llfi, _ = fresh_injectors()
        run_campaign(llfi, "all", CampaignConfig(trials=5, seed=5,
                                                 trace=True))
        assert get_recorder() is NULL_RECORDER

    def test_traced_slots_carry_stats(self):
        llfi, _ = fresh_injectors()
        traced = run_campaign(llfi, "all",
                              CampaignConfig(trials=10, seed=5, trace=True))
        assert traced.activated == 10
        # Stats live on slots, not results — prove via the manifest below.


class TestManifestAccounting:
    def test_manifest_matches_injector_totals(self, tmp_path):
        """The accounting identity: prep + per-trial instructions equals
        the fresh injector's instructions_simulated counter."""
        llfi, _ = fresh_injectors()
        config = CampaignConfig(trials=12, seed=3, checkpoint_stride=-1,
                                trace_dir=str(tmp_path))
        result = run_campaign(llfi, "all", config)
        files = os.listdir(tmp_path)
        assert len(files) == 1
        manifest = read_manifest(str(tmp_path / files[0]))
        assert manifest.total_instructions() == llfi.instructions_simulated
        assert len(manifest.trials) == 12
        assert manifest.summary["activated"] == result.activated
        assert manifest.summary["not_activated"] == result.not_activated
        assert manifest.summary["counts"] == {
            o.value: n for o, n in result.counts.items()}
        assert manifest.setup["golden_instructions"] == \
            result.golden_instructions
        assert manifest.setup["dynamic_candidates"] == \
            result.dynamic_candidates
        runs = sum(t["runs"] for t in manifest.trials)
        counters = manifest.summary["counters"]
        assert counters["injector.LLFI.runs"] == \
            runs + manifest.setup["prep_executions"]
        assert counters["vm.ir.runs"] == counters["injector.LLFI.runs"]

    def test_checkpoint_stats_recorded(self, tmp_path):
        llfi, _ = fresh_injectors()
        config = CampaignConfig(trials=12, seed=3, checkpoint_stride=-1,
                                trace_dir=str(tmp_path))
        run_campaign(llfi, "all", config)
        manifest = read_manifest(str(tmp_path / os.listdir(tmp_path)[0]))
        assert manifest.setup["checkpoints"] > 0
        assert manifest.total_skipped() > 0
        assert manifest.summary["ckpt_restores"] == \
            sum(t["ckpt_restores"] for t in manifest.trials)


class TestParallelParity:
    """Engine-level parity on a registry workload (workers rebuild from
    the spec); jobs=1 vs jobs=2 vs traced must all be bit-identical."""

    def teardown_method(self):
        shutdown_pool()

    def test_jobs_and_tracing_bit_identical(self, tmp_path,
                                            built_workloads):
        spec = InjectorSpec("libquantumm", "LLFI")
        config = CampaignConfig(trials=12, seed=9, checkpoint_stride=-1)
        sequential = run_parallel_campaign(spec, "cmp", config, jobs=1)
        parallel = run_parallel_campaign(spec, "cmp", config, jobs=2)
        traced = run_parallel_campaign(
            spec, "cmp", CampaignConfig(trials=12, seed=9,
                                        checkpoint_stride=-1,
                                        trace_dir=str(tmp_path)),
            jobs=2)
        assert result_key(sequential) == result_key(parallel)
        assert result_key(sequential) == result_key(traced)

    def test_cold_cell_jobs_and_tracing_bit_identical(self,
                                                      built_workloads):
        """The paper seed's 24-trial LLFI ``cmp`` cell on the cold path:
        jobs=1, traced jobs=1 and jobs=2 return the same result."""
        spec = InjectorSpec("libquantumm", "LLFI")
        config = dict(trials=24, seed=PAPER_SEED, checkpoint_stride=0)
        sequential = run_parallel_campaign(
            spec, "cmp", CampaignConfig(**config), jobs=1)
        traced = run_parallel_campaign(
            spec, "cmp", CampaignConfig(trace=True, **config), jobs=1)
        parallel = run_parallel_campaign(
            spec, "cmp", CampaignConfig(**config), jobs=2)
        assert result_key(sequential) == result_key(traced)
        assert result_key(sequential) == result_key(parallel)

    def test_parallel_manifest_merged_deterministically(self, tmp_path,
                                                        built_workloads):
        spec = InjectorSpec("libquantumm", "LLFI")
        config = CampaignConfig(trials=12, seed=9,
                                trace_dir=str(tmp_path), jobs=2)
        run_parallel_campaign(spec, "cmp", config)
        manifest = read_manifest(str(tmp_path / os.listdir(tmp_path)[0]))
        assert manifest.header["workload"] == "libquantumm"
        assert [t["index"] for t in manifest.trials] == list(range(12))
        assert [c["chunk"] for c in manifest.chunks] == \
            list(range(len(manifest.chunks)))
        assert manifest.chunks, "parallel campaign must record chunks"
        covered = sorted(i for c in manifest.chunks for i in c["slots"])
        assert covered == list(range(12))
        for chunk in manifest.chunks:
            assert chunk["worker"] > 0
            assert chunk["wall_s"] >= 0
