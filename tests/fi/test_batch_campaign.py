"""Differential tests for batched campaign execution.

The contract (ISSUE 7): campaigns run with ``batch != 0`` must be
*bit-identical* to scalar campaigns — the full
``CampaignResult.to_json(include_records=True)`` form — for both tools,
with checkpoints on or off, at any job count, with early stopping on or
off.  ``batch=0`` must be a strict no-op: the scalar code path runs,
untouched.  Batching is a pure accelerator and never part of the results
cache key.
"""

import glob
import json
import os

import pytest

from repro.backend import compile_module
from repro.fi import (
    CampaignConfig, InjectorSpec, LLFIInjector, PINFIInjector, run_campaign,
    run_parallel_campaign, shutdown_pool,
)
from repro.minic import compile_source
from repro.obs.manifest import read_manifest
from repro.vm.batch import DEFAULT_BATCH_LANES

# Same shape as tests/vm/test_batch.py's workload: calls + branches so
# LLFI "all" exercises the detach path inside real campaigns.
SRC = """
double table[16];
long acc(long s, double v) { return s + (long)(v * 4.0); }
int main() {
    int i;
    long s = 0;
    for (i = 0; i < 16; i++) {
        table[i] = (double)(i * 3 + 1) * 0.25;
        s = acc(s, table[i]);
    }
    double d = 0.0;
    for (i = 0; i < 16; i++) { if (table[i] > 1.0) d = d + table[i]; }
    print_long(s); print_char(10);
    print_double(d);
    return (int)s % 31;
}
"""

TRIALS = 8
SEED = 71404


@pytest.fixture(scope="module")
def built():
    module = compile_source(SRC)
    program = compile_module(module)
    return module, program


def _fresh(tool, built):
    module, program = built
    return LLFIInjector(module) if tool == "LLFI" else PINFIInjector(program)


def _json(result):
    return result.to_json(include_records=True)


class TestCampaignBitIdentity:
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    @pytest.mark.parametrize("stride", [0, -1])
    def test_batched_equals_scalar(self, tool, stride, built):
        scalar = run_campaign(
            _fresh(tool, built), "all",
            CampaignConfig(trials=TRIALS, seed=SEED,
                           checkpoint_stride=stride))
        inj = _fresh(tool, built)
        batched = run_campaign(
            inj, "all",
            CampaignConfig(trials=TRIALS, seed=SEED,
                           checkpoint_stride=stride, batch=4))
        assert _json(scalar) == _json(batched)
        assert inj.batch_sweeps > 0
        # Every slot's first attempt went through the batch path (forked
        # or detached) — run_trial_slot never re-ran attempt 0.
        assert inj.batch_lanes + inj.batch_detached == TRIALS

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_batched_equals_scalar_with_early_stopping(self, tool, built):
        config = dict(trials=TRIALS, seed=SEED + 1, ci_margin=0.45,
                      round_size=4)
        scalar = run_campaign(_fresh(tool, built), "arithmetic",
                              CampaignConfig(**config))
        batched = run_campaign(_fresh(tool, built), "arithmetic",
                               CampaignConfig(batch=3, **config))
        assert _json(scalar) == _json(batched)

    def test_lane_size_does_not_change_results(self, built):
        results = [
            _json(run_campaign(_fresh("LLFI", built), "all",
                               CampaignConfig(trials=TRIALS, seed=SEED + 2,
                                              checkpoint_stride=-1,
                                              batch=b)))
            for b in (0, 1, 2, -1)]
        for other in results[1:]:
            assert results[0] == other

    def test_batch_zero_is_a_strict_noop(self, built):
        """batch=0 must leave the scalar path untouched: no sweeps, no
        lanes, and no batch-only state — no full-size pristine image and
        no snapshot decodes (scalar trials build their memory from
        spans)."""
        inj = _fresh("PINFI", built)
        run_campaign(inj, "all",
                     CampaignConfig(trials=TRIALS, seed=SEED, batch=0,
                                    checkpoint_stride=-1))
        assert inj.batch_sweeps == 0
        assert inj.batch_lanes == 0
        assert inj.batch_detached == 0
        assert inj._pristine is None
        store = inj.ensure_checkpoints()
        assert store.decode_count == 0 and store.decoded_restores == 0

    def test_resolved_batch(self):
        assert CampaignConfig(batch=0).resolved_batch() == 0
        assert CampaignConfig(batch=5).resolved_batch() == 5
        assert CampaignConfig(batch=-1).resolved_batch() == \
            DEFAULT_BATCH_LANES


class TestEngineBatchParity:
    """jobs=1 scalar vs jobs=2 batched on a registry workload (batch
    groups are atomic per chunk; worker processes run whole sweeps)."""

    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_jobs_and_batching_compose(self, tool):
        spec = InjectorSpec("libquantumm", tool)
        scalar = run_parallel_campaign(
            spec, "arithmetic",
            CampaignConfig(trials=6, seed=SEED, checkpoint_stride=-1),
            jobs=1)
        batched = run_parallel_campaign(
            spec, "arithmetic",
            CampaignConfig(trials=6, seed=SEED, checkpoint_stride=-1,
                           batch=3),
            jobs=2)
        assert _json(scalar) == _json(batched)


class TestCacheKeyExcludesBatching:
    def test_cache_key_identical_for_any_batch_and_cache(self):
        """``batch`` is a pure accelerator (the differential tests above
        prove bit-identity), so — like ``jobs`` and ``checkpoint_stride``
        — it must never enter the disk-cache key."""
        from repro.service import CampaignRequest
        keys = {CampaignRequest.from_config(
                    "w", "LLFI", "all",
                    CampaignConfig(trials=5, seed=1, batch=b)).key()
                for b in (0, -1, 4, 32)}
        assert len(keys) == 1

    def test_cli_flags_reach_the_config(self):
        from repro.experiments.common import (
            config_from_args, experiment_argparser,
        )
        args = experiment_argparser("t").parse_args(["--batch", "-1"])
        config = config_from_args(args)
        assert config.batch == -1
        assert config.resolved_batch() == DEFAULT_BATCH_LANES


class TestBatchManifests:
    def test_manifest_records_batch_groups(self, built, tmp_path):
        inj = _fresh("PINFI", built)
        run_campaign(inj, "all",
                     CampaignConfig(trials=TRIALS, seed=SEED,
                                    checkpoint_stride=-1, batch=3,
                                    trace_dir=str(tmp_path)))
        paths = glob.glob(os.path.join(str(tmp_path), "*.jsonl"))
        assert len(paths) == 1
        manifest = read_manifest(paths[0])
        assert manifest.header["batch"] == 3
        assert manifest.batches, "no batch records written"
        for b in manifest.batches:
            assert b["lanes"] == b["forked"] + b["detached"]
            assert b["lanes"] <= 3
        s = manifest.summary
        assert s["batch_groups"] == len(manifest.batches)
        assert s["batch_shared_instructions"] == \
            manifest.total_batch_shared() > 0
        assert s["batch_lanes"] + s["batch_detached"] == TRIALS

    def test_pool_groups_stay_per_round_ordinals(self, tmp_path):
        """Under the pool, batch groups form per worker chunk; the parent
        renumbers them so ``group`` is still a per-round ordinal, and the
        chunk records list those ids in order."""
        run_parallel_campaign(
            InjectorSpec("libquantumm", "PINFI"), "all",
            CampaignConfig(trials=20, seed=SEED, checkpoint_stride=-1,
                           batch=3, ci_margin=0.01, round_size=10, jobs=2,
                           trace_dir=str(tmp_path)))
        manifest = read_manifest(
            glob.glob(os.path.join(str(tmp_path), "*.jsonl"))[0])
        assert len(manifest.rounds) == 2 and manifest.chunks
        groups = [(b["round"], b["group"]) for b in manifest.lines()
                  if b["kind"] == "batch"]
        for round_no in (0, 1):
            ids = [g for r, g in groups if r == round_no]
            assert ids == list(range(len(ids))) and ids
        assert [g for c in manifest.chunks for g in c["batches"]] == \
            [g for _, g in groups]

    def test_accounting_identity_with_batching(self, built, tmp_path):
        """prep + per-trial instructions + shared sweep instructions ==
        the fresh injector's instructions_simulated."""
        inj = _fresh("LLFI", built)
        run_campaign(inj, "all",
                     CampaignConfig(trials=TRIALS, seed=SEED,
                                    checkpoint_stride=-1, batch=4,
                                    trace_dir=str(tmp_path)))
        manifest = read_manifest(
            glob.glob(os.path.join(str(tmp_path), "*.jsonl"))[0])
        assert manifest.total_instructions() == inj.instructions_simulated

    def test_unknown_record_kinds_are_preserved(self, built, tmp_path):
        """Forward compatibility: a newer writer's record kinds survive a
        read-modify-write round trip instead of failing the read."""
        inj = _fresh("PINFI", built)
        run_campaign(inj, "arithmetic",
                     CampaignConfig(trials=2, seed=SEED, batch=2,
                                    trace_dir=str(tmp_path)))
        path = glob.glob(os.path.join(str(tmp_path), "*.jsonl"))[0]
        extra = {"kind": "gpu_lane", "round": 0, "occupancy": 0.5}
        with open(path) as f:
            lines = f.read().splitlines()
        lines.insert(2, json.dumps(extra))
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        manifest = read_manifest(path)
        assert manifest.extras == [extra]
        assert any(line == extra for line in manifest.lines())
