"""Differential tests for the fault-model registry (repro.fi.fault).

The contract (ISSUE 9): every registered fault model must behave as one
more *result axis* — like ``ci_margin``, it changes what campaigns
compute (so it is part of the results cache key) while staying fully
orthogonal to the accelerators.  For every model × both tools, campaigns
must be bit-identical — the full ``CampaignResult.to_json
(include_records=True)`` form — across ``no_compile`` on/off,
checkpoints on/off, ``batch`` on/off and ``jobs`` 1/N, exactly like the
block-compilation suite (``tests/vm/test_blockcompile.py``) proves for
the paper's single-bit model.

The suite also pins the registry semantics (spec parsing, parameterized
entries, canonical names), the model algebra (Hypothesis), the
RNG-stream discipline (a stuck-at no-op must consume the trial stream
exactly like an activated fault — anything else silently breaks
jobs=1 ≡ jobs=N), the no-change → NOT_ACTIVATED campaign accounting,
the sweep-cell ≡ standalone-run cache identity, and the schema-6
manifest/model plumbing.
"""

import dataclasses
import glob
import os
import random

import pytest
from hypothesis import given, strategies as st

from repro.backend import compile_module
from repro.errors import FaultInjectionError
from repro.fi import (
    CampaignConfig, InjectorSpec, LLFIInjector, PINFIInjector, run_campaign,
    run_parallel_campaign, shutdown_pool,
)
from repro.fi.fault import (
    FaultModel, IntermittentFlip, MemoryBitFlip, MultiBitFlip, SingleBitFlip,
    StuckAtOne, StuckAtZero, get_fault_model, list_fault_models,
    register_fault_model,
)
from repro.minic import compile_source
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION, manifest_filename, read_manifest,
)

# Same workload shape as tests/vm/test_blockcompile.py: calls, branches,
# doubles and loads, so every category has candidates — and the table is
# read back in a second loop, so memflip corruptions can actually
# propagate to the output.
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

TRIALS = 6
SEED = 90221

#: Canonical spec of every registered model — the full differential axis.
MODELS = list_fault_models()


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


class TestRegistry:
    def test_canonical_specs(self):
        """The six built-in models under their canonical names
        (parameterized entries list their default parameter)."""
        assert set(MODELS) == {"bitflip", "multibit-2", "stuck-at-0",
                               "stuck-at-1", "intermittent-3", "memflip"}

    def test_specs_round_trip(self):
        for spec in MODELS:
            assert get_fault_model(spec).name == spec

    def test_parameterized_specs(self):
        assert get_fault_model("multibit").name == "multibit-2"
        assert get_fault_model("multibit-4").k == 4
        assert get_fault_model("intermittent").repeat == 3
        assert get_fault_model("intermittent-5").repeat == 5

    def test_model_instance_passes_through(self):
        model = MultiBitFlip(3)
        assert get_fault_model(model) is model

    def test_unknown_spec_lists_the_registry(self):
        with pytest.raises(FaultInjectionError) as exc:
            get_fault_model("rowhammer")
        assert "bitflip" in str(exc.value)

    def test_unknown_parameterized_base(self):
        # "stuck-at" is not a registered base, even though "stuck-at-0"
        # and "stuck-at-1" are exact entries.
        with pytest.raises(FaultInjectionError):
            get_fault_model("stuck-at-7")

    def test_parameter_on_fixed_model(self):
        with pytest.raises(FaultInjectionError):
            get_fault_model("bitflip-3")

    def test_duplicate_registration(self):
        with pytest.raises(FaultInjectionError):
            register_fault_model("bitflip", lambda p: SingleBitFlip())

    def test_kind_and_repeat(self):
        """The two hook-protocol selectors: value vs memory corruption,
        transient vs intermittent firing windows."""
        for spec in MODELS:
            model = get_fault_model(spec)
            assert model.kind == ("memory" if spec == "memflip" else "value")
            assert model.repeat == (3 if spec == "intermittent-3" else 1)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MultiBitFlip(0)
        with pytest.raises(ValueError):
            IntermittentFlip(0)


class TestModelAlgebra:
    """Hypothesis pins on the pick_bits/apply algebra every hook relies
    on (positions are drawn once, apply is a pure function of them)."""

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0))
    def test_stuck_at_is_idempotent(self, bits, width, seed):
        bits &= (1 << width) - 1
        for model in (StuckAtZero(), StuckAtOne()):
            positions = model.pick_bits(width, random.Random(seed))
            once = model.apply(bits, positions, width)
            assert model.apply(once, positions, width) == once

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0))
    def test_bitflip_twice_is_identity(self, bits, width, seed):
        bits &= (1 << width) - 1
        model = SingleBitFlip()
        positions = model.pick_bits(width, random.Random(seed))
        assert model.apply(model.apply(bits, positions, width),
                           positions, width) == bits

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0))
    def test_multibit_touches_k_distinct_positions(self, k, width, seed):
        positions = MultiBitFlip(k).pick_bits(width, random.Random(seed))
        expected = 1 if width == 1 else min(k, width)
        assert len(positions) == len(set(positions)) == expected
        assert all(0 <= p < width for p in positions)

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0))
    def test_stuck_at_forces_the_bit(self, bits, width, seed):
        bits &= (1 << width) - 1
        positions = StuckAtZero().pick_bits(width, random.Random(seed))
        assert StuckAtZero().apply(bits, positions, width) \
            & (1 << positions[0]) == 0
        assert StuckAtOne().apply(bits, positions, width) \
            & (1 << positions[0]) != 0

    @given(st.integers(min_value=0, max_value=2 ** 70),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0))
    def test_apply_masks_to_width(self, bits, width, seed):
        for spec in MODELS:
            model = get_fault_model(spec)
            positions = model.pick_bits(width, random.Random(seed))
            assert 0 <= model.apply(bits, positions, width) < (1 << width)


class _CountingRandom(random.Random):
    """Counts logical draws (randrange/sample calls — the granularity
    the stream-consumption contract is written at; raw getrandbits
    counts vary per seed through rejection sampling)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def randrange(self, *args, **kwargs):
        self.calls += 1
        return super().randrange(*args, **kwargs)

    def sample(self, *args, **kwargs):
        self.calls += 1
        return super().sample(*args, **kwargs)


class TestRngStreamDiscipline:
    """The invariant the hooks depend on: for a given (model, width),
    ``pick_bits`` consumes a fixed draw sequence regardless of the value
    being corrupted — stuck-at no-ops are detected *after* the draw, and
    the 1-bit case draws nothing at all.  Violating either would make a
    trial's stream depend on execution state and break jobs parity."""

    @pytest.mark.parametrize("spec", MODELS)
    def test_width_one_draws_nothing(self, spec):
        rng = random.Random(7)
        state = rng.getstate()
        assert get_fault_model(spec).pick_bits(1, rng) == [0]
        assert rng.getstate() == state

    @pytest.mark.parametrize("spec", MODELS)
    def test_draw_count_depends_only_on_width(self, spec):
        model = get_fault_model(spec)
        for width in (8, 32, 64, 128):
            counts = set()
            for seed in range(5):
                rng = _CountingRandom(seed)
                model.pick_bits(width, rng)
                counts.add(rng.calls)
            assert len(counts) == 1, (spec, width, counts)

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_stuck_at_noop_consumes_stream_like_activation(self, tool,
                                                           built):
        """Regression pin: a stuck-at firing whose bit already matched
        (activated=False, value untouched) must leave the trial RNG in
        exactly the state an activated firing leaves it in.  Consuming
        differently would shift every subsequent redraw in the slot."""
        inj = _fresh(tool, built)
        n = inj.dynamic_counts()["arithmetic"]
        by_width = {}
        activations = set()
        for k in range(1, min(n, 40) + 1):
            rng = random.Random(99)
            _, record, activated = inj.run_with_fault(
                "arithmetic", k, rng, model=StuckAtZero())
            activations.add(activated)
            by_width.setdefault(record.width, set()).add(rng.getstate())
        assert activations == {True, False}, \
            "need both no-op and activated firings for a meaningful pin"
        for width, states in by_width.items():
            assert len(states) == 1, \
                f"RNG state after a width-{width} firing depends on the value"


class _NoopModel(FaultModel):
    """Picks a bit but never changes it — every firing is a no-op."""

    name = "noop-test"

    def pick_bits(self, width, rng):
        return [0] if width <= 1 else [rng.randrange(width)]

    def apply(self, bits, positions, width):
        return bits & ((1 << width) - 1)


class TestNoChangeAccounting:
    """No-op firings must surface as NOT_ACTIVATED redraws (the paper
    counts outcome rates over *activated* faults only)."""

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_noop_model_never_activates(self, tool, built):
        config = CampaignConfig(trials=3, seed=SEED, model=_NoopModel())
        result = run_campaign(_fresh(tool, built), "all", config)
        assert result.activated == 0
        assert result.not_activated == 3 * config.max_attempts_factor
        assert result.records == []

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_bitflip_always_activates(self, tool, built):
        """A value bit flip always changes the value, so the paper's
        model never produces a not-activated redraw on value targets."""
        result = run_campaign(
            _fresh(tool, built), "all",
            CampaignConfig(trials=TRIALS, seed=SEED))
        assert result.activated == TRIALS
        assert result.not_activated == 0

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_stuck_at_redraws_on_matching_bits(self, tool, built):
        """With ~half of all bits already 0, stuck-at-0 must hit the
        no-change path and redraw — while other slots still activate."""
        result = run_campaign(
            _fresh(tool, built), "all",
            CampaignConfig(trials=12, seed=SEED, fault_model="stuck-at-0"))
        assert result.not_activated > 0
        assert result.activated > 0

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_memflip_not_activated_without_a_read(self, tool, built):
        """Memory faults on candidates that read no memory — or whose
        corrupted cell is never read again — count as not activated."""
        result = run_campaign(
            _fresh(tool, built), "all",
            CampaignConfig(trials=12, seed=SEED, fault_model="memflip"))
        assert result.not_activated > 0

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_memflip_activates_on_reread_cells(self, tool, built):
        """The workload re-reads the table, so some memflip trials must
        propagate to the output (the axis is not vacuously benign)."""
        result = run_campaign(
            _fresh(tool, built), "load",
            CampaignConfig(trials=12, seed=SEED, fault_model="memflip"))
        assert result.activated > 0


class TestDifferentialMatrix:
    """The tentpole contract: per model × tool, every accelerator is
    bit-identical to the plain in-process campaign."""

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    @pytest.mark.parametrize("model", MODELS)
    def test_accelerators_are_bit_identical(self, model, tool, built):
        config = CampaignConfig(trials=TRIALS, seed=SEED, fault_model=model)
        baseline = _json(run_campaign(_fresh(tool, built), "all", config))
        variants = [
            dict(no_compile=True),
            dict(checkpoint_stride=-1),
            dict(checkpoint_stride=-1, batch=4),
            dict(checkpoint_stride=-1, batch=4, no_compile=True),
        ]
        for fields in variants:
            variant = run_campaign(
                _fresh(tool, built), "all",
                dataclasses.replace(config, **fields))
            assert _json(variant) == baseline, (model, tool, fields)


class TestJobsParity:
    """jobs=1 scalar vs jobs=2 with every accelerator on, per model, on a
    registry workload (workers rebuild injectors from the spec, so the
    fault_model string must survive the pickle round-trip)."""

    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    @pytest.mark.parametrize("model", MODELS)
    def test_jobs_parity(self, model, tool):
        spec = InjectorSpec("libquantumm", tool)
        scalar = run_parallel_campaign(
            spec, "arithmetic",
            CampaignConfig(trials=4, seed=SEED, fault_model=model,
                           no_compile=True),
            jobs=1)
        parallel = run_parallel_campaign(
            spec, "arithmetic",
            CampaignConfig(trials=4, seed=SEED, fault_model=model,
                           checkpoint_stride=-1, batch=4),
            jobs=2)
        assert _json(scalar) == _json(parallel)


class TestCacheKeyAndConfig:
    def test_default_key_is_byte_identical_to_pre_registry(self):
        """Existing cached bitflip results must stay valid: the default
        key spells the model exactly as every pre-registry key did."""
        from repro.service import CampaignRequest
        assert CampaignRequest.from_config(
            "w", "LLFI", "all", CampaignConfig(trials=5, seed=1)).key() == \
            "v4-w-LLFI-all-t5-s1-h20-a10-mbitflip"

    def test_fault_model_is_a_key_component(self):
        from repro.service import CampaignRequest
        keys = {CampaignRequest.from_config(
                    "w", "LLFI", "all",
                    CampaignConfig(trials=5, seed=1, fault_model=m)).key()
                for m in MODELS}
        assert len(keys) == len(MODELS)

    def test_model_object_and_spec_share_a_key(self):
        from repro.service import CampaignRequest
        by_spec = CampaignRequest.from_config(
            "w", "LLFI", "all",
            CampaignConfig(trials=5, seed=1, fault_model="multibit-2")).key()
        by_object = CampaignRequest.from_config(
            "w", "LLFI", "all",
            CampaignConfig(trials=5, seed=1, model=MultiBitFlip(2))).key()
        assert by_spec == by_object

    def test_accelerators_stay_out_of_the_key(self):
        from repro.service import CampaignRequest
        keys = {CampaignRequest.from_config(
                    "w", "PINFI", "load",
                    CampaignConfig(trials=5, seed=1, fault_model="memflip",
                                   **fields)).key()
                for fields in (dict(), dict(no_compile=True), dict(jobs=4),
                               dict(checkpoint_stride=-1), dict(batch=4))}
        assert len(keys) == 1

    def test_cli_flag_reaches_the_config(self):
        from repro.experiments.common import (
            config_from_args, experiment_argparser,
        )
        parser = experiment_argparser("t")
        assert config_from_args(
            parser.parse_args([])).fault_model == "bitflip"
        config = config_from_args(
            parser.parse_args(["--fault-model", "stuck-at-1"]))
        assert config.fault_model == "stuck-at-1"
        assert config.resolved_model().name == "stuck-at-1"

    def test_model_object_overrides_the_spec(self):
        model = MultiBitFlip(4)
        config = CampaignConfig(fault_model="bitflip", model=model)
        assert config.resolved_model() is model


class TestSweep:
    def test_expand_fault_models(self):
        from repro.experiments.sweep import expand_fault_models
        assert expand_fault_models("all") == MODELS
        assert expand_fault_models("bitflip, stuck-at-0") == \
            ["bitflip", "stuck-at-0"]
        assert expand_fault_models("multibit") == ["multibit-2"]
        with pytest.raises(FaultInjectionError):
            expand_fault_models("bitflip,rowhammer")

    def test_sweep_cell_matches_standalone_run(self, tmp_path):
        """A sweep cell and a standalone run with the same --fault-model
        share one cache entry — bit-identical by construction."""
        from repro.experiments.common import campaign_cell
        from repro.experiments.sweep import collect
        config = CampaignConfig(trials=4, seed=SEED)
        cells = collect(["libquantumm"], ["arithmetic"], ["stuck-at-1"],
                        config, str(tmp_path))
        entries = os.listdir(tmp_path)
        standalone = campaign_cell(
            "libquantumm", "LLFI", "arithmetic",
            dataclasses.replace(config, fault_model="stuck-at-1"),
            store=str(tmp_path))
        # Cache entries hold the record-free ``to_json`` form; the reload
        # must match the live cell in every serialized field.
        assert standalone.to_json() == \
            cells[("stuck-at-1", "libquantumm", "LLFI",
                   "arithmetic")].to_json()
        assert sorted(os.listdir(tmp_path)) == sorted(entries)


class TestManifest:
    def test_filename_tags_non_default_models_only(self):
        default = manifest_filename("w", "LLFI", "all", 5, 1, 0, 0.0)
        assert default == manifest_filename("w", "LLFI", "all", 5, 1, 0, 0.0,
                                            model="bitflip")
        tagged = manifest_filename("w", "LLFI", "all", 5, 1, 0, 0.0,
                                   model="memflip")
        assert tagged != default and "-mmemflip" in tagged

    def test_manifest_records_the_model(self, built, tmp_path):
        inj = _fresh("LLFI", built)
        run_campaign(inj, "all",
                     CampaignConfig(trials=TRIALS, seed=SEED,
                                    fault_model="multibit-3",
                                    trace_dir=str(tmp_path)))
        path = glob.glob(os.path.join(str(tmp_path), "*.jsonl"))[0]
        assert "-mmultibit-3" in os.path.basename(path)
        manifest = read_manifest(path)
        assert manifest.header["schema"] == MANIFEST_SCHEMA_VERSION == 6
        assert manifest.header["model"] == "multibit-3"
        # The three-term accounting identity holds under every model.
        assert manifest.total_instructions() == inj.instructions_simulated
