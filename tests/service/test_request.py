"""Unit tests for :class:`repro.service.CampaignRequest`: the canonical
campaign-cell identity, its cache-key compatibility guarantee, the
request <-> config split, JSON round-trips and the shard partitioner.
"""

import dataclasses

import pytest

from repro.errors import FaultInjectionError
from repro.fi import CampaignConfig, LLFIOptions, PINFIOptions
from repro.service import CampaignRequest, split_shard_indices
from repro.service.request import REQUEST_SCHEMA_VERSION


class TestKeyCompatibility:
    def test_default_key_matches_legacy_format(self):
        """The frozen request spells the v4 key byte-for-byte like the
        old hand-concatenated ``cache_key`` did — existing results
        directories stay valid."""
        req = CampaignRequest(workload="libquantumm", tool="LLFI",
                              category="cmp", trials=5, seed=123)
        assert req.key() == "v4-libquantumm-LLFI-cmp-t5-s123-h20-a10-mbitflip"

    def test_adaptive_and_variant_suffixes(self):
        req = CampaignRequest(workload="w", tool="PINFI", category="all",
                              trials=50, seed=1, ci_margin=0.05,
                              round_size=25, variant="noflagheur")
        key = req.key()
        assert "-ci0.05-r25-" in key
        assert key.endswith("-noflagheur")

    def test_from_config_resolves_the_model(self):
        from repro.fi import MultiBitFlip
        by_spec = CampaignRequest.from_config(
            "w", "LLFI", "all",
            CampaignConfig(trials=5, seed=1, fault_model="multibit-2"))
        by_object = CampaignRequest.from_config(
            "w", "LLFI", "all",
            CampaignConfig(trials=5, seed=1, model=MultiBitFlip(2)))
        assert by_spec == by_object
        assert by_spec.key() == by_object.key()

    def test_request_is_hashable_and_frozen(self):
        req = CampaignRequest(workload="w", tool="LLFI", category="all",
                              llfi_options=LLFIOptions(gep_as_arithmetic=True))
        assert req in {req}
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.trials = 7


class TestConfigSplit:
    def test_identity_comes_from_the_request(self):
        req = CampaignRequest(workload="w", tool="LLFI", category="all",
                              trials=7, seed=3, hang_factor=9,
                              max_attempts_factor=4,
                              fault_model="stuck-at-1", ci_margin=0.1,
                              round_size=5)
        config = req.to_config()
        assert (config.trials, config.seed, config.hang_factor,
                config.max_attempts_factor, config.fault_model,
                config.ci_margin, config.round_size) == \
            (7, 3, 9, 4, "stuck-at-1", 0.1, 5)

    def test_accelerators_come_from_like(self):
        req = CampaignRequest(workload="w", tool="LLFI", category="all",
                              trials=7, seed=3)
        like = CampaignConfig(trials=999, seed=999, jobs=4,
                              checkpoint_stride=-1, batch=8,
                              no_compile=True)
        config = req.to_config(like=like)
        # Accelerators carried over; identity still the request's.
        assert (config.jobs, config.checkpoint_stride, config.batch,
                config.no_compile) == (4, -1, 8, True)
        assert (config.trials, config.seed) == (7, 3)

    def test_round_trip_through_config(self):
        req = CampaignRequest(workload="w", tool="PINFI", category="load",
                              trials=11, seed=2, fault_model="memflip",
                              pinfi_options=PINFIOptions(xmm_low64=False))
        again = CampaignRequest.from_config(
            "w", "PINFI", "load", req.to_config(),
            pinfi_options=req.pinfi_options)
        assert again == req


class TestJsonRoundTrip:
    def test_round_trip(self):
        req = CampaignRequest(workload="w", tool="LLFI", category="cast",
                              trials=9, seed=5, variant="ptrcasts",
                              llfi_options=LLFIOptions(
                                  include_pointer_casts=True))
        data = req.to_json()
        assert data["schema"] == REQUEST_SCHEMA_VERSION
        assert CampaignRequest.from_json(data) == req

    def test_unknown_schema_rejected(self):
        data = CampaignRequest(workload="w", tool="LLFI",
                               category="all").to_json()
        data["schema"] = 99
        with pytest.raises(FaultInjectionError) as err:
            CampaignRequest.from_json(data)
        assert "schema" in str(err.value)


class TestSplitShardIndices:
    def test_partition_covers_exactly(self):
        for n in (1, 2, 7, 16):
            for shards in (1, 2, 3, 5, 16, 40):
                parts = split_shard_indices(range(n), shards)
                flat = [i for part in parts for i in part]
                assert flat == list(range(n))
                assert all(part for part in parts)

    def test_ragged_contiguous_split(self):
        parts = split_shard_indices(range(10), 3)
        assert parts == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_clamps_to_item_count(self):
        assert len(split_shard_indices(range(2), 8)) == 2

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(FaultInjectionError):
            split_shard_indices(range(4), 0)
