"""Tests for the experiment modules (table/figure generators)."""

import pytest

from repro.errors import FaultInjectionError
from repro.experiments import ablation, table1, table2
from repro.experiments.report import format_bar, format_table, stacked_bar
from repro.fi import CampaignConfig
from repro.workloads import Workload
from repro.workloads.registry import temporary_workload

#: A program with no int<->fp conversion: LLFI's cast category is empty.
CASTLESS_SRC = """
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 6; i++) s = s + i * 3;
    print_int(s);
    return 0;
}
"""


class TestReportFormatting:
    def test_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "yyyy" in text

    def test_table_with_title(self):
        text = format_table(["h"], [["v"]], title="My Table")
        assert text.startswith("My Table")

    def test_bar_scaling(self):
        assert format_bar(0.5, scale=10) == "#####"
        assert format_bar(0.0) == ""
        assert len(format_bar(2.0, scale=10)) == 10  # clamped

    def test_stacked_bar(self):
        bar = stacked_bar([0.5, 0.25, 0.25], "#+.", scale=20)
        assert bar.count("#") == 10
        assert bar.count("+") == 5
        assert len(bar) <= 20


class TestTable2:
    def test_contains_all_benchmarks(self):
        text = table2.generate()
        for name in ("bzip2m", "mcfm", "hmmerm", "libquantumm", "oceanm",
                     "raytracem"):
            assert name in text
        assert "SPLASH-2" in text and "SPEC CPU2006" in text


class TestTable1:
    def test_measures_lowering(self, built_workloads):
        stats = table1.analyze("libquantumm")
        assert stats["ir_gep"] > 0
        assert stats["push_pop"] > 0
        assert stats.get("ir_phi", 0) > 0

    def test_generate_lists_constructs(self, built_workloads):
        text = table1.generate(["libquantumm"])
        assert "GEP lowering" in text
        assert "push/pop" in text


class TestTable4Generation:
    def test_shares_sum_sanely(self, built_workloads):
        from repro.experiments import table4

        data = table4.collect(["libquantumm"])
        for tool in ("LLFI", "PINFI"):
            counts = data["libquantumm"][tool]
            subtotal = sum(counts[c] for c in
                           ("arithmetic", "cast", "cmp", "load"))
            assert subtotal <= counts["all"]

    def test_table_iv_headline_shapes(self, built_workloads):
        """The paper's §VI-B findings on the workloads where they are
        cleanest: LLFI sees more instructions overall, fewer arithmetic,
        more loads; cmp counts are nearly identical."""
        from repro.experiments import table4

        data = table4.collect(["libquantumm"])
        llfi = data["libquantumm"]["LLFI"]
        pinfi = data["libquantumm"]["PINFI"]
        assert llfi["all"] > pinfi["all"]
        assert llfi["load"] > pinfi["load"]
        assert llfi["cmp"] == pytest.approx(pinfi["cmp"], rel=0.05)
        llfi_share = llfi["arithmetic"] / llfi["all"]
        pinfi_share = pinfi["arithmetic"] / pinfi["all"]
        assert llfi_share < pinfi_share


class TestCastAblation:
    def test_program_without_casts_reads_na(self, tmp_path):
        workload = Workload(name="castless", mirrors="-", suite="test",
                            description="integers only",
                            source=CASTLESS_SRC, input_description="none")
        with temporary_workload(workload):
            text = ablation.generate_cast_ablation(
                ["castless"], CampaignConfig(trials=2, seed=1),
                store=str(tmp_path))
        row = next(line for line in text.splitlines() if "castless" in line)
        assert [cell.strip() for cell in row.split("|")[1:-1]] == \
            ["castless", "n/a (no casts)", "n/a"]

    def test_malformed_config_raises(self, tmp_path):
        # libquantumm has dynamic casts, so this is no "n/a" row.
        with pytest.raises(FaultInjectionError):
            ablation.generate_cast_ablation(
                ["libquantumm"], CampaignConfig(trials=0),
                store=str(tmp_path))


class TestCampaignCell:
    def test_cache_roundtrip(self, tmp_path, built_workloads):
        from repro.experiments.common import campaign_cell
        from repro.service import DirectoryStore

        store = DirectoryStore(str(tmp_path))
        config = CampaignConfig(trials=5, seed=123)
        r1 = campaign_cell("libquantumm", "LLFI", "cmp", config, store)
        r2 = campaign_cell("libquantumm", "LLFI", "cmp", config, store)
        assert r2.counts == r1.counts
        assert (tmp_path /
                "v4-libquantumm-LLFI-cmp-t5-s123-h20-a10-mbitflip.json"
                ).exists()

    def test_cache_key_covers_all_result_affecting_fields(self):
        """Regression: hang_factor, max_attempts_factor and the fault model
        used to be missing from the key, silently returning stale results."""
        from repro.fi import MultiBitFlip
        from repro.service import CampaignRequest

        def key(config):
            return CampaignRequest.from_config(
                "libquantumm", "LLFI", "cmp", config).key()

        base = CampaignConfig(trials=5, seed=123)
        assert key(base).startswith("v4-")
        variants = [
            CampaignConfig(trials=5, seed=123, hang_factor=7),
            CampaignConfig(trials=5, seed=123, max_attempts_factor=3),
            CampaignConfig(trials=5, seed=123, model=MultiBitFlip(2)),
            CampaignConfig(trials=6, seed=123),
            CampaignConfig(trials=5, seed=124),
            # Early stopping changes how many slots run, so the margin —
            # and the round size that places its stop boundaries — are
            # result-affecting too.
            CampaignConfig(trials=5, seed=123, ci_margin=0.05),
            CampaignConfig(trials=5, seed=123, ci_margin=0.03),
            CampaignConfig(trials=5, seed=123, ci_margin=0.05,
                           round_size=25),
        ]
        keys = [key(c) for c in variants]
        assert len(set(keys + [key(base)])) == len(variants) + 1

    def test_cache_key_ignores_jobs(self):
        """jobs=1 and jobs=N are bit-identical by construction, so they
        must share one cache entry."""
        from repro.service import CampaignRequest

        a = CampaignRequest.from_config(
            "libquantumm", "LLFI", "cmp",
            CampaignConfig(trials=5, seed=123, jobs=1)).key()
        b = CampaignRequest.from_config(
            "libquantumm", "LLFI", "cmp",
            CampaignConfig(trials=5, seed=123, jobs=4)).key()
        assert a == b

    def test_cache_key_ignores_tracing(self):
        """Tracing is inert, so traced and untraced runs must share one
        cache entry."""
        from repro.service import CampaignRequest

        a = CampaignRequest.from_config(
            "libquantumm", "LLFI", "cmp",
            CampaignConfig(trials=5, seed=123)).key()
        b = CampaignRequest.from_config(
            "libquantumm", "LLFI", "cmp",
            CampaignConfig(trials=5, seed=123, trace=True,
                           trace_dir="/tmp/obs")).key()
        assert a == b

    def test_unknown_schema_rejected(self, tmp_path):
        """A cache entry from a future (or pre-schema) build is rejected
        with a message naming the offending file."""
        import json

        import pytest

        from repro.errors import FaultInjectionError
        from repro.experiments.common import campaign_cell
        from repro.service import CampaignRequest, DirectoryStore

        config = CampaignConfig(trials=5, seed=123)
        key = CampaignRequest.from_config(
            "libquantumm", "LLFI", "cmp", config).key()
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"tool": "LLFI", "schema": 99}))
        with pytest.raises(FaultInjectionError) as err:
            campaign_cell("libquantumm", "LLFI", "cmp", config,
                          DirectoryStore(str(tmp_path)))
        assert "schema" in str(err.value) and str(path) in str(err.value)
