"""Smoke tests for the manifest report CLI (python -m repro.obs.report)."""

import json

from repro.obs.manifest import write_manifest
from repro.obs.report import main, summarize, validate_stop_claims

from tests.obs.test_manifest import adaptive_manifest, sample_manifest


class TestSummarize:
    def test_numbers(self):
        summary = summarize(sample_manifest())
        assert summary["cell"] == "w/LLFI/cmp"
        assert summary["injection_runs"] == 3
        assert summary["trial_instructions"] == 150
        assert summary["total_instructions"] == 350
        assert summary["ckpt_restores"] == 1
        # (150 + 60 skipped) / 150 simulated
        assert summary["ckpt_reduction"] == (150 + 60) / 150
        assert set(summary["workers"]) == {"10", "11"}
        assert summary["worker_balance"] == 0.3 / 0.6

    def test_reduction_counts_converged_tails(self):
        # Runs that converged onto the golden run skipped its tail too:
        # without checkpoints the same trials would have simulated it.
        manifest = sample_manifest()
        manifest.summary["counters"] = {
            "injector.LLFI.converged": 1,
            "injector.LLFI.converged_instructions": 90,
            "injector.PINFI.converged_instructions": 1000}
        summary = summarize(manifest)
        assert summary["converged"] == 1
        assert summary["converged_instructions"] == 90
        assert summary["ckpt_reduction"] == (150 + 60 + 90) / 150

    def test_non_adaptive_defaults(self):
        summary = summarize(sample_manifest())
        assert summary["ci_margin"] == 0.0
        assert summary["stopped"] is False
        assert summary["trials_saved"] == 0
        assert summary["n_stop"] == 2

    def test_early_stopping_numbers(self):
        summary = summarize(adaptive_manifest())
        assert summary["ci_margin"] == 0.2
        assert summary["trials_requested"] == 100
        assert summary["n_stop"] == 50
        assert summary["trials_saved"] == 50
        assert summary["margin_at_stop"] == 0.15
        assert summary["stopped"] is True
        assert summary["rounds"] == 2
        assert summary["trials_per_sec"] == 50 / summary["wall_s"]


class TestStopClaimValidation:
    def test_healthy_stop_passes(self):
        assert validate_stop_claims(adaptive_manifest()) == []

    def test_non_adaptive_passes(self):
        assert validate_stop_claims(sample_manifest()) == []

    def test_margin_above_target_rejected(self):
        manifest = adaptive_manifest()
        manifest.summary["margin_at_stop"] = 0.25  # >= target 0.2
        problems = validate_stop_claims(manifest)
        assert any(">= target" in p for p in problems)

    def test_stop_without_target_rejected(self):
        manifest = adaptive_manifest()
        manifest.header["ci_margin"] = 0.0
        assert any("ci_margin is 0" in p
                   for p in validate_stop_claims(manifest))

    def test_final_round_must_agree(self):
        manifest = adaptive_manifest()
        manifest.rounds[0]["stop"] = False  # rounds[0] has round id 1
        # re-sort puts the disagreeing record last
        manifest.rounds.sort(key=lambda r: r["round"])
        assert any("final round" in p
                   for p in validate_stop_claims(manifest))


class TestCli:
    def test_renders_tables(self, tmp_path, capsys):
        path = write_manifest(str(tmp_path / "m.jsonl"), sample_manifest())
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "Campaign timing" in out
        assert "Early stopping" in out
        assert "Checkpoint savings" in out
        assert "Worker utilization" in out
        assert "w/LLFI/cmp" in out

    def test_renders_early_stop_numbers(self, tmp_path, capsys):
        path = write_manifest(str(tmp_path / "m.jsonl"), adaptive_manifest())
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "Early stopping" in out
        assert "yes" in out  # the stopped column

    def test_bogus_stop_claim_fails(self, tmp_path, capsys):
        manifest = adaptive_manifest()
        manifest.summary["margin_at_stop"] = 0.5  # above the 0.2 target
        path = write_manifest(str(tmp_path / "m.jsonl"), manifest)
        assert main([path]) == 1
        captured = capsys.readouterr()
        assert ">= target" in captured.err
        # The tables still render so the numbers can be inspected.
        assert "Early stopping" in captured.out

    def test_json_output(self, tmp_path, capsys):
        path = write_manifest(str(tmp_path / "m.jsonl"), sample_manifest())
        assert main([path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["cell"] == "w/LLFI/cmp"

    def test_missing_manifest_fails(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read manifest" in capsys.readouterr().err

    def test_unparsable_manifest_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        assert main([str(path)]) == 1
        assert "cannot read manifest" in capsys.readouterr().err
