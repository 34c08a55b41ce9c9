"""Tests for the unified experiments entrypoint
(python -m repro.experiments run <target>)."""

import pytest

from repro.experiments.cli import _TARGET_MODULES, main


class TestRunSubcommand:
    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "libquantumm" in out

    def test_run_table1_with_shared_flags(self, capsys, built_workloads):
        assert main(["run", "table1", "--benchmarks", "libquantumm"]) == 0
        assert "GEP lowering" in capsys.readouterr().out

    def test_unknown_target_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "table3"])
        assert "table3" in capsys.readouterr().err

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_target_help_comes_from_target_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig3", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--trials" in out and "--trace" in out

    def test_every_target_module_importable(self):
        import importlib

        for target, module in _TARGET_MODULES.items():
            assert hasattr(importlib.import_module(module), "main"), target
