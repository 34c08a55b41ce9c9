"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

from compare import main as compare_main, verdict
from conftest import E2E, ROOT
from spans import SpanRecorder, self_times
from stats import Ledger, percentile, tail_percentile
from workloads import Checker

RUN = os.path.join(E2E, "run.py")
METRIC_LINE = re.compile(r"^  (\S+) (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def _run(*args, timeout=300):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)


class TestPercentiles:
    @pytest.mark.parametrize("n, expected", [
        (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
        (200, 95), (1000, 99), (10000, 99.9)])
    def test_highest_percentile_with_ten_samples_above(self, n, expected):
        assert tail_percentile(n) == expected

    def test_nearest_rank(self):
        values = list(range(1, 41))
        assert percentile(values, 50) == 20
        assert percentile(values, 75) == 30
        assert percentile([5.0], 75) == 5.0


class TestErrorAccounting:
    def test_error_rate_counts_failed_over_attempted(self):
        ledger = Ledger()
        assert ledger.error_rate == 0.0
        for ok in (True, True, False, True):
            ledger.record(ok)
        assert (ledger.attempted, ledger.failed) == (4, 1)
        assert ledger.error_rate == 0.25

    def test_reference_mismatch_and_missing_entry_fail(self):
        ledger = Ledger()
        checker = Checker({"local:a": "0" * 64}, ledger)
        assert not checker.check("local:a", {"x": 1})
        assert not checker.check("local:missing", {"x": 1})
        assert (ledger.attempted, ledger.failed) == (2, 2)


class TestSelfTime:
    @staticmethod
    def _span(span_id, start, end, parent=None):
        return {"id": span_id, "name": "s", "start": start, "end": end,
                "parent": parent, "run": ""}

    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [self._span(1, 0.0, 10.0),
                 self._span(2, 1.0, 4.0, parent=1),
                 self._span(3, 3.0, 5.0, parent=1),
                 self._span(4, 8.0, 12.0, parent=1),
                 self._span(5, 1.5, 2.0, parent=2)]
        own = self_times(spans)
        # Children of 1 cover [1, 5] and [8, 10]: 6 of its 10 seconds.
        assert own[1] == pytest.approx(4.0)
        assert own[2] == pytest.approx(2.5)
        assert own[5] == pytest.approx(0.5)

    def test_recorder_links_nested_spans(self):
        recorder = SpanRecorder()
        recorder.run = "r"
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        with recorder.span("vetoed", keep=lambda: False):
            pass
        inner, outer = recorder.spans
        assert inner["parent"] == outer["id"] and outer["parent"] is None
        assert {s["run"] for s in recorder.spans} == {"r"}


def test_tampered_digest_fails_the_run(tmp_path):
    with open(os.path.join(E2E, "reference.json")) as f:
        reference = json.load(f)
    key = ("local:v4-libquantumm-LLFI-all-t8-s20140623-h20-a10-mbitflip")
    assert key in reference["digests"]
    reference["digests"][key] = "0" * 64
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))
    proc = _run("--workload", "deep", "--smoke", "--reference",
                str(tampered), "--out", str(tmp_path / "out"))
    assert proc.returncode != 0
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is False and summary["failed"] > 0


def test_smoke_run_prints_exactly_the_declared_metrics(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    proc = _run("--smoke", "--trace", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            printed.setdefault(match.group(1), {})[match.group(2)] = \
                match.group(4)
    assert set(printed) == {w["name"] for w in benchmark["workloads"]}
    for workload, units in printed.items():
        assert units == declared, workload
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in units)
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    for workload in printed:
        with open(tmp_path / workload / "result.json") as f:
            assert json.load(f)["trace"] is True


def test_compare_refuses_traced_against_untraced(tmp_path):
    paths = []
    for side, trace in (("base", False), ("change", True)):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps({"workload": "deep", "trace": trace}))
        paths.append(str(path))
    assert compare_main([paths[0], "--", paths[1]]) == 2


class TestVerdict:
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]

    def test_within_the_bound_is_no_worse(self):
        change = [v * 1.05 for v in self.BASE]
        assert verdict(self.BASE, change, 0.1, lower_is_better=True) \
            == "no worse"

    def test_beyond_the_bound_is_worse(self):
        change = [v * 1.2 for v in self.BASE]
        assert verdict(self.BASE, change, 0.1, lower_is_better=True) \
            == "worse"
        assert verdict(change, self.BASE, 0.1, lower_is_better=False) \
            == "worse"

    def test_winning_nine_of_ten_beyond_the_spread_is_improved(self):
        change = [v * 0.9 for v in self.BASE]
        assert verdict(self.BASE, change, 0.1, lower_is_better=True) \
            == "improved"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        base = [50.0, 100.0, 150.0, 80.0, 120.0]
        change = [60.0, 130.0, 170.0, 90.0, 110.0]
        assert verdict(base, change, 0.1, lower_is_better=True) \
            == "unresolved"
