"""Table II: characteristics of the benchmark programs."""

from __future__ import annotations

from repro.experiments.report import format_table
from repro.workloads import all_workloads


def generate() -> str:
    rows = []
    for w in all_workloads():
        rows.append([w.name, w.mirrors, w.suite, w.description[:48],
                     w.lines_of_code, w.input_description[:40]])
    return format_table(
        ["Benchmark", "Mirrors", "Suite", "Description", "LoC", "Input"],
        rows,
        title="Table II: Characteristics of Benchmark Programs")


def main(argv=None) -> None:
    del argv  # no options
    print(generate())
