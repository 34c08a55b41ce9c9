"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure from the paper.
Campaign sizes default to REPRO_BENCH_TRIALS (25) so the whole suite runs
in minutes; pass a larger value (the paper used 1000) for tighter CIs:

    REPRO_BENCH_TRIALS=200 pytest benchmarks/ --benchmark-only -s

Campaign results are computed once per session and shared across bench
modules (figure 4 and table 5 use the same grid, like the paper).
"""

import os
from typing import Dict

import pytest

from repro.fi import CampaignConfig, CampaignResult, run_campaign
from repro.workloads import build, workload_names

TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "25"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "20140623"))


@pytest.fixture(scope="session")
def workloads():
    return {name: build(name) for name in workload_names()}


@pytest.fixture(scope="session")
def injectors(workloads):
    from repro.fi import LLFIInjector, PINFIInjector

    return {name: {"LLFI": LLFIInjector(b.module),
                   "PINFI": PINFIInjector(b.program)}
            for name, b in workloads.items()}


class CampaignGrid:
    """Lazily computed, session-cached campaign grid."""

    def __init__(self, injectors):
        self.injectors = injectors
        self._cache: Dict[tuple, CampaignResult] = {}

    def get(self, workload: str, tool: str, category: str) -> CampaignResult:
        key = (workload, tool, category)
        if key not in self._cache:
            config = CampaignConfig(trials=TRIALS, seed=SEED)
            self._cache[key] = run_campaign(
                self.injectors[workload][tool], category, config)
        return self._cache[key]


@pytest.fixture(scope="session")
def campaigns(injectors):
    return CampaignGrid(injectors)


def once(benchmark, fn, *args, **kwargs):
    """Run an expensive reproduction exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
