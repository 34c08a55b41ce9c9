"""Injection trials leave no cyclic garbage.

A trial's engine owns a 4 MiB heap and a 1 MiB stack.  If anything ties
the engine into a reference cycle (a per-instance table of bound
methods, a trap's traceback kept on the result, a checkpoint sink that
closes over its engine), that memory outlives the run until the cyclic
collector happens to run, and a campaign's peak RSS then depends on GC
timing.  Under ``gc.DEBUG_SAVEALL`` a collection after each trial must
find nothing, for completing, trapping and converged trials of both
tools — and after an automatic-stride preparation, whose recording
engine learns its doubled stride from the checkpoint sink.
"""

import gc
import random

import pytest

from repro.fi import LLFIInjector, PINFIInjector
from repro.vm import snapshot as vm_snapshot
from repro.vm.snapshot import CheckpointStore
from repro.workloads import build
from tests.conftest import compile_both

# Pointer arithmetic and loads, so flipped bits crash some trials; the
# masked scratch computation lets faults die out, so trials converge.
SRC = """
long data[32];
long scratch[32];
long sum(long *p, int n) {
    long s = 0;
    int i;
    for (i = 0; i < n; i++) s = s + p[i];
    return s;
}
int main() {
    int i;
    for (i = 0; i < 32; i++) data[i] = i * 7 + 1;
    for (i = 0; i < 32; i++) { scratch[i] = data[i] * 3; scratch[i] = 0; }
    print_long(sum(data, 32));
    return 0;
}
"""


@pytest.fixture(scope="module")
def built():
    return compile_both(SRC)


def _garbage_after(action):
    """(what ``action()`` returned, objects a collection then finds)."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        value = action()
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
    return value, found


def _describe(found):
    return f"{len(found)} objects in cycles: " \
        f"{sorted({type(o).__name__ for o in found})}"


@pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
@pytest.mark.parametrize("stride", [0, -1])
def test_trials_leave_no_cyclic_garbage(tool, stride, built):
    module, program = built
    injector = (LLFIInjector(module) if tool == "LLFI"
                else PINFIInjector(program))
    injector.configure_checkpoints(stride)
    n = injector.dynamic_counts()["all"]
    # Warm up: preparation and block compilation are one-time work.
    injector.run_with_fault("all", 1, random.Random(0))
    seen = set()
    for k in range(1, n + 1, max(1, n // 60)):
        result, found = _garbage_after(
            lambda: injector.run_with_fault("all", k, random.Random(k))[0])
        assert not found, f"{tool} k={k} ({result.status}) left " \
            + _describe(found)
        seen.add(result.status)
    assert {"ok", "trap"} <= seen
    if stride:
        # Some masked faults died out and their runs took the exit.
        assert injector.converged_runs > 0


@pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
def test_auto_stride_preparation_leaves_no_cyclic_garbage(tool,
                                                          monkeypatch):
    """libquantumm is long enough for the provisional recording to fill
    its store and double its stride (at a 20-checkpoint ceiling even for
    PINFI's shorter run), handing the engine the new stride through the
    checkpoint sink."""
    monkeypatch.setattr(vm_snapshot, "PROVISIONAL_CHECKPOINTS", 20)
    doubled = []
    record = CheckpointStore.record

    def spy(store, snapshot, counts):
        stride = record(store, snapshot, counts)
        if stride:
            doubled.append(stride)
        return stride

    monkeypatch.setattr(CheckpointStore, "record", spy)
    built = build("libquantumm")
    injector = (LLFIInjector(built.module) if tool == "LLFI"
                else PINFIInjector(built.program))
    injector.configure_checkpoints(-1)
    store, found = _garbage_after(injector.ensure_checkpoints)
    assert injector.executions == 1 and len(store) > 0
    assert doubled
    assert not found, f"{tool} preparation left " + _describe(found)
