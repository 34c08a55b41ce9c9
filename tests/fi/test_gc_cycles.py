"""Injection trials leave no cyclic garbage.

A trial's engine owns a 4 MiB heap and a 1 MiB stack.  If anything ties
the engine into a reference cycle (a per-instance table of bound
methods, a trap's traceback kept on the result), that memory outlives
the trial until the cyclic collector happens to run, and a campaign's
peak RSS then depends on GC timing.  Under ``gc.DEBUG_SAVEALL`` a
collection after each trial must find nothing, for completing and
trapping trials of both tools.
"""

import gc
import random

import pytest

from repro.fi import LLFIInjector, PINFIInjector
from tests.conftest import compile_both

# Pointer arithmetic and loads, so flipped bits crash some trials.
SRC = """
long data[32];
long sum(long *p, int n) {
    long s = 0;
    int i;
    for (i = 0; i < n; i++) s = s + p[i];
    return s;
}
int main() {
    int i;
    for (i = 0; i < 32; i++) data[i] = i * 7 + 1;
    print_long(sum(data, 32));
    return 0;
}
"""


@pytest.fixture(scope="module")
def built():
    return compile_both(SRC)


def _garbage_after(injector, k):
    """(status, objects a collection finds) for one trial at ``k``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result, _, _ = injector.run_with_fault("all", k, random.Random(k))
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
    return result.status, found


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
        status, found = _garbage_after(injector, k)
        assert not found, (
            f"{tool} k={k} ({status}) left {len(found)} objects in cycles: "
            f"{sorted({type(o).__name__ for o in found})}")
        seen.add(status)
    assert {"ok", "trap"} <= seen
