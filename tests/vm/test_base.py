"""The run protocol both engines share (:class:`repro.vm.base.BaseEngine`).

Each engine books every run under its own recorder prefix — ``vm.ir``
for the IR interpreter, ``vm.asm`` for the simulator — with counters
equal to the run's result and the engine's own fields, whether the run
completes, traps or runs out of budget.  The manifest's compile summary
adds both prefixes together, so only these tests would see an engine
booking under the other's name.  Construction takes ``template`` and
``memory`` together or not at all.
"""

import pytest

from repro.backend import compile_module
from repro.errors import ReproError
from repro.minic import compile_source
from repro.obs import recording
from repro.vm.asmsim import AsmSimulator
from repro.vm.irinterp import IRInterpreter
from tests.vm.test_blockcompile import TRAP_SRC

ENGINES = {"IR": (IRInterpreter, "vm.ir"), "asm": (AsmSimulator, "vm.asm")}


def _subjects(access):
    module = compile_source(TRAP_SRC % access)
    program = compile_module(module)
    return {"IR": module, "asm": program}


@pytest.fixture(scope="module")
def completing():
    return _subjects("")


@pytest.fixture(scope="module")
def trapping():
    return _subjects("s = s / (s - 84);")


def _booked(engine):
    """(result, the ``vm.*`` counters its run booked)."""
    with recording() as rec:
        result = engine.run()
    return result, {name: n for name, n in rec.counters.items()
                    if name.startswith("vm.")}


def _expected(prefix, engine, result):
    expected = {
        "runs": 1,
        "instructions": result.instructions,
        "traps": 1 if result.crashed else 0,
        "hang_budget_trips": 1 if result.hung else 0,
        "dispatches": engine.dispatches,
        "compiled_blocks": engine.compiled_blocks,
        "fallback_blocks": engine.fallback_blocks,
    }
    return {f"{prefix}.{name}": n for name, n in expected.items()}


def _assert_books(prefix, engine, result, booked):
    expected = _expected(prefix, engine, result)
    assert {name: booked.get(name, 0) for name in expected} == expected
    assert set(booked) <= set(expected), \
        f"booked outside {prefix}: {sorted(set(booked) - set(expected))}"


@pytest.mark.parametrize("tier", list(ENGINES))
class TestRunCounters:
    def test_completed_compiled_run(self, tier, completing):
        engine_type, prefix = ENGINES[tier]
        engine = engine_type(completing[tier])
        result, booked = _booked(engine)
        assert result.completed and engine.compiled_blocks > 0
        _assert_books(prefix, engine, result, booked)

    def test_trapping_run(self, tier, trapping):
        engine_type, prefix = ENGINES[tier]
        engine = engine_type(trapping[tier])
        result, booked = _booked(engine)
        assert result.crashed
        assert booked[f"{prefix}.traps"] == 1
        _assert_books(prefix, engine, result, booked)

    def test_run_cut_short_by_the_budget(self, tier, completing):
        engine_type, prefix = ENGINES[tier]
        golden = engine_type(completing[tier]).run()
        engine = engine_type(completing[tier],
                             max_instructions=golden.instructions // 2)
        result, booked = _booked(engine)
        assert result.hung
        assert booked[f"{prefix}.hang_budget_trips"] == 1
        _assert_books(prefix, engine, result, booked)


@pytest.mark.parametrize("tier", list(ENGINES))
def test_template_and_memory_come_together(tier, completing):
    engine_type, _ = ENGINES[tier]
    template = engine_type(completing[tier])
    with pytest.raises(ReproError):
        engine_type(completing[tier], template=template)
    with pytest.raises(ReproError):
        engine_type(completing[tier], memory=template.memory)
