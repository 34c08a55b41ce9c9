"""Shared fixtures, helpers and Hypothesis strategies for the test suite.

Hypothesis runs under one of two settings profiles, selected by the
``HYPOTHESIS_PROFILE`` environment variable:

* ``ci`` — fewer, derandomized examples; what the CI workflow exports so
  runs are reproducible and time-bounded;
* ``dev`` (default) — more examples, random seeds, for local hunting.
"""

import os

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.backend import compile_module
from repro.minic import compile_source
from repro.vm.asmsim import AsmSimulator
from repro.vm.irinterp import IRInterpreter

settings.register_profile(
    "ci", max_examples=20, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("dev", max_examples=50, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

#: The paper's seed (DSN'14), which the experiments default to: the
#: real-workload differentials run at it.
PAPER_SEED = 20140623


def compile_and_run_ir(source: str, **interp_kwargs):
    """MiniC source -> optimized IR -> interpreter result."""
    module = compile_source(source)
    return IRInterpreter(module, **interp_kwargs).run()


def compile_both(source: str):
    """MiniC source -> (module, program) ready for both engines."""
    module = compile_source(source)
    program = compile_module(module)
    return module, program


def run_both(source: str):
    """Run a program on both engines; returns (ir result, asm result)."""
    module, program = compile_both(source)
    return IRInterpreter(module).run(), AsmSimulator(program).run()


def output_of(source: str) -> str:
    """IR-interpreter output of a program, asserting clean completion."""
    result = compile_and_run_ir(source)
    assert result.completed, f"{result.status}: {result.trap}"
    return result.output


def assert_parity(source: str) -> None:
    """Both engines agree on status, output and exit value."""
    ir, asm = run_both(source)
    assert ir.status == asm.status, (ir.status, asm.status, ir.trap,
                                     asm.trap, ir.output, asm.output)
    assert ir.output == asm.output
    assert ir.exit_value == asm.exit_value


# -- shared MiniC expression strategies -----------------------------------------
#
# Used by the cross-engine parity suites (tests/vm/test_parity*.py) and
# available to any other property test. Expressions are structurally safe
# by construction, mirroring the fuzzer's generator: divisors are forced
# nonzero with ``(e & 15) + 1`` masks and shift amounts masked to 0..7,
# so no generated program can trap. Double division is deliberately left
# unguarded — inf/NaN propagation must agree between the engines too.

int_values = st.integers(min_value=-1000, max_value=1000)
finite_doubles = st.floats(min_value=-1e6, max_value=1e6,
                           allow_nan=False, allow_infinity=False)


@st.composite
def minic_int_expr(draw, names=("a", "b", "c"), depth=0, max_depth=3):
    """A non-crashing MiniC integer expression over ``names``."""
    if depth >= max_depth or draw(st.booleans()):
        if draw(st.booleans()):
            return str(draw(int_values))
        return draw(st.sampled_from(list(names)))
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^",
                               "/", "%", "<<", ">>"]))
    lhs = draw(minic_int_expr(names=names, depth=depth + 1,
                              max_depth=max_depth))
    rhs = draw(minic_int_expr(names=names, depth=depth + 1,
                              max_depth=max_depth))
    if op in ("/", "%"):
        rhs = f"(({rhs} & 15) + 1)"
    elif op in ("<<", ">>"):
        rhs = f"({rhs} & 7)"
    return f"({lhs} {op} {rhs})"


@st.composite
def minic_double_expr(draw, names=("x", "y"), depth=0, max_depth=3):
    """A MiniC double expression over ``names``; may produce inf/NaN
    through unguarded division, never traps."""
    if depth >= max_depth or draw(st.booleans()):
        if draw(st.booleans()):
            return repr(draw(finite_doubles))
        return draw(st.sampled_from(list(names)))
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    lhs = draw(minic_double_expr(names=names, depth=depth + 1,
                                 max_depth=max_depth))
    rhs = draw(minic_double_expr(names=names, depth=depth + 1,
                                 max_depth=max_depth))
    return f"({lhs} {op} {rhs})"


@pytest.fixture(scope="session")
def built_workloads():
    """All six workloads compiled once for the whole session."""
    from repro.workloads import build, workload_names

    return {name: build(name) for name in workload_names()}
