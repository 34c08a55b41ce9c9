"""Tests for the IR interpreter: semantics, traps, hangs, hooks."""

import pytest
from hypothesis import given, strategies as st

from repro.ir import types as ty
from repro.minic import compile_source
from repro.vm.base import Hook
from repro.vm.irinterp import IRInterpreter, _fptosi, _int_binop
from repro.vm.traps import Trap, TrapKind
from tests.conftest import compile_and_run_ir, output_of


class TestIntBinopSemantics:
    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
    def test_add_wraps_like_two_complement(self, a, b):
        r = _int_binop("add", a, b, 32)
        assert -(2**31) <= r < 2**31
        assert (r - (a + b)) % (2**32) == 0

    def test_sdiv_by_zero_traps(self):
        with pytest.raises(Trap) as exc:
            _int_binop("sdiv", 1, 0, 32)
        assert exc.value.kind is TrapKind.DIVIDE_ERROR

    def test_int_min_div_minus_one_traps(self):
        with pytest.raises(Trap):
            _int_binop("sdiv", -(2**31), -1, 32)
        with pytest.raises(Trap):
            _int_binop("srem", -(2**31), -1, 32)

    def test_sdiv_truncates(self):
        assert _int_binop("sdiv", -7, 2, 32) == -3
        assert _int_binop("srem", -7, 2, 32) == -1

    def test_shift_count_masked_like_x86(self):
        assert _int_binop("shl", 1, 33, 32) == 2      # 33 & 31 == 1
        assert _int_binop("shl", 1, 65, 64) == 2      # 65 & 63 == 1
        assert _int_binop("ashr", -8, 1, 32) == -4
        assert _int_binop("lshr", -1, 24, 32) == 255

    @given(st.integers(-(2**63), 2**63 - 1))
    def test_xor_self_is_zero(self, a):
        assert _int_binop("xor", a, a, 64) == 0


class TestFptosi:
    def test_truncates_toward_zero(self):
        assert _fptosi(3.9, 32) == 3
        assert _fptosi(-3.9, 32) == -3

    def test_out_of_range_gives_indefinite(self):
        assert _fptosi(1e30, 32) == -(2**31)
        assert _fptosi(-1e30, 32) == -(2**31)
        assert _fptosi(float("nan"), 32) == -(2**31)
        assert _fptosi(float("inf"), 64) == -(2**63)


class TestTraps:
    def test_null_dereference_crashes(self):
        result = compile_and_run_ir("""
        int main() { int *p = 0; return *p; }
        """)
        assert result.crashed
        assert result.trap.kind is TrapKind.SEGV

    def test_wild_pointer_crashes(self):
        result = compile_and_run_ir("""
        int main() {
            long addr = 123456789012345;
            int *p = (int*)addr;
            return *p;
        }
        """)
        assert result.crashed

    def test_division_by_zero_crashes(self):
        result = compile_and_run_ir("""
        int zero;
        int main() { return 7 / zero; }
        """)
        assert result.crashed
        assert result.trap.kind is TrapKind.DIVIDE_ERROR

    def test_runaway_recursion_crashes(self):
        result = compile_and_run_ir("""
        int down(int n) { return down(n + 1); }
        int main() { return down(0); }
        """)
        assert result.crashed
        assert result.trap.kind in (TrapKind.CALL_DEPTH,
                                    TrapKind.STACK_OVERFLOW)

    def test_out_of_bounds_array_within_region_is_silent(self):
        # Adjacent-global corruption, like real memory: no trap.
        result = compile_and_run_ir("""
        int a[2];
        int b[2];
        int main() { a[3] = 7; print_int(1); return 0; }
        """)
        assert result.completed


class TestHang:
    def test_infinite_loop_reported_as_hang(self):
        result = compile_and_run_ir("""
        int main() { while (1) {} return 0; }
        """, max_instructions=10_000)
        assert result.hung
        assert result.instructions >= 10_000


class TestExitAndOutput:
    def test_exit_value(self):
        result = compile_and_run_ir("int main() { return 42; }")
        assert result.exit_value == 42

    def test_instruction_count_deterministic(self):
        src = "int main() { int i; int s = 0; " \
              "for (i = 0; i < 100; i++) s += i; print_int(s); return 0; }"
        r1 = compile_and_run_ir(src)
        r2 = compile_and_run_ir(src)
        assert r1.instructions == r2.instructions
        assert r1.output == r2.output == "4950"


class TestHooks:
    def test_hook_sees_results_and_can_replace(self):
        src = "int a = 2; int b = 3; " \
              "int main() { print_int(a + b); return 0; }"
        module = compile_source(src, optimize=False)

        class Corrupt(Hook):
            def on_result(self, inst, value, interp):
                if inst.opcode == "add":
                    return 99
                return value

        result = IRInterpreter(module, hook=Corrupt()).run()
        assert result.output == "99"

    def test_hook_filter_limits_calls(self):
        src = "int main() { int i; int s = 0; " \
              "for (i = 0; i < 5; i++) s += i; print_int(s); return 0; }"
        module = compile_source(src)

        calls = []

        class Count(Hook):
            filter = frozenset()

            def on_result(self, inst, value, interp):
                calls.append(inst.opcode)
                return value

        IRInterpreter(module, hook=Count()).run()
        assert calls == []

    def test_poison_activation_tracking(self):
        src = "int a = 3; int b = 4; " \
              "int main() { int x = a + b; print_int(x * 2); return 0; }"
        module = compile_source(src, optimize=False)

        class Poison(Hook):
            def on_result(self, inst, value, interp):
                if inst.opcode == "add":
                    interp.current_frame.poison_inst = inst
                return value

        interp = IRInterpreter(module, hook=Poison())
        interp.run()
        assert interp.fault_activated  # the add result is multiplied


class TestGlobalsImage:
    def test_string_global_readable(self):
        assert output_of("""
        int main() { print_str("xyz"); return 0; }
        """) == "xyz"

    def test_zero_initialized_globals(self):
        assert output_of("""
        int arr[4];
        double d;
        int main() { print_int(arr[2]); print_double(d); return 0; }
        """) == "00.000000"
