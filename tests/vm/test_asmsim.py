"""Tests for the SimX86 simulator: flags, control flow, traps, hooks."""

import pytest

from repro.backend import compile_module
from repro.backend.machine import evaluate_condition
from repro.minic import compile_source
from repro.vm.asmsim import AsmSimulator, CODE_BASE, _cvttsd2si
from repro.vm.base import Hook
from repro.vm.traps import Trap, TrapKind
from tests.conftest import run_both


def run_asm(source, **kwargs):
    module = compile_source(source)
    program = compile_module(module)
    return AsmSimulator(program, **kwargs).run()


class TestConditionCodes:
    def _flags(self, cf=0, pf=0, zf=0, sf=0, of=0):
        return {"CF": cf, "PF": pf, "ZF": zf, "SF": sf, "OF": of}

    @pytest.mark.parametrize("cond,flags,expected", [
        ("e", dict(zf=1), True), ("e", dict(), False),
        ("ne", dict(zf=1), False),
        ("l", dict(sf=1), True), ("l", dict(sf=1, of=1), False),
        ("ge", dict(sf=1, of=1), True),
        ("le", dict(zf=1), True), ("le", dict(sf=1), True),
        ("g", dict(), True), ("g", dict(zf=1), False),
        ("b", dict(cf=1), True), ("a", dict(), True),
        ("a", dict(cf=1), False), ("a", dict(zf=1), False),
        ("be", dict(zf=1), True), ("ae", dict(cf=1), False),
        ("eq_o", dict(zf=1), True), ("eq_o", dict(zf=1, pf=1), False),
        ("ne_uo", dict(), True), ("ne_uo", dict(zf=1, pf=1), True),
        ("ne_uo", dict(zf=1), False),
    ])
    def test_condition_truth_table(self, cond, flags, expected):
        assert evaluate_condition(cond, self._flags(**flags)) is expected


class TestFlagSemantics:
    def test_signed_compare_via_program(self):
        ir, asm = run_both("""
        int main() {
            int big = 2000000000;
            int small = -2000000000;
            if (small < big) print_int(1); else print_int(0);
            // overflow territory: (big - small) wraps but jl uses SF^OF
            if (big > small) print_int(1); else print_int(0);
            return 0;
        }
        """)
        assert asm.output == ir.output == "11"

    def test_unsigned_style_pointer_compare(self):
        ir, asm = run_both("""
        int main() {
            int a[4];
            int *p = &a[0];
            int *q = &a[3];
            if (p < q) print_int(1);
            if (q > p) print_int(1);
            return 0;
        }
        """)
        assert asm.output == ir.output == "11"

    def test_double_compare_and_nan(self):
        ir, asm = run_both("""
        int main() {
            double zero = 0.0;
            double nan = zero / zero;
            if (nan == nan) print_int(1); else print_int(0);
            if (nan < 1.0) print_int(1); else print_int(0);
            if (1.0 <= 2.0) print_int(1); else print_int(0);
            if (2.0 != 1.0) print_int(1); else print_int(0);
            return 0;
        }
        """)
        assert asm.output == ir.output == "0011"


class TestCvttsd2si:
    def test_in_range(self):
        assert _cvttsd2si(3.7, 32) == 3
        assert _cvttsd2si(-3.7, 32) == (-3) & 0xFFFFFFFF

    def test_indefinite(self):
        assert _cvttsd2si(1e30, 32) == 0x80000000
        assert _cvttsd2si(float("nan"), 64) == 1 << 63


class TestTraps:
    def test_null_dereference(self):
        result = run_asm("int main() { int *p = 0; return *p; }")
        assert result.crashed
        assert result.trap.kind is TrapKind.SEGV

    def test_divide_error(self):
        result = run_asm("int zero; int main() { return 9 / zero; }")
        assert result.crashed
        assert result.trap.kind is TrapKind.DIVIDE_ERROR

    def test_deep_recursion_traps(self):
        result = run_asm("""
        int down(int n) { return down(n + 1); }
        int main() { return down(0); }
        """)
        assert result.crashed
        assert result.trap.kind in (TrapKind.CALL_DEPTH, TrapKind.SEGV,
                                    TrapKind.STACK_OVERFLOW)

    def test_corrupted_return_address_traps(self):
        # Flip a bit in the saved return address through the simulator API.
        # optimize=False keeps the call to id (inlining would remove it).
        module = compile_source("""
        int id(int x) { return x; }
        int main() { print_int(id(5)); return 0; }
        """, optimize=False)
        program = compile_module(module)

        class SmashReturn(Hook):
            def __init__(self):
                self.done = False

            def on_executed(self, inst, sim):
                if self.done or inst.opcode != "call":
                    return
                rsp = sim.get_gpr("rsp")
                token = sim.memory.read_int(rsp, 8, signed=False)
                if token >= CODE_BASE:
                    sim.memory.write_int(rsp, 8, token ^ (1 << 3))
                    self.done = True

        sim = AsmSimulator(program, hook=SmashReturn())
        result = sim.run()
        assert result.crashed
        assert result.trap.kind is TrapKind.BAD_RETURN

    def test_corrupted_stack_pointer_traps(self):
        module = compile_source("""
        int id(int x) { return x + 1; }
        int main() { print_int(id(5)); return 0; }
        """)
        program = compile_module(module)

        class SmashRsp(Hook):
            def __init__(self):
                self.done = False

            def on_executed(self, inst, sim):
                if not self.done and inst.opcode == "call":
                    sim.set_gpr("rsp", sim.get_gpr("rsp") ^ (1 << 40))
                    self.done = True

        result = AsmSimulator(program, hook=SmashRsp()).run()
        assert result.crashed


class TestExecution:
    def test_exit_value_through_rax(self):
        assert run_asm("int main() { return 37; }").exit_value == 37

    def test_hang_detection(self):
        result = run_asm("int main() { while (1) {} return 0; }",
                         max_instructions=5_000)
        assert result.hung

    def test_register_state_isolated_across_calls(self):
        # Callee-saved discipline: caller values survive calls.
        ir, asm = run_both("""
        int noisy(int n) {
            int a = n * 3; int b = a - 1; int c = b * b;
            return c % 1000;
        }
        int main() {
            int keep1 = 111; int keep2 = 222; int keep3 = 333;
            int keep4 = 444; int keep5 = 555; int keep6 = 666;
            int r = noisy(7);
            print_int(keep1 + keep2 + keep3 + keep4 + keep5 + keep6 + r);
            return 0;
        }
        """)
        assert asm.output == ir.output

    def test_spill_heavy_function(self):
        # More live values than allocatable registers.
        ir, asm = run_both("""
        int main() {
            int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
            int f = 6; int g = 7; int h = 8; int i = 9; int j = 10;
            int k = 11; int l = 12; int m = 13; int n = 14; int o = 15;
            int x = a+b*c+d*e+f*g+h*i+j*k+l*m+n*o;
            print_int(x * (a+b+c+d+e+f+g+h+i+j+k+l+m+n+o));
            return 0;
        }
        """)
        assert asm.output == ir.output

    def test_double_spills(self):
        ir, asm = run_both("""
        double work(double a, double b, double c, double d,
                    double e, double f) {
            double g = a*b; double h = c*d; double i = e*f;
            double j = a+c; double k = b+d; double l = e+g;
            return g + h + i + j + k + l;
        }
        int main() {
            print_double(work(1.0, 2.0, 3.0, 4.0, 5.0, 6.0));
            return 0;
        }
        """)
        assert asm.output == ir.output


class TestHookFilter:
    def test_filter_excludes_instructions(self):
        module = compile_source("int main() { print_int(1); return 0; }")
        program = compile_module(module)
        seen = []

        class H(Hook):
            filter = frozenset()

            def on_executed(self, inst, sim):
                seen.append(inst)

        AsmSimulator(program, hook=H()).run()
        assert seen == []
