"""Table I: the IR <-> assembly correspondence, measured.

The paper's Table I is qualitative; this report makes it quantitative by
walking the compiled benchmarks and counting, per IR construct, what the
backend actually emitted:

* GEPs folded into addressing modes vs lowered to lea/arithmetic;
* phi nodes vs the register copies (and spills) they became;
* call/prologue/epilogue stack traffic with no IR counterpart;
* casts that survived (movsx/cvt*) vs casts erased entirely;
* compares fused into cmp+jcc (no destination register) vs materialized
  through setcc.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.backend.machine import Mem
from repro.experiments.common import experiment_argparser, selected_benchmarks
from repro.experiments.report import format_table
from repro.ir.instructions import (
    Cast, FCmp, GetElementPtr, ICmp, Phi,
)
from repro.workloads import build

_ERASED_CASTS = ("trunc", "bitcast", "ptrtoint", "inttoptr")


def analyze(name: str) -> Dict[str, int]:
    built = build(name)
    stats: Counter = Counter()
    for func in built.module.defined_functions():
        for inst in func.instructions():
            if isinstance(inst, GetElementPtr):
                stats["ir_gep"] += 1
            elif isinstance(inst, Phi):
                stats["ir_phi"] += 1
            elif isinstance(inst, Cast):
                stats["ir_cast"] += 1
                if inst.opcode in _ERASED_CASTS:
                    stats["ir_cast_erasable"] += 1
            elif isinstance(inst, (ICmp, FCmp)):
                stats["ir_cmp"] += 1
    for mfunc in built.program.functions.values():
        for inst in mfunc.instructions():
            origin = inst.ir_origin
            if origin == "getelementptr":
                if inst.opcode == "lea":
                    stats["gep_lea"] += 1
                else:
                    stats["gep_arith"] += 1
            elif origin in ("prologue", "epilogue"):
                stats["frame_insts"] += 1
                if inst.opcode in ("push", "pop"):
                    stats["push_pop"] += 1
            elif origin == "spill":
                stats["spill_movs"] += 1
            elif origin == "br" and inst.opcode in ("mov", "movsd"):
                stats["phi_copies"] += 1
            elif origin in ("sext", "zext"):
                stats["cast_movsx"] += 1
            elif origin in ("sitofp", "uitofp", "fptosi", "fptoui"):
                stats["cast_cvt"] += 1
            if inst.opcode == "setcc":
                stats["setcc"] += 1
            if inst.opcode in ("cmp", "test", "ucomisd"):
                stats["flag_setters"] += 1
            # loads/GEPs folded into memory operands
            if any(isinstance(op, Mem) and (op.index is not None
                                            or op.disp or op.sym)
                   for op in inst.operands) and origin in ("load", "store"):
                stats["folded_addressing"] += 1
    return dict(stats)


def generate(benchmarks) -> str:
    rows = []
    for name in benchmarks:
        s = analyze(name)
        gep_standalone_sites = s.get("gep_lea", 0)
        rows.append([
            name,
            f"{s.get('ir_gep', 0)} -> {gep_standalone_sites} lea "
            f"+ {s.get('gep_arith', 0)} arith (rest folded)",
            f"{s.get('ir_phi', 0)} -> {s.get('phi_copies', 0)} movs "
            f"+ {s.get('spill_movs', 0)} spills",
            f"{s.get('push_pop', 0)} push/pop",
            f"{s.get('ir_cast', 0)} -> {s.get('cast_movsx', 0)} movsx/movzx "
            f"+ {s.get('cast_cvt', 0)} cvt "
            f"({s.get('ir_cast_erasable', 0)} erased)",
            f"{s.get('ir_cmp', 0)} -> {s.get('setcc', 0)} setcc "
            f"(rest fused into jcc)",
        ])
    return format_table(
        ["Program", "GEP lowering", "Phi lowering", "Call frames (no IR)",
         "Cast lowering", "Compare lowering"],
        rows,
        title="Table I (measured): IR constructs vs emitted SimX86 "
              "(static counts)")


def main(argv=None) -> None:
    args = experiment_argparser(__doc__ or "table1").parse_args(argv)
    print(generate(selected_benchmarks(args)))
