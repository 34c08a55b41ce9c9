"""Ablations: the paper's proposed accuracy fixes (§VII) and the PINFI
activation heuristics (§IV), measured.

1. **GEP as arithmetic** (§VII fix 1): LLFI re-classifies getelementptr as
   an arithmetic instruction. Expectation: LLFI's arithmetic-category crash
   rate moves toward PINFI's on address-heavy code (bzip2m).
2. **Pointer casts included** (inverse of the paper's mitigation): LLFI
   injects into all cast opcodes, not just int<->fp conversions.
   Expectation: cast-category crash rate rises (pointer casts crash).
3. **PINFI flag heuristic off** (§IV): faults go into any of the low 16
   RFLAGS bits instead of only the jcc-dependent bits. Expectation:
   activation rate collapses for the cmp category.
4. **PINFI XMM heuristic off** (§IV): faults go into all 128 XMM bits for
   double ops. Expectation: activation roughly halves for FP-heavy code.
"""

from __future__ import annotations

from repro.errors import NoCandidatesError
from repro.experiments.common import (
    campaign_cell, config_from_args, experiment_argparser,
    store_from_args,
)
from repro.experiments.report import format_table
from repro.fi import CampaignConfig, LLFIOptions, PINFIOptions


def generate_gep_ablation(benchmarks, config: CampaignConfig,
                          store=None) -> str:
    rows = []
    for name in benchmarks:
        base = campaign_cell(name, "LLFI", "arithmetic", config, store)
        fixed = campaign_cell(
            name, "LLFI", "arithmetic", config, store,
            variant="gep_arith",
            llfi_options=LLFIOptions(gep_as_arithmetic=True))
        pinfi = campaign_cell(name, "PINFI", "arithmetic", config, store)
        rows.append([
            name,
            f"{100 * base.crash.value:.0f}%",
            f"{100 * fixed.crash.value:.0f}%",
            f"{100 * pinfi.crash.value:.0f}%",
        ])
    return format_table(
        ["Program", "LLFI crash", "LLFI+GEP-as-arith crash", "PINFI crash"],
        rows,
        title="Ablation 1 (paper §VII fix): classify GEP as arithmetic — "
              "LLFI arithmetic-category crash rate vs PINFI")


def generate_cast_ablation(benchmarks, config: CampaignConfig,
                           store=None) -> str:
    rows = []
    for name in benchmarks:
        inj_kwargs = dict(llfi_options=LLFIOptions(include_pointer_casts=True))
        # Only a program without dynamic casts reads n/a; any other
        # error is the caller's to see.
        try:
            base = campaign_cell(name, "LLFI", "cast", config, store)
            base_crash = f"{100 * base.crash.value:.0f}%"
        except NoCandidatesError:
            base_crash = "n/a (no casts)"
        try:
            withptr = campaign_cell(name, "LLFI", "cast", config,
                                    store, variant="ptrcasts",
                                    **inj_kwargs)
            with_crash = f"{100 * withptr.crash.value:.0f}%"
        except NoCandidatesError:
            with_crash = "n/a"
        rows.append([name, base_crash, with_crash])
    return format_table(
        ["Program", "LLFI cast crash (conv only)",
         "LLFI cast crash (+pointer casts)"],
        rows,
        title="Ablation 2: injecting pointer casts (the paper's mitigation "
              "removed)")


def generate_heuristic_ablation(flag_benchmarks, config: CampaignConfig,
                                store=None,
                                xmm_benchmarks=None) -> str:
    """Low-activation cells redraw up to 10x trials runs, so keep these
    benchmark lists short; the XMM ablation only means anything on
    FP-heavy workloads anyway."""
    if xmm_benchmarks is None:
        xmm_benchmarks = [b for b in ("oceanm", "raytracem")
                          if b in flag_benchmarks] or flag_benchmarks[:1]
    rows = []
    for name in flag_benchmarks:
        flag_on = campaign_cell(name, "PINFI", "cmp", config, store)
        flag_off = campaign_cell(
            name, "PINFI", "cmp", config, store, variant="noflagheur",
            pinfi_options=PINFIOptions(flag_dependent_bits=False))
        rows.append([
            name, "cmp/flags",
            flag_on.activation_rate.percent(),
            flag_off.activation_rate.percent(),
        ])
    for name in xmm_benchmarks:
        xmm_on = campaign_cell(name, "PINFI", "arithmetic", config, store)
        xmm_off = campaign_cell(
            name, "PINFI", "arithmetic", config, store,
            variant="noxmmheur",
            pinfi_options=PINFIOptions(xmm_low64=False))
        rows.append([
            name, "arith/XMM",
            xmm_on.activation_rate.percent(),
            xmm_off.activation_rate.percent(),
        ])
    return format_table(
        ["Program", "Heuristic", "Activation (on)", "Activation (off)"],
        rows,
        title="Ablation 3 (paper §IV): PINFI activation heuristics "
              "(dependent flag bits; XMM low-64)")


def main(argv=None) -> None:
    parser = experiment_argparser(__doc__ or "ablation")
    args = parser.parse_args(argv)
    config = config_from_args(args)
    store = store_from_args(args)
    # Defaults chosen where the effects are most visible.
    gep_benchmarks = args.benchmarks or ["bzip2m", "mcfm", "hmmerm"]
    cast_benchmarks = args.benchmarks or ["bzip2m", "hmmerm", "raytracem"]
    flag_benchmarks = args.benchmarks or ["bzip2m", "mcfm"]
    xmm_benchmarks = args.benchmarks or ["oceanm", "raytracem"]
    print(generate_gep_ablation(gep_benchmarks, config, store))
    print()
    print(generate_cast_ablation(cast_benchmarks, config, store))
    print()
    print(generate_heuristic_ablation(flag_benchmarks, config, store,
                                      xmm_benchmarks=xmm_benchmarks))
