"""Multi-way differential oracle over one MiniC program.

``check_program(source)`` runs a program through every layer whose
semantic agreement the paper's accuracy comparison rests on, and returns
the list of :class:`Divergence` it found (empty = all layers agree):

* **engine parity** — the optimized module on the IR interpreter vs the
  compiled program on SimX86: same status, same output, same exit value.
  This is the fairness requirement itself: LLFI and PINFI results are
  only comparable if the two fault-free executions are equivalent.
* **compiled vs scalar** — each engine's block-compiled cold run vs its
  own scalar loop, as whole results (status, output, exit value,
  instruction count, trap kind and detail), and again at a budget drawn
  from the fuzz seed inside the run's length, which cuts it mid-way —
  on a chained edge or a phi move of the program's CFG.
* **pass pipeline** — the full -O1-ish pipeline vs -O0, both on the IR
  interpreter. A mismatch is localized to the first pipeline prefix
  whose behaviour differs from -O0.
* **checkpoint-restore** — a recording run at a couple of strides and
  the automatic policy, with block compilation on and off, then resume
  from the first/middle/last snapshot on both engines; every resumed run
  must finish bit-identically to the cold run (including total
  instruction count), and once more with the convergence probe armed,
  which must stop the fault-free run at the next recorded checkpoint.
* **campaign determinism** (off by default: it runs real injection
  trials) — the generated program registered as a temporary workload,
  then ``jobs=1`` vs ``jobs=2`` and ``checkpoint_stride=-1`` vs ``0``
  campaigns compared trial-by-trial, under one registered fault model
  drawn from the fuzz seed (so sampled seeds collectively sweep the
  whole registry, not just the paper's bitflip).

All checks run everything they can even after the first divergence, so
one fuzz run reports every disagreeing layer at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.backend import compile_module
from repro.minic import compile_source
from repro.vm.asmsim import AsmSimulator
from repro.vm.irinterp import IRInterpreter
from repro.vm.result import ExecutionResult
from repro.vm.snapshot import CheckpointStore, record_checkpoints

#: The default pipeline's pass order, used for mismatch localization.
_PIPELINE = ("simplifycfg", "inline", "mem2reg", "constfold", "dce",
             "simplifycfg2", "dce2")


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between two layers on one program."""

    check: str        # "compile" | "engine-parity" | "pass:<name>" | ...
    detail: str       # human-readable what-differed summary
    source: str       # the program that exposed it
    seed: Optional[int] = None

    def describe(self) -> str:
        seed = f" seed={self.seed}" if self.seed is not None else ""
        return f"[{self.check}]{seed} {self.detail}"


@dataclass
class OracleConfig:
    check_engines: bool = True
    check_passes: bool = True
    check_checkpoints: bool = True
    #: Campaign agreement re-executes the program hundreds of times; the
    #: fuzz CLI samples it on a subset of seeds rather than every one.
    check_campaigns: bool = False
    #: Fault model the campaign checks inject with. None draws a
    #: registered model from the fuzz seed, so a long fuzz run covers the
    #: whole registry (engine parity and checkpoint-restore identity must
    #: hold per model, not just for the paper's bitflip).
    campaign_fault_model: Optional[str] = None
    #: Strides are primes so checkpoints land at "awkward" points (mid
    #: loop, mid call stack) rather than aligning with loop trip counts;
    #: -1 is the automatic policy (provisional stride, then N // 20).
    checkpoint_strides: Tuple[int, ...] = (97, 463, -1)
    campaign_trials: int = 6
    campaign_seed: int = 20140623
    #: Execution cap for every oracle run. Generated programs terminate
    #: by construction, but shrink candidates can lose a loop decrement
    #: and spin forever; without a bound each such candidate costs the
    #: engines' 50M/100M-instruction default hang limits. Runs that hit
    #: this cap report status "hang" on both engines and compare equal.
    max_instructions: int = 2_000_000


def _fingerprint(result: ExecutionResult) -> Tuple:
    return (result.status, result.output, result.exit_value)


def _describe(result: ExecutionResult) -> str:
    text = f"status={result.status} exit={result.exit_value}"
    if result.trap is not None:
        text += f" trap={result.trap}"
    return f"{text} output={result.output!r}"


def _diff(a: ExecutionResult, b: ExecutionResult,
          a_name: str, b_name: str) -> str:
    parts = []
    if a.status != b.status:
        parts.append(f"status {a.status}/{b.status}")
    if a.output != b.output:
        parts.append(f"output {a.output!r} != {b.output!r}")
    if a.exit_value != b.exit_value:
        parts.append(f"exit {a.exit_value} != {b.exit_value}")
    return f"{a_name} vs {b_name}: " + "; ".join(parts or ["identical"])


class Oracle:
    """One program, compiled once, checked across every layer."""

    def __init__(self, source: str, config: Optional[OracleConfig] = None,
                 seed: Optional[int] = None) -> None:
        self.source = source
        self.config = config or OracleConfig()
        self.seed = seed
        self.divergences: List[Divergence] = []

    def _report(self, check: str, detail: str) -> None:
        self.divergences.append(
            Divergence(check=check, detail=detail, source=self.source,
                       seed=self.seed))

    def run(self) -> List[Divergence]:
        cfg = self.config
        try:
            module = compile_source(self.source)
            program = compile_module(module)
        except Exception as exc:  # compile crash is itself a finding
            self._report("compile", f"{type(exc).__name__}: {exc}")
            return self.divergences
        cap = cfg.max_instructions
        ir_cold = IRInterpreter(module, max_instructions=cap).run()
        asm_cold = AsmSimulator(program, max_instructions=cap).run()
        if cfg.check_engines:
            self._check_engines(ir_cold, asm_cold)
        self._check_compiled(module, program, ir_cold, asm_cold)
        if cfg.check_passes:
            self._check_passes(ir_cold)
        if cfg.check_checkpoints:
            self._check_checkpoints(module, program, ir_cold, asm_cold)
        if cfg.check_campaigns:
            self._check_campaigns()
        return self.divergences

    # -- engine parity ---------------------------------------------------------

    def _check_engines(self, ir_cold: ExecutionResult,
                       asm_cold: ExecutionResult) -> None:
        if ir_cold.hung and asm_cold.hung:
            # Both runs hit the oracle's instruction cap. The engines
            # execute different instruction counts per source statement,
            # so partial output at an artificial cutoff is not
            # comparable bit-for-bit.
            return
        if _fingerprint(ir_cold) != _fingerprint(asm_cold):
            self._report("engine-parity",
                         _diff(ir_cold, asm_cold, "IRInterpreter",
                               "AsmSimulator"))

    # -- compiled vs scalar ----------------------------------------------------

    def _check_compiled(self, module, program, ir_cold: ExecutionResult,
                        asm_cold: ExecutionResult) -> None:
        """Each engine's compiled run equals its scalar loop's, whole
        result for whole result, at the oracle's cap and at a budget from
        the fuzz seed inside ``[1, instructions]``."""
        cap = self.config.max_instructions
        engines = (
            ("IRInterpreter", ir_cold,
             lambda budget, compiled: IRInterpreter(
                 module, max_instructions=budget,
                 compile_blocks=compiled).run()),
            ("AsmSimulator", asm_cold,
             lambda budget, compiled: AsmSimulator(
                 program, max_instructions=budget,
                 compile_blocks=compiled).run()),
        )
        for name, cold, run in engines:
            rng = random.Random(f"{self.seed}:{name}")
            budget = 1 + rng.randrange(max(cold.instructions, 1))
            for limit, compiled in ((cap, cold),
                                    (budget, run(budget, True))):
                scalar = run(limit, False)
                if compiled != scalar:
                    self._report(
                        "compiled",
                        f"{name} at max_instructions={limit}: compiled "
                        f"{_describe(compiled)} instructions="
                        f"{compiled.instructions} != scalar "
                        f"{_describe(scalar)} instructions="
                        f"{scalar.instructions}")

    # -- pass pipeline ---------------------------------------------------------

    def _run_prefix(self, upto: int) -> ExecutionResult:
        """-O0 compile, then the first ``upto`` pipeline passes."""
        from repro.ir.passes.manager import PassManager
        from repro.ir.passes.constfold import fold_constants
        from repro.ir.passes.dce import eliminate_dead_code
        from repro.ir.passes.inline import inline_functions
        from repro.ir.passes.mem2reg import promote_memory_to_registers
        from repro.ir.passes.simplifycfg import simplify_cfg

        impl = {"simplifycfg": simplify_cfg, "inline": inline_functions,
                "mem2reg": promote_memory_to_registers,
                "constfold": fold_constants, "dce": eliminate_dead_code,
                "simplifycfg2": simplify_cfg, "dce2": eliminate_dead_code}
        module = compile_source(self.source, optimize=False)
        pm = PassManager()
        for name in _PIPELINE[:upto]:
            pm.add(name, impl[name])
        pm.run(module)
        return IRInterpreter(
            module, max_instructions=self.config.max_instructions).run()

    def _check_passes(self, ir_opt: ExecutionResult) -> None:
        unopt = self._run_prefix(0)
        if unopt.hung or ir_opt.hung:
            # Passes legitimately change instruction counts, so hitting
            # the oracle cap on one side only is not a real divergence.
            return
        if _fingerprint(unopt) == _fingerprint(ir_opt):
            return
        # Localize: first pipeline prefix that disagrees with -O0.
        culprit = _PIPELINE[-1]
        for upto in range(1, len(_PIPELINE) + 1):
            prefix = self._run_prefix(upto)
            if _fingerprint(prefix) != _fingerprint(unopt):
                culprit = _PIPELINE[upto - 1]
                break
        self._report(f"pass:{culprit}",
                     _diff(unopt, ir_opt, "-O0", "pipeline")
                     + f" (first divergent pass: {culprit})")

    # -- checkpoint/restore ----------------------------------------------------

    def _check_checkpoints(self, module, program,
                           ir_cold: ExecutionResult,
                           asm_cold: ExecutionResult) -> None:
        cap = self.config.max_instructions
        engines = [
            ("IRInterpreter", ir_cold,
             lambda **kw: IRInterpreter(module, max_instructions=cap, **kw)),
            ("AsmSimulator", asm_cold,
             lambda **kw: AsmSimulator(program, max_instructions=cap, **kw)),
        ]
        for name, cold, make in engines:
            if not cold.completed:
                continue
            for stride in self.config.checkpoint_strides:
                if stride >= cold.instructions:
                    continue
                # Compiled recordings capture at segment boundaries,
                # scalar ones at the exact stride marks: both must resume.
                for compiled in (True, False):
                    how = f"stride {stride}, " + (
                        "compiled" if compiled else "scalar")
                    self._check_recording(name, cold, make, stride,
                                          compiled, how)

    def _check_recording(self, name: str, cold: ExecutionResult,
                         make: Callable, stride: int, compiled: bool,
                         how: str) -> None:
        """Record at ``stride`` (-1: the automatic policy), then resume the
        first, middle and last snapshot twice: plainly, and with the
        convergence probe armed, which must stop the fault-free run at
        the next recorded checkpoint with the golden result."""
        diverged = []

        def record(store: CheckpointStore) -> ExecutionResult:
            recorded = make(
                checkpoint_stride=store.stride,
                checkpoint_sink=lambda snap: store.record(snap, {}),
                compile_blocks=compiled).run()
            if (_fingerprint(recorded) != _fingerprint(cold)
                    or recorded.instructions != cold.instructions):
                diverged.append(recorded)
            return recorded

        store = record_checkpoints(record, stride)
        if diverged:
            self._report(
                "checkpoint",
                f"{name}: recording run ({how}) != cold run: "
                f"{_diff(cold, diverged[0], 'cold', 'rec')}")
            return
        snaps = store.snapshots
        for i in sorted({0, len(snaps) // 2, len(snaps) - 1} if snaps
                        else ()):
            engine = make()
            engine.restore(snaps[i])
            resumed = engine.run()
            if (_fingerprint(resumed) != _fingerprint(cold)
                    or resumed.instructions != cold.instructions):
                self._report(
                    "checkpoint",
                    f"{name}: resume at executed={snaps[i].executed} "
                    f"({how}) != cold: "
                    f"{_diff(cold, resumed, 'cold', 'res')}")
            # A scalar run taps every instruction boundary, so it lands on
            # the next checkpoint whichever way it was recorded.
            engine = make(compile_blocks=False)
            engine.restore(snaps[i])
            engine.probe(snaps, i + 1, store.final)
            probed = engine.run()
            stop = snaps[i + 1].executed if i + 1 < len(snaps) \
                else probed.instructions
            if (_fingerprint(probed) != _fingerprint(cold)
                    or probed.instructions != cold.instructions
                    or engine.executed != stop
                    or engine.converged != (i + 1 < len(snaps))):
                self._report(
                    "checkpoint",
                    f"{name}: probed resume at executed="
                    f"{snaps[i].executed} ({how}) stopped at "
                    f"{engine.executed}, expected {stop}: "
                    f"{_diff(cold, probed, 'cold', 'probe')}")

    # -- campaign determinism --------------------------------------------------

    def _check_campaigns(self) -> None:
        from repro.fi.campaign import CampaignConfig
        from repro.fi.engine import (
            InjectorSpec, forget_workload, run_parallel_campaign,
            shutdown_pool,
        )
        from repro.fi.fault import list_fault_models
        from repro.workloads import Workload, temporary_workload

        name = "fuzz-oracle-tmp"
        workload = Workload(
            name=name, mirrors="(generated)", suite="fuzz",
            description="differential-fuzzer temporary workload",
            source=self.source, input_description="none")
        cfg = self.config
        # The fault-model axis: each sampled seed exercises one registered
        # model (drawn from the seed, so reruns are reproducible and a
        # long fuzz run walks the whole registry).
        model = cfg.campaign_fault_model
        if model is None:
            models = list_fault_models()
            model = models[(self.seed or 0) % len(models)]
        try:
            with temporary_workload(workload):
                for tool in ("LLFI", "PINFI"):
                    spec = InjectorSpec(name, tool)
                    base = run_parallel_campaign(
                        spec, "all",
                        CampaignConfig(trials=cfg.campaign_trials,
                                       seed=cfg.campaign_seed,
                                       fault_model=model), jobs=1)
                    variants = [
                        # The scalar loop: compiled-vs-scalar injection
                        # identity (counted segments, traps from corrupted
                        # pointers inside segments, hangs at the budget).
                        ("scalar", CampaignConfig(
                            trials=cfg.campaign_trials,
                            seed=cfg.campaign_seed,
                            fault_model=model, no_compile=True), 1),
                        ("jobs=2", CampaignConfig(
                            trials=cfg.campaign_trials,
                            seed=cfg.campaign_seed,
                            fault_model=model), 2),
                        ("checkpointed", CampaignConfig(
                            trials=cfg.campaign_trials,
                            seed=cfg.campaign_seed,
                            fault_model=model,
                            checkpoint_stride=-1), 1),
                        ("batched", CampaignConfig(
                            trials=cfg.campaign_trials,
                            seed=cfg.campaign_seed,
                            fault_model=model,
                            checkpoint_stride=-1, batch=-1), 1),
                    ]
                    for label, config, jobs in variants:
                        other = run_parallel_campaign(spec, "all", config,
                                                      jobs=jobs)
                        detail = _campaign_diff(base, other)
                        if detail:
                            self._report(
                                "campaign",
                                f"{tool} all [{model}]: {label} != jobs=1: "
                                f"{detail}")
        finally:
            shutdown_pool()
            forget_workload(name)


def _campaign_diff(a, b) -> Optional[str]:
    """None when two campaigns are bit-identical, else a summary."""
    if a.counts != b.counts:
        return f"counts {a.counts} != {b.counts}"
    if a.not_activated != b.not_activated:
        return f"not_activated {a.not_activated} != {b.not_activated}"
    if a.dynamic_candidates != b.dynamic_candidates:
        return (f"dynamic_candidates {a.dynamic_candidates} != "
                f"{b.dynamic_candidates}")
    for ta, tb in zip(a.records, b.records):
        key = lambda t: (t.k, t.outcome, t.record.dynamic_index,
                         t.record.bit_positions, t.record.target,
                         t.record.width)
        if key(ta) != key(tb):
            return f"trial k={ta.k}: {key(ta)} != {key(tb)}"
    if len(a.records) != len(b.records):
        return f"record count {len(a.records)} != {len(b.records)}"
    return None


def check_program(source: str, config: Optional[OracleConfig] = None,
                  seed: Optional[int] = None) -> List[Divergence]:
    """Run every enabled differential check; [] means all layers agree."""
    return Oracle(source, config, seed).run()


def parity_predicate(config: Optional[OracleConfig] = None
                     ) -> Callable[[str], bool]:
    """A shrinker predicate: "this source still diverges somewhere"."""
    cfg = config or OracleConfig()

    def still_fails(source: str) -> bool:
        try:
            return bool(check_program(source, cfg))
        except Exception:
            return True  # an oracle crash is also a failure worth keeping

    return still_fails
