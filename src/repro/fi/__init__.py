"""Fault injection: LLFI (IR level), PINFI (assembly level), campaigns.

Typical use::

    from repro.minic import compile_source
    from repro.backend import compile_module
    from repro.fi import LLFIInjector, PINFIInjector, run_campaign

    module = compile_source(source)
    program = compile_module(module)   # must run before building injectors
    llfi = LLFIInjector(module)
    pinfi = PINFIInjector(program)
    print(run_campaign(llfi, "all").summary())
    print(run_campaign(pinfi, "all").summary())
"""

from repro.fi.base import BaseInjector
from repro.fi.campaign import (
    DEFAULT_CHECKPOINT_STRIDE, DEFAULT_ROUND_SIZE, CampaignConfig,
    CampaignResult, StopDecision, Trial, TrialStats, derive_trial_seed,
    evaluate_stop, plan_rounds, run_campaign, run_grid, trial_stream,
)
from repro.fi.categories import CATEGORIES, llfi_candidates, pinfi_candidates
from repro.fi.engine import (
    InjectorSpec, resolve_jobs, run_parallel_campaign, shutdown_pool,
)
from repro.fi.fault import (
    FaultModel, FaultRecord, IntermittentFlip, MemoryBitFlip, MultiBitFlip,
    SingleBitFlip, StuckAtOne, StuckAtZero, get_fault_model,
    list_fault_models, register_fault_model,
)
from repro.fi.llfi import LLFIInjector, LLFIOptions
from repro.fi.outcome import Outcome, classify
from repro.fi.pinfi import PINFIInjector, PINFIOptions
from repro.fi.stats import (
    Proportion, outcome_margins, two_proportion_z, wilson_interval,
)
from repro.fi.trace import PropagationTrace, trace_propagation

__all__ = [
    "BaseInjector",
    "CATEGORIES",
    "CampaignConfig",
    "CampaignResult",
    "DEFAULT_CHECKPOINT_STRIDE",
    "DEFAULT_ROUND_SIZE",
    "StopDecision",
    "Trial",
    "TrialStats",
    "evaluate_stop",
    "plan_rounds",
    "run_campaign",
    "run_grid",
    "run_parallel_campaign",
    "InjectorSpec",
    "derive_trial_seed",
    "trial_stream",
    "resolve_jobs",
    "shutdown_pool",
    "llfi_candidates",
    "pinfi_candidates",
    "FaultModel",
    "FaultRecord",
    "SingleBitFlip",
    "MultiBitFlip",
    "StuckAtZero",
    "StuckAtOne",
    "IntermittentFlip",
    "MemoryBitFlip",
    "register_fault_model",
    "get_fault_model",
    "list_fault_models",
    "LLFIInjector",
    "LLFIOptions",
    "Outcome",
    "classify",
    "PINFIInjector",
    "PINFIOptions",
    "Proportion",
    "outcome_margins",
    "two_proportion_z",
    "wilson_interval",
    "PropagationTrace",
    "trace_propagation",
]
