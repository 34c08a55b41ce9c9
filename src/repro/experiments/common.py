"""Shared experiment infrastructure: injector construction, campaign
caching, CLI plumbing.

Campaigns are expensive (each trial re-executes a whole benchmark), so
every cell is cached in a **campaign store** (:mod:`repro.service.store`)
keyed by its :class:`~repro.service.request.CampaignRequest` — the
frozen identity object that owns the key derivation.  The default store
is the classic ``results/`` file-per-key directory; ``--store
sqlite:PATH`` switches every experiment onto one SQLite database that
additionally dedups golden-run artifacts across campaigns and doubles as
the job queue of the campaign service (``python -m repro.service``).
Delete the directory/database to force re-runs.

Campaigns dispatch through the parallel engine (``repro.fi.engine``);
``--jobs`` controls the worker count and does not affect results (per-trial
RNG streams make every job count bit-identical), so it is deliberately not
part of the cache key.  The same holds for ``--checkpoint-stride``: trials
resumed from a golden checkpoint are bit-identical to cold-start trials
(the differential tests in ``tests/fi/test_checkpoint.py`` prove it), so
the stride is a pure accelerator and must never enter the cache key —
cached results stay valid whatever stride produced them.  ``--batch``
(batched suffix execution, see ``repro.vm.batch``) is an accelerator of
the same kind — batched lanes are bit-identical to scalar trials
(``tests/fi/test_batch_campaign.py``) — and is likewise excluded, as is
``--no-compile`` (block-compiled execution, see ``repro.vm.blockcache``:
compiled runs are bit-identical to the scalar loop by construction,
``tests/vm/test_blockcompile.py``).
``--trace`` / ``--trace-dir`` (run manifests, see ``repro.obs``) are
inert too; note a cache hit skips the campaign and therefore writes no
manifest.

``--ci-margin`` (Wilson-CI early stopping) is the exception: it decides
how many trial slots actually run, so it — and the resolved
``--round-size``, which sets where stop decisions can fall — **is** part
of the key whenever it is nonzero.  ``--fault-model`` is a key component
for the same reason: it decides what the firing injection does.  The
full identity/accelerator split lives on ``CampaignRequest`` itself.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

from typing import Optional, Union

from repro.fi import (
    DEFAULT_CHECKPOINT_STRIDE, DEFAULT_ROUND_SIZE, CampaignConfig,
    CampaignResult, InjectorSpec, LLFIInjector, LLFIOptions, PINFIInjector,
    PINFIOptions,
)
from repro.fi.engine import injector_for_spec
from repro.fi.fault import list_fault_models
from repro.service.request import CACHE_FORMAT_VERSION, CampaignRequest
from repro.service.runtime import run_request
from repro.service.store import CampaignStore, DirectoryStore, as_store
from repro.workloads import workload_names

DEFAULT_RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR", "results")

__all__ = [
    "CACHE_FORMAT_VERSION", "DEFAULT_RESULTS_DIR", "Injectors",
    "campaign_cell", "config_from_args",
    "experiment_argparser", "injectors_for", "selected_benchmarks",
    "store_from_args", "trace_dir_from_args",
]


@dataclass
class Injectors:
    llfi: LLFIInjector
    pinfi: PINFIInjector


def injectors_for(name: str, llfi_options: Optional[LLFIOptions] = None,
                  pinfi_options: Optional[PINFIOptions] = None) -> Injectors:
    """LLFI + PINFI injectors over one workload.

    Backed by the engine's spec-keyed cache, so experiment code and the
    parallel engine share one injector (and its memoised golden/profiling
    runs) per (workload, options)."""
    return Injectors(
        injector_for_spec(InjectorSpec(name, "LLFI",
                                       llfi_options=llfi_options)),
        injector_for_spec(InjectorSpec(name, "PINFI",
                                       pinfi_options=pinfi_options)))


# -- cached campaign cells (the store-backed canonical API) --------------------

def campaign_cell(workload: str, tool: str, category: str,
                  config: CampaignConfig,
                  store: Union[CampaignStore, str, None] = None,
                  variant: str = "",
                  llfi_options: Optional[LLFIOptions] = None,
                  pinfi_options: Optional[PINFIOptions] = None,
                  ) -> CampaignResult:
    """Run (or load from the store) one campaign cell.

    The identity comes from the :class:`CampaignRequest` built out of the
    arguments; ``config`` additionally supplies the accelerator knobs
    (jobs, checkpoint stride, batching, tracing) for a cache miss.
    ``store`` accepts a :class:`CampaignStore`, a store spec / results
    directory string, or None (the default results directory)."""
    request = CampaignRequest.from_config(
        workload, tool, category, config, variant=variant,
        llfi_options=llfi_options, pinfi_options=pinfi_options)
    return run_request(request, store=as_store(store, DEFAULT_RESULTS_DIR),
                       config=config)


# -- CLI ------------------------------------------------------------------------

def experiment_argparser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--trials", type=int, default=150,
                        help="injections per (benchmark, category, tool) "
                             "cell (paper: 1000)")
    parser.add_argument("--seed", type=int, default=20140623)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="campaign worker processes (default: one per "
                             "CPU; results are identical for any value)")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="subset of workloads (default: all six)")
    parser.add_argument("--fault-model", default="bitflip",
                        help="fault-model spec from the registry "
                             f"({', '.join(list_fault_models())}; "
                             "parameterized entries take a -<int> suffix, "
                             "e.g. multibit-4). The sweep experiment also "
                             "accepts 'all' or a comma-separated list. "
                             "Part of the results cache key")
    parser.add_argument("--checkpoint-stride", type=int,
                        default=DEFAULT_CHECKPOINT_STRIDE,
                        help="golden-run checkpoint stride in instructions; "
                             "0 disables checkpoint resume, negative picks "
                             "~1/20 of the golden run (default; results are "
                             "identical for any value)")
    parser.add_argument("--ci-margin", type=float, default=0.0,
                        help="Wilson-CI early stopping: stop a cell once "
                             "every outcome proportion's 95%% CI margin is "
                             "below this (e.g. 0.03). 0 (default) disables "
                             "it and runs the full trial budget; a stopped "
                             "cell equals the trials=n_stop run exactly")
    parser.add_argument("--round-size", type=int, default=0,
                        help="trials per scheduling round for early "
                             "stopping (0 picks the default of "
                             f"{DEFAULT_ROUND_SIZE}; ignored unless "
                             "--ci-margin is set)")
    parser.add_argument("--batch", type=int, default=0,
                        help="batched suffix execution: fork up to this "
                             "many trials per checkpoint bucket from one "
                             "shared sweep (0 disables, negative picks the "
                             "default lane count; results are identical "
                             "for any value)")
    parser.add_argument("--no-compile", action="store_true",
                        help="disable block-compiled execution and run "
                             "every engine on the scalar per-instruction "
                             "loop (escape hatch; results are identical "
                             "either way)")
    parser.add_argument("--results-dir", default=DEFAULT_RESULTS_DIR)
    parser.add_argument("--store", default=None,
                        help="campaign store spec: 'sqlite:PATH' (or a "
                             "bare *.db/*.sqlite path) for the SQLite "
                             "backend with cross-campaign golden-run "
                             "dedup, 'dir:PATH' or any other path for the "
                             "classic file-per-key layout (default: "
                             "--results-dir). The same SQLite store backs "
                             "the campaign service (python -m "
                             "repro.service)")
    parser.add_argument("--trace", action="store_true",
                        help="collect per-trial observability statistics "
                             "and write JSONL run manifests under "
                             "<results-dir>/obs/ (inert: results are "
                             "bit-identical with tracing on or off)")
    parser.add_argument("--trace-dir", default=None,
                        help="directory for run manifests (implies --trace; "
                             "default: <results-dir>/obs)")
    return parser


def selected_benchmarks(args) -> list:
    names = workload_names()
    if args.benchmarks:
        for b in args.benchmarks:
            if b not in names:
                raise SystemExit(f"unknown benchmark {b!r}; have {names}")
        return args.benchmarks
    return names


def store_from_args(args) -> CampaignStore:
    """The campaign store an experiment invocation writes to: ``--store``
    wins, otherwise the classic ``--results-dir`` directory layout."""
    spec = getattr(args, "store", None)
    if spec:
        return as_store(spec, DEFAULT_RESULTS_DIR)
    return DirectoryStore(getattr(args, "results_dir",
                                  DEFAULT_RESULTS_DIR))


def trace_dir_from_args(args) -> Optional[str]:
    """Resolve the manifest directory: --trace-dir wins; bare --trace puts
    manifests next to the results cache."""
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir:
        return trace_dir
    if getattr(args, "trace", False):
        results_dir = getattr(args, "results_dir", DEFAULT_RESULTS_DIR)
        return os.path.join(results_dir, "obs")
    return None


def config_from_args(args) -> CampaignConfig:
    return CampaignConfig(trials=args.trials, seed=args.seed,
                          fault_model=getattr(args, "fault_model", "bitflip"),
                          jobs=getattr(args, "jobs", 1),
                          checkpoint_stride=getattr(
                              args, "checkpoint_stride",
                              DEFAULT_CHECKPOINT_STRIDE),
                          ci_margin=getattr(args, "ci_margin", 0.0),
                          round_size=getattr(args, "round_size", 0),
                          batch=getattr(args, "batch", 0),
                          no_compile=getattr(args, "no_compile", False),
                          trace=getattr(args, "trace", False),
                          trace_dir=trace_dir_from_args(args))
