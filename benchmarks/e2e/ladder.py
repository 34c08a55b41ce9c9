"""Accelerator ladder: what each accelerator adds on top of the others.

Re-runs the ``deep`` cells up the ladder scalar -> +checkpoint ->
+compile -> +batch, at ``jobs=1`` and then ``jobs=2``, and the
``adaptive`` cells with and without early stopping.  Each rung prints
its wall time, trials/s, ``vm.instr_per_run`` (simulated instructions
per injection run over the golden run's length) and its trials/s ratio
over the previous rung; early stopping shows in wall time, not
trials/s.
Every rung runs traced, so its manifests give the instruction counts;
the tracing overhead (``obs.trace_overhead_frac`` in the benchmark) is
in every rung alike.  Every rung's results must equal the first rung's.

It then splits a cell's wait into a fixed part and a per-trial part, at
the benchmark's 12 trials and the experiments CLI's default of 150, for
the local path (CLI defaults, ``jobs=2``) and the service (2 workers, 2
shards, 2 clients): how much of what ``grid`` and ``service`` time is
per-cell overhead that a user running default-sized cells would not
see.

Opt-in and not part of the measured runs: it takes minutes.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import tempfile
import time

from repro.experiments.common import campaign_cell
from repro.fi import InjectorSpec, shutdown_pool
from repro.fi.campaign import prepare_campaign
from repro.fi.engine import injector_for_spec
from repro.service.store import DirectoryStore

from layers import manifest_layers
from stats import Ledger
from workloads import (
    TOOLS, Checker, ServiceRunner, Workload, scalar_config, workload_defs,
)

#: Trials per cell of the fixed/per-trial split: the benchmark's grid
#: and service cells, and the experiments CLI's default.
COST_TRIALS = (12, 150)
COST_PROGRAMS = ("libquantumm", "mcfm")


def _rungs(base, jobs):
    scalar = dataclasses.replace(scalar_config(base), jobs=jobs)
    checkpoint = dataclasses.replace(scalar, checkpoint_stride=-1)
    compiled = dataclasses.replace(checkpoint, no_compile=False)
    batched = dataclasses.replace(compiled, batch=-1)
    return [(f"scalar jobs={jobs}", scalar),
            (f"+checkpoint jobs={jobs}", checkpoint),
            (f"+compile jobs={jobs}", compiled),
            (f"+batch jobs={jobs}", batched)]


def _run(workload, config, work: str, name: str):
    """Prepare outside the timing, then time every cell; returns
    (wall seconds, trials/s, vm.instr_per_run, results)."""
    for program in workload.programs:
        for tool in TOOLS:
            prepare_campaign(injector_for_spec(InjectorSpec(program, tool)),
                             "all", config)
    trace_dir = os.path.join(work, name, "obs")
    config = dataclasses.replace(config, trace_dir=trace_dir)
    store = DirectoryStore(os.path.join(work, name, "store"))
    slots, results = 0, []
    t0 = time.perf_counter()
    for cell in workload.cells():
        result = campaign_cell(cell.workload, cell.tool, cell.category,
                               config, store=store)
        slots += result.trials
        results.append(result.to_json(include_records=True))
    wall = time.perf_counter() - t0
    instr = manifest_layers(trace_dir, config.jobs)["vm.instr_per_run"]
    return wall, slots / wall, instr, results


def _local_waits(trials: int, work: str) -> float:
    """Mean seconds per ``campaign_cell`` call at the experiments CLI's
    defaults, preparation excluded."""
    workload = Workload("cost", "campaign", COST_PROGRAMS, ("all",), trials,
                        0.0)
    wall = _run(workload, workload.config(), work, f"local-{trials}")[0]
    return wall / len(workload.cells())


def _service_waits(trials: int, work: str, root: str) -> float:
    """Mean seconds from submit to fetched per service job, two clients
    in flight, after the service's usual warm-up."""
    workload = Workload("cost", "service", COST_PROGRAMS, ("all",), trials,
                        0.0)
    runner = ServiceRunner(workload, work, Checker({}, Ledger()), root,
                           hits_per_pass=0)
    try:
        runner.setup()
        done = runner.closed_loop([runner.request(cell, "cost")
                                   for cell in workload.cells()])
    finally:
        runner.close()
    if any(data is None for *_rest, data in done):
        raise RuntimeError("a service job failed")
    return statistics.mean(seconds for _r, _j, seconds, _d in done)


def cell_cost(root: str, work: str) -> None:
    """Fit wait = fixed + per_trial * trials through the two sizes of
    :data:`COST_TRIALS` and print the fixed share at each."""
    small, large = COST_TRIALS
    print(f"\n{'path':8} {'s/cell@' + str(small):>11} "
          f"{'s/cell@' + str(large):>12} {'fixed s':>8} {'s/trial':>8} "
          f"{'fixed@' + str(small):>9} {'fixed@' + str(large):>10}")
    for path, measure in (("local", _local_waits),
                          ("service", lambda n, w: _service_waits(n, w,
                                                                  root))):
        at = {n: measure(n, work) for n in COST_TRIALS}
        per_trial = (at[large] - at[small]) / (large - small)
        fixed = at[small] - small * per_trial
        print(f"{path:8} {at[small]:11.3f} {at[large]:12.3f} {fixed:8.3f} "
              f"{per_trial:8.4f} {fixed / at[small]:9.0%} "
              f"{fixed / at[large]:10.0%}", flush=True)


def ladder(root: str, work_root: str) -> int:
    os.makedirs(work_root, exist_ok=True)
    workloads = workload_defs()
    deep, adaptive = workloads["deep"], workloads["adaptive"]
    fast = adaptive.config()
    ladders = [[(deep, name, config) for name, config in
                _rungs(deep.config(), jobs)]
               for jobs in (1, 2)]
    ladders.append([(adaptive, "adaptive full budget",
                     dataclasses.replace(fast, ci_margin=0.0,
                                         round_size=0)),
                    (adaptive, "adaptive early stop", fast)])
    print(f"{'rung':26} {'wall s':>7} {'trials/s':>9} {'instr/run':>10} "
          f"{'ratio':>7}")
    ok = True
    reference = {}
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        for rungs in ladders:
            previous = None
            for workload, name, config in rungs:
                wall, rate, instr, results = _run(workload, config, work,
                                                  name)
                ratio = rate / previous if previous else 1.0
                print(f"{name:26} {wall:7.2f} {rate:9.2f} {instr:10.4f} "
                      f"{ratio:7.2f}", flush=True)
                previous = rate
                # Early stopping changes the result by design; every
                # other rung must reproduce the first rung of its
                # workload.
                if config.ci_margin == 0:
                    same = reference.setdefault(workload.name, results)
                    ok = ok and same == results
        shutdown_pool()
        print("results identical across rungs" if ok else
              "RESULTS DIFFER ACROSS RUNGS", flush=True)
        cell_cost(root, work)
    shutdown_pool()
    return 0 if ok else 1
