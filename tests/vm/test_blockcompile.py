"""Differential tests for block-compiled execution (repro.vm.blockcache).

The contract (ISSUE 8): campaigns run with compilation enabled (the
default) must be *bit-identical* to ``no_compile=True`` campaigns — the
full ``CampaignResult.to_json(include_records=True)`` form — for both
tools, across every category, with checkpoints on or off, batched or
scalar, at any job count.  A lane with a pending injection falls back to
the per-instruction loop for that block, so identity holds by
construction; these tests re-verify it empirically and pin the fallback
rules themselves (a block containing an armed hook's candidate runs
scalar even when its compare+branch pair was fused).  Checkpoint
recording compiles: every checkpoint of a compiled recording must equal
the scalar recording's capture at the same boundary, counts included.
"""

import gc
import glob
import os
import pickle
import random
import weakref

import pytest

from repro.backend import compile_module
from repro.fi import (
    CampaignConfig, InjectorSpec, LLFIInjector, PINFIInjector, run_campaign,
    run_parallel_campaign, shutdown_pool,
)
from repro.fi.base import BatchRequest
from repro.fi.categories import CATEGORIES
from repro.fi.engine import forget_workload, injector_for_spec
from repro.ir.instructions import Phi
from repro.ir.values import ConstantInt
from repro.minic import compile_source
from repro.obs.manifest import manifest_filename, read_manifest
from repro.vm.asmsim import AsmSimulator
from repro.vm.blockcache import (
    UNCOMPILABLE, cache_for, invalidate_cache, peek_cache,
)
from repro.vm.irinterp import IRInterpreter
from repro.workloads import Workload, build, registry, workload_names
from tests.conftest import PAPER_SEED

# Same shape as tests/fi/test_batch_campaign.py's workload: calls,
# branches, doubles and loads, so every category has candidates and the
# compiler meets both superinstruction patterns.
SRC = """
double table[16];
long acc(long s, double v) { return s + (long)(v * 4.0); }
int main() {
    int i;
    long s = 0;
    for (i = 0; i < 16; i++) {
        table[i] = (double)(i * 3 + 1) * 0.25;
        s = acc(s, table[i]);
    }
    double d = 0.0;
    for (i = 0; i < 16; i++) { if (table[i] > 1.0) d = d + table[i]; }
    print_long(s); print_char(10);
    print_double(d);
    return (int)s % 31;
}
"""

#: Recursion the inliner keeps: checkpoints land inside nested frames,
#: whose suspended callers must resume at their pending call.
RECURSIVE_SRC = """
double scale[8];
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int i;
    long s = 0;
    for (i = 0; i < 8; i++) scale[i] = (double)i * 0.5;
    for (i = 0; i < 12; i++) s = s + (long)fib(i % 9) * (i + 1);
    print_long(s); print_char(10);
    print_double(scale[3] * (double)s);
    return 0;
}
"""

#: A loop that compiles, then one access that traps inside a compiled
#: segment (``%s``: an out-of-range load or store, or a division by zero).
TRAP_SRC = """
long table[8];
int main() {
    int i;
    long s = 0;
    for (i = 0; i < 8; i++) { table[i] = i * 3; s = s + table[i]; }
    print_long(s); print_char(10);
    long far = s * 1000000;
    %s
    print_long(s);
    return 0;
}
"""

TRIALS = 8
SEED = 80914

#: Largest share of a compiled campaign's dispatched segments that may
#: run on the scalar loop.  Pending injections and poison, segments whose
#: candidates reach the trigger and segments that could cross the hang
#: budget fall back by design; a generator gap that sends a common
#: opcode to the scalar loop would show here long before it showed in
#: wall time.
MAX_FALLBACK_RATE = 0.02

#: The real-workload grid: (workload, category, tool).  mcfm is
#: pointer-chasing, with the most traps inside segments.
REAL_CELLS = [(w, c, t) for w in ("libquantumm", "mcfm")
              for c in ("arithmetic", "all") for t in ("LLFI", "PINFI")]


@pytest.fixture(scope="module")
def built():
    module = compile_source(SRC)
    program = compile_module(module)
    return module, program


@pytest.fixture(scope="module")
def recursive():
    module = compile_source(RECURSIVE_SRC)
    program = compile_module(module)
    return module, program


def _fresh(tool, built):
    module, program = built
    return LLFIInjector(module) if tool == "LLFI" else PINFIInjector(program)


def _json(result):
    return result.to_json(include_records=True)


class TestEngineBitIdentity:
    """Golden runs: compiled and scalar dispatch agree exactly, and the
    compiled path actually runs (the test would pass vacuously
    otherwise)."""

    def test_ir_golden_matches_scalar(self, built):
        module, _ = built
        compiled_engine = IRInterpreter(module)
        compiled = compiled_engine.run()
        scalar_engine = IRInterpreter(module, compile_blocks=False)
        scalar = scalar_engine.run()
        assert compiled == scalar
        assert compiled_engine.compiled_blocks > 0
        assert scalar_engine.compiled_blocks == 0

    def test_asm_golden_matches_scalar(self, built):
        _, program = built
        compiled_engine = AsmSimulator(program)
        compiled = compiled_engine.run()
        scalar_engine = AsmSimulator(program, compile_blocks=False)
        scalar = scalar_engine.run()
        assert compiled == scalar
        assert compiled_engine.compiled_blocks > 0
        assert scalar_engine.compiled_blocks == 0

    def test_superinstructions_were_fused(self, built):
        """The workload's compare+branch loops must actually produce
        fused pairs — the fallback-inside-a-superinstruction tests below
        would be vacuous without them."""
        module, program = built
        IRInterpreter(module).run()
        AsmSimulator(program).run()
        assert cache_for(module).superinstructions > 0
        assert cache_for(program).superinstructions > 0

    def test_cache_is_shared_across_instances(self, built):
        """Two engines over the same program share one compilation."""
        module, _ = built
        IRInterpreter(module).run()
        cache = peek_cache(module)
        before = cache.blocks_compiled
        IRInterpreter(module).run()
        assert cache_for(module) is cache
        assert cache.blocks_compiled == before


def _result_key(result):
    """An ExecutionResult as comparable values (a Trap compares by
    identity)."""
    trap = result.trap
    return (result.status, trap and (trap.kind, trap.detail), result.output,
            result.instructions, result.exit_value)


class TestGeneratedCodeExactness:
    """The generated code keeps ``executed`` and the hang budget exact:
    a segment that could cross the budget runs on the scalar loop, and
    after an IR call the rest of the block does too."""

    @pytest.mark.parametrize("engine", ["IR", "asm"])
    @pytest.mark.parametrize("source", ["built", "recursive"])
    def test_budget_sweep_matches_scalar(self, engine, source, request):
        """Compiled and scalar runs agree at ``max_instructions`` = 1 and
        every 11th budget up to golden + 1: the prime stride walks across
        the positions inside the loops' segments."""
        module, program = request.getfixturevalue(source)

        def run(budget, compile_blocks):
            if engine == "IR":
                return IRInterpreter(module, max_instructions=budget,
                                     compile_blocks=compile_blocks).run()
            return AsmSimulator(program, max_instructions=budget,
                                compile_blocks=compile_blocks).run()

        golden = run(10_000_000, True)
        assert golden.completed
        end = golden.instructions + 1
        for budget in sorted({*range(1, end + 1, 11), end - 1, end}):
            compiled = run(budget, True)
            assert _result_key(compiled) == _result_key(run(budget, False)), \
                f"max_instructions={budget}"
            assert compiled.completed == (budget >= golden.instructions)

    @pytest.mark.parametrize("engine", ["IR", "asm"])
    @pytest.mark.parametrize("access", ["s = s + table[far];",
                                        "table[far] = s;",
                                        "s = s / (s - 84);"],
                             ids=["load", "store", "divide"])
    def test_traps_inside_segments_match_scalar(self, engine, access):
        """A trap raised inside a generated segment reports the scalar
        loop's kind, output and instruction count."""
        module = compile_source(TRAP_SRC % access)
        program = compile_module(module)

        def engine_for(compile_blocks):
            if engine == "IR":
                return IRInterpreter(module, compile_blocks=compile_blocks)
            return AsmSimulator(program, compile_blocks=compile_blocks)

        compiled_engine = engine_for(True)
        compiled = compiled_engine.run()
        assert compiled.crashed
        assert compiled_engine.fallback_blocks == 0  # trapped compiled
        assert _result_key(compiled) == _result_key(engine_for(False).run())

    @pytest.mark.parametrize("workload", workload_names())
    def test_golden_runs_compile_every_segment(self, workload):
        """No generator gap hides behind the region builder's catch-all:
        every segment a golden run dispatches compiles, on both
        engines."""
        built = build(workload)
        for engine, subject in ((IRInterpreter(built.module), built.module),
                                (AsmSimulator(built.program), built.program)):
            assert engine.run().completed
            assert engine.compiled_blocks > 0
            assert engine.fallback_blocks == 0
            cache = cache_for(subject)
            dispatched = [
                segment for region in cache.regions.values()
                for segment in (region.entries.values()
                                if region is not UNCOMPILABLE
                                else [UNCOMPILABLE])]
            assert UNCOMPILABLE not in dispatched


class TestTrapsAreValues:
    """A trap compares by kind and detail, so trapped results compare
    with plain ``==``, and survive pickling (worker results)."""

    @pytest.mark.parametrize("engine", ["IR", "asm"])
    @pytest.mark.parametrize("access", ["s = s + table[far];",
                                        "table[far] = s;",
                                        "s = s / (s - 84);"],
                             ids=["load", "store", "divide"])
    def test_compiled_trap_equals_scalar_trap(self, engine, access):
        module = compile_source(TRAP_SRC % access)
        program = compile_module(module)

        def run(compile_blocks):
            if engine == "IR":
                return IRInterpreter(module,
                                     compile_blocks=compile_blocks).run()
            return AsmSimulator(program, compile_blocks=compile_blocks).run()

        compiled = run(True)
        assert compiled.crashed
        assert compiled == run(False)

    def test_trapped_result_survives_pickling(self):
        module = compile_source(TRAP_SRC % "table[far] = s;")
        result = IRInterpreter(module).run()
        assert result.crashed
        assert pickle.loads(pickle.dumps(result)) == result


class TestSegmentChaining:
    @pytest.mark.parametrize("workload", workload_names())
    def test_golden_runs_chain_segments(self, workload):
        """A hook-free compiled golden run stays in its regions across
        the functions' edges: every workload runs at least five compiled
        segments per entry into the dispatch loop, on both engines."""
        built = build(workload)
        for engine in (IRInterpreter(built.module),
                       AsmSimulator(built.program)):
            assert engine.run().completed
            assert engine.compiled_blocks >= 5 * engine.dispatches > 0


#: One loop: the header's phis take 0 from the entry block.
LOOP_SRC = """
int main() {
    int i;
    long s = 0;
    for (i = 0; i < 10; i++) s = s + i;
    print_long(s);
    return 0;
}
"""


class TestCacheLifetime:
    def test_invalidate_drops_phi_moves(self):
        """Phi moves live in the program's phi edge table (the dispatch
        loop's phi batches) and in its regions (chained edges): a phi
        operand rewritten in place, then ``invalidate_cache``, is what
        the next compiled and scalar runs read."""
        module = compile_source(LOOP_SRC)
        for compile_blocks in (True, False):
            before = IRInterpreter(module, compile_blocks=compile_blocks).run()
            assert before.output == "45"
        phi = next(inst for inst in module.get_function("main").instructions()
                   if type(inst) is Phi and inst.type.bits == 32)
        index = next(n for n, (value, _) in enumerate(phi.incoming)
                     if isinstance(value, ConstantInt))
        phi.set_operand(index, ConstantInt(phi.type, 4))
        invalidate_cache(module)
        compiled = IRInterpreter(module).run()
        assert compiled.output == "39"  # 4 + 5 + ... + 9
        assert compiled == IRInterpreter(module, compile_blocks=False).run()

    def test_in_place_preparation_invalidates_segments(self):
        """A module rewritten in place (here by the backend's preparation,
        which splits critical edges) drops the segments and phi edges its
        earlier runs compiled: a run after the rewrite equals a run of a
        freshly built module."""
        module = compile_source(SRC)
        assert IRInterpreter(module).run().completed
        compile_module(module)  # prepares ``module`` in place
        fresh = compile_module(compile_source(SRC)).ir_module
        assert _result_key(IRInterpreter(module).run()) == \
            _result_key(IRInterpreter(fresh).run())

    def test_forgotten_workload_module_is_collected(self):
        """A program's compilation lives on the program: once a workload
        is forgotten and re-registered, as the e2e benchmark's set-up
        does, its old module (and the segments it compiled) is freed."""
        workload = Workload(name="blockcache-lifetime", mirrors="(test)",
                            suite="test", description="cache lifetime",
                            source=SRC, input_description="none")
        registry.register(workload)
        try:
            refs = []
            for tool in ("LLFI", "PINFI"):
                injector = injector_for_spec(InjectorSpec(workload.name, tool))
                injector.dynamic_counts()
                assert injector.compiled_blocks > 0
            refs.append(weakref.ref(build(workload.name).module))
            refs.append(weakref.ref(build(workload.name).program))
            del injector
            forget_workload(workload.name)
            registry.unregister(workload.name)
            registry.register(workload)
            gc.collect()
            assert [ref() for ref in refs] == [None, None]
        finally:
            forget_workload(workload.name)
            registry.unregister(workload.name)


class TestCompiledRecording:
    """Strided checkpoint recording takes the compiled path: the boundary
    tap is checked once per dispatched segment, so each checkpoint lands
    on the first segment boundary at or past its stride mark — and must
    hold exactly the state and candidate counts a scalar recording
    captures at that boundary."""

    def test_strided_recording_dispatches_compiled_blocks(self, built):
        module, program = built
        snaps = []
        interp = IRInterpreter(module, checkpoint_stride=50,
                               checkpoint_sink=snaps.append)
        assert interp.run() == IRInterpreter(module).run()
        assert interp.compiled_blocks > 0 and len(snaps) > 1
        snaps = []
        sim = AsmSimulator(program, checkpoint_stride=50,
                           checkpoint_sink=snaps.append)
        assert sim.run() == AsmSimulator(program).run()
        assert sim.compiled_blocks > 0 and len(snaps) > 1

    def test_no_compile_recording_stays_scalar(self, built):
        module, program = built
        for engine in (
                IRInterpreter(module, checkpoint_stride=50,
                              checkpoint_sink=lambda s: None,
                              compile_blocks=False),
                AsmSimulator(program, checkpoint_stride=50,
                             checkpoint_sink=lambda s: None,
                             compile_blocks=False)):
            engine.run()
            assert engine.compiled_blocks == 0

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    @pytest.mark.parametrize("source", ["built", "recursive"])
    def test_every_checkpoint_equals_scalar_capture(self, tool, source,
                                                     request):
        """Each checkpoint of a compiled recording equals, field by field
        and in its per-category counts, the first checkpoint of a scalar
        recording whose stride is that checkpoint's ``executed``."""
        program = request.getfixturevalue(source)
        inj = _fresh(tool, program)
        inj.configure_checkpoints(40)
        store = inj.ensure_checkpoints()
        assert inj.compiled_blocks > 0
        assert len(store) > 5
        if source == "recursive":
            assert any(c.snapshot.call_depth > 2 for c in store.checkpoints)
        for checkpoint in store.checkpoints:
            executed = checkpoint.snapshot.executed
            twin = _fresh(tool, program)
            twin.compile_enabled = False
            twin.configure_checkpoints(executed)
            reference = twin.ensure_checkpoints().checkpoints[0]
            assert reference.snapshot.executed == executed
            for name in ("executed", "call_depth", "memory", "heap",
                         "output", "state"):
                assert getattr(checkpoint.snapshot, name) == \
                    getattr(reference.snapshot, name), \
                    f"{name} differs at executed={executed}"
            assert checkpoint.counts == reference.counts, \
                f"counts differ at executed={executed}"

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_batch_lanes_fork_and_detach_as_scalar(self, tool, built):
        """Batch sweeps keep their every-boundary tap (they never compile),
        so lane and detach counts do not depend on compilation."""
        stats = []
        for compile_enabled in (True, False):
            inj = _fresh(tool, built)
            inj.compile_enabled = compile_enabled
            inj.configure_checkpoints(40)
            n = inj.dynamic_counts()["all"]
            requests = [BatchRequest(index=k, k=k, rng=random.Random(k))
                        for k in range(1, n + 1)]
            _, batch = inj.run_batch("all", requests)
            stats.append((batch.forked, batch.detached,
                          batch.shared_instructions))
        assert stats[0] == stats[1]


class TestFallbackRules:
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_counting_hooks_run_compiled(self, tool, built):
        """Profiling runs count per compiled segment: the plain block
        variants keep them on the compiled path (no blanket fallback),
        and the dynamic counts match the scalar loop's."""
        inj = _fresh(tool, built)
        counts = inj.dynamic_counts()
        assert inj.compiled_blocks > 0, \
            "counting should not force scalar fallback"
        twin = _fresh(tool, built)
        twin.compile_enabled = False
        assert twin.dynamic_counts() == counts

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_armed_injection_takes_the_fallback_path(self, tool, built):
        """A pending injection into a cmp (the head of a fused
        compare+branch superinstruction in this workload) keeps its block
        on the scalar loop until the fault fires; hook-free blocks still
        compile.  The injected run equals its no-compile twin exactly."""
        inj = _fresh(tool, built)
        setup_n = inj.dynamic_counts()["cmp"]
        assert setup_n > 0
        import random
        result, record, activated = inj.run_with_fault(
            "cmp", k=max(1, setup_n // 2), rng=random.Random(SEED))
        assert inj.fallback_blocks > 0, \
            "armed hook never forced a scalar block"
        assert inj.compiled_blocks > 0, \
            "hook-free blocks should still have compiled"
        twin = _fresh(tool, built)
        twin.compile_enabled = False
        t_result, t_record, t_activated = twin.run_with_fault(
            "cmp", k=max(1, setup_n // 2), rng=random.Random(SEED))
        assert (result, record, activated) == \
            (t_result, t_record, t_activated)


class TestCampaignBitIdentity:
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_compiled_equals_scalar_per_category(self, tool, category,
                                                 built):
        compiled = run_campaign(
            _fresh(tool, built), category,
            CampaignConfig(trials=TRIALS, seed=SEED))
        scalar = run_campaign(
            _fresh(tool, built), category,
            CampaignConfig(trials=TRIALS, seed=SEED, no_compile=True))
        assert _json(compiled) == _json(scalar)

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    @pytest.mark.parametrize("stride", [0, -1])
    def test_compiled_equals_scalar_with_checkpoints(self, tool, stride,
                                                     built):
        config = dict(trials=TRIALS, seed=SEED + 1,
                      checkpoint_stride=stride)
        compiled = run_campaign(_fresh(tool, built), "all",
                                CampaignConfig(**config))
        scalar = run_campaign(_fresh(tool, built), "all",
                              CampaignConfig(no_compile=True, **config))
        assert _json(compiled) == _json(scalar)

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_compiled_equals_scalar_with_batching(self, tool, built):
        config = dict(trials=TRIALS, seed=SEED + 2, checkpoint_stride=-1,
                      batch=4)
        compiled = run_campaign(_fresh(tool, built), "all",
                                CampaignConfig(**config))
        scalar = run_campaign(_fresh(tool, built), "all",
                              CampaignConfig(no_compile=True, **config))
        assert _json(compiled) == _json(scalar)


@pytest.fixture(scope="module")
def real_cell(tmp_path_factory):
    """``real_cell(workload, category, tool)``: the cell's 24-trial cold
    campaign at the paper's seed, run once interpreted and once compiled
    (writing its manifest) on fresh injectors, memoised:
    ``{"interpreted", "compiled", "injector", "manifest"}``, where
    ``injector`` ran the compiled campaign."""
    trace_dir = str(tmp_path_factory.mktemp("compiled-manifests"))
    cells = {}

    def run(workload, category, tool):
        key = (workload, category, tool)
        if key not in cells:
            built_workload = build(workload)
            built = (built_workload.module, built_workload.program)
            config = dict(trials=24, seed=PAPER_SEED, checkpoint_stride=0)
            interpreted = run_campaign(
                _fresh(tool, built), category,
                CampaignConfig(no_compile=True, **config))
            injector = _fresh(tool, built)
            injector.workload_name = workload
            compiled = run_campaign(
                injector, category,
                CampaignConfig(trace_dir=trace_dir, **config))
            name = manifest_filename(workload, tool, category, 24,
                                     PAPER_SEED, 0)
            cells[key] = dict(
                interpreted=interpreted, compiled=compiled,
                injector=injector,
                manifest=read_manifest(os.path.join(trace_dir, name)))
        return cells[key]

    return run


@pytest.mark.parametrize("workload,category,tool", REAL_CELLS)
class TestRealWorkloadCampaigns:
    """Compiled vs interpreted on real workloads at the paper's seed:
    identical results, manifest accounting under compilation, and a
    compiled run that really runs compiled."""

    def test_compiled_equals_interpreted(self, workload, category, tool,
                                         real_cell):
        cell = real_cell(workload, category, tool)
        assert _json(cell["compiled"]) == _json(cell["interpreted"])

    def test_manifest_reproduces_the_injector_total(self, workload,
                                                    category, tool,
                                                    real_cell):
        cell = real_cell(workload, category, tool)
        assert cell["manifest"].total_instructions() == \
            cell["injector"].instructions_simulated

    def test_compiled_segments_were_dispatched(self, workload, category,
                                               tool, real_cell):
        comp = real_cell(workload, category, tool)["manifest"] \
            .summary["compile"]
        assert comp["enabled"] is True
        assert comp["compiled_blocks"] > 0

    def test_fallback_share_is_bounded(self, workload, category, tool,
                                       real_cell):
        comp = real_cell(workload, category, tool)["manifest"] \
            .summary["compile"]
        dispatched = comp["compiled_blocks"] + comp["fallback_blocks"]
        assert comp["fallback_blocks"] <= MAX_FALLBACK_RATE * dispatched


class TestEngineJobsParity:
    """jobs=1 no-compile vs jobs=2 compiled on a registry workload:
    forked workers inherit the parent's populated block cache."""

    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_jobs_and_compilation_compose(self, tool):
        spec = InjectorSpec("libquantumm", tool)
        scalar = run_parallel_campaign(
            spec, "arithmetic",
            CampaignConfig(trials=6, seed=SEED, checkpoint_stride=-1,
                           no_compile=True),
            jobs=1)
        compiled = run_parallel_campaign(
            spec, "arithmetic",
            CampaignConfig(trials=6, seed=SEED, checkpoint_stride=-1),
            jobs=2)
        assert _json(scalar) == _json(compiled)


class TestCacheKeyAndCLI:
    def test_cache_key_excludes_no_compile(self):
        """``no_compile`` is a pure accelerator toggle (the differential
        tests above prove bit-identity), so — like ``jobs`` and
        ``checkpoint_stride`` — it must never enter the disk-cache key."""
        from repro.service import CampaignRequest
        keys = {CampaignRequest.from_config(
                    "w", "LLFI", "all",
                    CampaignConfig(trials=5, seed=1, no_compile=nc)).key()
                for nc in (False, True)}
        assert len(keys) == 1

    def test_cli_flag_reaches_the_config(self):
        from repro.experiments.common import (
            config_from_args, experiment_argparser,
        )
        parser = experiment_argparser("t")
        assert config_from_args(parser.parse_args([])).no_compile is False
        assert config_from_args(
            parser.parse_args(["--no-compile"])).no_compile is True


class TestCompileManifest:
    def test_manifest_records_compile_stats(self, built, tmp_path):
        inj = _fresh("LLFI", built)
        run_campaign(inj, "all",
                     CampaignConfig(trials=TRIALS, seed=SEED,
                                    checkpoint_stride=-1,
                                    trace_dir=str(tmp_path)))
        manifest = read_manifest(
            glob.glob(os.path.join(str(tmp_path), "*.jsonl"))[0])
        assert len(manifest.compiles) == 1
        rec = manifest.compiles[0]
        assert rec["tool"] == "LLFI" and rec["enabled"] is True
        assert rec["blocks_compiled"] > 0
        comp = manifest.summary["compile"]
        assert comp["enabled"] is True
        assert comp["compiled_blocks"] > 0
        assert comp["blocks_compiled"] == rec["blocks_compiled"]
        # The three-term accounting identity holds under compilation.
        assert manifest.total_instructions() == inj.instructions_simulated

    def test_no_compile_manifest_reports_disabled(self, built, tmp_path):
        inj = _fresh("PINFI", built)
        run_campaign(inj, "arithmetic",
                     CampaignConfig(trials=2, seed=SEED, no_compile=True,
                                    trace_dir=str(tmp_path)))
        manifest = read_manifest(
            glob.glob(os.path.join(str(tmp_path), "*.jsonl"))[0])
        comp = manifest.summary["compile"]
        assert comp["enabled"] is False
        assert comp["compiled_blocks"] == 0
        assert manifest.total_instructions() == inj.instructions_simulated
