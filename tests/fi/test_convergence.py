"""The convergence exit and one-run automatic-stride preparation.

An injection run restored from a golden checkpoint probes the later
checkpoints; once its injection hook is finished, its activation settled
and its whole machine state equal to a checkpoint's, it stops and returns
the golden result.  The contract is the checkpoint subsystem's: results
bit-identical to the scalar ``checkpoint_stride=0`` path, for every
dynamic instance, both tools and every fault-model kind.  The comparator
tests show that each single difference the exit condition guards against
keeps a run going to its end.
"""

import dataclasses
import random

import pytest

from repro.fi import (
    CampaignConfig, LLFIInjector, PINFIInjector, run_campaign,
)
from repro.fi.base import InjectionHook
from repro.fi.fault import get_fault_model
from repro.obs.manifest import read_manifest
from repro.vm import snapshot as vm_snapshot
from repro.vm.asmsim import AsmSimulator
from repro.vm.irinterp import IRInterpreter
from repro.vm.snapshot import CheckpointStore
from repro.workloads import build
from tests.conftest import compile_both
from tests.fi.test_checkpoint import SRC as MIXED_SRC

CATEGORIES = ("arithmetic", "cmp", "load", "all")
MODELS = ("bitflip", "stuck-at-0", "intermittent-2", "memflip")
STRIDE = 25


@pytest.fixture(scope="module")
def mixed():
    return compile_both(MIXED_SRC)


def _injector(tool, built, stride):
    module, program = built
    inj = LLFIInjector(module) if tool == "LLFI" else PINFIInjector(program)
    inj.configure_checkpoints(stride)
    return inj


def _run_key(result, record, activated):
    return (result.status, result.output, result.instructions,
            result.exit_value, activated, record.dynamic_index,
            tuple(record.bit_positions), record.target, record.width)


def _scalar_key(result, record, activated):
    """``_run_key`` plus the trap's kind and detail."""
    trap = result.trap
    return (_run_key(result, record, activated),
            trap and (trap.kind, trap.detail))


class TestEveryDynamicInstance:
    """A checkpointed run_with_fault equals the scalar run for every k."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_checkpointed_equals_scalar_for_every_k(self, tool, model,
                                                    mixed):
        scalar = _injector(tool, mixed, 0)
        warm = _injector(tool, mixed, STRIDE)
        # The scalar loop itself: traps and hangs inside generated
        # segments must keep their kind and count.
        interpreted = _injector(tool, mixed, 0)
        interpreted.compile_enabled = False
        fault = get_fault_model(model)
        for category in CATEGORIES:
            n = scalar.dynamic_counts()[category]
            for k in range(1, n + 1):
                cold = scalar.run_with_fault(category, k, random.Random(k),
                                             model=fault)
                fast = warm.run_with_fault(category, k, random.Random(k),
                                           model=fault)
                assert _run_key(*fast) == _run_key(*cold), \
                    f"{tool}/{category}/{model} k={k}"
                reference = interpreted.run_with_fault(
                    category, k, random.Random(k), model=fault)
                assert _scalar_key(*cold) == _scalar_key(*reference), \
                    f"{tool}/{category}/{model} k={k}: compiled != scalar"
        assert scalar.converged_runs == 0  # no checkpoints, no probe
        if model == "bitflip":
            # Not vacuous: masked flips die out and their runs exit early.
            assert warm.converged_runs > 0
            assert warm.converged_instructions > 0


# -- the comparator ----------------------------------------------------------

#: Prints as it goes (an output prefix to compare), keeps doubles in
#: SSA values and xmm registers, and calls a recursive (never inlined)
#: function from its loop, so some marks hold suspended frames.
CMP_SRC = """
double acc;
long cells[64];
long tri(long n) { if (n <= 0) return 0; return n + tri(n - 1); }
int main() {
    int i;
    double zero = 0.0;
    acc = 0.5;
    for (i = 0; i < 64; i++) {
        cells[i] = tri(i % 5) + 1;
        acc = acc + (double)cells[i] * 0.25 + zero;
        if (i % 8 == 0) { print_long(cells[i]); print_char(32); }
    }
    print_double(acc);
    return (int)cells[63] % 19;
}
"""


@pytest.fixture(scope="module")
def cmp_built():
    """Per tier: (engine class, program object, golden result, golden
    snapshots at a fixed stride)."""
    module, program = compile_both(CMP_SRC)
    recordings = {}
    for tier, engine_type, subject in (("IR", IRInterpreter, module),
                                       ("ASM", AsmSimulator, program)):
        snaps = []
        golden = engine_type(subject, checkpoint_stride=150,
                             checkpoint_sink=snaps.append).run()
        assert golden.completed and len(snaps) >= 6
        recordings[tier] = (engine_type, subject, golden, snaps)
    return recordings


def _probe_run(recording, start, mark, perturb=None, budget=None,
               **kwargs):
    """Resume from ``start`` with ``mark`` as the only probe mark;
    ``perturb(engine)`` runs at the probe, just before the comparison."""
    engine_type, subject, golden, _ = recording

    class Probed(engine_type):
        def _take_checkpoint(self, *loc):
            if perturb is not None:
                perturb(self)
            super()._take_checkpoint(*loc)

    engine = Probed(subject, max_instructions=budget or 50_000_000,
                    **kwargs)
    engine.restore(start)
    engine.probe((mark,), 0, golden)
    return engine, engine.run()


def _pick(snaps, wanted):
    """(start, mark): consecutive snapshots, the mark satisfying
    ``wanted``."""
    for start, mark in zip(snaps, snaps[1:]):
        if wanted(mark):
            return start, mark
    raise AssertionError("no checkpoint with the wanted state")


def _ran_to_end(engine, result):
    return not engine.converged and engine.executed == result.instructions


def _flip_first(table_name):
    def perturb(sim):
        table = getattr(sim, table_name)
        name = sorted(table)[0]
        table[name] ^= 1
    return perturb


class TestComparator:
    @pytest.mark.parametrize("tier", ["IR", "ASM"])
    def test_control_exits_at_the_mark(self, tier, cmp_built):
        recording = cmp_built[tier]
        snaps = recording[3]
        engine, result = _probe_run(recording, snaps[2], snaps[3])
        assert engine.converged and engine.executed == snaps[3].executed
        assert result is recording[2]

    @pytest.mark.parametrize("field", ["regs", "flags", "xmm", "poison"])
    def test_asm_register_state(self, field, cmp_built):
        recording = cmp_built["ASM"]
        start, mark = _pick(recording[3], lambda m: m.state["xmm"])
        if field == "poison":
            def perturb(sim):
                sim.poison_target(("gpr", "r15"))
        else:
            perturb = _flip_first(field)
        engine, result = _probe_run(recording, start, mark, perturb)
        assert _ran_to_end(engine, result)

    @pytest.mark.parametrize("tier", ["IR", "ASM"])
    @pytest.mark.parametrize("where", ["heap-end", "next-to-span",
                                       "inside-span"])
    def test_memory(self, tier, where, cmp_built):
        recording = cmp_built[tier]
        start, mark = recording[3][3], recording[3][4]
        image = next(i for i in mark.memory if i.name == "globals")
        assert image.payload

        def perturb(engine):
            memory = engine.memory
            if where == "heap-end":
                memory.write_bytes(memory.region_named("heap").end - 1,
                                   b"\x01")
            elif where == "next-to-span":
                offset = (image.start - 1 if image.start
                          else image.start + len(image.payload))
                memory.write_bytes(image.base + offset, b"\x01")
            else:
                addr = image.base + image.start
                byte = memory.read_bytes(addr, 1)[0]
                memory.write_bytes(addr, bytes([byte ^ 0x40]))

        engine, result = _probe_run(recording, start, mark, perturb)
        assert _ran_to_end(engine, result)

    @pytest.mark.parametrize("tier", ["IR", "ASM"])
    def test_output_prefix(self, tier, cmp_built):
        recording = cmp_built[tier]
        start, mark = _pick(recording[3], lambda m: m.output[0])

        def perturb(engine):
            text, size, truncated = engine.output.checkpoint()
            engine.output.restore((chr(ord(text[0]) ^ 1) + text[1:], size,
                                   truncated))

        engine, result = _probe_run(recording, start, mark, perturb)
        assert _ran_to_end(engine, result)

    @pytest.mark.parametrize("golden_value,live_value",
                             [(0.0, -0.0), (1, True)])
    def test_ir_value_types(self, golden_value, live_value, cmp_built):
        recording = cmp_built["IR"]
        want = type(golden_value)

        def has_value(mark):
            return any(type(v) is want for f in mark.state["frames"]
                       for v in f.values.values())

        start, mark = _pick(recording[3], has_value)
        frames = list(mark.state["frames"])
        depth, key = next((d, k) for d, f in enumerate(frames)
                          for k, v in f.values.items() if type(v) is want)
        values = dict(frames[depth].values)
        values[key] = golden_value
        frames[depth] = dataclasses.replace(frames[depth], values=values)
        marked = dataclasses.replace(
            mark, state=dict(mark.state, frames=tuple(frames)))

        def setter(value):
            def perturb(engine):
                engine._frames[depth].values[key] = value
            return perturb

        control, _ = _probe_run(recording, start, marked,
                                setter(golden_value))
        assert control.converged
        engine, result = _probe_run(recording, start, marked,
                                    setter(live_value))
        assert _ran_to_end(engine, result)

    @pytest.mark.parametrize("tier", ["IR", "ASM"])
    @pytest.mark.parametrize("field", ["call_depth", "heap"])
    def test_machine_fields(self, tier, field, cmp_built):
        recording = cmp_built[tier]
        start, mark = recording[3][2], recording[3][3]

        def perturb(engine):
            if field == "call_depth":
                engine.call_depth += 1
            else:
                cursor, allocations = engine.heap.checkpoint()
                engine.heap.restore((cursor + 16, allocations))

        engine, result = _probe_run(recording, start, mark, perturb)
        assert _ran_to_end(engine, result)

    def test_ir_stack_pointer(self, cmp_built):
        recording = cmp_built["IR"]
        start, mark = recording[3][2], recording[3][3]

        def perturb(engine):
            engine._stack_sp -= 16

        engine, result = _probe_run(recording, start, mark, perturb)
        assert _ran_to_end(engine, result)

    def test_asm_site_tokens(self, cmp_built):
        recording = cmp_built["ASM"]
        start, mark = recording[3][2], recording[3][3]

        def perturb(sim):
            sim._site_tokens[("nowhere", 0, 0)] = 1

        engine, result = _probe_run(recording, start, mark, perturb)
        assert _ran_to_end(engine, result)

    def test_asm_location(self, cmp_built):
        recording = cmp_built["ASM"]
        start, mark = recording[3][2], recording[3][3]
        func, block, index = mark.state["loc"]
        moved = dataclasses.replace(
            mark, state=dict(mark.state, loc=(func, block, index + 1)))
        engine, result = _probe_run(recording, start, moved)
        assert _ran_to_end(engine, result)

    @pytest.mark.parametrize("field", ["function", "block", "index",
                                       "saved_sp", "depth"])
    def test_ir_frame_stack(self, field, cmp_built):
        recording = cmp_built["IR"]
        # A mark inside the callee: the outer frame is suspended at its
        # pending call (stored by the compiled Call step).
        start, mark = _pick(recording[3],
                            lambda m: len(m.state["frames"]) >= 2)
        control, _ = _probe_run(recording, start, mark)
        assert control.converged
        outer, inner = mark.state["frames"][:2]
        if field == "function":
            outer = dataclasses.replace(outer, function=inner.function)
        elif field == "block":
            other = next(b for b in outer.function.blocks
                         if b is not outer.block)
            outer = dataclasses.replace(outer, block=other)
        elif field == "index":
            outer = dataclasses.replace(outer, index=outer.index + 1)
        elif field == "saved_sp":
            outer = dataclasses.replace(outer, saved_sp=outer.saved_sp - 8)
        frames = (outer, inner) + mark.state["frames"][2:]
        if field == "depth":  # one frame more, same call depth
            frames += (frames[-1],)
        moved = dataclasses.replace(
            mark, state=dict(mark.state, frames=frames))
        engine, result = _probe_run(recording, start, moved)
        assert _ran_to_end(engine, result)

    def test_ir_pending_poison(self, cmp_built):
        recording = cmp_built["IR"]
        start, mark = recording[3][2], recording[3][3]
        main = mark.state["frames"][0].function
        poisoned = next(iter(main.instructions()))

        def perturb(engine):
            engine._frames[0].poison_inst = poisoned

        engine, result = _probe_run(recording, start, mark, perturb)
        assert _ran_to_end(engine, result)

    @pytest.mark.parametrize("tier", ["IR", "ASM"])
    def test_unfinished_intermittent_hook(self, tier, cmp_built):
        recording = cmp_built[tier]
        start, mark = recording[3][2], recording[3][3]
        # An intermittent-2 burst that fired once and waits for its
        # second firing; its filter is empty, so it never acts here.
        hook = InjectionHook(frozenset(), 10**9,
                             get_fault_model("intermittent-2"),
                             random.Random(0))
        hook.fires_left = 1
        engine, result = _probe_run(recording, start, mark, hook=hook)
        assert _ran_to_end(engine, result)
        hook.finished = True  # the burst is complete: the control exits
        control, _ = _probe_run(recording, start, mark, hook=hook)
        assert control.converged

    @pytest.mark.parametrize("tier", ["IR", "ASM"])
    def test_budget_shorter_than_golden(self, tier, cmp_built):
        recording = cmp_built[tier]
        start, mark = recording[3][2], recording[3][3]
        golden = recording[2]
        engine, result = _probe_run(recording, start, mark,
                                    budget=golden.instructions - 1)
        assert _ran_to_end(engine, result)
        assert result.hung
        control, _ = _probe_run(recording, start, mark,
                                budget=golden.instructions)
        assert control.converged


# -- one-run preparation ------------------------------------------------------

def _snapshot_fields(snapshot):
    return (snapshot.executed, snapshot.call_depth, snapshot.memory,
            snapshot.heap, snapshot.output, snapshot.state)


@pytest.fixture(scope="module")
def libquantumm():
    return build("libquantumm")


class TestOneRunPreparation:
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_auto_stride_is_one_run_on_a_real_workload(self, tool,
                                                       libquantumm):
        built = (libquantumm.module, libquantumm.program)
        auto = _injector(tool, built, -1)
        store = auto.ensure_checkpoints()
        assert auto.executions == 1
        n = auto.golden_cached().instructions
        assert n // 20 >= vm_snapshot.PROVISIONAL_STRIDE
        assert store.stride == n // 20
        assert store.final is auto.golden_cached()
        explicit = _injector(tool, built, n // 20)
        assert len(store) == len(explicit.ensure_checkpoints())
        # Every kept checkpoint is the first one a recording at an
        # explicit stride of its own ``executed`` would take.
        for checkpoint in store.checkpoints:
            e = checkpoint.snapshot.executed
            single = _injector(tool, built, e).ensure_checkpoints()[0]
            assert _snapshot_fields(single.snapshot) == \
                _snapshot_fields(checkpoint.snapshot)
            assert single.counts == checkpoint.counts
        # At most one checkpoint per multiple of N // 20, none before
        # the first.
        step = n // 20
        executed = [c.snapshot.executed for c in store.checkpoints]
        assert executed[0] >= step
        for a, b in zip(executed, executed[1:]):
            assert b // step > a // step

    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_doubling_and_thinning_on_a_small_program(self, tool, mixed,
                                                      monkeypatch):
        monkeypatch.setattr(vm_snapshot, "PROVISIONAL_STRIDE", 2)
        recorded = []
        record = CheckpointStore.record

        def spy(store, snapshot, counts):
            stride = store.stride
            new = record(store, snapshot, counts)
            recorded.append((snapshot.executed, stride, new))
            return new

        monkeypatch.setattr(CheckpointStore, "record", spy)
        inj = _injector(tool, mixed, -1)
        store = inj.ensure_checkpoints()
        assert inj.executions == 1
        # The store filled and doubled at least twice, and the engine
        # recorded at each new stride from then on.
        doubled = [new for _, _, new in recorded if new]
        assert doubled[:2] == [4, 8]
        for (a, _, _), (b, stride, _) in zip(recorded, recorded[1:]):
            assert b - a >= stride
        n = inj.golden_cached().instructions
        step = n // 20
        assert store.stride == step
        executed = [c.snapshot.executed for c in store.checkpoints]
        assert len(executed) >= 15
        assert executed[0] >= step
        for a, b in zip(executed, executed[1:]):
            assert b // step > a // step  # one per multiple
        for checkpoint in store.checkpoints:
            e = checkpoint.snapshot.executed
            single = _injector(tool, mixed, e).ensure_checkpoints()[0]
            assert _snapshot_fields(single.snapshot) == \
                _snapshot_fields(checkpoint.snapshot)
            assert single.counts == checkpoint.counts

    def test_provisional_store_thins_and_doubles(self, monkeypatch):
        monkeypatch.setattr(vm_snapshot, "PROVISIONAL_CHECKPOINTS", 4)
        store = CheckpointStore(vm_snapshot.PROVISIONAL_STRIDE,
                                provisional=True)
        s = stride = store.stride
        executed = 0
        returned = []
        for i in range(8):
            executed += stride
            snap = vm_snapshot.MachineSnapshot(executed, 1, (), (0, 0),
                                               ("", 0, False))
            new = store.record(snap, {"all": i})
            returned.append(new)
            stride = new or stride
        # Full at 4 held: drop every other one (keeping the multiples of
        # the doubled stride) and hand back the doubled stride.
        assert returned == [None, None, None, 2 * s, None, 4 * s, None,
                            8 * s]
        assert [c.snapshot.executed for c in store.checkpoints] == \
            [8 * s, 16 * s]
        store.keep_multiples(10 * s)
        assert [c.snapshot.executed for c in store.checkpoints] == [16 * s]
        assert store.stride == 10 * s and not store.provisional

    def test_primed_injector_records_once(self, mixed):
        """An injector that already knows N (a service worker that
        adopted a prep artifact) records the same checkpoints in one
        run."""
        fresh = _injector("LLFI", mixed, -1)
        expected = [c.snapshot.executed
                    for c in fresh.ensure_checkpoints().checkpoints]
        primed = _injector("LLFI", mixed, -1)
        primed.adopt_prep(fresh.golden_cached(), fresh.dynamic_counts())
        store = primed.ensure_checkpoints()
        assert primed.executions == 1
        assert [c.snapshot.executed for c in store.checkpoints] == expected


# -- accounting -----------------------------------------------------------------

class TestConvergedAccounting:
    @pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
    def test_manifest_identity_with_converged_trials(self, tool, mixed,
                                                     tmp_path):
        inj = _injector(tool, mixed, STRIDE)
        config = CampaignConfig(trials=40, seed=11, checkpoint_stride=STRIDE,
                                trace_dir=str(tmp_path))
        run_campaign(inj, "all", config)
        assert inj.converged_runs > 0
        (path,) = list(tmp_path.iterdir())
        manifest = read_manifest(str(path))
        assert manifest.total_instructions() == inj.instructions_simulated
        counters = manifest.summary["counters"]
        assert counters[f"injector.{tool}.converged"] == inj.converged_runs
        assert counters[f"injector.{tool}.converged_instructions"] == \
            inj.converged_instructions
        # Every run's full length (what the engines report) is what it
        # simulated plus its skipped prefix and converged tail.
        tier = "ir" if tool == "LLFI" else "asm"
        assert counters[f"vm.{tier}.instructions"] == (
            manifest.setup["prep_instructions"]
            + sum(t["instructions"] + t["ckpt_skipped"]
                  for t in manifest.trials)
            + inj.converged_instructions)
