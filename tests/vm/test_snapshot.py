"""Tests for the snapshot/restore layer (vm/snapshot.py) on both engines.

The load-bearing property: a run restored from any checkpoint must finish
bit-identically to the cold run — same status, output, instruction count
and exit value — on both the IR interpreter and the SimX86 simulator.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.vm.asmsim import AsmSimulator
from repro.vm.irinterp import IRInterpreter
from repro.vm.memory import Memory
from repro.vm.snapshot import (
    DECODED_CACHE_SNAPSHOTS, Checkpoint, CheckpointStore, MachineSnapshot,
    RegionImage, capture_memory, expand_image, memory_from_images,
    memory_matches, nonzero_span, restore_memory,
)
from tests.conftest import compile_both

#: Exercises recursion (suspended frames), heap allocation, doubles,
#: globals and mixed int/double arithmetic — everything a snapshot must
#: carry across the capture/restore boundary.
SRC = """
double acc;
int calls;

int fib(int n) {
    calls = calls + 1;
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}

int main() {
    long *buf = (long*)malloc(10 * sizeof(long));
    int i;
    for (i = 0; i < 10; i++) buf[i] = (long)fib(i % 7) * (i + 1);
    acc = 0.0;
    for (i = 0; i < 10; i++) acc = acc + (double)buf[i] * 0.5;
    print_double(acc); print_char(10);
    print_int(calls); print_char(10);
    print_long(buf[9]);
    return (int)acc % 97;
}
"""


def _result_tuple(result):
    return (result.status, result.output, result.instructions,
            result.exit_value)


class TestMemoryImages:
    def test_roundtrip_bit_identical(self):
        mem = Memory()
        mem.map_region("a", 0x1000, 0x100)
        mem.map_region("b", 0x4000, 0x1000)
        mem.write_bytes(0x1010, b"\x01\x02\x00\x03")
        mem.write_bytes(0x4FF0, b"tail")
        images = capture_memory(mem)
        before = [bytes(r.data) for r in mem.regions()]
        # Scribble, then restore: every byte must come back.
        mem.write_bytes(0x1000, b"\xFF" * 0x100)
        mem.write_bytes(0x4000, b"\xEE" * 0x1000)
        restore_memory(mem, images)
        assert [bytes(r.data) for r in mem.regions()] == before

    def test_images_trim_zero_span(self):
        mem = Memory()
        mem.map_region("r", 0x1000, 0x1000)
        mem.write_bytes(0x1400, b"x")
        (image,) = capture_memory(mem)
        assert image.start == 0x400
        assert image.payload == b"x"

    def test_all_zero_region(self):
        mem = Memory()
        mem.map_region("r", 0x1000, 0x100)
        (image,) = capture_memory(mem)
        assert image.payload == b""
        mem.write_bytes(0x1000, b"junk")
        restore_memory(mem, (image,))
        assert bytes(mem.regions()[0].data) == bytes(0x100)

    def test_layout_mismatch_rejected(self):
        mem = Memory()
        mem.map_region("r", 0x1000, 0x100)
        images = capture_memory(mem)
        other = Memory()
        other.map_region("other", 0x1000, 0x100)
        with pytest.raises(ReproError):
            restore_memory(other, images)
        third = Memory()
        with pytest.raises(ReproError):
            restore_memory(third, images)

    def test_expand_image_inverts_the_trim(self):
        mem = Memory()
        mem.map_region("r", 0x1000, 0x200)
        mem.write_bytes(0x1040, b"\x01\x00\x02")
        (image,) = capture_memory(mem)
        full = expand_image(image)
        assert len(full) == 0x200
        assert full == bytes(mem.regions()[0].data)

    def test_span_built_memory_matches_restore(self):
        # An injection run's address space is built from the payload
        # spans alone; it must equal, region by region, restore_memory
        # into a used memory of the same layout.
        mem = Memory()
        mem.map_region("a", 0x1000, 0x100)
        mem.map_region("b", 0x4000, 0x1000)
        mem.map_region("empty", 0x8000, 0x200)
        mem.write_bytes(0x1010, b"\x01\x02\x00\x03")
        mem.write_bytes(0x4FF0, b"tail")
        images = capture_memory(mem)

        mem.write_bytes(0x1000, b"\xFF" * 0x100)
        mem.write_bytes(0x8000, b"\xEE" * 0x200)
        restore_memory(mem, images)
        built = memory_from_images(images)
        assert [(r.name, r.base, r.size) for r in built.regions()] == \
            [(r.name, r.base, r.size) for r in mem.regions()]
        assert [bytes(r.data) for r in built.regions()] == \
            [bytes(r.data) for r in mem.regions()]


class TestMemoryMatches:
    """The convergence probe's in-place memory comparison."""

    @staticmethod
    def _memory():
        mem = Memory()
        mem.map_region("small", 0x1000, 0x100)
        mem.map_region("big", 0x100000, 3 << 16)  # spans the 64 KiB blocks
        mem.write_bytes(0x1010, b"\x01\x02\x00\x03")
        mem.write_bytes(0x100000 + 70000, b"payload")
        return mem

    def test_equal_state_matches(self):
        mem = self._memory()
        images = capture_memory(mem)
        assert memory_matches(mem, images)
        assert memory_matches(memory_from_images(images), images)

    @pytest.mark.parametrize("addr", [
        0x1000, 0x10FF, 0x100000, 0x100000 + 1500, 0x100000 + 69999,
        0x100000 + 70007, 0x100000 + (3 << 16) - 1])
    def test_stray_byte_outside_the_span_differs(self, addr):
        mem = self._memory()
        images = capture_memory(mem)
        mem.write_bytes(addr, b"\x01")
        assert not memory_matches(mem, images)

    @pytest.mark.parametrize("addr", [0x1011, 0x1012, 0x100000 + 70003])
    def test_differing_byte_inside_the_span_differs(self, addr):
        mem = self._memory()
        images = capture_memory(mem)
        mem.write_bytes(addr, b"\x7f")
        assert not memory_matches(mem, images)

    def test_layout_must_match(self):
        mem = self._memory()
        images = capture_memory(mem)
        other = Memory()
        other.map_region("small", 0x1000, 0x100)
        assert not memory_matches(other, images)


def _reference_image(region) -> RegionImage:
    """The byte-by-byte trim of a full copy: the definition the chunked
    span search must reproduce."""
    data = bytes(region.data)
    end = len(data.rstrip(b"\x00"))
    if end == 0:
        return RegionImage(region.name, region.base, region.size, 0, b"")
    start = len(data) - len(data.lstrip(b"\x00"))
    return RegionImage(region.name, region.base, region.size, start,
                       data[start:end])


#: Region sizes around the span search's 64 KiB and 1 KiB chunk edges.
_EDGE_SIZES = [1, 2, 1023, 1024, 1025, 4096, 65535, 65536, 65537,
               2 * 65536 + 1024, 3 * 65536 - 1]


class TestSpanTrim:
    @given(st.data())
    def test_matches_byte_by_byte_trim(self, data):
        size = data.draw(st.sampled_from(_EDGE_SIZES)
                         | st.integers(1, 3 * 65536 + 7))
        buf = bytearray(size)
        writes = data.draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(1, 255)),
            max_size=4))
        for offset, value in writes:
            buf[offset] = value
        mem = Memory()
        region = mem.map_region("r", 0x10000, size)
        region.data[:] = buf
        (image,) = capture_memory(mem)
        assert image == _reference_image(region)
        if image.payload:
            assert nonzero_span(buf) == (
                image.start, image.start + len(image.payload))
        else:
            assert nonzero_span(buf) == (0, 0)

    def test_engine_captures_match_reference(self, built):
        """Real heap/stack/globals images from a recording run."""
        module, program = built
        for engine in (IRInterpreter(module), AsmSimulator(program)):
            engine.run()
            for image, region in zip(capture_memory(engine.memory),
                                     engine.memory.regions()):
                assert image == _reference_image(region)


class TestCheckpointStore:
    def _snap(self, executed):
        return MachineSnapshot(executed=executed, call_depth=1, memory=(),
                               heap=(0, 0), output=("", 0, False))

    def test_stride_must_be_positive(self):
        with pytest.raises(ReproError):
            CheckpointStore(0)
        with pytest.raises(ReproError):
            CheckpointStore(-5)

    def test_records_in_order_only(self):
        store = CheckpointStore(10)
        store.record(self._snap(10), {"all": 3})
        store.record(self._snap(20), {"all": 7})
        with pytest.raises(ReproError):
            store.record(self._snap(15), {"all": 5})
        assert len(store) == 2

    def test_best_for_picks_last_before_kth_candidate(self):
        store = CheckpointStore(10)
        store.record(self._snap(10), {"all": 3, "load": 0})
        store.record(self._snap(20), {"all": 7, "load": 2})
        store.record(self._snap(30), {"all": 12, "load": 2})
        # k=8: the checkpoint at executed=20 has seen 7 < 8 candidates.
        assert store.best_for("all", 8).snapshot.executed == 20
        # k=13 is past every checkpoint: latest one still qualifies.
        assert store.best_for("all", 13).snapshot.executed == 30
        # k=1: no checkpoint has fewer than 1 "all" candidate.
        assert store.best_for("all", 1) is None
        # Ties on the count pick the latest eligible checkpoint.
        assert store.best_for("load", 3).snapshot.executed == 30

    def test_counts_are_copied(self):
        store = CheckpointStore(10)
        counts = {"all": 1}
        store.record(self._snap(10), counts)
        counts["all"] = 99
        assert store.checkpoints[0].counts == {"all": 1}

    def test_index_before_matches_best_for(self):
        store = CheckpointStore(10)
        store.record(self._snap(10), {"all": 3})
        store.record(self._snap(20), {"all": 7})
        store.record(self._snap(30), {"all": 12})
        for k in range(1, 15):
            i = store.index_before("all", k)
            best = store.best_for("all", k)
            if i is None:
                assert best is None
            else:
                assert store.checkpoints[i] is not None
                assert best.snapshot.executed == \
                    store.checkpoints[i].snapshot.executed

    def test_index_before_invalidated_by_record(self):
        store = CheckpointStore(10)
        store.record(self._snap(10), {"all": 3})
        assert store.index_before("all", 5) == 0
        store.record(self._snap(20), {"all": 4})
        assert store.index_before("all", 5) == 1


class TestDecodedMemoryCache:
    def _checkpoint(self, executed, payload):
        mem = Memory()
        mem.map_region("r", 0x1000, 0x100)
        mem.write_bytes(0x1000, payload)
        snap = MachineSnapshot(executed=executed, call_depth=1,
                               memory=capture_memory(mem),
                               heap=(0, 0), output=("", 0, False))
        return Checkpoint(snap, {"all": executed})

    def test_decode_is_cached_per_snapshot(self):
        store = CheckpointStore(10)
        cp = self._checkpoint(10, b"abc")
        store.record(cp.snapshot, cp.counts)
        cp = store.checkpoints[0]
        first = store.decoded_memory(cp)
        second = store.decoded_memory(cp)
        assert first is second
        assert store.decode_count == 1
        assert store.decoded_restores == 2
        assert first[0] == expand_image(cp.snapshot.memory[0])

    def test_lru_is_bounded(self):
        store = CheckpointStore(10)
        n = DECODED_CACHE_SNAPSHOTS + 3
        for i in range(n):
            cp = self._checkpoint(10 * (i + 1), bytes([i + 1]))
            store.record(cp.snapshot, cp.counts)
        for cp in store.checkpoints:
            store.decoded_memory(cp)
        assert store.decode_count == n
        assert len(store._decoded) == DECODED_CACHE_SNAPSHOTS
        # The oldest decode was evicted: touching it again is a miss...
        store.decoded_memory(store.checkpoints[0])
        assert store.decode_count == n + 1
        # ...while the most recent is still a hit.
        store.decoded_memory(store.checkpoints[-1])
        assert store.decode_count == n + 1


@pytest.fixture(scope="module")
def built():
    return compile_both(SRC)


def _record_ir(module, stride):
    snaps = []
    interp = IRInterpreter(module, checkpoint_stride=stride,
                           checkpoint_sink=snaps.append)
    return interp.run(), snaps


def _record_asm(program, stride):
    snaps = []
    sim = AsmSimulator(program, checkpoint_stride=stride,
                       checkpoint_sink=snaps.append)
    return sim.run(), snaps


class TestResumeEquivalence:
    """Resume from *every* checkpoint and require the cold run's result."""

    def test_ir_resume_matches_cold_from_every_checkpoint(self, built):
        module, _ = built
        cold = IRInterpreter(module).run()
        assert cold.completed
        recorded, snaps = _record_ir(module, max(1, cold.instructions // 13))
        assert _result_tuple(recorded) == _result_tuple(cold)
        assert len(snaps) >= 5
        for snap in snaps:
            interp = IRInterpreter(module)
            interp.restore(snap)
            assert _result_tuple(interp.run()) == _result_tuple(cold), \
                f"diverged resuming at executed={snap.executed}"

    def test_asm_resume_matches_cold_from_every_checkpoint(self, built):
        _, program = built
        cold = AsmSimulator(program).run()
        assert cold.completed
        recorded, snaps = _record_asm(program,
                                      max(1, cold.instructions // 13))
        assert _result_tuple(recorded) == _result_tuple(cold)
        assert len(snaps) >= 5
        for snap in snaps:
            sim = AsmSimulator(program)
            sim.restore(snap)
            assert _result_tuple(sim.run()) == _result_tuple(cold), \
                f"diverged resuming at executed={snap.executed}"

    def test_snapshot_reusable_across_restores(self, built):
        # Snapshots are shared across trials: restoring twice from the
        # same snapshot must give the same result both times (the first
        # resumed run must not mutate the snapshot).
        module, program = built
        for cold, snaps, engine in [
            (*_record_ir(module, 200), lambda: IRInterpreter(module)),
            (*_record_asm(program, 200), lambda: AsmSimulator(program)),
        ]:
            snap = snaps[len(snaps) // 2]
            first = engine()
            first.restore(snap)
            r1 = first.run()
            second = engine()
            second.restore(snap)
            r2 = second.run()
            assert _result_tuple(r1) == _result_tuple(r2) \
                == _result_tuple(cold)

    def test_span_built_trial_memory_matches_restore(self, built):
        # An injection run's engine shares a never-run template's tables
        # and gets memory built from the snapshot's payload spans; that
        # memory must equal, region by region, restore_memory into a
        # fully built engine, and the resumed runs must agree.
        module, program = built
        for _, snaps, engine in [
            (*_record_ir(module, 200), lambda **kw: IRInterpreter(module,
                                                                  **kw)),
            (*_record_asm(program, 200), lambda **kw: AsmSimulator(program,
                                                                   **kw)),
        ]:
            template = engine()
            for snap in (snaps[0], snaps[len(snaps) // 2], snaps[-1]):
                plain = engine()
                plain.restore(snap)
                spans = engine(template=template,
                               memory=memory_from_images(snap.memory))
                spans.restore(snap, skip_memory=True)
                assert [(r.name, r.base, bytes(r.data))
                        for r in spans.memory.regions()] == \
                    [(r.name, r.base, bytes(r.data))
                     for r in plain.memory.regions()]
                assert _result_tuple(spans.run()) == \
                    _result_tuple(plain.run()), \
                    f"diverged at executed={snap.executed}"

    def test_checkpoints_cover_run_at_stride(self, built):
        module, _ = built
        cold = IRInterpreter(module).run()
        stride = max(1, cold.instructions // 10)
        _, snaps = _record_ir(module, stride)
        executed = [s.executed for s in snaps]
        assert executed == sorted(executed)
        # Consecutive checkpoints are at least one stride apart and the
        # whole run is covered with no gap much larger than a stride.
        for a, b in zip(executed, executed[1:]):
            assert b - a >= stride
        assert executed[0] <= stride + cold.instructions // 10
