"""Snapshot/restore of simulated machine state, shared by both engines.

A :class:`MachineSnapshot` freezes everything one run needs to continue
from an instruction boundary: register file (or SSA frame stack), mapped
memory, heap-allocator cursor, call stack/location, output buffer and the
executed-instruction count.  The engines expose ``capture()``/``restore()``
built on it; the fault injectors use it to skip the fault-free prefix of
every injection run (see :mod:`repro.fi.base`).

The contract that makes this a pure accelerator: a run restored from a
snapshot retires the exact instruction stream the cold run would have
retired from that boundary on — same memory bytes, same output, same
``executed`` count, same traps.  Checkpoints are recorded during the
(deterministic, hook-free-in-effect) golden run only, so they never embed
fault state.

Snapshots are in-process objects: frame states reference live IR/machine
objects and are only valid for engines built over the same module/program
instance (which is how the injectors use them — forked campaign workers
inherit both the objects and the checkpoints).

Memory is stored as the non-zero span of each region rather than a full
copy: the 4 MiB heap and 1 MiB stack are almost entirely zero at any
checkpoint.  An injection run builds its address space from those spans
(:func:`memory_from_images`): fresh regions are zero already, so only the
payloads — tens of KiB — are written, and no trial ever copies or decodes
a full-size image.  The same spans let a running trial compare its memory
with a later golden checkpoint in place (:func:`memory_matches`), which
is how a trial whose fault has died out stops early (the convergence
exit, see the engines' ``probe()``).

A :class:`CheckpointStore` records either at an explicit stride or, for
the automatic policy, at a provisional stride that doubles whenever the
store fills (:data:`PROVISIONAL_STRIDE`, :data:`PROVISIONAL_CHECKPOINTS`)
and is thinned to the final stride once the run's length is known
(:meth:`CheckpointStore.keep_multiples`), so one run both measures the
program and records it.  Full-size decodes
(:meth:`CheckpointStore.decoded_memory`) remain only for batched groups,
whose copy-on-write lanes read a shared immutable image.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.recorder import get_recorder
from repro.vm.memory import Memory
from repro.vm.result import ExecutionResult


@dataclass(frozen=True)
class RegionImage:
    """The bytes of one mapped region, trimmed to its non-zero span."""

    name: str
    base: int
    size: int
    #: Offset of the first non-zero byte (0 when the region is all zero).
    start: int
    #: Bytes from ``start`` to the last non-zero byte (b"" when all zero).
    payload: bytes


#: Shared all-zero blocks the span search compares region slices against,
#: coarse first: whole 64 KiB chunks are skipped at memcmp speed, then
#: 1 KiB sub-chunks, so only the bytes of one sub-chunk at each end of the
#: span are ever stripped one by one.
_ZERO_BLOCKS = (bytes(1 << 16), bytes(1 << 10))
_TRIM = len(_ZERO_BLOCKS[-1])


def nonzero_span(data: bytearray) -> Tuple[int, int]:
    """``(start, end)`` of the non-zero bytes of ``data``: the first
    non-zero byte and one past the last, or ``(0, 0)`` when all zero.

    Equal to the ``lstrip``/``rstrip`` of a full copy, without the copy:
    ``startswith``/``endswith`` against a shared zero block compare a slice
    in place."""
    start = 0
    for zeros in _ZERO_BLOCKS:
        step = len(zeros)
        while data.startswith(zeros, start):
            start += step
    head = data[start:start + _TRIM]
    start += len(head) - len(head.lstrip(b"\x00"))
    if start >= len(data):
        return 0, 0
    # A non-zero byte lies at ``start``, so the backward skip stops short
    # of it.
    end = len(data)
    for zeros in _ZERO_BLOCKS:
        step = len(zeros)
        while data.endswith(zeros, start, end):
            end -= step
    tail = data[max(start, end - _TRIM):end]
    end -= len(tail) - len(tail.rstrip(b"\x00"))
    return start, end


def capture_memory(memory) -> Tuple[RegionImage, ...]:
    """Freeze every mapped region of a :class:`repro.vm.memory.Memory`.

    Each region is trimmed to its non-zero span (:func:`nonzero_span`)
    and only that span is copied: a capture of the mostly empty 4 MiB
    heap and 1 MiB stack costs well under a millisecond."""
    images = []
    for region in memory.regions():
        start, end = nonzero_span(region.data)
        images.append(RegionImage(region.name, region.base, region.size,
                                  start, bytes(region.data[start:end])))
    return tuple(images)


def _check_layout(memory, images: Sequence[RegionImage]):
    """The mapped regions, verified against the snapshot's layout."""
    regions = memory.regions()
    if len(regions) != len(images):
        raise ReproError("snapshot does not match memory layout "
                         f"({len(images)} regions vs {len(regions)})")
    for region, image in zip(regions, images):
        if (region.name, region.base, region.size) != \
                (image.name, image.base, image.size):
            raise ReproError(
                f"snapshot region {image.name}@{image.base:#x} does not "
                f"match mapped region {region.name}@{region.base:#x}")
    return regions


def restore_memory(memory, images: Sequence[RegionImage]) -> None:
    """Write captured region images back; bytes outside each payload span
    are zeroed, so the result is bit-identical to the captured state."""
    for region, image in zip(_check_layout(memory, images), images):
        data = region.data
        end = image.start + len(image.payload)
        if image.start:
            data[:image.start] = bytes(image.start)
        if image.payload:
            data[image.start:end] = image.payload
        if end < region.size:
            data[end:] = bytes(region.size - end)


def memory_from_images(images: Sequence[RegionImage]) -> Memory:
    """A fresh :class:`repro.vm.memory.Memory` holding exactly the
    captured state: the images' layout, with only their payload spans
    written (fresh regions are zero, so nothing else is touched).
    Bit-identical to :func:`restore_memory` into a used memory of the
    same layout."""
    memory = Memory()
    for image in images:
        region = memory.map_region(image.name, image.base, image.size)
        if image.payload:
            region.data[image.start:image.start + len(image.payload)] = \
                image.payload
    return memory


def _all_zero(data: bytearray, start: int, end: int) -> bool:
    """Whether ``data[start:end]`` is all zero, compared in place against
    the shared zero blocks (no slice is copied)."""
    for zeros in _ZERO_BLOCKS:
        step = len(zeros)
        while end - start >= step and data.startswith(zeros, start):
            start += step
    if end - start >= _TRIM:
        return False  # a whole sub-chunk failed: it holds a non-zero byte
    return data.count(0, start, end) == end - start


def memory_matches(memory, images: Sequence[RegionImage]) -> bool:
    """Whether ``memory`` holds exactly the captured state, compared in
    place: each payload with ``startswith`` at its offset, the zero
    ranges around it against the shared zero blocks.  Nothing is copied
    or decoded."""
    regions = memory.regions()
    if len(regions) != len(images):
        return False
    for region, image in zip(regions, images):
        data = region.data
        end = image.start + len(image.payload)
        if not (region.base == image.base and region.size == image.size
                and data.startswith(image.payload, image.start)
                and _all_zero(data, 0, image.start)
                and _all_zero(data, end, len(data))):
            return False
    return True


def expand_image(image: RegionImage) -> bytes:
    """Decode one span-trimmed region image into its full-size bytes."""
    tail = image.size - image.start - len(image.payload)
    return b"".join((bytes(image.start), image.payload, bytes(tail)))


@dataclass(frozen=True)
class FrameState:
    """One suspended IR-interpreter frame: where it resumes and its SSA
    values.  For the innermost frame ``index`` is the next instruction to
    execute; for every outer frame it is the pending ``call`` instruction
    whose result the inner frame will produce."""

    function: object
    block: object
    index: int
    values: Dict[int, object]
    saved_sp: int


@dataclass(frozen=True)
class MachineSnapshot:
    """Machine state at one instruction boundary of a run."""

    #: Instructions retired before this boundary.
    executed: int
    #: Simulated call depth at the boundary.
    call_depth: int
    #: Every mapped memory region (globals, heap, stack).
    memory: Tuple[RegionImage, ...]
    #: Heap-allocator cursor: (next free address, allocation count).
    heap: Tuple[int, int]
    #: Output buffer: (text emitted so far, size, truncated flag).
    output: Tuple[str, int, bool]
    #: Engine-specific payload: registers/xmm/flags/location for the
    #: SimX86 simulator, the frame stack for the IR interpreter.
    state: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Checkpoint:
    """A golden-run snapshot annotated with the per-category dynamic
    candidate counts reached at its boundary, so an injector resuming here
    can keep counting and still hit dynamic instance k exactly."""

    snapshot: MachineSnapshot
    counts: Dict[str, int]


class Converged(Exception):
    """Raised by an engine's boundary tap when an injection run's state
    equals a later golden checkpoint; ``run()`` catches it and returns
    the golden result (see :class:`ConvergenceProbe`)."""


#: An ``executed`` count no run reaches: disarms a boundary tap.
NEVER = 1 << 62


class ConvergenceProbe:
    """Where an injection run may stop early: the golden checkpoints after
    the one it restored (``marks[first:]``), and the recording run's
    result it then returns.

    Determinism makes the exit exact.  A run whose whole machine state
    equals golden checkpoint ``c`` at ``c.executed`` — with its injection
    hook finished and its activation settled — retires from there the
    very instruction stream the golden run retired from ``c``, so it ends
    with the golden result.  The engine arms its boundary tap at the next
    mark's ``executed``; a tap that passes a mark without landing on it
    (compiled segments are checked at their starts only) arms the next
    one.  The probe holds no reference to the engine."""

    __slots__ = ("marks", "index", "final")

    def __init__(self, marks: Sequence[MachineSnapshot], first: int,
                 final: ExecutionResult) -> None:
        self.marks = marks
        self.index = first
        self.final = final

    def due(self, executed: int) -> Optional[MachineSnapshot]:
        """The mark at exactly ``executed``, if any, advancing past every
        mark at or before it."""
        marks = self.marks
        i = self.index
        while i < len(marks) and marks[i].executed < executed:
            i += 1
        mark = None
        if i < len(marks) and marks[i].executed == executed:
            mark = marks[i]
            i += 1
        self.index = i
        return mark

    def next_executed(self) -> int:
        """Where the tap fires next (:data:`NEVER` once past every mark)."""
        i = self.index
        return self.marks[i].executed if i < len(self.marks) else NEVER


#: Expanded snapshots a store keeps live at once.  Only batched groups
#: decode (their copy-on-write lanes read a full-size image); bucketed
#: scheduling makes a group's snapshot repeat, so a handful of slots
#: suffices while bounding resident decodes (each is a full heap + stack
#: + globals image, ~5 MiB).
DECODED_CACHE_SNAPSHOTS = 4

#: First stride of an automatic-policy recording, in instructions.  The
#: run's length is unknown until it ends, so it records densely and thins
#: as it goes (see :func:`record_checkpoints`).
PROVISIONAL_STRIDE = 1024

#: Checkpoints a provisional recording holds before it drops every other
#: one and doubles its stride, so it never holds more than this many.
PROVISIONAL_CHECKPOINTS = 40


class CheckpointStore:
    """Ordered golden-run checkpoints for one injector.

    Checkpoints are appended in execution order, so both ``executed`` and
    every per-category count are non-decreasing across the list — which is
    what makes :meth:`index_before` a binary search over the per-category
    count column.

    ``final`` is the recording run's own result: the golden continuation
    of every checkpoint, which a converged injection run returns.

    The store also owns the per-process decode cache of batched groups:
    their lanes share one expanded full-size memory image per snapshot
    (:meth:`decoded_memory`).  ``decode_count`` / ``decoded_restores``
    count cache misses and total served decodes.
    """

    def __init__(self, stride: int, provisional: bool = False) -> None:
        if stride <= 0:
            raise ReproError(f"checkpoint stride must be positive: {stride}")
        #: Recording stride in instructions (a provisional recording
        #: doubles it as it thins).
        self.stride = stride
        #: A provisional store does not know its final stride yet: it
        #: drops every other checkpoint and doubles its stride whenever it
        #: holds PROVISIONAL_CHECKPOINTS, until :meth:`keep_multiples`
        #: thins it to the final stride.
        self.provisional = provisional
        self._checkpoints: List[Checkpoint] = []
        #: Per-category count columns for :meth:`index_before` (lazy).
        self._count_columns: Dict[str, List[int]] = {}
        self._snapshots: Optional[Tuple[MachineSnapshot, ...]] = None
        #: The recording run's result (set by the recorder).
        self.final: Optional[ExecutionResult] = None
        #: id(snapshot) -> expanded region bytes, LRU over the snapshots
        #: this store holds (ids are stable: the store keeps the strong
        #: references).
        self._decoded: "OrderedDict[int, Tuple[bytes, ...]]" = OrderedDict()
        #: Snapshot expansions performed (decode-cache misses).
        self.decode_count = 0
        #: Restores served through :meth:`decoded_memory` (hits + misses).
        self.decoded_restores = 0

    def record(self, snapshot: MachineSnapshot,
               counts: Dict[str, int]) -> Optional[int]:
        """Append one checkpoint.  Returns the recording's new stride when
        a provisional store just thinned itself, else None — the engine's
        checkpoint sink passes it on, so the engine learns the stride
        without the store holding a reference to it."""
        if self._checkpoints and \
                snapshot.executed < self._checkpoints[-1].snapshot.executed:
            raise ReproError("checkpoints must be recorded in execution order")
        self._checkpoints.append(Checkpoint(snapshot, dict(counts)))
        self._changed()
        if self.provisional and \
                len(self._checkpoints) >= PROVISIONAL_CHECKPOINTS:
            del self._checkpoints[::2]
            self.stride *= 2
            return self.stride
        return None

    def keep_multiples(self, step: int) -> None:
        """Keep the first checkpoint at or past each multiple of ``step``
        and drop the rest: the automatic policy's final placement, taken
        from a denser provisional recording of the same run."""
        kept: List[Checkpoint] = []
        mark = step
        for checkpoint in self._checkpoints:
            executed = checkpoint.snapshot.executed
            if executed >= mark:
                kept.append(checkpoint)
                mark = (executed // step + 1) * step
        self._checkpoints = kept
        self.stride = step
        self.provisional = False
        self._changed()

    def _changed(self) -> None:
        self._count_columns.clear()
        self._snapshots = None

    @property
    def snapshots(self) -> Tuple[MachineSnapshot, ...]:
        """Every checkpoint's snapshot in execution order (the convergence
        probe's marks)."""
        if self._snapshots is None:
            self._snapshots = tuple(c.snapshot for c in self._checkpoints)
        return self._snapshots

    def __len__(self) -> int:
        return len(self._checkpoints)

    def __getitem__(self, index: int) -> Checkpoint:
        return self._checkpoints[index]

    @property
    def checkpoints(self) -> List[Checkpoint]:
        return list(self._checkpoints)

    def index_before(self, category: str, k: int) -> Optional[int]:
        """Index of the latest checkpoint strictly before the k-th dynamic
        candidate of ``category`` (fewer than k candidates retired), or
        None when even the first checkpoint is past it.

        This index is the campaign scheduler's bucket key: trials that
        resolve to the same index restore from (and share the decode of)
        the same snapshot."""
        column = self._count_columns.get(category)
        if column is None:
            column = [c.counts[category] for c in self._checkpoints]
            self._count_columns[category] = column
        i = bisect_left(column, k) - 1
        return i if i >= 0 else None

    def best_for(self, category: str, k: int) -> Optional[Checkpoint]:
        """The checkpoint at :meth:`index_before`, or None."""
        i = self.index_before(category, k)
        return self._checkpoints[i] if i is not None else None

    def decoded_memory(self, checkpoint: Checkpoint) -> Tuple[bytes, ...]:
        """Full-size region images of one checkpoint's snapshot, decoded
        once and shared by every restore in its bucket (bounded LRU)."""
        self.decoded_restores += 1
        key = id(checkpoint.snapshot)
        decoded = self._decoded.get(key)
        rec = get_recorder()
        if decoded is not None:
            self._decoded.move_to_end(key)
            if rec.enabled:
                rec.incr("snapshot.decoded_hits")
            return decoded
        decoded = tuple(expand_image(image)
                        for image in checkpoint.snapshot.memory)
        self.decode_count += 1
        if rec.enabled:
            rec.incr("snapshot.decodes")
        self._decoded[key] = decoded
        while len(self._decoded) > DECODED_CACHE_SNAPSHOTS:
            self._decoded.popitem(last=False)
        return decoded


def record_checkpoints(record: Callable[[CheckpointStore], ExecutionResult],
                       stride: int,
                       length: Optional[int] = None) -> CheckpointStore:
    """Record golden checkpoints at an explicit ``stride`` (> 0) or by the
    automatic policy (< 0): about one every ``N // 20`` instructions of a
    run of length N.  ``record(store)`` runs the program once, recording
    into ``store`` at ``store.stride`` (passing on the store's returned
    stride), and returns the run's result, kept as ``store.final``.

    The automatic policy learns N from the recording itself: it records
    at the provisional stride, then keeps the first checkpoint at or past
    each multiple of ``N // 20`` (:meth:`CheckpointStore.keep_multiples`).
    A run shorter than 20 provisional strides is recorded again at
    ``N // 20``, because the provisional checkpoints are too sparse for
    it; a known ``length`` skips straight to that recording."""
    if stride > 0:
        store = CheckpointStore(stride)
    elif length is not None and length // 20 < PROVISIONAL_STRIDE:
        store = CheckpointStore(max(1, length // 20))
    else:
        store = CheckpointStore(PROVISIONAL_STRIDE, provisional=True)
        store.final = record(store)
        step = max(1, store.final.instructions // 20)
        if step >= PROVISIONAL_STRIDE:
            store.keep_multiples(step)
            return store
        store = CheckpointStore(step)
    store.final = record(store)
    return store
