"""Snapshot/restore of simulated machine state, shared by both engines.

A :class:`MachineSnapshot` freezes everything one run needs to continue
from an instruction boundary: register file (or SSA frame stack), mapped
memory, heap-allocator cursor, call stack/location, output buffer and the
executed-instruction count.  The engines expose ``capture()``/``restore()``
built on it; the fault injectors use it to skip the fault-free prefix of
every injection run (see :mod:`repro.fi.llfi` / :mod:`repro.fi.pinfi`).

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
checkpoint, and a restore is then a memset plus a small memcpy instead of
a multi-megabyte copy per trial.

Restores are further amortized across trials sharing a checkpoint: the
:class:`CheckpointStore` *decodes* each snapshot's span-trimmed images
into full-size region byte strings once (:meth:`CheckpointStore
.decoded_memory`, a small LRU so a store never pins more than a few
expanded snapshots) and every subsequent restore in the bucket is a
single slice copy from the shared immutable decode — no per-trial zero
buffers, no per-trial span arithmetic.  The campaign scheduler groups a
round's trials by (category, checkpoint index) so consecutive trials hit
the same decode (see ``repro.fi.campaign``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.recorder import get_recorder


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


def expand_image(image: RegionImage) -> bytes:
    """Decode one span-trimmed region image into its full-size bytes."""
    tail = image.size - image.start - len(image.payload)
    return b"".join((bytes(image.start), image.payload, bytes(tail)))


def restore_memory_decoded(memory, images: Sequence[RegionImage],
                           decoded: Sequence[bytes]) -> None:
    """Restore from pre-expanded full-size region bytes: one slice copy
    per region, sharing the immutable decode across any number of
    restores.  Bit-identical to :func:`restore_memory` by construction
    (:func:`expand_image` zero-fills exactly what restore_memory does)."""
    for region, full in zip(_check_layout(memory, images), decoded):
        region.data[:] = full


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


#: Expanded snapshots a store keeps live at once.  Bucketed scheduling
#: makes restores of the same snapshot consecutive, so a handful of slots
#: suffices while bounding resident decodes (each is a full heap + stack
#: + globals image, ~5 MiB).
DECODED_CACHE_SNAPSHOTS = 4


class CheckpointStore:
    """Ordered golden-run checkpoints for one injector.

    Checkpoints are appended in execution order, so both ``executed`` and
    every per-category count are non-decreasing across the list — which is
    what makes :meth:`index_before` a binary search over the per-category
    count column.

    The store also owns the per-process decode cache: restores of the
    same snapshot share one expanded full-size memory image
    (:meth:`decoded_memory`) instead of re-deriving it per trial.
    ``decode_count`` / ``decoded_restores`` count cache misses and total
    served restores — the bucket-scheduler hit rate the benchmarks
    report.
    """

    def __init__(self, stride: int) -> None:
        if stride <= 0:
            raise ReproError(f"checkpoint stride must be positive: {stride}")
        #: Resolved recording stride in instructions.
        self.stride = stride
        self._checkpoints: List[Checkpoint] = []
        #: Per-category count columns for :meth:`index_before` (lazy).
        self._count_columns: Dict[str, List[int]] = {}
        #: id(snapshot) -> expanded region bytes, LRU over the snapshots
        #: this store holds (ids are stable: the store keeps the strong
        #: references).
        self._decoded: "OrderedDict[int, Tuple[bytes, ...]]" = OrderedDict()
        #: Snapshot expansions performed (decode-cache misses).
        self.decode_count = 0
        #: Restores served through :meth:`decoded_memory` (hits + misses).
        self.decoded_restores = 0

    def record(self, snapshot: MachineSnapshot, counts: Dict[str, int]) -> None:
        if self._checkpoints and \
                snapshot.executed < self._checkpoints[-1].snapshot.executed:
            raise ReproError("checkpoints must be recorded in execution order")
        self._checkpoints.append(Checkpoint(snapshot, dict(counts)))
        self._count_columns.clear()

    def __len__(self) -> int:
        return len(self._checkpoints)

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
