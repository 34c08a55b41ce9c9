"""Sparse region-based memory for the simulated machine.

The address space is 64-bit but only a few small islands are mapped:

======================  =====================  =======================
region                  default base           default size
======================  =====================  =======================
globals                 0x0000_0000_0001_0000  sized to the module
heap                    0x0000_0000_1000_0000  4 MiB
stack (grows down)      0x0000_7FFF_FF00_0000  1 MiB (top at base)
======================  =====================  =======================

This sparseness is load-bearing for the reproduction: a random single-bit
flip in a 64-bit pointer almost always produces an address outside every
mapped region, so pointer corruption crashes with high probability — the
same mechanism that produces SIGSEGV on real hardware, and the origin of
the paper's crash-rate results.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.vm.traps import Trap, TrapKind

GLOBALS_BASE = 0x0000_0000_0001_0000
HEAP_BASE = 0x0000_0000_1000_0000
HEAP_SIZE = 4 * 1024 * 1024
STACK_TOP = 0x0000_7FFF_FF00_0000
STACK_SIZE = 1024 * 1024

_PACK = {1: "<b", 2: "<h", 4: "<i", 8: "<q"}
_PACK_U = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}


@dataclass
class Region:
    name: str
    base: int
    size: int
    data: bytearray

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, size: int) -> bool:
        return self.base <= addr and addr + size <= self.end


class Memory:
    """Byte-addressable memory made of disjoint mapped regions. Any access
    that is not fully inside one region raises a SEGV trap."""

    def __init__(self) -> None:
        self._regions: List[Region] = []
        #: Hot-path cache of the last region hit (locality is high).
        self._last: Optional[Region] = None

    def map_region(self, name: str, base: int, size: int) -> Region:
        if base < 0 or size <= 0:
            raise ValueError(f"bad region {name}: base={base:#x} size={size}")
        for region in self._regions:
            if base < region.end and region.base < base + size:
                raise ValueError(
                    f"region {name} overlaps {region.name}")
        region = Region(name, base, size, bytearray(size))
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        return region

    def region_named(self, name: str) -> Region:
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)

    def regions(self) -> List[Region]:
        return list(self._regions)

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        return self._find(addr, size) is not None

    def _find(self, addr: int, size: int) -> Optional[Region]:
        last = self._last
        if last is not None and last.contains(addr, size):
            return last
        for region in self._regions:
            if region.contains(addr, size):
                self._last = region
                return region
        return None

    def _locate(self, addr: int, size: int) -> Tuple[Region, int]:
        region = self._find(addr, size)
        if region is None:
            raise Trap(TrapKind.SEGV, f"access to {addr:#x} ({size} bytes)")
        return region, addr - region.base

    # -- raw bytes ----------------------------------------------------------
    def read_bytes(self, addr: int, size: int) -> bytes:
        region, offset = self._locate(addr, size)
        return bytes(region.data[offset:offset + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        region, offset = self._locate(addr, len(data))
        region.data[offset:offset + len(data)] = data

    # -- integers -------------------------------------------------------------
    def read_int(self, addr: int, size: int, signed: bool = True) -> int:
        region, offset = self._locate(addr, size)
        fmt = _PACK[size] if signed else _PACK_U[size]
        return struct.unpack_from(fmt, region.data, offset)[0]

    def write_int(self, addr: int, size: int, value: int) -> None:
        region, offset = self._locate(addr, size)
        value &= (1 << (size * 8)) - 1
        struct.pack_into(_PACK_U[size], region.data, offset, value)

    # -- doubles ---------------------------------------------------------------
    def read_double(self, addr: int) -> float:
        region, offset = self._locate(addr, 8)
        return struct.unpack_from("<d", region.data, offset)[0]

    def write_double(self, addr: int, value: float) -> None:
        region, offset = self._locate(addr, 8)
        struct.pack_into("<d", region.data, offset, value)

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        """Read a NUL-terminated string (for the print_str intrinsic)."""
        chars = []
        for i in range(limit):
            byte = self.read_int(addr + i, 1, signed=False)
            if byte == 0:
                break
            chars.append(chr(byte))
        return "".join(chars)


def standard_memory(globals_size: int = 64 * 1024) -> Memory:
    """Memory with the standard three-region layout."""
    mem = Memory()
    mem.map_region("globals", GLOBALS_BASE, max(globals_size, 4096))
    mem.map_region("heap", HEAP_BASE, HEAP_SIZE)
    mem.map_region("stack", STACK_TOP - STACK_SIZE, STACK_SIZE)
    return mem


_PAGE_SHIFT = 16
PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = PAGE_SIZE - 1


@dataclass
class CowStats:
    """Page-sharing accounting, shared by a COW memory and all its forks.

    ``pages_shared`` counts pages a fork starts out sharing with its
    parent; ``pages_cow`` counts pages later materialized privately by a
    first write.  The ratio is the fraction of the address space a trial
    actually had to copy."""

    forks: int = 0
    pages_shared: int = 0
    pages_cow: int = 0


class _CowRegion:
    """One mapped region backed by an immutable byte image plus an
    overlay of 64 KiB pages.  ``pages[i] is None`` means "read the base
    image"; a non-owned page is shared with another fork and must be
    copied before the first write."""

    __slots__ = ("name", "base", "size", "image", "pages", "owned")

    def __init__(self, name: str, base: int, size: int, image: bytes,
                 pages: Optional[List[Optional[bytearray]]] = None) -> None:
        self.name = name
        self.base = base
        self.size = size
        self.image = image
        count = (size + PAGE_SIZE - 1) >> _PAGE_SHIFT
        self.pages = [None] * count if pages is None else pages
        self.owned = bytearray(len(self.pages))

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, size: int) -> bool:
        return self.base <= addr and addr + size <= self.end


class COWMemory:
    """Copy-on-write view over full-region byte images.

    Built directly over ``CheckpointStore.decoded_memory`` images (or a
    pristine cold-start image): construction copies **nothing** —
    untouched pages stay references into the shared decode for the
    fork's whole lifetime.
    ``fork()`` is O(pages) pointer copies; each side then copies a page
    privately only on its first write to it.

    Drives the batched-suffix executor (:mod:`repro.vm.batch`).  It is
    never the subject of ``capture_memory`` — lanes are terminal, they
    are not re-checkpointed — so ``regions()`` exposes page state, not a
    flat ``data`` buffer.
    """

    def __init__(self, regions: List[_CowRegion],
                 stats: Optional[CowStats] = None) -> None:
        self._regions = sorted(regions, key=lambda r: r.base)
        self._last: Optional[_CowRegion] = None
        self.stats = stats if stats is not None else CowStats()

    @classmethod
    def from_images(cls, layout: Sequence[Tuple[str, int, int]],
                    images: Sequence[bytes],
                    stats: Optional[CowStats] = None) -> "COWMemory":
        """Zero-copy construction from ``(name, base, size)`` layout rows
        and matching full-region images."""
        if len(layout) != len(images):
            raise ValueError("layout/image count mismatch")
        regions = []
        for (name, base, size), image in zip(layout, images):
            if len(image) != size:
                raise ValueError(
                    f"region {name}: image is {len(image)} bytes, "
                    f"mapped size is {size}")
            regions.append(_CowRegion(name, base, size, bytes(image)))
        return cls(regions, stats)

    def fork(self) -> "COWMemory":
        """Child sharing every current page; both sides copy on write."""
        children = []
        stats = self.stats
        for region in self._regions:
            child = _CowRegion(region.name, region.base, region.size,
                               region.image, pages=list(region.pages))
            # Every page the parent owned is now shared with the child.
            region.owned[:] = bytes(len(region.owned))
            stats.pages_shared += len(region.pages)
            children.append(child)
        stats.forks += 1
        return COWMemory(children, stats)

    # -- region queries (Memory-compatible) ---------------------------------
    def region_named(self, name: str) -> _CowRegion:
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)

    def regions(self) -> List[_CowRegion]:
        return list(self._regions)

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        return self._find(addr, size) is not None

    def _find(self, addr: int, size: int) -> Optional[_CowRegion]:
        last = self._last
        if last is not None and last.contains(addr, size):
            return last
        for region in self._regions:
            if region.contains(addr, size):
                self._last = region
                return region
        return None

    def _locate(self, addr: int, size: int) -> Tuple[_CowRegion, int]:
        region = self._find(addr, size)
        if region is None:
            raise Trap(TrapKind.SEGV, f"access to {addr:#x} ({size} bytes)")
        return region, addr - region.base

    # -- page plumbing ------------------------------------------------------
    def _page_for_write(self, region: _CowRegion, index: int) -> bytearray:
        page = region.pages[index]
        if page is not None and region.owned[index]:
            return page
        if page is None:
            start = index << _PAGE_SHIFT
            page = bytearray(region.image[start:start + PAGE_SIZE])
        else:
            page = bytearray(page)
        region.pages[index] = page
        region.owned[index] = 1
        self.stats.pages_cow += 1
        return page

    def _read(self, region: _CowRegion, offset: int, size: int) -> bytes:
        end = offset + size
        parts = []
        while offset < end:
            index = offset >> _PAGE_SHIFT
            stop = min(end, (index + 1) << _PAGE_SHIFT)
            page = region.pages[index]
            if page is None:
                parts.append(region.image[offset:stop])
            else:
                start = offset & _PAGE_MASK
                parts.append(bytes(page[start:start + (stop - offset)]))
            offset = stop
        return b"".join(parts)

    def _write(self, region: _CowRegion, offset: int, data: bytes) -> None:
        end = offset + len(data)
        pos = 0
        while offset < end:
            index = offset >> _PAGE_SHIFT
            stop = min(end, (index + 1) << _PAGE_SHIFT)
            page = self._page_for_write(region, index)
            start = offset & _PAGE_MASK
            page[start:start + (stop - offset)] = data[pos:pos + (stop - offset)]
            pos += stop - offset
            offset = stop

    # -- raw bytes ----------------------------------------------------------
    def read_bytes(self, addr: int, size: int) -> bytes:
        region, offset = self._locate(addr, size)
        index = offset >> _PAGE_SHIFT
        if (offset + size - 1) >> _PAGE_SHIFT == index:
            page = region.pages[index]
            if page is None:
                return region.image[offset:offset + size]
            start = offset & _PAGE_MASK
            return bytes(page[start:start + size])
        return self._read(region, offset, size)

    def write_bytes(self, addr: int, data: bytes) -> None:
        if not data:
            self._locate(addr, 0)
            return
        region, offset = self._locate(addr, len(data))
        self._write(region, offset, data)

    # -- integers -----------------------------------------------------------
    def read_int(self, addr: int, size: int, signed: bool = True) -> int:
        region, offset = self._locate(addr, size)
        fmt = _PACK[size] if signed else _PACK_U[size]
        start = offset & _PAGE_MASK
        if start + size <= PAGE_SIZE:
            page = region.pages[offset >> _PAGE_SHIFT]
            if page is None:
                return struct.unpack_from(fmt, region.image, offset)[0]
            return struct.unpack_from(fmt, page, start)[0]
        data = self._read(region, offset, size)
        return struct.unpack(fmt, data)[0]

    def write_int(self, addr: int, size: int, value: int) -> None:
        region, offset = self._locate(addr, size)
        value &= (1 << (size * 8)) - 1
        start = offset & _PAGE_MASK
        if start + size <= PAGE_SIZE:
            page = self._page_for_write(region, offset >> _PAGE_SHIFT)
            struct.pack_into(_PACK_U[size], page, start, value)
        else:
            self._write(region, offset, value.to_bytes(size, "little"))

    # -- doubles ------------------------------------------------------------
    def read_double(self, addr: int) -> float:
        region, offset = self._locate(addr, 8)
        start = offset & _PAGE_MASK
        if start + 8 <= PAGE_SIZE:
            page = region.pages[offset >> _PAGE_SHIFT]
            if page is None:
                return struct.unpack_from("<d", region.image, offset)[0]
            return struct.unpack_from("<d", page, start)[0]
        return struct.unpack("<d", self._read(region, offset, 8))[0]

    def write_double(self, addr: int, value: float) -> None:
        region, offset = self._locate(addr, 8)
        start = offset & _PAGE_MASK
        if start + 8 <= PAGE_SIZE:
            page = self._page_for_write(region, offset >> _PAGE_SHIFT)
            struct.pack_into("<d", page, start, value)
        else:
            self._write(region, offset, struct.pack("<d", value))

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        chars = []
        for i in range(limit):
            byte = self.read_int(addr + i, 1, signed=False)
            if byte == 0:
                break
            chars.append(chr(byte))
        return "".join(chars)


class BumpAllocator:
    """Trivial malloc: bump pointer, 16-byte aligned; free is a no-op.

    Matches what the benchmarks need (allocate-once workloads) and keeps
    both execution engines byte-identical in heap layout.
    """

    def __init__(self, base: int = HEAP_BASE, size: int = HEAP_SIZE) -> None:
        self.base = base
        self.size = size
        self._next = base
        self.allocations = 0

    def malloc(self, size: int) -> int:
        if size <= 0:
            size = 1
        aligned = (size + 15) // 16 * 16
        if self._next + aligned > self.base + self.size:
            raise Trap(TrapKind.SEGV, "heap exhausted")
        addr = self._next
        self._next += aligned
        self.allocations += 1
        return addr

    def free(self, addr: int) -> None:
        # Intentionally a no-op; see class docstring.
        del addr

    # -- snapshot support ---------------------------------------------------
    def checkpoint(self) -> Tuple[int, int]:
        """Frozen cursor state for :mod:`repro.vm.snapshot`."""
        return (self._next, self.allocations)

    def restore(self, state: Tuple[int, int]) -> None:
        self._next, self.allocations = state
