"""Flat byte-addressable memory image.

The paper's walkers chase *real* pointers: a Widx bucket node holds the
global address of its successor, a CSR row is located through ``row_ptr``
offsets. To keep the reproduction honest, host data structures are laid
out into a flat :class:`MemoryImage` (a bump-allocated bytearray) and the
walkers compute and dereference real addresses inside it — exactly the
accesses an address-based cache would have to make.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

__all__ = ["MemoryImage", "OutOfMemoryError"]

_U_FORMATS = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}
_S_FORMATS = {1: "<b", 2: "<h", 4: "<i", 8: "<q"}


class OutOfMemoryError(MemoryError):
    """Allocation beyond the configured image size."""


class MemoryImage:
    """A bump allocator over a flat little-endian byte array.

    Address 0 is reserved as the null pointer; allocation starts at
    ``base``. The image grows lazily up to ``size`` bytes.
    """

    NULL = 0

    def __init__(self, size: int = 1 << 26, base: int = 64) -> None:
        if base <= 0:
            raise ValueError("base must leave address 0 as NULL")
        self.size = size
        self._data = bytearray(min(size, 1 << 16))
        self._brk = base
        self.allocations: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes`` (aligned) and return the base address."""
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes}")
        if align & (align - 1):
            raise ValueError(f"alignment {align} is not a power of two")
        addr = (self._brk + align - 1) & ~(align - 1)
        end = addr + nbytes
        if end > self.size:
            raise OutOfMemoryError(
                f"image exhausted: want {nbytes}B at {addr:#x}, size {self.size:#x}"
            )
        self._ensure(end)
        self._brk = end
        self.allocations.append((addr, nbytes))
        return addr

    @property
    def used(self) -> int:
        """Bytes consumed so far (high-water mark)."""
        return self._brk

    def segment(self, start: int) -> Tuple[bytes, Tuple[Tuple[int, int], ...]]:
        """The bytes in ``[start, break)`` and the allocations made there."""
        return (bytes(self._data[start:self._brk]),
                tuple(a for a in self.allocations if a[0] >= start))

    def map_segment(self, start: int, data: bytes,
                    allocations: Tuple[Tuple[int, int], ...]) -> bool:
        """Place a :meth:`segment` of another image at ``start``.

        Only an image whose break is ``start`` can take it, so the
        copied pointers stay valid; the image then looks as if it had
        made the segment's allocations and writes itself. Returns False,
        leaving the image untouched, when the break differs or the
        segment does not fit.
        """
        end = start + len(data)
        if start != self._brk or end > self.size:
            return False
        self._ensure(end)
        self._data[start:end] = data
        self._brk = end
        self.allocations.extend(allocations)
        return True

    def _ensure(self, end: int) -> None:
        if end > len(self._data):
            new_len = len(self._data)
            while new_len < end:
                new_len *= 2
            self._data.extend(b"\x00" * (min(new_len, self.size) - len(self._data)))

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise IndexError(f"access [{addr:#x}, {addr + nbytes:#x}) outside image")
        self._ensure(addr + nbytes)

    # ------------------------------------------------------------------
    # scalar accessors
    # ------------------------------------------------------------------
    def read_uint(self, addr: int, nbytes: int) -> int:
        self._check_range(addr, nbytes)
        return struct.unpack_from(_U_FORMATS[nbytes], self._data, addr)[0]

    def write_uint(self, addr: int, nbytes: int, value: int) -> None:
        self._check_range(addr, nbytes)
        struct.pack_into(_U_FORMATS[nbytes], self._data, addr, value & ((1 << (8 * nbytes)) - 1))

    def read_int(self, addr: int, nbytes: int) -> int:
        self._check_range(addr, nbytes)
        return struct.unpack_from(_S_FORMATS[nbytes], self._data, addr)[0]

    def write_int(self, addr: int, nbytes: int, value: int) -> None:
        self._check_range(addr, nbytes)
        struct.pack_into(_S_FORMATS[nbytes], self._data, addr, value)

    def read_u32(self, addr: int) -> int:
        return self.read_uint(addr, 4)

    def write_u32(self, addr: int, value: int) -> None:
        self.write_uint(addr, 4, value)

    def read_u64(self, addr: int) -> int:
        return self.read_uint(addr, 8)

    def write_u64(self, addr: int, value: int) -> None:
        self.write_uint(addr, 8, value)

    def read_f64(self, addr: int) -> float:
        self._check_range(addr, 8)
        return struct.unpack_from("<d", self._data, addr)[0]

    def write_f64(self, addr: int, value: float) -> None:
        self._check_range(addr, 8)
        struct.pack_into("<d", self._data, addr, value)

    # ------------------------------------------------------------------
    # block accessors (cache-line transfers)
    # ------------------------------------------------------------------
    def read_block(self, addr: int, nbytes: int) -> bytes:
        self._check_range(addr, nbytes)
        return bytes(self._data[addr:addr + nbytes])

    def write_block(self, addr: int, data: bytes) -> None:
        self._check_range(addr, len(data))
        self._data[addr:addr + len(data)] = data

    # ------------------------------------------------------------------
    # array helpers used by the data-structure builders
    # ------------------------------------------------------------------
    def alloc_u32_array(self, values) -> int:
        addr = self.alloc(4 * len(values), align=8)
        for i, v in enumerate(values):
            self.write_u32(addr + 4 * i, int(v))
        return addr

    def alloc_u64_array(self, values) -> int:
        addr = self.alloc(8 * len(values), align=8)
        for i, v in enumerate(values):
            self.write_u64(addr + 8 * i, int(v))
        return addr

    def alloc_f64_array(self, values) -> int:
        addr = self.alloc(8 * len(values), align=8)
        for i, v in enumerate(values):
            self.write_f64(addr + 8 * i, float(v))
        return addr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryImage(used={self._brk:#x}, size={self.size:#x})"
