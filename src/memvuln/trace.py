"""Memory access traces: event model, structure labeling, binary capture format.

An access is a kind (load or store) and the byte address of the 64-bit
word it touches; which structure a word belongs to follows from its
address through the ``StructureMap``.  A trace file (format v2) is a
header, a region table naming the address ranges of the program's data
structures, and the accesses in program order as fixed-width 9-byte
little-endian records (``kind u1, addr u8``), so files are seekable
and language-neutral.  The header is magic ``MVTR``, version (u16),
event count (u64) and region count (u16); each region is a 16-byte
NUL-padded ASCII name, a base (u64) and a length in bytes (u64).
Readers refuse any other version: a v1 trace must be recorded again
with ``memvuln trace``.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

KIND_LOAD = 0
KIND_STORE = 1

#: Canonical tracked structures, in ordinal order. "dp" is the second
#: direction buffer (the two direction vectors swap roles every iteration).
TRACKED_STRUCTURES = ("Ar", "Ac", "Av", "x", "b", "g", "d", "dp", "q")

#: On-disk event record: u8 kind, u64 word address.
RECORD_DTYPE = np.dtype([("kind", "u1"), ("addr", "<u8")])
RECORD_SIZE = RECORD_DTYPE.itemsize  # 9 bytes

_MAGIC = b"MVTR"
_VERSION = 2
# magic, version, n_events, n_regions
_HEADER_FMT = "<4sHQH"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_REGION_FMT = "<16sQQ"
_REGION_SIZE = struct.calcsize(_REGION_FMT)


class TraceFormatError(ValueError):
    """Raised for malformed, truncated, or version-mismatched trace files."""


@dataclass(frozen=True)
class StructureRegion:
    """One labeled address range [base, base + length)."""

    name: str
    base: int
    length: int

    @property
    def end(self) -> int:
        return self.base + self.length


class StructureMap:
    """Disjoint, 8-byte-aligned labeled regions of the flat address space."""

    def __init__(self, regions: list[StructureRegion]):
        for reg in regions:
            if reg.base % 8 or reg.length % 8:
                raise ValueError(f"region {reg.name} not 8-byte aligned")
            if reg.length <= 0:
                raise ValueError(f"region {reg.name} is empty")
        ordered = sorted(regions, key=lambda r: r.base)
        for a, b in zip(ordered, ordered[1:]):
            if a.end > b.base:
                raise ValueError(f"regions {a.name} and {b.name} overlap")
        self.regions = list(regions)
        self._by_name = {r.name: i for i, r in enumerate(regions)}
        if len(self._by_name) != len(regions):
            raise ValueError("duplicate region names")

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def region(self, name: str) -> StructureRegion:
        return self.regions[self._by_name[name]]

    def names(self) -> list[str]:
        return [r.name for r in self.regions]


class TraceWriter:
    """Access observer that appends events to a binary trace file.

    Structures must be registered before the first event; a trace that
    starts without them has an empty region table.
    """

    def __init__(self, path):
        self._fh = open(path, "wb")
        self._regions: list[StructureRegion] | None = None
        self._n_events = 0

    def register_structures(self, smap: StructureMap) -> None:
        if self._regions is not None:
            raise TraceFormatError("structures already registered")
        self._regions = list(smap)
        self._write_header()

    def _write_header(self) -> None:
        self._fh.seek(0)
        self._fh.write(
            struct.pack(
                _HEADER_FMT, _MAGIC, _VERSION, self._n_events, len(self._regions)
            )
        )
        for reg in self._regions:
            name = reg.name.encode("ascii")
            if len(name) > 16:
                raise ValueError(f"region name too long: {reg.name}")
            self._fh.write(struct.pack(_REGION_FMT, name, reg.base, reg.length))

    def emit(self, kinds, addrs) -> None:
        if self._regions is None:
            self.register_structures(StructureMap([]))
        rec = np.empty(len(addrs), dtype=RECORD_DTYPE)
        rec["kind"] = kinds
        rec["addr"] = addrs
        self._fh.write(rec.tobytes())
        self._n_events += len(rec)

    def close(self) -> None:
        if self._fh.closed:
            return
        if self._regions is None:
            self.register_structures(StructureMap([]))
        self._write_header()  # now with the final event count
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TraceReader:
    """Streaming reader; never materializes the whole trace."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def _read_header(self) -> None:
        head = self._fh.read(_HEADER_SIZE)
        if len(head) < _HEADER_SIZE:
            raise TraceFormatError(f"truncated header at byte {len(head)}")
        magic, version, n_events, n_regions = struct.unpack(_HEADER_FMT, head)
        if magic != _MAGIC:
            raise TraceFormatError("bad magic; not a trace file")
        if version != _VERSION:
            raise TraceFormatError(
                f"version mismatch: file v{version}, reader v{_VERSION}; "
                "record the trace again with `memvuln trace`"
            )
        regions = []
        for _ in range(n_regions):
            raw = self._fh.read(_REGION_SIZE)
            if len(raw) < _REGION_SIZE:
                raise TraceFormatError(
                    f"truncated region table at byte {self._fh.tell()}"
                )
            name, base, length = struct.unpack(_REGION_FMT, raw)
            regions.append(
                StructureRegion(name.rstrip(b"\0").decode("ascii"), base, length)
            )
        self.structures = StructureMap(regions)
        self.n_events = n_events
        self._data_offset = self._fh.tell()
        size = os.fstat(self._fh.fileno()).st_size
        expect = self._data_offset + n_events * RECORD_SIZE
        if size < expect:
            raise TraceFormatError(
                f"truncated event data: file ends at byte {size}, "
                f"expected {expect}"
            )

    def iter_blocks(self, block_events: int = 1 << 20):
        """Yield structured-record arrays of at most block_events each."""
        self._fh.seek(self._data_offset)
        remaining = self.n_events
        while remaining:
            take = min(remaining, block_events)
            block = np.fromfile(self._fh, dtype=RECORD_DTYPE, count=take)
            if len(block) < take:
                raise TraceFormatError(
                    f"truncated event data at byte {self._fh.tell()}"
                )
            remaining -= take
            yield block

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
