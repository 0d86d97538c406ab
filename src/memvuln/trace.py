"""Memory access traces: event model, structure labeling, binary capture format.

A trace is a totally ordered stream of load/store events over a flat
simulated address space, bracketed by region-of-interest markers and
annotated with the address ranges of the program's data structures.
Events are stored as fixed-width 20-byte little-endian records so files
are seekable and language-neutral.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

KIND_LOAD = 0
KIND_STORE = 1

#: Canonical tracked structures, in ordinal order. "dp" is the second
#: direction buffer (the two direction vectors swap roles every iteration).
TRACKED_STRUCTURES = ("Ar", "Ac", "Av", "x", "b", "g", "d", "dp", "q")

#: Ordinal for addresses that fall outside every registered structure.
OTHER_ORDINAL = 0xFFFF

#: On-disk event record: u64 time, u8 kind, u64 addr, u8 width, u16 ordinal.
RECORD_DTYPE = np.dtype(
    [
        ("time", "<u8"),
        ("kind", "u1"),
        ("addr", "<u8"),
        ("width", "u1"),
        ("sid", "<u2"),
    ]
)
RECORD_SIZE = RECORD_DTYPE.itemsize  # 20 bytes

_MAGIC = b"MVTR"
_VERSION = 1
# magic, version, reserved, n_events, roi_start, roi_end, n_regions
_HEADER_FMT = "<4sHHQQQH"
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


@dataclass(frozen=True)
class RoiMarkers:
    roi_start: int
    roi_end: int

    def __post_init__(self) -> None:
        if self.roi_end < self.roi_start:
            raise ValueError("roi_end precedes roi_start")


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

    def ordinal_of(self, name: str) -> int:
        return self._by_name[name]

    def region(self, name: str) -> StructureRegion:
        return self.regions[self._by_name[name]]

    def names(self) -> list[str]:
        return [r.name for r in self.regions]


class TraceWriter:
    """Access observer that appends events to a binary trace file.

    Timestamps advance by one tick per event unless explicit times are
    supplied; explicit times must be non-decreasing or the writer raises,
    since an out-of-order capture is unrecoverably corrupt.
    """

    def __init__(self, path):
        self._fh = open(path, "wb")
        self._smap: StructureMap | None = None
        self._n_events = 0
        self._clock = 0
        self._roi_start = 0
        self._roi_end = 0
        self._roi_open = False
        self._header_written = False

    def register_structures(self, smap: StructureMap) -> None:
        if self._header_written:
            raise TraceFormatError("structures already registered")
        self._smap = smap
        self._write_header()
        self._header_written = True

    def _write_header(self) -> None:
        smap = self._smap
        regions = smap.regions if smap is not None else []
        self._fh.seek(0)
        self._fh.write(
            struct.pack(
                _HEADER_FMT,
                _MAGIC,
                _VERSION,
                0,
                self._n_events,
                self._roi_start,
                self._roi_end,
                len(regions),
            )
        )
        for reg in regions:
            name = reg.name.encode("ascii")
            if len(name) > 16:
                raise ValueError(f"region name too long: {reg.name}")
            self._fh.write(struct.pack(_REGION_FMT, name, reg.base, reg.length))

    def roi_begin(self) -> None:
        self._ensure_header()
        self._roi_start = self._clock
        self._roi_open = True

    def roi_end(self) -> None:
        self._roi_end = self._clock
        self._roi_open = False

    def _ensure_header(self) -> None:
        if not self._header_written:
            # Traces without labeled structures are legal (raw streams).
            self._smap = StructureMap([])
            self._write_header()
            self._header_written = True

    def emit(self, kinds, addrs, sids=None, widths=None, times=None) -> None:
        self._ensure_header()
        n = len(addrs)
        if n == 0:
            return
        rec = np.empty(n, dtype=RECORD_DTYPE)
        if times is None:
            rec["time"] = np.arange(self._clock, self._clock + n, dtype=np.uint64)
            self._clock += n
        else:
            times = np.asarray(times, dtype=np.uint64)
            if n > 1 and np.any(np.diff(times.astype(np.int64)) < 0):
                raise TraceFormatError("out-of-order timestamps in capture")
            if len(times) and times[0] < self._clock:
                raise TraceFormatError("out-of-order timestamps in capture")
            rec["time"] = times
            self._clock = int(times[-1]) + 1
        rec["kind"] = kinds
        rec["addr"] = addrs
        rec["width"] = 8 if widths is None else widths
        rec["sid"] = OTHER_ORDINAL if sids is None else sids
        self._fh.write(rec.tobytes())
        self._n_events += n

    def close(self) -> None:
        if self._fh.closed:
            return
        self._ensure_header()
        if self._roi_open:
            self.roi_end()
        self._write_header()
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
        head = self._fh.read(_HEADER_SIZE)
        if len(head) < _HEADER_SIZE:
            raise TraceFormatError(f"truncated header at byte {len(head)}")
        magic, version, _, n_events, roi_start, roi_end, n_regions = struct.unpack(
            _HEADER_FMT, head
        )
        if magic != _MAGIC:
            raise TraceFormatError("bad magic; not a trace file")
        if version != _VERSION:
            raise TraceFormatError(
                f"version mismatch: file v{version}, reader v{_VERSION}"
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
        self.roi = RoiMarkers(roi_start, roi_end)
        self.n_events = n_events
        self._data_offset = self._fh.tell()
        import os

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


class CollectingObserver:
    """In-memory observer accumulating all emitted blocks (tests, small runs)."""

    def __init__(self):
        self.smap: StructureMap | None = None
        self._kinds = []
        self._addrs = []
        self._sids = []
        self.roi_start = 0
        self.roi_stop = 0
        self.clock = 0
        self.closed = False

    def register_structures(self, smap: StructureMap) -> None:
        self.smap = smap

    def roi_begin(self) -> None:
        self.roi_start = self.clock

    def roi_end(self) -> None:
        self.roi_stop = self.clock

    def emit(self, kinds, addrs, sids=None, widths=None) -> None:
        self._kinds.append(np.asarray(kinds, dtype=np.uint8).copy())
        self._addrs.append(np.asarray(addrs, dtype=np.uint64).copy())
        if sids is None:
            sids = np.full(len(addrs), OTHER_ORDINAL, dtype=np.uint16)
        self._sids.append(np.asarray(sids, dtype=np.uint16).copy())
        self.clock += len(addrs)

    def close(self) -> None:
        self.closed = True

    @property
    def n_events(self) -> int:
        return self.clock

    def arrays(self):
        """Return (kinds, addrs, sids) concatenated."""
        if not self._kinds:
            empty = np.empty(0)
            return (
                empty.astype(np.uint8),
                empty.astype(np.uint64),
                empty.astype(np.uint16),
            )
        return (
            np.concatenate(self._kinds),
            np.concatenate(self._addrs),
            np.concatenate(self._sids),
        )
