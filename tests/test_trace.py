"""Trace format and capture tests."""

import struct

import numpy as np
import pytest

import memvuln.trace
from memvuln import cg
from memvuln.trace import (
    KIND_LOAD,
    KIND_STORE,
    RECORD_SIZE,
    StructureMap,
    StructureRegion,
    TraceFormatError,
    TraceReader,
    TraceWriter,
)

from observers import CollectingObserver


def small_map():
    return StructureMap(
        [StructureRegion("a", 0, 64), StructureRegion("b", 4096, 128)]
    )


class TestStructureMap:
    def test_lookup(self):
        smap = small_map()
        assert smap.region("a").end == 64
        assert smap.region("b").end == 4096 + 128
        assert smap.names() == ["a", "b"]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            StructureMap(
                [StructureRegion("a", 0, 64), StructureRegion("b", 32, 64)]
            )

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            StructureMap([StructureRegion("a", 4, 64)])


class TestRoundTrip:
    def write_sample(self, path):
        smap = small_map()
        with TraceWriter(path) as w:
            w.register_structures(smap)
            w.emit(
                np.array([KIND_LOAD, KIND_STORE, KIND_LOAD], dtype=np.uint8),
                np.array([0, 8, 4096], dtype=np.uint64),
            )
        return smap

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.bin"
        self.write_sample(path)
        with TraceReader(path) as r:
            assert r.n_events == 3
            assert r.structures.names() == ["a", "b"]
            assert [(reg.base, reg.length) for reg in r.structures] == [(0, 64), (4096, 128)]
            (events,) = r.iter_blocks()
        assert events["kind"].tolist() == [KIND_LOAD, KIND_STORE, KIND_LOAD]
        assert events["addr"].tolist() == [0, 8, 4096]
        # Header, two region entries, three records, one block length.
        assert path.stat().st_size == 24 + 2 * 32 + 3 * RECORD_SIZE + 8

    def write_blocks(self, path, lengths):
        """A trace of one emit per length; returns the blocks' addresses."""
        blocks = []
        with TraceWriter(path) as w:
            for n in lengths:
                addrs = 8 * (len(blocks) * 10_000 + np.arange(n, dtype=np.uint64))
                w.emit(np.arange(n, dtype=np.uint8) % 2, addrs)
                blocks.append(addrs)
        return [b for b in blocks if len(b)]

    def test_round_trip_keeps_the_writers_blocks(self, tmp_path):
        path = tmp_path / "t.bin"
        want = self.write_blocks(path, [5, 2500, 0, 1, 1200])
        with TraceReader(path) as r:
            got = [blk["addr"] for blk in r.iter_blocks()]
        assert [len(b) for b in got] == [5, 2500, 1, 1200]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_iter_blocks_splits_long_blocks(self, tmp_path, monkeypatch):
        path = tmp_path / "t.bin"
        want = self.write_blocks(path, [5, 2500, 0, 1, 1200])
        monkeypatch.setattr(memvuln.trace, "BLOCK_EVENTS", 1000)
        with TraceReader(path) as r:
            got = [blk["addr"] for blk in r.iter_blocks()]
        assert [len(b) for b in got] == [5, 1000, 1000, 500, 1, 1000, 200]
        assert np.array_equal(np.concatenate(got), np.concatenate(want))

    def test_v2_trace_names_both_versions(self, tmp_path):
        path = tmp_path / "t.bin"
        self.write_sample(path)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<H", 2) + data[6:])
        with pytest.raises(TraceFormatError, match="file v2, reader v3"):
            TraceReader(path)

    def test_byte_identical_rewrite(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        self.write_sample(p1)
        # Replaying a stored trace writes back the identical byte stream.
        with TraceReader(p1) as r, TraceWriter(p2) as w:
            w.register_structures(r.structures)
            for block in r.iter_blocks():
                w.emit(block["kind"], block["addr"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_handcrafted_event(self, tmp_path):
        path = tmp_path / "one.bin"
        with TraceWriter(path) as w:
            w.emit(
                np.array([KIND_STORE], dtype=np.uint8),
                np.array([64], dtype=np.uint64),
            )
        with TraceReader(path) as r:
            (events,) = r.iter_blocks()
        assert len(events) == 1
        assert events["addr"][0] == 64 and events["kind"][0] == KIND_STORE
        assert len(r.structures) == 0

    def test_truncated_file_names_offset(self, tmp_path):
        path = tmp_path / "t.bin"
        self.write_sample(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - RECORD_SIZE])
        with pytest.raises(TraceFormatError, match="byte"):
            TraceReader(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        self.write_sample(path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="version"):
            TraceReader(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: b"XXXX" + data[4:],  # bad magic
            lambda data: data[:4] + struct.pack("<H", 1) + data[6:],  # v1 file
            lambda data: data[:10],  # truncated header
            lambda data: data[:40],  # truncated region table
            lambda data: data[:-1],  # short event data
            lambda data: data[:-8] + struct.pack("<Q", 2),  # 2 of 3 events
            # two lengths whose uint64 sum wraps round to the 3 events
            lambda data: (data[:16] + struct.pack("<Q", 2) + data[24:-8]
                          + struct.pack("<QQ", 2**64 - 1, 4)),
        ],
        ids=["magic", "version", "header", "regions", "events", "blocks",
             "wrapping-blocks"],
    )
    def test_refused_file_is_closed(self, tmp_path, monkeypatch, corrupt):
        path = tmp_path / "t.bin"
        self.write_sample(path)
        path.write_bytes(corrupt(path.read_bytes()))
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(memvuln.trace, "open", recording_open, raising=False)
        with pytest.raises(TraceFormatError):
            TraceReader(path)
        assert len(handles) == 1 and handles[0].closed

    def test_unknown_kind_is_not_written(self, tmp_path):
        path = tmp_path / "t.bin"
        with TraceWriter(path) as w:
            with pytest.raises(ValueError, match="kind 2 "):
                w.emit(np.array([KIND_LOAD, 2], dtype=np.uint8),
                       np.array([0, 8], dtype=np.uint64))
        with TraceReader(path) as r:
            assert r.n_events == 0

    @pytest.mark.parametrize("n_kinds, n_addrs", [(2, 3), (3, 2), (1, 5)])
    def test_mismatched_lengths_are_refused(self, tmp_path, n_kinds, n_addrs):
        path = tmp_path / "t.bin"
        with TraceWriter(path) as w:
            with pytest.raises(ValueError, match=f"{n_kinds} access kinds for {n_addrs} addresses"):
                w.emit(np.zeros(n_kinds, dtype=np.uint8), 8 * np.arange(n_addrs, dtype=np.uint64))
            # Nothing was registered or written: the writer is as it was.
            w.register_structures(small_map())
            w.emit(np.ones(2, dtype=np.uint8), np.array([0, 8], dtype=np.uint64))
        with TraceReader(path) as r:
            assert r.structures.names() == ["a", "b"]
            (events,) = r.iter_blocks()
        assert events["kind"].tolist() == [KIND_STORE] * 2
        assert events["addr"].tolist() == [0, 8]


class TestSolverCapture:
    def test_file_capture_matches_collector(self, tmp_path, monkeypatch):
        A = cg.generate_poisson27(2)
        b = cg.spmv(A, np.ones(A.n_rows))
        tol = cg.default_tol(b)
        # The fault-free solve is deterministic, so two captures of it
        # see the same stream.
        col = CollectingObserver()
        cg.solve(A, b, tol=tol, observer=col)
        path = tmp_path / "solve.bin"
        with TraceWriter(path) as writer:
            cg.solve(A, b, tol=tol, observer=writer)
        kinds, addrs = col.arrays()
        with TraceReader(path) as r:
            assert r.n_events == len(kinds)
            assert r.structures.regions == col.smap.regions
            monkeypatch.setattr(memvuln.trace, "BLOCK_EVENTS", 1000)
            got = np.concatenate([blk for blk in r.iter_blocks()])
        assert np.array_equal(got["kind"], kinds)
        assert np.array_equal(got["addr"], addrs)

    def test_bounded_memory_streaming(self, tmp_path, monkeypatch):
        # A side=8 capture streams back in small blocks; peak resident
        # growth must stay far below the file size would suggest if the
        # trace were materialized (file is ~3.2 MB; we demand < 64 MiB total
        # process growth while scanning).
        import resource

        A = cg.generate_poisson27(8)
        b = cg.spmv(A, np.ones(A.n_rows))
        path = tmp_path / "big.bin"
        writer = TraceWriter(path)
        cg.solve(A, b, tol=cg.default_tol(b), observer=writer)
        writer.close()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        count = 0
        monkeypatch.setattr(memvuln.trace, "BLOCK_EVENTS", 1 << 16)
        with TraceReader(path) as r:
            for block in r.iter_blocks():
                count += len(block)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert count == r.n_events
        assert (after - before) * 1024 < 64 * 1024 * 1024
