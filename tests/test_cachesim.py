"""Tests for the cache hierarchy simulator.

The reference model here (``functional_cache_events``) is an independent
zero-latency functional cache written against ``collections.OrderedDict``:
same geometry, LRU, write-allocate/write-back, non-inclusive levels and
dirty-line routing, but none of the timing machinery.  With all latencies
configured to zero, the simulator must emit exactly the same multiset of
fills and write-backs.
"""

import dataclasses
import hashlib
import random
import re
import zipfile
from collections import Counter, OrderedDict

import numpy as np
import pytest

from memvuln.cachesim import (
    CAUSE_LOAD_MISS,
    CAUSE_STORE_MISS,
    LINE_BITS,
    LINE_SIZE,
    MEMO_MISSES,
    REQ_FILL,
    REQ_WRITEBACK,
    STREAMS,
    CacheConfig,
    CacheSimulator,
    LevelConfig,
    SimResult,
)
from memvuln.cg import solve
from memvuln.cli import build_problem, replay_trace
from memvuln.trace import KIND_LOAD, KIND_STORE, StructureMap, StructureRegion, TraceWriter

from observers import CollectingObserver


def tiny_config(l1=1024, l2=2048, l3=4096, latencies=(4, 12, 28), mem_lat=155, mshrs=(32, 32, 128)):
    cfg = CacheConfig()
    cfg.l1 = LevelConfig(2, l1, latencies[0], mshrs[0])
    cfg.l2 = LevelConfig(2, l2, latencies[1], mshrs[1])
    cfg.l3 = LevelConfig(4, l3, latencies[2], mshrs[2])
    cfg.memory_latency = mem_lat
    cfg.validate()
    return cfg


def latency_free(cfg):
    cfg.l1.latency = cfg.l2.latency = cfg.l3.latency = 0
    cfg.memory_latency = 0
    return cfg


def functional_cache_events(cfg, kinds, addrs):
    """Reference model: ordered (kind, line) list of main-memory events."""
    line_size = LINE_SIZE
    levels = []
    for lv in (cfg.l1, cfg.l2, cfg.l3):
        nsets = lv.size // (lv.assoc * line_size)
        levels.append(
            {"sets": [OrderedDict() for _ in range(nsets)], "nsets": nsets, "ways": lv.assoc}
        )
    events = []

    def route_dirty(from_lvl, line):
        for lvl in range(from_lvl + 1, 3):
            st = levels[lvl]["sets"][line % levels[lvl]["nsets"]]
            if line in st:
                st[line] = True  # mark dirty, keep recency
                return
        events.append((REQ_WRITEBACK, line))

    def install(lvl, line, dirty):
        level = levels[lvl]
        st = level["sets"][line % level["nsets"]]
        if len(st) >= level["ways"]:
            victim, was_dirty = next(iter(st.items()))
            del st[victim]
            if was_dirty:
                route_dirty(lvl, victim)
        st[line] = dirty

    for kind, addr in zip(kinds, addrs):
        line = addr // line_size
        st1 = levels[0]["sets"][line % levels[0]["nsets"]]
        if line in st1:
            st1.move_to_end(line)
            if kind:
                st1[line] = True
            continue
        st2 = levels[1]["sets"][line % levels[1]["nsets"]]
        if line in st2:
            st2.move_to_end(line)
            install(0, line, bool(kind))
            continue
        st3 = levels[2]["sets"][line % levels[2]["nsets"]]
        if line in st3:
            st3.move_to_end(line)
            install(0, line, bool(kind))
            install(1, line, False)
            continue
        events.append((REQ_FILL, line))
        install(0, line, bool(kind))
        install(1, line, False)
        install(2, line, False)
    flushed = set()
    for level in levels:
        for st in level["sets"]:
            for line, dirty in st.items():
                if dirty and line not in flushed:
                    flushed.add(line)
    for line in sorted(flushed):
        events.append((REQ_WRITEBACK, line))
    return events


def run_sim(cfg, kinds, addrs):
    sim = CacheSimulator(cfg)
    sim.emit(np.asarray(kinds, dtype=np.uint8), np.asarray(addrs, dtype=np.int64))
    return sim.finish()


def timed_trace(seed, lines):
    """A seeded random trace of 20,000 accesses over ``lines`` lines."""
    rng = np.random.default_rng(seed)
    n = 20_000
    kinds = rng.integers(0, 2, n, dtype=np.uint8)
    addrs = 64 * rng.integers(0, lines, n) + 8 * rng.integers(0, 8, n)
    return kinds, addrs


def timed_digest(cfg, seed, lines):
    """``result_digest`` of ``timed_trace(seed, lines)`` simulated under
    ``cfg``."""
    return result_digest(run_sim(cfg, *timed_trace(seed, lines)))


def sim_event_multiset(res):
    return Counter((int(k), int(l) // 64) for k, l in zip(res.req_kind, res.req_line))


class TestConfig:
    def test_reference_defaults(self):
        cfg = CacheConfig()
        assert (cfg.l1.assoc, cfg.l1.size, cfg.l1.latency, cfg.l1.mshrs) == (8, 32 * 1024, 4, 32)
        assert (cfg.l2.assoc, cfg.l2.size, cfg.l2.latency, cfg.l2.mshrs) == (8, 256 * 1024, 12, 32)
        assert (cfg.l3.assoc, cfg.l3.size, cfg.l3.latency, cfg.l3.mshrs) == (16, 20 * 1024 * 1024, 28, 128)
        assert cfg.memory_latency == 155
        assert LINE_SIZE == 64
        cfg.validate()

    def test_validate_rejects_bad_geometry(self):
        cfg = CacheConfig()
        cfg.l1.size = 3000
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = CacheConfig()
        cfg.l2.mshrs = 0
        with pytest.raises(ValueError):
            cfg.validate()

    def test_desk_scaled_geometry(self):
        cfg = CacheConfig.desk_scaled(32)
        assert cfg.l3.size == 512 * 1024
        assert cfg.l2.size == 256 * 1024
        assert cfg.l1.size == 32 * 1024
        assert cfg.memory_latency == 155
        cfg.validate()
        # Larger problems keep the reference sizes as a ceiling.
        big = CacheConfig.desk_scaled(512)
        assert big.l3.size == CacheConfig().l3.size
        assert big.l2.size == CacheConfig().l2.size

    def test_save_load_roundtrip(self, tmp_path):
        cfg = CacheConfig.desk_scaled(32)
        path = tmp_path / "cache.cfg"
        cfg.save(path)
        back = CacheConfig.load(path)
        assert back == cfg

    def test_load_ignores_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        CacheConfig().save(path)
        text = path.read_text() + "\n# trailing comment\n\n"
        path.write_text(text)
        assert CacheConfig.load(path) == CacheConfig()

    def test_load_accepts_retired_bandwidth_key(self, tmp_path):
        # Files written before the documentation-only bandwidth field was
        # dropped still carry its line; it is read and ignored.
        path = tmp_path / "old.cfg"
        CacheConfig.desk_scaled(16).save(path)
        text = path.read_text() + "memory.bandwidth_bytes_per_cycle = 8.0\n"
        path.write_text(text)
        assert CacheConfig.load(path) == CacheConfig.desk_scaled(16)

    @pytest.mark.parametrize("size", [64, 32])
    def test_load_checks_retired_line_size_key(self, tmp_path, size):
        # Files written while the line size was a key carry its line; the
        # one size the simulator models loads, any other is refused.
        path = tmp_path / "old.cfg"
        CacheConfig.desk_scaled(16).save(path)
        path.write_text(path.read_text() + f"line_size = {size}\n")
        if size == LINE_SIZE:
            assert CacheConfig.load(path) == CacheConfig.desk_scaled(16)
        else:
            with pytest.raises(ValueError, match=f"line size {size} "):
                CacheConfig.load(path)

    def test_load_accepts_retired_capacity_key(self, tmp_path):
        # A file written while the memory capacity was a key, which no
        # simulation read, loads and simulates as before; ``save`` no
        # longer writes the key.
        path = tmp_path / "old.cfg"
        path.write_text(
            "# cache configuration v1\n"
            "l1.assoc = 2\nl1.size = 1024\nl1.latency = 4\nl1.mshrs = 2\n"
            "l2.assoc = 2\nl2.size = 2048\nl2.latency = 12\nl2.mshrs = 2\n"
            "l3.assoc = 4\nl3.size = 4096\nl3.latency = 28\nl3.mshrs = 4\n"
            "memory.latency = 155\nmemory.capacity = 34359738368\n"
        )
        cfg = CacheConfig.load(path)
        assert cfg == tiny_config(mshrs=(2, 2, 4))
        assert timed_digest(cfg, 0, 96) == TestTiming.TIMED[0, 96]
        cfg.save(path)
        assert "capacity" not in path.read_text()

    @pytest.mark.parametrize("key, value, message", [
        ("l1.size", None, "no value for l1.size"),
        ("l2.mshrs", "two", "l2.mshrs = 'two' is not an integer"),
        ("memory.latency", "", "memory.latency = '' is not an integer"),
        ("l1.assoc", "0", "l1.assoc is 0, below 1"),
        ("l3.size", "0", "l3.size is 0, below 1"),
        ("l2.latency", "-5", "l2.latency is -5, below 0"),
        ("l1.mshrs", "0", "l1.mshrs is 0, below 1"),
        ("memory.latency", "-1", "memory.latency is -1, below 0"),
    ])
    def test_load_refuses_bad_values(self, tmp_path, key, value, message):
        # A missing or non-integer value names the file and the key; an
        # impossible one names the level and the field.
        path = tmp_path / "bad.cfg"
        CacheConfig().save(path)
        text = re.sub(rf"^{re.escape(key)} = .*\n",
                      "" if value is None else f"{key} = {value}\n",
                      path.read_text(), flags=re.M)
        path.write_text(text)
        if "integer" in message or "no value" in message:
            message = f"{path}: {message}"
        with pytest.raises(ValueError, match=re.escape(message)):
            CacheConfig.load(path)

    def test_load_accepts_retired_shared_keys(self, tmp_path):
        # Files written while levels carried a ``shared`` flag, which the
        # simulator never read, still load; the flag is ignored.
        path = tmp_path / "old.cfg"
        CacheConfig.desk_scaled(16).save(path)
        text = path.read_text() + (
            "l1.shared = false\nl2.shared = false\nl3.shared = true\n"
        )
        path.write_text(text)
        assert CacheConfig.load(path) == CacheConfig.desk_scaled(16)


class TestResolutions:
    def test_cold_load_single_fill_consumed(self):
        res = run_sim(tiny_config(), [KIND_LOAD], [0])
        assert res.n_fills == 1
        assert res.n_writebacks == 0
        assert res.req_kind[0] == REQ_FILL and res.req_line[0] == 0
        assert res.req_cause[0] == CAUSE_LOAD_MISS
        assert len(res.res_mask) == 1
        assert res.res_mask[0] == 0  # every word consumed

    def test_full_store_coverage_all_overwritten(self):
        kinds = [KIND_STORE] * 8
        addrs = [8 * w for w in range(8)]
        res = run_sim(tiny_config(), kinds, addrs)
        assert res.n_fills == 1
        assert res.req_cause[0] == CAUSE_STORE_MISS
        assert res.n_writebacks == 1  # dirty line flushed at the end
        assert len(res.res_mask) == 1
        assert res.res_mask[0] == 0xFF  # every word overwritten

    def test_mshr_merge_two_loads_one_fill(self):
        res = run_sim(tiny_config(), [KIND_LOAD, KIND_LOAD], [0, 8])
        assert res.n_fills == 1
        assert res.n_writebacks == 0

    def test_load_before_store_is_consumed(self):
        # Word 0 is loaded first, then overwritten: first use wins.
        res = run_sim(tiny_config(), [KIND_LOAD, KIND_STORE], [0, 0])
        assert res.res_mask[0] & 1 == 0

    def test_every_fill_resolves_exactly_once(self):
        rng = random.Random(2024)
        cfg = latency_free(tiny_config())
        for _ in range(20):
            n = rng.randrange(1, 1500)
            kinds = [rng.randrange(2) for _ in range(n)]
            addrs = [8 * rng.randrange(2048) for _ in range(n)]
            res = run_sim(cfg, kinds, addrs)
            fill_keys = Counter(
                (int(l), int(t))
                for l, t, k in zip(res.req_line, res.req_time, res.req_kind)
                if k == REQ_FILL
            )
            res_keys = Counter(
                (int(l), int(t)) for l, t in zip(res.res_line, res.res_fill_time)
            )
            assert fill_keys == res_keys
            assert max(fill_keys.values(), default=1) == 1

    def test_all_load_trace_has_no_overwrites(self):
        rng = random.Random(7)
        kinds = [KIND_LOAD] * 2000
        addrs = [8 * rng.randrange(4096) for _ in range(2000)]
        res = run_sim(latency_free(tiny_config()), kinds, addrs)
        assert res.n_writebacks == 0
        assert not any(int(m) for m in res.res_mask)


class TestFunctionalEquivalence:
    def test_matches_reference_on_random_traces(self):
        rng = random.Random(123)
        cfg = latency_free(tiny_config())
        for trial in range(60):
            n = rng.randrange(1, 4000)
            span = rng.choice([64, 256, 1024, 8192])
            kinds = [rng.randrange(2) for _ in range(n)]
            addrs = [8 * rng.randrange(span) for _ in range(n)]
            expected = Counter(functional_cache_events(cfg, kinds, addrs))
            got = sim_event_multiset(run_sim(cfg, kinds, addrs))
            assert got == expected, f"trial {trial} diverged"

    def test_matches_reference_hot_set_conflicts(self):
        # Hammer a single set to exercise eviction/promotion paths.
        rng = random.Random(5)
        cfg = latency_free(tiny_config())
        n_sets_l1 = cfg.l1.size // (cfg.l1.assoc * 64)
        stride = n_sets_l1 * 64
        for _ in range(30):
            n = rng.randrange(10, 800)
            kinds = [rng.randrange(2) for _ in range(n)]
            addrs = [stride * rng.randrange(32) for _ in range(n)]
            expected = Counter(functional_cache_events(cfg, kinds, addrs))
            got = sim_event_multiset(run_sim(cfg, kinds, addrs))
            assert got == expected

    def test_sequential_stream_same_fills_any_latency(self):
        # A pure sequential sweep never revisits lines, so in-flight
        # eviction protection cannot change which lines miss: every line
        # misses exactly once under any latency.
        n_lines = 600
        kinds = [KIND_LOAD] * (8 * n_lines)
        addrs = [64 * ln + 8 * w for ln in range(n_lines) for w in range(8)]
        a = sim_event_multiset(run_sim(latency_free(tiny_config()), kinds, addrs))
        b = sim_event_multiset(run_sim(tiny_config(), kinds, addrs))
        assert a == b
        assert sum(a.values()) == n_lines


class TestTiming:
    def test_empty_roi_zero_duration(self):
        res = run_sim(tiny_config(), [], [])
        assert res.T == 0
        assert res.n_fills == 0 and res.n_writebacks == 0

    def test_single_access_zero_duration(self):
        res = run_sim(tiny_config(), [KIND_LOAD], [0])
        assert res.T == 0
        assert res.t_start == res.t_end

    def test_fill_request_time_includes_level_latencies(self):
        cfg = tiny_config()
        res = run_sim(cfg, [KIND_LOAD], [0])
        lat = cfg.l1.latency + cfg.l2.latency + cfg.l3.latency
        assert int(res.req_time[0]) == 0 + lat

    def test_store_flush_writeback_closes_roi(self):
        cfg = tiny_config()
        res = run_sim(cfg, [KIND_STORE, KIND_LOAD, KIND_LOAD], [0, 512, 1024])
        wb_times = res.req_time[res.req_kind == REQ_WRITEBACK]
        assert len(wb_times) == 1
        assert res.t_end == int(wb_times[0])
        lat = cfg.l1.latency + cfg.l2.latency + cfg.l3.latency
        assert int(wb_times[0]) == 2 + lat  # issued after the last access

    def test_mshr_exhaustion_stalls(self):
        cfg = tiny_config(mshrs=(1, 1, 1))
        fill_lat = cfg.l1.latency + cfg.l2.latency + cfg.l3.latency + cfg.memory_latency
        res = run_sim(cfg, [KIND_LOAD, KIND_LOAD], [0, 4096])
        assert res.n_fills == 2
        assert res.n_stall_cycles == fill_lat - 1
        req_lat = cfg.l1.latency + cfg.l2.latency + cfg.l3.latency
        assert int(res.req_time[1]) == fill_lat + req_lat

    def test_no_stalls_with_ample_mshrs(self):
        rng = random.Random(1)
        kinds = [KIND_LOAD] * 500
        addrs = [8 * rng.randrange(4096) for _ in range(500)]
        res = run_sim(tiny_config(), kinds, addrs)
        # 32 MSHRs and a 199-cycle fill: a one-per-cycle core can keep at
        # most 199 fills in flight, so stalls are possible; just verify
        # accounting stays non-negative and bounded.
        assert 0 <= res.n_stall_cycles

    #: ``result_digest`` of seeded random traces of 20,000 accesses over
    #: a pool of lines, with latencies on and two MSHRs in L1 and L2:
    #: they stall, merge with in-flight fills, route dirty victims to a
    #: lower level and to memory, and force-evict lines in flight.  Pinned
    #: before the core loop read its accesses as per-slice columns.
    TIMED = {
        (0, 96): "f48c230bfdb3e2bcbccb7045efe26caf733f8fabdbd8a9456ac0b94c82b42aac",
        (1, 256): "cb77220e6643dfe93bf0ca5b8e5ca244e6a37d1d42b95134267043f7b9b2c98a",
        (2, 160): "70138606d3527f9810476c956ea6175d685909180e39ecb42d47dfa1742979fb",
    }

    #: The same traces with the fewest MSHRs in L3, pinned before the
    #: three levels' MSHR heaps became one.
    TIMED_L3 = {
        (0, 96): "d74625bdbb02f6f52faedbe732ca81d6e7fd99ee92f181ae5d1d97d7f5fcd2c6",
        (1, 256): "f1880d08352f7758f2be1916c69cbf2e7f1680372b58ffa9271304972458e873",
        (2, 160): "78b805b5264cb6053fe1f1482cf9bebf07f074daca1605292c1620afbed4f06b",
    }

    @pytest.mark.parametrize("seed, lines", list(TIMED))
    def test_timed_random_traces_are_pinned(self, seed, lines):
        cfg = tiny_config(mshrs=(2, 2, 4))
        assert timed_digest(cfg, seed, lines) == self.TIMED[seed, lines]

    # A fill holds an MSHR at every level, so only the smallest count
    # matters, wherever it is.
    @pytest.mark.parametrize("mshrs", [(8, 2, 4), (3, 5, 2)])
    @pytest.mark.parametrize("seed, lines", list(TIMED))
    def test_only_the_fewest_mshrs_matter(self, seed, lines, mshrs):
        cfg = tiny_config(mshrs=mshrs)
        assert timed_digest(cfg, seed, lines) == self.TIMED[seed, lines]

    @pytest.mark.parametrize("seed, lines", list(TIMED_L3))
    def test_fewest_mshrs_in_l3_are_pinned(self, seed, lines):
        cfg = tiny_config(mshrs=(8, 8, 3))
        assert timed_digest(cfg, seed, lines) == self.TIMED_L3[seed, lines]


class TestLineOrder:
    """``by_line`` is the request rows in (line, time) order, each fill
    with its resolution mask."""

    @staticmethod
    def assert_line_order(res):
        assert np.all(np.diff(res.req_time) >= 0)
        ev = res.by_line()
        order = np.lexsort((res.req_time, res.req_line))
        line = res.req_line[order] >> LINE_BITS
        assert np.array_equal(ev.lines, np.unique(line))
        assert ev.ptr[0] == 0
        assert np.array_equal(np.repeat(ev.lines, np.diff(ev.ptr)), line)
        for got, column in ((ev.time, res.req_time), (ev.kind, res.req_kind),
                            (ev.ordinal, res.req_ord)):
            assert np.array_equal(got, column[order])
        assert (ev.t_start, ev.T) == (res.t_start, res.T)
        return ev

    @staticmethod
    def assert_resolution_order(res, ev):
        """The mask is ``res_mask`` joined in (line, fill time) order."""
        want = res.res_mask[np.lexsort((res.res_fill_time, res.res_line))]
        fills = ev.kind == REQ_FILL
        assert ev.mask.dtype == np.uint16
        assert np.array_equal(ev.mask[fills], want)
        assert not ev.mask[~fills].any()

    @pytest.mark.parametrize("mshrs", [(2, 2, 4), (8, 8, 3)])
    @pytest.mark.parametrize("seed, lines", list(TestTiming.TIMED))
    def test_few_mshr_random_traces(self, seed, lines, mshrs):
        res = run_sim(tiny_config(mshrs=mshrs), *timed_trace(seed, lines))
        self.assert_resolution_order(res, self.assert_line_order(res))

    def test_side_16_solve(self):
        A, b, tol = build_problem(16, 1e-8)
        sim = CacheSimulator(CacheConfig.desk_scaled(16))
        solve(A, b, tol=tol, observer=sim)
        res = sim.finish()
        assert len(res.req_line) > 500_000
        self.assert_resolution_order(res, self.assert_line_order(res))


class TestVictim:
    """Which line an install evicts.  In ``tiny_config`` line n maps to L1
    set n % 8 (two ways), L2 set n % 16 (two ways) and L3 set n % 16 (four
    ways); a fill is in flight for 199 cycles.  Lines 0, 8 and 16 share L1
    set 0, and no line of the L2 or L3 set any of them maps to is evicted."""

    @staticmethod
    def _sim_after(lines, kinds=None, cfg=None):
        sim = CacheSimulator(cfg or tiny_config())
        kinds = np.zeros(len(lines)) if kinds is None else np.array(kinds)
        sim.emit(kinds.astype(np.uint8), 64 * np.array(lines, dtype=np.int64))
        return sim

    @classmethod
    def _l1_set_after(cls, lines):
        return list(cls._sim_after(lines)._levels[0]["sets"][0])

    def test_in_flight_lru_line_is_skipped(self):
        # 0 lands while it is hit; 8 is still in flight when 0 is hit
        # again, so 8 is the LRU line and 0 the next ready one.
        assert self._l1_set_after([0] * 201 + [8, 0, 16]) == [8, 16]

    def test_all_ways_in_flight_evicts_the_earliest_ready(self):
        # 0 and 8 are both in flight; hitting 0 makes 8 the LRU line, but
        # 0's fill completes first.
        assert self._l1_set_after([0, 8, 0, 16]) == [8, 16]

    def test_in_flight_lru_line_is_skipped_in_l2(self):
        # 0 lands; 16 and 8 are in flight when 0, evicted from L1 by 8,
        # hits in L2 and moves behind 16.  The miss to 32 finds 16 as L2
        # set 0's LRU line, still in flight, and evicts 0, the next ready.
        sim = self._sim_after([0] * 201 + [16, 8, 0, 32])
        assert list(sim._levels[1]["sets"][0]) == [16, 32]

    def test_in_flight_lru_line_is_skipped_in_l3(self):
        # 0 lands; 16, 32 and 48 fill L3 set 0 behind it while in flight,
        # and 0 hits in L3 and moves behind them.  The miss to 64 finds 16
        # as the LRU line, still in flight, and evicts 0, the next ready.
        sim = self._sim_after([0] * 201 + [16, 32, 48, 0, 64])
        assert list(sim._levels[2]["sets"][0]) == [16, 32, 48, 64]

    @pytest.mark.parametrize("lines, marked", [
        # 16 installs in L2 set 0 after the dirty 0 leaves L1: 0 is still there.
        ([0, 8, 16], 1),
        # 32 evicts 0 from L2 set 0 while the L1 hit keeps it in L1; 48 then
        # evicts the dirty 0 from L1, and only L3 still holds it.
        ([0, 16, 0, 32, 48], 2),
    ])
    def test_dirty_victim_marks_the_next_level_that_holds_it(self, lines, marked):
        cfg = latency_free(tiny_config())
        sim = self._sim_after(lines, [1] + [0] * (len(lines) - 1), cfg)
        sets = [level["sets"][0] for level in sim._levels]
        assert 0 not in sets[0] and all(0 not in st for st in sets[1:marked])
        assert sets[marked][0] & 1  # dirty, and no write-back to memory yet
        assert not any(st.get(0, 0) & 1 for st in sets[marked + 1:])
        assert REQ_WRITEBACK not in sim._req[1]
        res = sim.finish()
        assert list(res.req_line[res.req_kind == REQ_WRITEBACK]) == [0]


class TestDeterminismAndIo:
    def _random_trace(self, seed, n=2500):
        rng = random.Random(seed)
        kinds = [rng.randrange(2) for _ in range(n)]
        addrs = [8 * rng.randrange(4096) for _ in range(n)]
        return kinds, addrs

    def test_repeat_runs_identical(self):
        kinds, addrs = self._random_trace(42)
        a = run_sim(tiny_config(), kinds, addrs)
        b = run_sim(tiny_config(), kinds, addrs)
        assert_same_result(a, b)
        assert a.T == b.T

    def test_fill_ordinals_name_triggering_access(self):
        # Without MSHR stalls the access clock equals the access index, so
        # every fill's ordinal recovers its request time minus the request
        # latency; flush write-backs carry the one-past-the-end ordinal.
        kinds, addrs = self._random_trace(45)
        cfg = tiny_config(mshrs=(4096, 4096, 4096))
        res = run_sim(cfg, kinds, addrs)
        assert res.n_stall_cycles == 0
        req_lat = cfg.l1.latency + cfg.l2.latency + cfg.l3.latency
        fills = res.req_kind == REQ_FILL
        assert np.array_equal(res.req_ord[fills], res.req_time[fills] - req_lat)
        n = len(kinds)
        assert np.all(res.req_ord >= 0) and np.all(res.req_ord <= n)
        flush = res.req_time == res.req_time.max()
        wbs = res.req_kind == REQ_WRITEBACK
        assert np.all(res.req_ord[flush & wbs] == n)
        # A mid-run write-back is chronologically consistent: it is caused
        # by the access named in its ordinal, which happens at its own time.
        mid = wbs & ~flush
        assert np.all(res.req_ord[mid] < n)

    def test_result_save_load_roundtrip(self, tmp_path):
        kinds, addrs = self._random_trace(43)
        res = run_sim(tiny_config(), kinds, addrs)
        path = tmp_path / "run.npz"
        res.save(path)
        assert_same_result(SimResult.load(path), res)

    def test_stream_table_is_the_result_layout(self, tmp_path):
        arrays = [f.name for f in dataclasses.fields(SimResult)
                  if f.type in (np.ndarray, "np.ndarray")]
        assert [name for name, _, _ in STREAMS] == arrays
        kinds, addrs = self._random_trace(45)
        res = run_sim(tiny_config(), kinds, addrs)
        for name, code, _ in STREAMS:
            assert getattr(res, name).dtype == np.dtype(code), name
        path = tmp_path / "run.npz"
        res.save(path)
        with zipfile.ZipFile(path) as zf:
            members = zf.infolist()
        assert [m.filename for m in members] == [
            "version.npy", *(f"{n}.npy" for n in arrays), "scalars.npy"]
        assert {m.compress_type for m in members} == {zipfile.ZIP_STORED}

    def test_deflated_result_file_still_loads(self, tmp_path):
        # Result files were once written deflated, at level 1.
        kinds, addrs = self._random_trace(46)
        res = run_sim(tiny_config(), kinds, addrs)
        members = {"version": np.int64(1)}
        members |= {name: getattr(res, name) for name, _, _ in STREAMS}
        members["scalars"] = np.array(
            [res.t_start, res.t_end, res.n_accesses, res.n_stall_cycles], dtype=np.int64)
        path = tmp_path / "deflated.npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as zf:
            for name, arr in members.items():
                with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, np.asanyarray(arr), allow_pickle=False)
        assert_same_result(SimResult.load(path), res)

    def test_simulate_from_trace_file(self, tmp_path):
        kinds, addrs = self._random_trace(44, n=1200)
        path = tmp_path / "run.trc"
        smap = StructureMap([StructureRegion("x", 0, 8 * 4096)])
        with TraceWriter(path) as w:
            w.register_structures(smap)
            w.emit(np.asarray(kinds, dtype=np.uint8), np.asarray(addrs, dtype=np.int64))
        from_file, back = replay_trace(path, tiny_config())
        assert back.regions == smap.regions
        assert_same_result(from_file, run_sim(tiny_config(), kinds, addrs))

    def test_emit_after_finish_rejected(self):
        sim = CacheSimulator(tiny_config())
        sim.emit(np.array([0], dtype=np.uint8), np.array([0], dtype=np.int64))
        sim.finish()
        with pytest.raises(RuntimeError):
            sim.emit(np.array([0], dtype=np.uint8), np.array([0], dtype=np.int64))

    @pytest.mark.parametrize("kind", [2, 255])
    def test_unknown_kind_rejected(self, kind):
        sim = CacheSimulator(tiny_config())
        with pytest.raises(ValueError, match=f"kind {kind} "):
            sim.emit(np.array([0, kind], dtype=np.uint8), np.array([0, 64], dtype=np.int64))
        assert sim.blocks_simulated == 0

    @pytest.mark.parametrize("n_kinds, n_addrs", [(2, 3), (3, 2), (1, 5)])
    def test_mismatched_lengths_rejected(self, n_kinds, n_addrs):
        sim = CacheSimulator(tiny_config())
        with pytest.raises(ValueError, match=f"{n_kinds} access kinds for {n_addrs} addresses"):
            sim.emit(np.zeros(n_kinds, dtype=np.uint8), 64 * np.arange(n_addrs, dtype=np.int64))
        assert sim.blocks_simulated == 0
        assert sim.finish().n_accesses == 0

    @pytest.mark.parametrize("bad", [4, 63, -8, pytest.param(np.uint64(2**63), id="2**63")])
    def test_unaligned_or_negative_address_rejected(self, bad):
        sim = CacheSimulator(tiny_config())
        addrs = np.array([0, bad, 64], dtype=np.asarray(bad).dtype)
        with pytest.raises(ValueError, match=f"address {bad} "):
            sim.emit(np.zeros(3, dtype=np.uint8), addrs)
        assert sim.blocks_simulated == 0


def assert_same_result(got, want):
    for name, _, _ in STREAMS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert (got.t_start, got.t_end, got.n_accesses, got.n_stall_cycles) == (
        want.t_start, want.t_end, want.n_accesses, want.n_stall_cycles)


def result_digest(res) -> str:
    """One digest over every output stream and the four scalars."""
    h = hashlib.sha256()
    for name, _, _ in STREAMS:
        h.update(np.ascontiguousarray(getattr(res, name)).tobytes())
    h.update(np.array([res.t_start, res.t_end, res.n_accesses, res.n_stall_cycles],
                      dtype=np.int64).tobytes())
    return h.hexdigest()


def _one_key(kinds, addrs):
    """A stand-in for ``cachesim._block_key`` under which every block collides."""
    return "same"


def unrepeated_feed(cfg, kinds, addrs):
    """Simulate a stream in blocks of strictly increasing length, so no
    block's contents ever repeat and the block memo never replays."""
    sim = CacheSimulator(cfg)
    pos, size = 0, 1
    while pos < len(kinds):
        end = pos + size
        sim.emit(kinds[pos:end], addrs[pos:end])
        pos, size = end, size + 1
    res = sim.finish()
    assert sim.blocks_replayed == 0
    return res


class TestBlockMemo:
    """The memo must reproduce the simulation it skips exactly."""

    #: ``result_digest`` of the solver's stream (tolerance factor 1e-8) by
    #: side and hierarchy, as the simulator wrote it before the memo
    #: replayed under the full-size one, with the most blocks the memo
    #: simulates there and the blocks in all.  A change that moves one
    #: row fails here.  Only side 16 under ``desk_scaled`` keeps every
    #: level's set count a divisor of the d-to-dp distance, so only there
    #: does the memo replay under the swap.
    PINNED = {
        (8, "desk"): ("42d6e437bd4a56b0b9e7dc47ebc7137993d9a3ee4b462a9d02ff3df8e3a59e22", 22, 50),
        (16, "desk"): ("aa3405b69b0d078bd7d26fb7e8071b9baac50076f977f9c608d5b405810cd569", 13, 98),
        (8, "full"): ("cd8d380325eb1e52588e5c231eb4bc5c88103df2167b2414bbd8012b3b039ed1", 22, 50),
        (16, "full"): ("02146d94c4c4e1be8103d19ded00a38fe980b3ba789ea9d8f622f4568d6700cb", 22, 98),
    }

    #: Snapshots (``_state`` calls) of the solver's stream under the
    #: full-size hierarchy, as the memo took them before resume points:
    #: no block there is long enough for one.
    FULL_SNAPSHOTS = {8: 58, 16: 106}

    @staticmethod
    def _hierarchy(side, hierarchy):
        return CacheConfig.desk_scaled(side) if hierarchy == "desk" else CacheConfig()

    @pytest.mark.parametrize(
        "side, hierarchy",
        [pytest.param(8, "desk", id="8"), pytest.param(16, "desk", id="16"),
         pytest.param(8, "full", id="8-full"), pytest.param(16, "full", id="16-full")],
    )
    def test_solver_stream_matches_unrepeated_feed(self, side, hierarchy, monkeypatch):
        from memvuln.cg import solve
        from memvuln.cli import build_problem

        snapshots = []
        real = CacheSimulator._state
        monkeypatch.setattr(CacheSimulator, "_state",
                            lambda self: snapshots.append(1) or real(self))
        A, b, tol = build_problem(side, 1e-8)
        cfg = self._hierarchy(side, hierarchy)
        sim = CacheSimulator(cfg)
        solve(A, b, tol=tol, observer=sim)
        memo = sim.finish()
        digest, most_simulated, blocks = self.PINNED[side, hierarchy]
        assert result_digest(memo) == digest
        assert sim.blocks_simulated <= most_simulated
        assert sim.blocks_simulated + sim.blocks_replayed == blocks
        swaps = (side, hierarchy) == (16, "desk")
        assert (sim._swap is not None) == swaps
        assert (sim.blocks_swapped > 0) == swaps
        # Only side 16 under ``desk_scaled`` has blocks two strides long:
        # iteration 1's ``q_spmv`` resumes from iteration 0's, swapped.
        assert (sim.blocks_resumed >= 1) == swaps
        if hierarchy == "full":
            assert len(snapshots) == self.FULL_SNAPSHOTS[side]
        coll = CollectingObserver()
        solve(A, b, tol=tol, observer=coll)
        kinds, addrs = coll.arrays()
        assert_same_result(memo, unrepeated_feed(cfg, kinds, addrs))

    @pytest.mark.parametrize(
        "side, hierarchy",
        [pytest.param(8, "desk", id="desk"), pytest.param(8, "full", id="full"),
         pytest.param(16, "desk", id="16-desk")],
    )
    def test_trace_replays_the_solvers_blocks(self, tmp_path, capsys, side, hierarchy):
        # The trace's structure map gives the memo the d/dp swap where the
        # solver's own would (side 16 under ``desk_scaled``).
        from memvuln.cg import solve
        from memvuln.cli import build_problem
        from memvuln.trace import TraceReader

        A, b, tol = build_problem(side, 1e-8)
        path = tmp_path / "cg.trace"
        with TraceWriter(path) as w:
            solve(A, b, tol=tol, observer=w)
        cfg = self._hierarchy(side, hierarchy)
        capsys.readouterr()
        memo, _ = replay_trace(path, cfg)
        digest, most_simulated, blocks = self.PINNED[side, hierarchy]
        assert result_digest(memo) == digest
        out, err = capsys.readouterr()
        assert out == ""
        (note,) = err.splitlines()
        simulated, swapped = int(note.split()[1]), int(note.split("(")[1].split()[0])
        resumed = int(note.split()[-2])
        assert simulated <= most_simulated
        assert (swapped > 0) == (resumed > 0) == (side == 16)
        assert note == (f"simulated {simulated} of {blocks} blocks, "
                        f"replayed {blocks - simulated} ({swapped} under the d/dp swap), "
                        f"resumed {resumed} mid-block")
        with TraceReader(path) as r:
            events = np.concatenate(list(r.iter_blocks()))
        assert_same_result(memo, unrepeated_feed(cfg, events["kind"], events["addr"]))

    @staticmethod
    def _phase_blocks(rng, n_blocks=4):
        """Random blocks over 24 lines that touch a few of each line's
        words, so fills stay pending with some words unresolved; half end
        in a load sweep over 80 other lines, which flushes the tiny caches
        and leaves a fill in flight that the next block's first load
        merges with."""
        sweep = list(range(64 * 1000, 64 * 1080, 64))
        blocks = []
        for b in range(n_blocks):
            n = rng.randrange(50, 300)
            kinds = [KIND_LOAD] + [
                KIND_STORE if rng.random() < 0.6 else KIND_LOAD for _ in range(n)
            ]
            addrs = [sweep[-1] + 24] + [
                64 * rng.randrange(24) + 8 * rng.randrange(8) for _ in range(n)
            ]
            if b % 2 == 0:
                kinds += [KIND_LOAD] * len(sweep)
                addrs += sweep
            blocks.append((np.array(kinds, dtype=np.uint8),
                           np.array(addrs, dtype=np.int64)))
        return blocks

    @pytest.mark.parametrize("seed", range(6))
    def test_random_phase_streams_match_unrepeated_feed(self, seed):
        rng = random.Random(seed)
        blocks = self._phase_blocks(rng)
        order = [rng.randrange(len(blocks)) for _ in range(60)]
        cfg = tiny_config(mshrs=(1, 2, 2))
        sim = CacheSimulator(cfg)
        for i in order:
            sim.emit(*blocks[i])
        assert sim._track  # fills still pending with words unresolved
        memo = sim.finish()
        assert sim.blocks_replayed > 10
        assert sim.blocks_simulated + sim.blocks_replayed == len(order)
        assert memo.n_stall_cycles > 0
        kinds, addrs = (np.concatenate([blocks[i][j] for i in order])
                        for j in range(2))
        assert_same_result(memo, unrepeated_feed(cfg, kinds, addrs))

    @staticmethod
    def _pending_blocks(rng):
        """Blocks that leave fills pending across block boundaries: ``a``
        fetches 12 lines touching a few words of each, then every word of
        a filler line; ``b`` touches some of the other words, resolving a
        line only where it touches all of them; ``c`` sweeps 80 other
        lines through the tiny caches, closing every fill still pending,
        and waits on the filler until every fill it made has landed.
        ``d(n)`` loads the filler n times, which only delays ``b``: its
        fill times then differ, and below the fill latency so do its
        lines in flight.  ``fresh`` is never repeated: it is simulated
        from whatever state the replays before it left."""
        filler = 64 * 40
        blocks = {"a": ([], []), "b": ([], [])}
        for line in range(12):
            words = rng.sample(range(8), 8)
            cut = rng.randrange(1, 4)
            end = rng.choice([cut + 2, 8])
            for name, part in (("a", words[:cut]), ("b", words[cut:end])):
                for w in part:
                    blocks[name][0].append(KIND_STORE if rng.random() < 0.5 else KIND_LOAD)
                    blocks[name][1].append(64 * line + 8 * w)
        blocks["a"][0].extend([KIND_LOAD] * 8)
        blocks["a"][1].extend(filler + 8 * w for w in range(8))
        sweep = list(range(64 * 1000, 64 * 1080, 64))
        fill = [filler + 8 * w for w in range(8)] + [filler] * 250
        blocks["c"] = ([KIND_LOAD] * (len(sweep) + len(fill)), sweep + fill)
        for n in (40, 300):
            blocks[f"d{n}"] = ([KIND_LOAD] * n, [filler] * n)
        blocks["fresh"] = (blocks["a"][0] + blocks["b"][0] + [KIND_LOAD],
                           blocks["a"][1] + blocks["b"][1] + [filler])
        return {name: (np.array(k, dtype=np.uint8), np.array(a, dtype=np.int64))
                for name, (k, a) in blocks.items()}

    @pytest.mark.parametrize("seed", range(8))
    def test_fills_pending_at_a_replayed_block_keep_their_times(self, seed, monkeypatch):
        patched = []
        real = CacheSimulator._replay
        monkeypatch.setattr(CacheSimulator, "_replay",
                            lambda self, rec, *args: patched.append(len(rec.pending))
                            or real(self, rec, *args))
        rng = random.Random(seed)
        blocks = self._pending_blocks(rng)
        order = []
        for _ in range(12):
            order += ["a", f"d{rng.choice([40, 300])}", "b", "c"]
        order += ["a", "d40", "fresh"]
        cfg = tiny_config(mshrs=(1, 2, 2) if seed % 2 else (32, 32, 128))
        sim = CacheSimulator(cfg)
        for name in order:
            sim.emit(*blocks[name])
        memo = sim.finish()
        assert sim.blocks_replayed > len(order) // 2
        assert sum(patched) > 0  # rows of fills pending at a replay's start
        kinds, addrs = (np.concatenate([blocks[name][j] for name in order])
                        for j in range(2))
        assert_same_result(memo, unrepeated_feed(cfg, kinds, addrs))

    #: d and dp in the swap tests: lines [0, 16) and [16, 32).  The tiny
    #: hierarchy has 8, 16 and 16 sets, so each line keeps its sets.
    SWAP_LINES = 16

    @classmethod
    def _swap_map(cls, d=None, dp=None):
        """d and dp as ``SWAP_LINES`` apart; ``d`` or ``dp`` gives a
        region's length in bytes, 0 leaves it out."""
        n = 64 * cls.SWAP_LINES
        regions = [StructureRegion(name, base, n if length is None else length)
                   for name, base, length in (("d", 0, d), ("dp", n, dp))]
        return StructureMap([r for r in regions if r.length])

    @classmethod
    def _sigma(cls, block):
        """The block with lines [0, 16) and [16, 32) swapped, written
        apart from the simulator's own σ."""
        kinds, addrs = block
        lines, n = addrs >> 6, cls.SWAP_LINES
        step = np.where(lines < n, 1, np.where((lines >= n) & (lines < 2 * n), -1, 0))
        return kinds, addrs + 64 * n * step

    def _alternating(self, blocks, swap):
        """The pending blocks in rounds, each round's blocks swapped when it
        is odd and ``swap`` is set, ending in the replays ``a``, ``d300``
        and ``b``, after which no line is in flight."""
        order = []
        for r in range(12):
            order += [(name, r % 2) for name in ("a", ("d40", "d300")[r % 3 > 0], "b", "c")]
        order += [("a", 0), ("d300", 0), ("b", 0)]
        return [self._sigma(blocks[name]) if odd and swap else blocks[name]
                for name, odd in order]

    @pytest.mark.parametrize("seed", range(8))
    def test_swapped_blocks_replay_under_the_swap(self, seed, monkeypatch):
        replays = []
        real = CacheSimulator._replay
        monkeypatch.setattr(
            CacheSimulator, "_replay",
            lambda self, rec, swapped=False: replays.append(
                (swapped, len(rec.pending), len(rec.track))) or real(self, rec, swapped))
        rng = random.Random(seed)
        blocks = self._pending_blocks(rng)
        stream = self._alternating(blocks, swap=True)
        stream.append(self._sigma(blocks["fresh"]))  # reads what the swaps installed
        cfg = tiny_config(mshrs=(1, 2, 2) if seed % 2 else (32, 32, 128))
        sim = CacheSimulator(cfg)
        sim.register_structures(self._swap_map())
        for blk in stream:
            sim.emit(*blk)
        memo = sim.finish()
        swapped = [r for r in replays if r[0]]
        assert sim.blocks_swapped == len(swapped) > len(stream) // 4
        assert any(pending for _, pending, _ in swapped)  # fills pending at the start
        assert any(track for _, _, track in swapped)  # and at the end
        kinds, addrs = (np.concatenate([blk[j] for blk in stream]) for j in range(2))
        assert_same_result(memo, unrepeated_feed(cfg, kinds, addrs))

    @staticmethod
    def _canonical_sets(sim):
        """Every set's lines in LRU order, each with its ready time if in
        flight and its dirty bit otherwise, as ``_state`` sees them."""
        busy = (sim._clock << 1) + 1
        return [[[(ln, v if v > busy else v & 1) for ln, v in st.items()]
                 for st in level["sets"]] for level in sim._levels]

    @pytest.mark.parametrize("swap", [False, True], ids=["plain", "swapped"])
    @pytest.mark.parametrize("seed", range(4))
    def test_deferred_sets_match_an_unmemoized_run(self, seed, swap):
        # A replay leaves its changed sets' dicts to be rebuilt later; after
        # every block the snapshot, and after every simulated block the
        # dicts, must be those of a run that simulates every block.
        rng = random.Random(seed)
        stream = self._alternating(self._pending_blocks(rng), swap)
        cfg = tiny_config(mshrs=(1, 2, 2) if seed % 2 else (32, 32, 128))
        sim, ref = CacheSimulator(cfg), CacheSimulator(cfg)
        sim.register_structures(self._swap_map())
        for blk in stream:
            simulated = sim.blocks_simulated
            sim.emit(*blk)
            ref._simulate(*blk)
            assert sim._state() == ref._state()
            assert (sim._clock, sim._stalls, sim._track) == (
                ref._clock, ref._stalls, ref._track)
            if sim.blocks_simulated > simulated:
                assert self._canonical_sets(sim) == self._canonical_sets(ref)
        # The stream ends in replays, so the flush reads rebuilt sets.
        assert sim.blocks_simulated == simulated
        assert any(level["deferred"] for level in sim._levels)
        assert (sim.blocks_swapped > 0) == swap
        assert_same_result(sim.finish(), ref.finish())

    @pytest.mark.parametrize(
        "hierarchy, drop, shorter, on",
        [("desk", None, False, True), ("full", None, False, False),
         ("desk", "d", False, False), ("desk", "dp", False, False),
         ("desk", None, True, False)],
        ids=["desk", "full", "no d", "no dp", "dp shorter"],
    )
    def test_swap_is_taken_only_where_it_is_exact(self, hierarchy, drop, shorter, on):
        # Under the full-size hierarchy the L3's 20,480 sets do not divide
        # the 512 lines from d to dp at side 16.
        from memvuln.cg import default_structure_map

        A, _, _ = build_problem(16, 1e-8)
        regions = [StructureRegion(r.name, r.base, r.length - 64 * (shorter and r.name == "dp"))
                   for r in default_structure_map(A) if r.name != drop]
        sim = CacheSimulator(self._hierarchy(16, hierarchy))
        sim.register_structures(StructureMap(regions))
        assert (sim._swap is not None) == on

    def _replay_then_fresh(self, cfg, rounds, last):
        """Emit ``rounds`` (lists of (kinds, addrs) blocks) one after the
        other, then ``last``, which is new, and check the result against
        the unrepeated feed; ``last`` is simulated from the state that
        the replays before it left."""
        sim = self._feed(cfg, [blk for r in rounds for blk in r] + [last])
        assert sim.blocks_replayed > 0

    def _feed(self, cfg, stream, swap=False):
        """Emit ``stream``, with σ when ``swap``, check the result against
        the unrepeated feed and return the simulator."""
        sim = CacheSimulator(cfg)
        if swap:
            sim.register_structures(self._swap_map())
        for blk in stream:
            sim.emit(*blk)
        memo = sim.finish()
        kinds, addrs = (np.concatenate([blk[j] for blk in stream]) for j in range(2))
        assert_same_result(memo, unrepeated_feed(cfg, kinds, addrs))
        return sim

    @staticmethod
    def _loads(lines, words=(0,)):
        addrs = [64 * ln + 8 * w for ln in lines for w in words]
        return np.zeros(len(addrs), dtype=np.uint8), np.array(addrs, dtype=np.int64)

    def _settle(self, n=250):
        """Fetch every word of filler line 5, then hit it ``n`` times, so
        every fill made before has landed; touches set 5 only."""
        return tuple(np.concatenate(p) for p in zip(
            self._loads([5], range(8)), self._loads([5] * n)))

    def test_dirty_mark_in_an_untouched_set_survives_a_replay(self):
        # Lines 0, 8 and 24 share L1 set 0; 0 alone is in L2 set 0.  ``y``
        # evicts dirty line 0 from L1, which marks its L2 copy dirty in a
        # set ``y`` never accesses.  Only the final flush writes it back.
        sweep = self._loads(range(1000, 1080))
        x = tuple(np.concatenate(p) for p in zip(
            (np.ones(1, dtype=np.uint8), np.zeros(1, dtype=np.int64)), self._settle()))
        y = self._loads([8, 24])
        rounds = [[sweep, self._settle(), x, y]] * 4 + [[sweep, self._settle(), x]]
        self._replay_then_fresh(tiny_config(), rounds, y)

    def test_set_in_flight_at_a_snapshot_is_rebuilt_at_the_next(self):
        # Lines 0, 32, 64 and 96 share set 0 of every level.  ``x`` leaves
        # line 0 in flight behind line 32 in L1 set 0; ``d`` only waits, so
        # the set's form changes with the clock alone.  ``z`` clears the
        # set and ends with it exactly as ``x`` did: it must still count as
        # changed, or a replay of ``z`` leaves line 0 landed where the
        # fresh block's load of 64 has to find it in flight.
        cfg = tiny_config()
        cfg.l3 = LevelConfig(2, 4096, 28, 128)
        sweep = self._loads(range(1000, 1080))
        x = tuple(np.concatenate(p) for p in zip(
            self._loads([32]), self._settle(), self._loads([0, 32])))
        d = self._loads([5] * 100)
        z = tuple(np.concatenate(p) for p in zip(
            d, self._loads([64, 96]), x))
        fresh = tuple(np.concatenate(p) for p in zip(
            self._loads([5] * 50), self._loads([64, 0, 32])))
        rounds = [[sweep, self._settle(), x, d, z]] * 5
        self._replay_then_fresh(cfg, rounds, fresh)

    def test_never_repeating_stream_takes_no_snapshot(self, monkeypatch):
        calls = []
        real = CacheSimulator._state
        monkeypatch.setattr(CacheSimulator, "_state",
                            lambda self: calls.append(1) or real(self))
        rng = np.random.default_rng(5)
        kinds = rng.integers(0, 2, 5000).astype(np.uint8)
        addrs = 8 * rng.integers(0, 4096, 5000)
        unrepeated_feed(tiny_config(), kinds, addrs)
        assert calls == []

    def test_repeated_block_replays_and_counts(self):
        # One MSHR in L1 serialises the misses, so the state at the end of
        # each sweep is the same from the first block on.
        cfg = tiny_config(mshrs=(1, 2, 2))
        kinds = np.zeros(300, dtype=np.uint8)
        addrs = 64 * np.arange(300, dtype=np.int64)  # streams past every level
        sim = CacheSimulator(cfg)
        for _ in range(12):
            sim.emit(kinds, addrs)
        memo = sim.finish()
        # The first block is simulated unrecorded, the second recorded.
        assert (sim.blocks_simulated, sim.blocks_replayed) == (2, 10)
        ref = unrepeated_feed(cfg, np.tile(kinds, 12), np.tile(addrs, 12))
        assert_same_result(memo, ref)

    def test_block_whose_state_never_recurs_is_given_up(self, monkeypatch):
        # Block a is emitted between single loads of ever-new lines, so it
        # never meets a state it has seen: it is recorded MEMO_MISSES times,
        # then simulated without snapshots and dropped from the memo.
        snapshots = []
        real = CacheSimulator._state
        monkeypatch.setattr(CacheSimulator, "_state",
                            lambda self: snapshots.append(1) or real(self))
        cfg = tiny_config()
        a_kinds = np.array([KIND_LOAD, KIND_STORE, KIND_LOAD], dtype=np.uint8)
        a_addrs = np.array([0, 64, 128], dtype=np.int64)
        sim = CacheSimulator(cfg)
        per_a = []
        for i in range(MEMO_MISSES + 4):
            before = len(snapshots)
            sim.emit(a_kinds, a_addrs)
            per_a.append(len(snapshots) - before)
            sim.emit(np.zeros(1, dtype=np.uint8), [64 * (100 + i)])
        # Only the one-off loads are left, one recording each.
        assert sim._memo and all(len(s) == 1 for s in sim._memo.values())
        memo = sim.finish()
        # Unrepeated first, then a snapshot before and after each recording.
        assert per_a == [0] + [2] * MEMO_MISSES + [0] * 3
        assert sim.blocks_replayed == 0
        kinds = np.concatenate([np.append(a_kinds, KIND_LOAD)] * len(per_a))
        addrs = np.concatenate([np.append(a_addrs, 64 * (100 + i))
                                for i in range(len(per_a))])
        assert_same_result(memo, unrepeated_feed(cfg, kinds, addrs))

    def test_twin_digest_is_checked_in_full(self, monkeypatch):
        import memvuln.cachesim as cachesim

        monkeypatch.setattr(cachesim, "_block_key", _one_key)
        x = self._loads([0, 1, 40])
        for twin, want in (([16, 17, 40], "same"), ([16, 18, 40], None)):
            sim = CacheSimulator(tiny_config())
            sim.register_structures(self._swap_map())
            sim.emit(*x)
            sim.emit(*x)  # now the memo holds it
            assert sim._twin("same", *self._loads(twin)) == want

    def test_digest_collisions_never_replay_a_different_block(self, monkeypatch):
        self._collide(monkeypatch, swap=False)

    def test_digest_collisions_never_replay_a_swapped_block(self, monkeypatch):
        self._collide(monkeypatch, swap=True)

    def _collide(self, monkeypatch, swap):
        import memvuln.cachesim as cachesim

        monkeypatch.setattr(cachesim, "_block_key", _one_key)
        rng = random.Random(7)
        blocks = self._phase_blocks(rng)
        order = [rng.randrange(len(blocks)) for _ in range(30)]
        cfg = tiny_config(mshrs=(1, 2, 2))
        sim = CacheSimulator(cfg)
        if swap:  # every block's twin digest collides too
            sim.register_structures(self._swap_map())
        for i in order:
            sim.emit(*blocks[i])
        memo = sim.finish()
        monkeypatch.undo()
        kinds, addrs = (np.concatenate([blocks[i][j] for i in order])
                        for j in range(2))
        assert_same_result(memo, unrepeated_feed(cfg, kinds, addrs))

    # -- resume points ----------------------------------------------------------
    #
    # The tiny hierarchy holds 112 lines, so its stride is one slice
    # (16,384 accesses) and a block of 40,000 has one resume point.

    #: A line the long block keeps in L1 set 5 with one word resolved,
    #: and two lines of that set that evict it when loaded.
    KEEPER = 5
    EVICT_KEEPER = (5 + 16 * 100, 5 + 16 * 101)

    @classmethod
    def _long_block(cls, keeper=KEEPER, tail=()):
        """40,000 accesses: every fourth loads word 0 of ``keeper``, which
        keeps it in L1, the rest stream over 300 lines no other block
        touches, every fifth a store; then loads of the ``tail`` lines.
        After its first 3,000 stream accesses the stream leaves L1 set 7
        (and so sets 7 and 15 of L2 and L3) alone."""
        i = np.arange(40_000)
        j = i - i // 4  # the stream's own count
        stream = i % 4 != 3
        kinds = np.where(stream & (j % 5 == 0), KIND_STORE, KIND_LOAD)
        quiet = np.array([ln for ln in range(1000, 1400) if ln % 8 != 7][:300])
        lines = np.where(j < 3000, 1000 + j % 300, quiet[j % 300])
        addrs = np.where(stream, 64 * lines + 8 * (j % 8), 64 * keeper)
        end = cls._loads(tail)
        return (np.concatenate([kinds.astype(np.uint8), end[0]]),
                np.concatenate([addrs, end[1]]))

    @classmethod
    def _prefix(cls, wait, keeper=KEEPER):
        """Dirty lines 40 to 47, fill set 7 of every level, fetch
        ``keeper``'s word 0, then ``wait`` loads of line 48: ``keeper`` is
        still in flight after 40 of them, landed after 300.  Two waits
        leave two different states."""
        stores = cls._loads(range(40, 48))
        return tuple(np.concatenate(p) for p in zip(
            (np.ones(8, dtype=np.uint8), stores[1]), cls._loads([23, 39, 55, 71]),
            cls._loads([keeper]), cls._loads([48] * wait)))

    @staticmethod
    def _resumes(monkeypatch):
        """Spy on ``_replay``: whether each was under σ, and the lines of
        the fills pending at the recording's start."""
        calls = []
        real = CacheSimulator._replay
        monkeypatch.setattr(
            CacheSimulator, "_replay",
            lambda self, rec, swapped=False: calls.append(
                (swapped, {line for _, line in rec.pending})) or real(self, rec, swapped))
        return calls

    @pytest.mark.parametrize("swap", [False, True], ids=["plain", "swapped"])
    def test_block_resumes_once_its_state_converges(self, swap, monkeypatch):
        # After two different prefixes the long block reaches the same state
        # by its resume point; the second resumes from the first's.  Under
        # the swap the second is σ of the first (keeper 21 for 5) and is met
        # before the stream repeats, so its copy is what the lookup checks.
        calls = self._resumes(monkeypatch)
        long, wait = self._long_block(), self._prefix(300)
        if swap:
            long2, wait = self._sigma(long), self._sigma(wait)
        else:
            long2 = long
        stream = [self._prefix(40), long, wait, long2, self._loads([5, 21, 1000])]
        sim = self._feed(tiny_config(mshrs=(1, 2, 2)), stream, swap)
        assert sim.blocks_resumed == 1 and sim.blocks_replayed == 0
        assert [swapped for swapped, _ in calls] == [swap]

    @pytest.mark.parametrize("mshrs", [(1, 2, 2), (2, 2, 2)])
    def test_fills_pending_at_a_resume_point_keep_their_times(self, mshrs, monkeypatch):
        # The keeper is fetched in each prefix, at a different time before
        # the resume point, and evicted after it: its resolution row must
        # carry the live fill time, not the recording's shifted.
        calls = self._resumes(monkeypatch)
        long = self._long_block(tail=self.EVICT_KEEPER)
        stream = [self._prefix(40), long, self._prefix(300), long]
        sim = self._feed(tiny_config(mshrs=mshrs), stream)
        assert sim.blocks_resumed == 1
        ((_, pending),) = calls
        assert self.KEEPER in pending

    def test_block_recorded_after_it_resumed_replays_exactly(self, monkeypatch):
        # The second ``long`` resumes and is recorded whole: the rows it
        # simulated, then those it replayed, and the sets either changed.
        # The third meets the second's start state and replays that; it
        # must install the set 7s, which only the simulated part changed.
        calls = self._resumes(monkeypatch)
        long = self._long_block(tail=self.EVICT_KEEPER)
        stream = [self._prefix(40), long, self._prefix(300), long,
                  self._prefix(300), long, self._loads([5, 1000, 1001])]
        sim = self._feed(tiny_config(mshrs=(1, 2, 2)), stream)
        assert (sim.blocks_resumed, sim.blocks_replayed) == (1, 1)
        assert len(calls) == 2 and all(self.KEEPER in pending for _, pending in calls)

    @pytest.mark.parametrize("swap", [False, True], ids=["plain", "swapped"])
    def test_digest_collisions_never_resume_a_different_block(self, swap, monkeypatch):
        # Both long blocks reach the same state at the resume point but end
        # differently.  Under one key for every block the first keeps its
        # points, and the second must still be simulated to its own end.
        import memvuln.cachesim as cachesim

        monkeypatch.setattr(cachesim, "_block_key", _one_key)
        calls = self._resumes(monkeypatch)
        first = self._long_block(tail=self.EVICT_KEEPER)
        other = self._long_block(tail=[1000, 1001])
        if swap:
            other = self._sigma(other)
        stream = [first, self._prefix(300), other]
        sim = CacheSimulator(tiny_config(mshrs=(1, 2, 2)))
        if swap:
            sim.register_structures(self._swap_map())
        for blk in stream:
            sim.emit(*blk)
        memo = sim.finish()
        assert calls == [] and sim.blocks_resumed == 0
        monkeypatch.undo()
        kinds, addrs = (np.concatenate([blk[j] for blk in stream]) for j in range(2))
        assert_same_result(memo, unrepeated_feed(tiny_config(mshrs=(1, 2, 2)), kinds, addrs))

    def test_distinct_long_blocks_hold_bounded_points(self):
        # A stream that never repeats keeps the points, and the copies, of
        # its last MEMO_MISSES long blocks only.
        kinds, addrs = self._long_block()
        stream = [(kinds, addrs + 64 * 10_000 * k) for k in range(MEMO_MISSES + 3)]
        sim = CacheSimulator(tiny_config())
        held = []
        for blk in stream:
            sim.emit(*blk)
            held.append((len(sim._memo), len(sim._blocks)))
        assert held == [(min(k + 1, MEMO_MISSES),) * 2 for k in range(len(stream))]
        assert not sim._repeating and sim.blocks_resumed == 0
        kinds, addrs = (np.concatenate([blk[j] for blk in stream]) for j in range(2))
        assert_same_result(sim.finish(), unrepeated_feed(tiny_config(), kinds, addrs))
