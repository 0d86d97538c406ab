"""Tests for the cache hierarchy simulator.

The reference model here (``functional_cache_events``) is an independent
zero-latency functional cache written against ``collections.OrderedDict``:
same geometry, LRU, write-allocate/write-back, non-inclusive levels and
dirty-line routing, but none of the timing machinery.  With all latencies
configured to zero, the simulator must emit exactly the same multiset of
fills and write-backs.
"""

import random
from collections import Counter, OrderedDict

import numpy as np
import pytest

from memvuln.cachesim import (
    CAUSE_LOAD_MISS,
    CAUSE_STORE_MISS,
    MEMO_MISSES,
    REQ_FILL,
    REQ_WRITEBACK,
    CacheConfig,
    CacheSimulator,
    LevelConfig,
    SimResult,
)
from memvuln.cli import replay_trace
from memvuln.trace import KIND_LOAD, KIND_STORE, StructureMap, StructureRegion, TraceWriter

from observers import CollectingObserver


def tiny_config(l1=1024, l2=2048, l3=4096, latencies=(4, 12, 28), mem_lat=155, mshrs=(32, 32, 128)):
    cfg = CacheConfig()
    cfg.l1 = LevelConfig(False, 2, l1, latencies[0], mshrs[0])
    cfg.l2 = LevelConfig(False, 2, l2, latencies[1], mshrs[1])
    cfg.l3 = LevelConfig(True, 4, l3, latencies[2], mshrs[2])
    cfg.memory_latency = mem_lat
    cfg.validate()
    return cfg


def latency_free(cfg):
    cfg.l1.latency = cfg.l2.latency = cfg.l3.latency = 0
    cfg.memory_latency = 0
    return cfg


def functional_cache_events(cfg, kinds, addrs):
    """Reference model: ordered (kind, line) list of main-memory events."""
    line_size = cfg.line_size
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


def sim_event_multiset(res):
    return Counter((int(k), int(l) // 64) for k, l in zip(res.req_kind, res.req_line))


class TestConfig:
    def test_reference_defaults(self):
        cfg = CacheConfig()
        assert (cfg.l1.assoc, cfg.l1.size, cfg.l1.latency, cfg.l1.mshrs) == (8, 32 * 1024, 4, 32)
        assert not cfg.l1.shared
        assert (cfg.l2.assoc, cfg.l2.size, cfg.l2.latency, cfg.l2.mshrs) == (8, 256 * 1024, 12, 32)
        assert not cfg.l2.shared
        assert (cfg.l3.assoc, cfg.l3.size, cfg.l3.latency, cfg.l3.mshrs) == (16, 20 * 1024 * 1024, 28, 128)
        assert cfg.l3.shared
        assert cfg.memory_latency == 155
        assert cfg.memory_capacity == 32 * 1024**3
        assert cfg.line_size == 64
        cfg.validate()

    def test_validate_rejects_bad_geometry(self):
        cfg = CacheConfig()
        cfg.l1.size = 3000
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = CacheConfig()
        cfg.line_size = 32
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
        for name in ("req_time", "req_kind", "req_line", "req_cause",
                     "req_ord", "res_line", "res_fill_time", "res_mask",
                     "res_time"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
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
        back = SimResult.load(path)
        for name in ("req_time", "req_kind", "req_line", "req_cause",
                     "req_ord", "res_line", "res_fill_time", "res_mask",
                     "res_time"):
            assert np.array_equal(getattr(res, name), getattr(back, name))
        assert (back.t_start, back.t_end) == (res.t_start, res.t_end)
        assert back.n_accesses == res.n_accesses

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

    def test_address_beyond_capacity_rejected(self):
        cfg = tiny_config()
        cfg.memory_capacity = 1 << 20
        sim = CacheSimulator(cfg)
        with pytest.raises(ValueError):
            sim.emit(np.array([0], dtype=np.uint8), np.array([1 << 21], dtype=np.int64))

    @pytest.mark.parametrize("bad", [4, 63, -8])
    def test_unaligned_or_negative_address_rejected(self, bad):
        sim = CacheSimulator(tiny_config())
        with pytest.raises(ValueError, match=str(bad)):
            sim.emit(np.zeros(3, dtype=np.uint8), np.array([0, bad, 64], dtype=np.int64))
        assert sim.blocks_simulated == 0


RESULT_ARRAYS = ("req_time", "req_kind", "req_line", "req_cause", "req_ord",
                 "res_line", "res_fill_time", "res_mask", "res_time")


def assert_same_result(got, want):
    for name in RESULT_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert (got.t_start, got.t_end, got.n_accesses, got.n_stall_cycles) == (
        want.t_start, want.t_end, want.n_accesses, want.n_stall_cycles)


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

    @pytest.mark.parametrize("side", [8, 16])
    def test_solver_stream_matches_unrepeated_feed(self, side):
        from memvuln.cg import solve
        from memvuln.cli import build_problem

        A, b, tol = build_problem(side, 1e-8)
        cfg = CacheConfig.desk_scaled(side)
        sim = CacheSimulator(cfg)
        solve(A, b, tol=tol, observer=sim)
        memo = sim.finish()
        assert sim.blocks_replayed > 0
        coll = CollectingObserver()
        solve(A, b, tol=tol, observer=coll)
        kinds, addrs = coll.arrays()
        assert_same_result(memo, unrepeated_feed(cfg, kinds, addrs))

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

    def test_digest_collisions_never_replay_a_different_block(self, monkeypatch):
        class _OneDigest:
            def __init__(self, *_):
                pass

            def update(self, _):
                pass

            def digest(self):
                return b"same"

        import memvuln.cachesim as cachesim

        monkeypatch.setattr(cachesim.hashlib, "sha256", _OneDigest)
        rng = random.Random(7)
        blocks = self._phase_blocks(rng)
        order = [rng.randrange(len(blocks)) for _ in range(30)]
        cfg = tiny_config(mshrs=(1, 2, 2))
        sim = CacheSimulator(cfg)
        for i in order:
            sim.emit(*blocks[i])
        memo = sim.finish()
        monkeypatch.undo()
        kinds, addrs = (np.concatenate([blocks[i][j] for i in order])
                        for j in range(2))
        assert_same_result(memo, unrepeated_feed(cfg, kinds, addrs))
