"""Tests for the per-word vulnerability accounting.

``brute_force_ledgers`` is the reference model: a per-word interval
walker using plain Python dicts, computing the same accumulators one
event at a time.  The vectorized implementation must match it exactly
(integer equality) on randomized request streams.
"""

import dataclasses
import json
import random
from dataclasses import dataclass, fields

import numpy as np
import pytest

from memvuln.cachesim import (
    CAUSE_LOAD_MISS,
    CAUSE_NONE,
    LINE_BITS,
    LINE_SIZE,
    REQ_FILL,
    REQ_WRITEBACK,
    CacheConfig,
    CacheSimulator,
    SimResult,
)
from memvuln.cg import default_tol, generate_poisson27, solve, spmv
from memvuln.trace import TRACKED_STRUCTURES, StructureMap, StructureRegion
from memvuln.vulnmetrics import (
    AnalysisReport,
    StructureReport,
    accumulate,
    analyze,
    structure_report,
)


def make_result(requests, resolutions):
    """Assemble a SimResult from (time, kind, line_addr) and
    {(line_addr, fill_time): overwritten_mask}."""
    # Keep the given order for equal times (matches simulator append order).
    req = sorted(range(len(requests)), key=lambda i: requests[i][0])
    times = np.array([requests[i][0] for i in req], dtype=np.int64)
    kinds = np.array([requests[i][1] for i in req], dtype=np.uint8)
    lines = np.array([requests[i][2] for i in req], dtype=np.int64)
    causes = np.where(kinds == REQ_FILL, CAUSE_LOAD_MISS, CAUSE_NONE).astype(np.uint8)
    # The simulator resolves a line's fills in fill order.
    keys = sorted(resolutions)
    rl = np.array([k[0] for k in keys], dtype=np.int64)
    rt = np.array([k[1] for k in keys], dtype=np.int64)
    rm = np.array([resolutions[k] for k in keys], dtype=np.uint16)
    t0 = int(times.min()) if len(times) else 0
    t1 = int(times.max()) if len(times) else 0
    ords = np.zeros(len(times), dtype=np.int64)
    return SimResult(
        times, kinds, lines, causes, ords, rl, rt, rm, rt.copy(),
        t0, t1, len(times), 0,
    )


def brute_force_ledgers(result, smap):
    """Reference accumulator: walk each word's event list one at a time."""
    res_by_key = {}
    for i in range(len(result.res_line)):
        key = (int(result.res_line[i]), int(result.res_fill_time[i]))
        res_by_key[key] = int(result.res_mask[i])
    per_line = {}
    for i in range(len(result.req_time)):
        line = int(result.req_line[i]) // 64
        per_line.setdefault(line, []).append(
            (int(result.req_time[i]), int(result.req_kind[i]))
        )
    out = {}
    for reg in smap:
        n_words = reg.length // 8
        vuln = [0] * n_words
        kept = [0] * n_words
        loads = [0] * n_words
        stores = [0] * n_words
        lo, hi = reg.base // 64, (reg.base + reg.length + 63) // 64
        for line in range(lo, hi):
            events = per_line.get(line)
            if not events:
                continue
            events = sorted(events, key=lambda e: e[0])  # stable for ties
            prev = result.t_start
            for t, kind in events:
                if kind == REQ_FILL:
                    mask = res_by_key[(line * 64, t)]
                    for w in range(8):
                        widx = line * 8 + w - reg.base // 8
                        if 0 <= widx < n_words:
                            vuln[widx] += t - prev
                            if not (mask >> w) & 1:
                                kept[widx] += t - prev
                            loads[widx] += 1
                else:
                    for w in range(8):
                        widx = line * 8 + w - reg.base // 8
                        if 0 <= widx < n_words:
                            stores[widx] += 1
                prev = t
        out[reg.name] = (
            np.array(vuln, dtype=np.int64),
            np.array(kept, dtype=np.int64),
            np.array(loads, dtype=np.int64),
            np.array(stores, dtype=np.int64),
        )
    return out


def per_word_ledgers(result, smap):
    """Reference accumulator: the vectorized per-word loop over the line
    index's rows, one bincount per word of a line and ledger, for regions
    that start on a line."""
    ev = result.by_line()
    line = np.repeat(ev.lines, np.diff(ev.ptr))
    dur = np.diff(ev.time, prepend=ev.t_start)
    dur[ev.ptr[:-1]] = ev.time[ev.ptr[:-1]] - ev.t_start  # a line's first row
    fill = ev.kind == REQ_FILL
    line_f, dur_f, mask_f, line_w = line[fill], dur[fill], ev.mask[fill], line[~fill]
    out = {}
    for reg in smap:
        n_words = reg.length // 8
        vuln, kept, loads, stores = (np.zeros(n_words, dtype=np.int64) for _ in range(4))
        lo_line = reg.base >> LINE_BITS
        hi_line = (reg.base + reg.length + LINE_SIZE - 1) >> LINE_BITS
        f0, f1 = np.searchsorted(line_f, (lo_line, hi_line))
        w0, w1 = np.searchsorted(line_w, (lo_line, hi_line))
        base_word = (line_f[f0:f1] << (LINE_BITS - 3)) - (reg.base >> 3)
        dur, mask = dur_f[f0:f1], mask_f[f0:f1]
        wb_word = (line_w[w0:w1] << (LINE_BITS - 3)) - (reg.base >> 3)
        for w in range(LINE_SIZE // 8):
            idx = base_word + w
            ok = idx < n_words
            vuln += np.bincount(idx[ok], weights=dur[ok], minlength=n_words).astype(np.int64)
            k = ok & (((mask >> w) & 1) == 0)
            kept += np.bincount(idx[k], weights=dur[k], minlength=n_words).astype(np.int64)
            loads += np.bincount(idx[ok], minlength=n_words).astype(np.int64)
            widx = wb_word + w
            stores += np.bincount(widx[widx < n_words], minlength=n_words).astype(np.int64)
        out[reg.name] = (vuln, kept, loads, stores)
    return out


def random_result(rng, n_lines=6, max_events=12, t_span=5000):
    requests = []
    resolutions = {}
    t = 0
    for line in range(n_lines):
        if rng.random() < 0.2:
            continue  # untouched line
        n_ev = rng.randrange(1, max_events)
        times = sorted(rng.sample(range(1, t_span), n_ev))
        for t in times:
            if rng.random() < 0.55:
                key = (line * 64, t)
                if key in resolutions:
                    continue
                requests.append((t, REQ_FILL, line * 64))
                resolutions[key] = rng.randrange(0, 256)
            else:
                requests.append((t, REQ_WRITEBACK, line * 64))
    if not requests:
        requests.append((1, REQ_FILL, 0))
        resolutions[(0, 1)] = 0
    return make_result(requests, resolutions)


def single_region_map(n_lines=6, name="x"):
    return StructureMap([StructureRegion(name, 0, n_lines * 64)])


class TestHandWorked:
    def test_single_line_interval_classes(self):
        reqs = [
            (100, REQ_FILL, 0),
            (400, REQ_WRITEBACK, 0),
            (700, REQ_FILL, 0),
            (1000, REQ_WRITEBACK, 0),
        ]
        res = make_result(reqs, {(0, 100): 0x00, (0, 700): 0xFF})
        smap = single_region_map(1)
        led = accumulate(res.by_line(), smap)["x"]
        assert res.T == 900
        # Leading fill at the window start contributes nothing; the
        # second fill ends a 300-cycle memory residency.
        assert np.all(led.vuln_time == 300)
        # That fill was fully overwritten, so the refined metric drops it.
        assert np.all(led.kept_time == 0)
        assert np.all(led.loads == 2)
        assert np.all(led.stores == 2)
        rep = structure_report(led, res.T, fit_rate=1.0)
        assert rep.mvf == pytest.approx(300 / 900)
        assert rep.fea == 0.0
        assert rep.safe_ratio == pytest.approx(600 / 900)
        assert rep.dvf == pytest.approx(1.0 * 900 * 8 * (16 + 16))

    def test_leading_interval_vulnerable(self):
        # Line 1 sits in memory from the window start until its fill.
        reqs = [(0, REQ_FILL, 0), (500, REQ_FILL, 64), (800, REQ_FILL, 0)]
        res = make_result(reqs, {(0, 0): 0, (64, 500): 0, (0, 800): 0})
        led = accumulate(res.by_line(), single_region_map(2))["x"]
        assert np.all(led.vuln_time[8:16] == 500)
        assert np.all(led.vuln_time[:8] == 800)

    def test_leading_writeback_is_safe(self):
        reqs = [(0, REQ_FILL, 0), (300, REQ_WRITEBACK, 64), (600, REQ_FILL, 64)]
        res = make_result(reqs, {(0, 0): 0, (64, 600): 0})
        led = accumulate(res.by_line(), single_region_map(2))["x"]
        # Only the post-write-back residency (300 cycles) is vulnerable.
        assert np.all(led.vuln_time[8:16] == 300)

    def test_trailing_interval_safe(self):
        reqs = [(0, REQ_FILL, 0), (100, REQ_FILL, 64), (900, REQ_FILL, 64)]
        res = make_result(reqs, {(0, 0): 0, (64, 100): 0, (64, 900): 0})
        led = accumulate(res.by_line(), single_region_map(1))["x"]
        # Line 0 never reappears: [0, 900] contributes nothing after its fill.
        assert np.all(led.vuln_time == 0)

    def test_partially_overwritten_fill(self):
        reqs = [(0, REQ_FILL, 0), (250, REQ_FILL, 64), (1000, REQ_FILL, 0)]
        res = make_result(reqs, {(0, 0): 0, (64, 250): 0, (0, 1000): 0b1010})
        led = accumulate(res.by_line(), single_region_map(1))["x"]
        assert np.all(led.vuln_time == 1000)
        expect_kept = np.array([1000, 0, 1000, 0, 1000, 1000, 1000, 1000])
        assert np.array_equal(led.kept_time, expect_kept)


class TestBruteForceEquivalence:
    def test_random_streams_exact_match(self):
        rng = random.Random(20240814)
        smap = single_region_map(6)
        for trial in range(1500):
            res = random_result(rng)
            got = accumulate(res.by_line(), smap)["x"]
            want = brute_force_ledgers(res, smap)["x"]
            assert np.array_equal(got.vuln_time, want[0]), trial
            assert np.array_equal(got.kept_time, want[1]), trial
            assert np.array_equal(got.loads, want[2]), trial
            assert np.array_equal(got.stores, want[3]), trial

    def test_multi_region_with_tail_lines(self):
        rng = random.Random(7)
        # Region lengths not divisible by 64 exercise in-bounds masking.
        smap = StructureMap(
            [
                StructureRegion("a", 0, 40),
                StructureRegion("b", 4096, 200),
                StructureRegion("c", 8192, 64 * 3),
            ]
        )
        for _ in range(300):
            requests = []
            resolutions = {}
            for base in (0, 4096, 8192):
                for k in range(3):
                    line = base + 64 * k
                    times = sorted(rng.sample(range(1, 3000), rng.randrange(1, 6)))
                    for t in times:
                        if rng.random() < 0.6:
                            key = (line, t)
                            if key in resolutions:
                                continue
                            requests.append((t, REQ_FILL, line))
                            resolutions[key] = rng.randrange(256)
                        else:
                            requests.append((t, REQ_WRITEBACK, line))
            res = make_result(requests, resolutions)
            got = accumulate(res.by_line(), smap)
            want = brute_force_ledgers(res, smap)
            for name in ("a", "b", "c"):
                for i, fieldname in enumerate(
                    ("vuln_time", "kept_time", "loads", "stores")
                ):
                    assert np.array_equal(
                        getattr(got[name], fieldname), want[name][i]
                    ), (name, fieldname)

    def test_partial_last_line_matches_the_per_word_loop(self):
        # "a" has 29 words, 5 of them on its last line (line 67), as ``Ar``
        # has n + 1; "b" starts on that line, at its word 5.
        rng = random.Random(16)
        smap = StructureMap([StructureRegion("a", 4096, 29 * 8),
                             StructureRegion("b", 4096 + 29 * 8, 11 * 8)])
        for trial in range(200):
            requests, resolutions = [], {}
            for line in (64, 66, 67, 67, 68):
                for t in rng.sample(range(1, 3000), rng.randrange(1, 6)):
                    if rng.random() < 0.6 and (line * 64, t) not in resolutions:
                        requests.append((t, REQ_FILL, line * 64))
                        # Mixed masks: words both inside and past "a".
                        resolutions[(line * 64, t)] = rng.randrange(256)
                    elif (line * 64, t) not in resolutions:
                        requests.append((t, REQ_WRITEBACK, line * 64))
            res = make_result(requests, resolutions)
            got = accumulate(res.by_line(), smap)
            want = brute_force_ledgers(res, smap)
            loop = per_word_ledgers(res, StructureMap([smap.region("a")]))
            for i, name in enumerate(("vuln_time", "kept_time", "loads", "stores")):
                assert np.array_equal(getattr(got["a"], name), loop["a"][i]), (trial, name)
                for reg in ("a", "b"):
                    assert np.array_equal(getattr(got[reg], name), want[reg][i]), (
                        trial, reg, name)

    def test_identities_on_random_streams(self):
        rng = random.Random(99)
        smap = single_region_map(6)
        for _ in range(200):
            res = random_result(rng)
            led = accumulate(res.by_line(), smap)["x"]
            T = res.T
            if T == 0:
                continue
            mvf = led.mvf_words(T)
            fea = led.fea_words(T)
            assert np.all(mvf >= 0) and np.all(mvf <= 1)
            assert np.all(fea >= 0)
            assert np.all(fea <= mvf + 1e-15)
            rep = structure_report(led, T)
            assert rep.mvf + rep.safe_ratio == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= rep.fea <= rep.mvf + 1e-12
            assert 0.0 <= rep.ld_ratio <= 1.0


class TestReports:
    def test_ld_ratio_one_without_stores(self):
        reqs = [(0, REQ_FILL, 0), (10, REQ_FILL, 64), (500, REQ_FILL, 0)]
        res = make_result(reqs, {(0, 0): 0, (64, 10): 0, (0, 500): 0})
        rep = analyze(res.by_line(), single_region_map(2)).by_name("x")
        assert rep.stores == 0
        assert rep.ld_ratio == 1.0

    def test_untouched_structure_all_zero(self):
        reqs = [(0, REQ_FILL, 0)]
        res = make_result(reqs, {(0, 0): 0})
        smap = StructureMap(
            [StructureRegion("x", 0, 64), StructureRegion("y", 4096, 64)]
        )
        rep = analyze(res.by_line(), smap).by_name("y")
        assert rep.mvf == 0.0 and rep.fea == 0.0
        assert rep.touched_words == 0
        assert rep.ld_ratio == 1.0
        assert rep.dvf == 0.0

    def test_dvf_product(self):
        reqs = [
            (0, REQ_FILL, 0),
            (100, REQ_WRITEBACK, 0),
            (300, REQ_FILL, 0),
            (400, REQ_FILL, 64),
        ]
        res = make_result(reqs, {(0, 0): 0, (0, 300): 0, (64, 400): 0})
        rep = analyze(res.by_line(), single_region_map(2), fit_rate=2e-9).by_name("x")
        n_ha = rep.loads + rep.stores
        assert rep.dvf == pytest.approx(2e-9 * res.T * 16 * n_ha)
        assert n_ha == 3 * 8 + 1 * 8

    def test_empty_window(self):
        res = make_result([(5, REQ_FILL, 0)], {(0, 5): 0})
        rep = analyze(res.by_line(), single_region_map(1)).by_name("x")
        assert res.T == 0
        assert rep.mvf == 0.0 and rep.safe_ratio == 1.0

    def test_resolution_mismatch_rejected(self):
        reqs = [(0, REQ_FILL, 0), (10, REQ_FILL, 64)]
        res = make_result(reqs, {(0, 0): 0})  # second fill unresolved
        with pytest.raises(ValueError, match="does not match the fill stream"):
            res.by_line()

    def test_resolutions_out_of_fill_order_rejected(self):
        # A line is fetched again only after its previous fill resolved, so
        # a stream that resolves a line's later fill first is refused.
        reqs = [(0, REQ_FILL, 0), (100, REQ_WRITEBACK, 0), (300, REQ_FILL, 0)]
        res = make_result(reqs, {(0, 0): 1, (0, 300): 2})
        flipped = {name: getattr(res, name)[::-1].copy()
                   for name in ("res_line", "res_fill_time", "res_mask", "res_time")}
        with pytest.raises(ValueError, match="does not match the fill stream"):
            dataclasses.replace(res, **flipped).by_line()

    def test_csv_and_json_roundtrip(self, tmp_path):
        rng = random.Random(3)
        res = random_result(rng)
        report = analyze(res.by_line(), single_region_map(6))
        jpath = tmp_path / "report.json"
        report.write_json(jpath)
        assert json.loads(jpath.read_text()) == report.to_dict()
        cpath = tmp_path / "report.csv"
        report.write_csv(cpath)
        lines = cpath.read_text().splitlines()
        assert lines[0].startswith("# schema")
        assert len(lines) == 4 + len(report.structures)
        # Both files follow the field order of ``StructureReport``; the
        # CSV calls the name column ``structure``.
        names = [f.name for f in fields(StructureReport)]
        assert lines[3].split(",") == ["structure", *names[1:]]
        assert lines[3] == ("structure,n_words,touched_words,loads,stores,"
                            "ld_ratio,mvf,fea,safe_ratio,dvf")
        for row in json.loads(jpath.read_text())["structures"]:
            assert list(row) == names


class TestSparseAddresses:
    """The index points into distinct lines only, so a stream may hit both
    ends of the address space."""

    def test_lines_at_both_ends(self):
        far = (1 << 62) - LINE_SIZE
        reqs = [(0, REQ_FILL, far), (10, REQ_FILL, 0), (20, REQ_WRITEBACK, far),
                (40, REQ_FILL, far), (50, REQ_WRITEBACK, 0), (70, REQ_WRITEBACK, far)]
        res = make_result(reqs, {(far, 0): 0, (0, 10): 0b1, (far, 40): 0b100})
        events = res.by_line()
        assert list(events.lines) == [0, far >> LINE_BITS]
        assert list(events.ptr) == [0, 2, 6]
        middle = 1 << 61
        between = events.rows(middle >> LINE_BITS)
        assert between.start == between.stop
        smap = StructureMap([StructureRegion(name, base, LINE_SIZE) for name, base
                             in (("low", 0), ("middle", middle), ("high", far))])
        got = accumulate(events, smap)
        want = brute_force_ledgers(res, smap)
        for name in ("low", "middle", "high"):
            led = got[name]
            for column, ref in zip((led.vuln_time, led.kept_time, led.loads, led.stores),
                                   want[name]):
                assert np.array_equal(column, ref), name
        assert list(got["low"].kept_time) == [0] + [10] * 7
        assert list(got["high"].kept_time) == [20, 20, 0, 20, 20, 20, 20, 20]
        assert got["middle"].touched_words == 0


class TestEndToEnd:
    def test_small_solver_run_metrics(self):
        side = 4
        A = generate_poisson27(side)
        n = A.n_rows
        b = np.zeros(n)
        spmv(A, np.ones(n), out=b)
        sim = CacheSimulator(CacheConfig.desk_scaled(side))
        rec = solve(A, b, tol=default_tol(b), observer=sim)
        assert rec.converged
        result = sim.finish()
        from memvuln.cg import default_structure_map

        report = analyze(result.by_line(), default_structure_map(A))
        names = [r.name for r in report.structures]
        assert names == list(TRACKED_STRUCTURES)
        for rep in report.structures:
            assert 0.0 <= rep.fea <= rep.mvf <= 1.0
            assert rep.mvf + rep.safe_ratio == pytest.approx(1.0)
        b_rep = report.by_name("b")
        assert b_rep.stores == 0
        assert b_rep.ld_ratio == 1.0
        # The solution vector is stored every iteration, so write-backs
        # must show up for it.
        assert report.by_name("x").stores > 0
