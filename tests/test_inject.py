"""Tests for the injection harness.

The heavy lifting here is validating the instrumented solver against
independent oracles:

* an unapplied flip must reproduce the clean solver bit for bit;
* a flip applied before the first access must equal solving the
  explicitly flipped problem with the clean solver;
* a flip surfacing mid-phase must match a scalar interpreter that walks
  the trace emitter's own event template and switches the flipped word's
  value at the injection ordinal.
"""

import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest

from memvuln.cachesim import (
    REQ_FILL,
    REQ_WRITEBACK,
    CacheConfig,
    CacheSimulator,
    LevelConfig,
)
from memvuln.cg import (
    EPS,
    G_AXPY,
    G_RECOMPUTE,
    Q_SPMV,
    RECOMPUTE_EVERY,
    X_UPDATE,
    CsrMatrix,
    _AccessEmitter,
    default_tol,
    generate_poisson27,
    solve,
    spmv,
    verify,
)
from memvuln import inject
from memvuln.trace import KIND_LOAD, KIND_STORE
from memvuln.inject import (
    HANG_ITERS,
    LOG_SCHEMA,
    OUTCOME_ACE,
    OUTCOME_CLASSES,
    OUTCOME_CRASH,
    OUTCOME_EXTRA,
    OUTCOME_HANG,
    OUTCOME_WRONG,
    PAD_STRUCTURE,
    InjectionPlan,
    _InjectedSolve,
    _outcome_row,
    build_context,
    draw_plans,
    flip_check,
    measure_baseline,
    resolve_visibility,
    run_campaign,
    run_one,
    wilson_ci,
)

from observers import in_region


def churn_config():
    """A hierarchy small enough that lines travel to memory constantly."""
    cfg = CacheConfig()
    cfg.l1 = LevelConfig(False, 8, 4096, 4, 32)
    cfg.l2 = LevelConfig(False, 8, 8192, 12, 32)
    cfg.l3 = LevelConfig(True, 16, 16384, 28, 128)
    cfg.validate()
    return cfg


def build_problem(side=6, cfg=None, with_baseline=True):
    A = generate_poisson27(side)
    b = np.zeros(A.n_rows)
    spmv(A, np.ones(A.n_rows), out=b)
    tol = default_tol(b)
    sim = CacheSimulator(cfg or churn_config())
    rec = solve(A, b, tol=tol, observer=sim)
    assert rec.converged
    res = sim.finish()
    ctx = build_context(A, b, tol, res)
    if with_baseline:
        measure_baseline(ctx)
    return A, b, tol, res, ctx


@pytest.fixture(scope="module")
def small_problem():
    return build_problem(side=6)


def fill_plans(ctx, res, structure, word, bit, count=3):
    """Plans whose inject time coincides with fills of the word's line."""
    base, _length = ctx.regions[structure]
    line_addr = (base + 8 * word) & ~63
    sel = (res.req_line == line_addr) & (res.req_kind == REQ_FILL)
    plans = []
    for t_f in res.req_time[sel]:
        u = int(t_f) - ctx.t_start
        if 0 < u < ctx.T:
            plans.append(InjectionPlan(structure, 64 * word + bit, u, 0, 0))
    step = max(1, len(plans) // count)
    return plans[::step][:count]


class TestWilson:
    def test_exact_endpoints(self):
        lo, hi = wilson_ci(0, 100)
        assert lo == 0.0 and 0 < hi < 0.1
        lo, hi = wilson_ci(100, 100)
        assert hi == 1.0 and 0.9 < lo < 1.0

    def test_contains_sample_fraction(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(1, 5000)
            k = rng.randrange(0, n + 1)
            lo, hi = wilson_ci(k, n, 0.99)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_reference_width(self):
        lo, hi = wilson_ci(1495, 6500, 0.99)
        assert 0.024 < hi - lo < 0.028
        assert lo < 1495 / 6500 < hi

    def test_narrows_with_samples(self):
        w1 = np.diff(wilson_ci(30, 100))[0]
        w2 = np.diff(wilson_ci(300, 1000))[0]
        assert w2 < w1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            wilson_ci(1, 0)
        with pytest.raises(ValueError):
            wilson_ci(5, 4)
        with pytest.raises(ValueError):
            wilson_ci(1, 10, 1.5)


class TestPlans:
    def test_deterministic_sequence(self, small_problem):
        *_, ctx = small_problem
        a = draw_plans(ctx, "d", 40, seed=9)
        b = draw_plans(ctx, "d", 40, seed=9)
        assert a == b
        c = draw_plans(ctx, "d", 40, seed=10)
        assert a != c

    def test_ranges(self, small_problem):
        *_, ctx = small_problem
        bits = ctx.structure_bits("Av")
        for plan in draw_plans(ctx, "Av", 300, seed=3):
            assert 0 <= plan.bit_index < bits
            assert 0 < plan.inject_time < ctx.T
            assert plan.word_index == plan.bit_index // 64
            assert plan.bit == plan.bit_index % 64

    def test_prefix_stability(self, small_problem):
        *_, ctx = small_problem
        assert draw_plans(ctx, "q", 50, seed=4)[:20] == draw_plans(
            ctx, "q", 20, seed=4
        )

    def test_unknown_structure(self, small_problem):
        *_, ctx = small_problem
        with pytest.raises(ValueError):
            draw_plans(ctx, "nope", 1, seed=0)


class TestVisibility:
    def brute_force(self, ctx, res, plan):
        base, _ = ctx.regions[plan.structure_id]
        line_addr = (base + 8 * plan.word_index) & ~63
        u_abs = ctx.t_start + plan.inject_time
        sel = np.nonzero(res.req_line == line_addr)[0]
        if len(sel) == 0:
            return None, "silent"
        times = res.req_time[sel]
        after = np.nonzero(times >= u_abs)[0]
        if len(after) == 0:
            return None, "silent"
        i = int(sel[after[np.argmin(times[after])]])
        if res.req_kind[i] == REQ_WRITEBACK:
            return None, "writeback"
        return int(res.req_ord[i]), "fill"

    def test_matches_event_walk(self, small_problem):
        _A, _b, _tol, res, ctx = small_problem
        rng = random.Random(17)
        names = [n for n in ctx.regions if n != PAD_STRUCTURE]
        seen = set()
        for _ in range(250):
            sid = rng.choice(names)
            bits = ctx.structure_bits(sid)
            plan = InjectionPlan(
                sid, rng.randrange(bits), rng.randrange(1, ctx.T), 0, 0
            )
            got = resolve_visibility(ctx, plan)
            want = self.brute_force(ctx, res, plan)
            assert got == want
            seen.add(want[1])
        assert "fill" in seen and "silent" in seen

    def test_pad_is_always_silent(self, small_problem):
        *_, ctx = small_problem
        for plan in draw_plans(ctx, PAD_STRUCTURE, 50, seed=1):
            assert resolve_visibility(ctx, plan) == (None, "silent")

    def test_rejects_out_of_range_bit(self, small_problem):
        *_, ctx = small_problem
        bad = InjectionPlan("b", ctx.structure_bits("b"), 5, 0, 0)
        with pytest.raises(ValueError):
            resolve_visibility(ctx, bad)


class TestRunnerFidelity:
    def test_unapplied_flip_reproduces_baseline_bitwise(self, small_problem):
        A, b, tol, res, ctx = small_problem
        from memvuln.cg import CgVectors

        vecs = CgVectors.allocate(A.n_rows)
        rec = solve(A, b, tol=tol, vectors=vecs)
        plan = InjectionPlan("d", 64 * 3 + 7, 1, 0, 0)
        runner = _InjectedSolve(ctx, plan, apply_ord=None)
        converged, iterations = runner.run(ctx.t_max)
        assert converged and iterations == rec.iterations
        assert np.array_equal(runner.arr["x"], vecs.x)
        assert runner.cum == res.n_accesses

    def test_flip_before_first_event_equals_flipped_problem(self, small_problem):
        A, b, tol, _res, ctx = small_problem
        from memvuln.cg import CgVectors

        cases = [
            ("b", 5, 61),
            ("b", 11, 3),
            ("Av", 40, 62),
            ("Av", 7, 1),
            ("Ac", 25, 2),  # keeps the index in range
        ]
        for sid, word, bit in cases:
            plan = InjectionPlan(sid, 64 * word + bit, 1, 0, 0)
            runner = _InjectedSolve(ctx, plan, apply_ord=0)
            with np.errstate(all="ignore"):
                converged, iterations = runner.run(ctx.t_max)
            A2 = CsrMatrix(
                A.n_rows, A.row_ptr.copy(), A.col_idx.copy(), A.values.copy()
            )
            b2 = b.copy()
            arr = {"b": b2, "Av": A2.values, "Ac": A2.col_idx}[sid]
            view = arr.view(np.uint64)
            view[word] ^= np.uint64(1 << bit)
            vecs = CgVectors.allocate(A.n_rows)
            with np.errstate(all="ignore"):
                ref = solve(A2, b2, tol=tol, t_max=ctx.t_max, vectors=vecs)
            assert converged == ref.converged
            assert iterations == ref.iterations
            assert np.array_equal(
                runner.arr["x"].view(np.uint64), vecs.x.view(np.uint64)
            ), (sid, word, bit)

    def test_erased_flip_is_baseline(self, small_problem):
        A, b, tol, res, ctx = small_problem
        # d's fills are triggered by the store in the direction update, so
        # a flip surfacing there is overwritten in place.
        plan = fill_plans(ctx, res, "d", 5, 62, count=1)[0]
        oc = run_one(ctx, plan)
        assert oc.outcome == OUTCOME_ACE
        assert oc.detail == "erased"
        assert oc.iterations == ctx.baseline.iterations


def without_checkpoints(ctx):
    """The context with a baseline that makes every run start at iteration 0."""
    baseline = dataclasses.replace(ctx.baseline, checkpoints=())
    return dataclasses.replace(ctx, baseline=baseline)


class _RunPastErasure(_InjectedSolve):
    """A runner that replays the whole solve even after an erasure."""

    def open_phase(self, phase, t, parity):
        erased, self.erased = self.erased, False
        super().open_phase(phase, t, parity)
        self.erased = erased or self.erased


class _BlockLog:
    """Observer keeping each emitted block's kinds and addresses."""

    def __init__(self):
        self.blocks = []

    def register_structures(self, smap):
        self.smap = smap

    def emit(self, kinds, addrs):
        self.blocks.append((kinds.copy(), addrs.copy()))


class TestCheckpoints:
    def test_boundary_ordinals_match_emitted_blocks(self):
        A, b, tol, res, ctx = build_problem(side=3)
        log = _BlockLog()
        solve(A, b, tol=tol, observer=log)
        # An iteration opens with its residual phase: a recompute is the
        # only sweep that reads b, an update opens with loads of g and q.
        starts, cum = [], 0
        for kinds, addrs in log.blocks:
            recompute = np.any(in_region(log.smap, "b", addrs))
            update = len(addrs) > 1 and (
                in_region(log.smap, "g", addrs[0]) and in_region(log.smap, "q", addrs[1])
            )
            if recompute or (update and kinds[0] == KIND_LOAD):
                starts.append(cum)
            cum += len(kinds)
        assert cum == res.n_accesses
        checkpoints = ctx.baseline.checkpoints
        assert [c.ordinal for c in checkpoints] == starts
        assert [c.state.t for c in checkpoints] == list(
            range(ctx.baseline.iterations + 1)
        )
        last = checkpoints[-1]
        residual = G_RECOMPUTE if last.state.t % RECOMPUTE_EVERY == 0 else G_AXPY
        assert (
            last.ordinal + residual.length(ctx.n, ctx.nnz) + EPS.length(ctx.n, ctx.nnz)
            == res.n_accesses
        )

    def test_restart_equals_run_from_iteration_zero(self, small_problem):
        *_, ctx = small_problem
        scratch = without_checkpoints(ctx)
        ords = [c.ordinal for c in ctx.baseline.checkpoints]
        last = len(ords) - 1
        # (apply ordinal, iteration it restarts at): iteration 0, and the
        # boundaries of iteration 1 and of the converging iteration.
        cases = [(0, 0), (1, 0)]
        for t in (1, last):
            cases += [(ords[t] - 1, t - 1), (ords[t], t), (ords[t] + 1, t)]
        targets = [("x", 9, 40), ("g", 3, 51), ("d", 20, 45), ("dp", 7, 52),
                   ("q", 11, 44), ("b", 5, 48), ("Av", 30, 50)]
        compared = 0
        for e, t in cases:
            for sid, word, bit in targets:
                plan = InjectionPlan(sid, 64 * word + bit, 1, 0, 0)
                probe = _InjectedSolve(ctx, plan, e)
                assert probe._restart().t == t and probe.cum == ords[t]
                got = _InjectedSolve(ctx, plan, e)
                want = _InjectedSolve(scratch, plan, e)
                with np.errstate(all="ignore"):
                    rows = [r.run(ctx.t_max) for r in (got, want)]
                assert rows[0] == rows[1], (e, sid)
                assert (got.applied, got.erased) == (want.applied, want.erased)
                if not got.erased:  # an erased run stops where it was erased
                    assert np.array_equal(
                        got.arr["x"].view(np.uint64), want.arr["x"].view(np.uint64)
                    ), (e, sid)
                    compared += 1
        assert compared > len(cases) * len(targets) // 2

    def test_unchanged_images_settle_as_a_full_run(self, small_problem):
        A, b, tol, _res, ctx = small_problem
        scratch = without_checkpoints(ctx)
        seen = set()
        for sid in ("x", "b", "g", "d", "dp", "q", "Av", PAD_STRUCTURE):
            for plan in draw_plans(ctx, sid, 60, seed=2):
                apply_ord, reason = resolve_visibility(ctx, plan)
                full = _RunPastErasure(scratch, plan, apply_ord)
                with np.errstate(all="ignore"):
                    converged, iterations = full.run(ctx.t_max)
                if full.applied:
                    continue
                # The classification of the full run, as run_one makes it.
                assert converged and verify(A, b, full.arr["x"], tol)
                assert iterations == ctx.baseline.iterations
                detail = "erased" if full.erased else reason
                oc = run_one(ctx, plan)
                assert (oc.outcome, oc.iterations, oc.detail) == (
                    OUTCOME_ACE, iterations, detail
                ), plan
                seen.add(PAD_STRUCTURE if sid == PAD_STRUCTURE else detail)
        assert {"silent", "writeback", "erased", PAD_STRUCTURE} <= seen, seen


def decode_addr(ctx, addr):
    for name, (base, length) in ctx.regions.items():
        if base <= addr < base + length:
            return name, (addr - base) // 8
    raise AssertionError(f"address {addr} outside every region")


def scalar_sweep_oracle(ctx, template, src_name, values, flip, e_off):
    """Interpret a sparse-sweep event template one access at a time.

    ``values`` maps structure name to its pristine array; ``flip`` is
    (structure, word, new_value) switching that word's readout for every
    access ordinal >= e_off.  Returns the per-row products in C order.
    Row-pointer corruption is outside this oracle's scope.
    """
    kinds, addrs = template
    f_name, f_word, f_new = flip

    def val(name, idx, pos):
        if name == f_name and idx == f_word and pos >= e_off:
            return f_new
        return values[name][idx]

    n = ctx.n
    out = np.zeros(n)
    acc = 0.0
    row = 0
    cur_col = None
    cur_av = None
    for pos in range(len(kinds)):
        name, idx = decode_addr(ctx, int(addrs[pos]))
        if name == "Ar":
            continue
        if name == "Ac":
            cur_col = int(val("Ac", idx, pos))
        elif name == "Av":
            cur_av = val("Av", idx, pos)
        elif name == src_name and kinds[pos] == KIND_LOAD:
            acc += cur_av * val(src_name, cur_col, pos)
        elif kinds[pos] == KIND_STORE:
            out[row] = acc
            acc = 0.0
            row += 1
    assert row == n
    return out


@pytest.fixture(scope="module")
def phase_rig():
    A, _b, _tol, _res, ctx = build_problem(side=4)
    template = _AccessEmitter(A, None)._template(Q_SPMV, 0)
    rng = np.random.default_rng(23)
    d0 = rng.normal(size=A.n_rows)
    return A, ctx, template, d0


class TestMidPhaseSplits:
    """Drive single phases through the loop's hooks against independent
    oracles; the tests do a phase's elementwise arithmetic themselves."""

    def make_runner(self, ctx, plan, e, d0):
        runner = _InjectedSolve(ctx, plan, apply_ord=e)
        runner.arr["d"][:] = d0
        return runner

    def q_after_phase(self, runner):
        runner.open_phase(Q_SPMV, 0, 0)
        runner.product(Q_SPMV, 0, runner.arr["q"])
        return runner.arr["q"].copy()

    def flipped_value(self, arr, word, bit):
        v = arr[word : word + 1].copy()
        v.view(np.uint64)[0] ^= np.uint64(1 << bit)
        return v[0]

    def test_source_vector_split_all_offsets(self, phase_rig):
        A, ctx, template, d0 = phase_rig
        values = {"Ac": A.col_idx, "Av": A.values, "d": d0}
        d_base = ctx.regions["d"][0]
        rng = random.Random(3)
        for _ in range(25):
            word = rng.randrange(A.n_rows)
            bit = rng.choice([48, 52, 58, 62])
            # A random ordinal, and the edges of the word's gathered loads.
            loads = np.nonzero(template[1] == d_base + 8 * word)[0]
            edges = (int(loads[0]), int(loads[0]) + 1, int(loads[-1]) + 1)
            for e in (rng.randrange(1, len(template[0])),) + edges:
                plan = InjectionPlan("d", 64 * word + bit, 1, 0, 0)
                runner = self.make_runner(ctx, plan, e, d0)
                new = self.flipped_value(d0, word, bit)
                with np.errstate(all="ignore"):
                    got = self.q_after_phase(runner)
                    want = scalar_sweep_oracle(
                        ctx, template, "d", values, ("d", word, new), e
                    )
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                # The flip stays in the memory image afterwards.
                assert runner.arr["d"].view(np.uint64)[word] == np.uint64(
                    d0.view(np.uint64)[word] ^ np.uint64(1 << bit)
                )

    def test_matrix_value_split(self, phase_rig):
        A, ctx, template, d0 = phase_rig
        values = {"Ac": A.col_idx, "Av": A.values, "d": d0}
        rng = random.Random(4)
        for _ in range(25):
            word = rng.randrange(A.nnz)
            bit = rng.choice([50, 55, 62])
            e = rng.randrange(1, len(template[0]))
            plan = InjectionPlan("Av", 64 * word + bit, 1, 0, 0)
            runner = self.make_runner(ctx, plan, e, d0)
            new = self.flipped_value(A.values, word, bit)
            with np.errstate(all="ignore"):
                got = self.q_after_phase(runner)
                want = scalar_sweep_oracle(
                    ctx, template, "d", values, ("Av", word, new), e
                )
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_column_index_split_in_range(self, phase_rig):
        A, ctx, template, d0 = phase_rig
        values = {"Ac": A.col_idx, "Av": A.values, "d": d0}
        rng = random.Random(6)
        tried = 0
        while tried < 25:
            word = rng.randrange(A.nnz)
            bit = rng.randrange(0, 6)
            if int(A.col_idx[word]) ^ (1 << bit) >= A.n_rows:
                continue
            tried += 1
            e = rng.randrange(1, len(template[0]))
            plan = InjectionPlan("Ac", 64 * word + bit, 1, 0, 0)
            runner = self.make_runner(ctx, plan, e, d0)
            got = self.q_after_phase(runner)
            new = float(int(A.col_idx[word]) ^ (1 << bit))
            want = scalar_sweep_oracle(
                ctx, template, "d", values, ("Ac", word, int(new)), e
            )
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_row_pointer_split_three_cases(self, phase_rig):
        A, ctx, template, d0 = phase_rig
        n = A.n_rows
        ar_base = ctx.regions["Ar"][0]
        rng = random.Random(8)
        rp = A.row_ptr
        tested = 0
        for _ in range(20):
            r0 = rng.randrange(1, n)  # interior entry: read twice
            delta = rng.choice([1, 2, -1, -2])
            new_val = int(rp[r0]) + delta
            if not 0 <= new_val <= A.nnz:
                continue
            bits = int(rp[r0]) ^ new_val
            if bits & (bits - 1):
                continue  # keep to single-bit flips
            bit = bits.bit_length() - 1
            tested += 1
            # Entry r0 is read twice: as the end of row r0 - 1, then as
            # the start of row r0.
            as_end, as_start = np.nonzero(template[1] == ar_base + 8 * r0)[0]
            prod = A.values * d0[A.col_idx]

            def c_row(lo, hi):
                return float(np.add.reduce(prod[lo:hi])) if hi > lo else 0.0

            pristine = spmv(A, d0)
            for e, touched in (
                (as_end, "both"),
                (as_end + 1, "start-only"),
                (as_start + 1, "neither"),
            ):
                plan = InjectionPlan("Ar", 64 * r0 + bit, 1, 0, 0)
                runner = self.make_runner(ctx, plan, e, d0)
                got = self.q_after_phase(runner)
                want = pristine.copy()
                if touched in ("both",):
                    want[r0 - 1] = c_row(int(rp[r0 - 1]), new_val)
                if touched in ("both", "start-only"):
                    want[r0] = c_row(new_val, int(rp[r0 + 1]))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert tested >= 3

    def test_elementwise_split_boundaries(self, phase_rig):
        A, ctx, template, d0 = phase_rig
        n = A.n_rows
        rng = np.random.default_rng(31)
        x0 = rng.normal(size=n)
        alpha = 0.75
        w, bit = 9, 62
        results = {}
        for label, e in (
            ("sees-new", 3 * w),
            ("erased-lo", 3 * w + 1),
            ("erased-hi", 3 * w + 2),
            ("after", 3 * w + 3),
        ):
            plan = InjectionPlan("x", 64 * w + bit, 1, 0, 0)
            runner = _InjectedSolve(ctx, plan, apply_ord=e)
            runner.arr["x"][:] = x0
            runner.arr["d"][:] = d0
            runner.open_phase(X_UPDATE, 0, 0)
            runner.arr["x"] += alpha * runner.arr["d"]
            if label == "after":
                # Past the word's last access: the flip lands in memory
                # only once the next phase opens.
                assert runner.pending
                runner.open_phase(EPS, 0, 0)
            results[label] = runner.arr["x"].copy()
        clean = x0 + alpha * d0
        flipped_then = x0.copy()
        flipped_then.view(np.uint64)[w] ^= np.uint64(1 << bit)
        flipped_then += alpha * d0
        after = clean.copy()
        after.view(np.uint64)[w] ^= np.uint64(1 << bit)
        assert np.array_equal(results["sees-new"], flipped_then)
        assert np.array_equal(results["erased-lo"], clean)
        assert np.array_equal(results["erased-hi"], clean)
        assert np.array_equal(results["after"], after)

    def test_bystander_flip_applies_before_phase(self, phase_rig):
        A, ctx, template, d0 = phase_rig
        # b is not touched by the direction sweep: any mid-phase ordinal
        # simply deposits the flip for later phases.
        plan = InjectionPlan("b", 64 * 2 + 40, 1, 0, 0)
        runner = self.make_runner(ctx, plan, 17, d0)
        got = self.q_after_phase(runner)
        np.testing.assert_allclose(got, spmv(A, d0), rtol=1e-12, atol=0)
        assert runner.applied


class TestClassification:
    def test_metadata_crash_paths(self, small_problem):
        _A, _b, _tol, res, ctx = small_problem
        plan = fill_plans(ctx, res, "Ac", 11, 60, count=1)[0]
        oc = run_one(ctx, plan)
        assert oc.outcome == OUTCOME_CRASH
        assert oc.detail == "IndexError"
        plan = fill_plans(ctx, res, "Ar", 4, 62, count=2)[-1]
        oc = run_one(ctx, plan)
        assert oc.outcome == OUTCOME_CRASH

    def test_wrong_result_from_forcing_vector(self, small_problem):
        _A, _b, _tol, res, ctx = small_problem
        plan = fill_plans(ctx, res, "b", 3, 62, count=1)[0]
        oc = run_one(ctx, plan)
        assert oc.outcome == OUTCOME_WRONG

    def test_forcing_vector_flip_after_reads_is_benign(self, small_problem):
        _A, _b, _tol, res, ctx = small_problem
        base, length = ctx.regions["b"]
        # Last traffic involving b's lines:
        sel = (res.req_line >= base) & (res.req_line < base + length)
        last = int(res.req_time[sel].max())
        rng = random.Random(2)
        for _ in range(12):
            bit = rng.randrange(ctx.structure_bits("b"))
            u = rng.randrange(last + 1 - ctx.t_start, ctx.T)
            oc = run_one(ctx, InjectionPlan("b", bit, u, 0, 0))
            assert oc.outcome == OUTCOME_ACE

    def test_hang_on_poisoned_state(self, small_problem):
        *_, ctx = small_problem
        # Left to t_max this run ends as a wrong result at iteration 2000.
        plan = InjectionPlan("Av", 158910, 12070, 0, 0)
        oc = run_one(ctx, plan)
        assert oc.outcome == OUTCOME_HANG
        assert oc.iterations == HANG_ITERS * ctx.baseline.iterations
        assert _outcome_row(run_one(ctx, plan)) == _outcome_row(oc)

    def test_solver_cap_below_budget_ends_a_hang(self, small_problem):
        *_, ctx = small_problem
        capped = dataclasses.replace(ctx, t_max=10)
        assert capped.t_max < HANG_ITERS * ctx.baseline.iterations
        oc = run_one(capped, InjectionPlan("Av", 158910, 12070, 0, 0))
        assert (oc.outcome, oc.iterations) == (OUTCOME_HANG, 10)

    def test_extra_work_exists(self, small_problem):
        _A, _b, _tol, res, ctx = small_problem
        # An early upset the solver recovers from at the cost of more
        # iterations; scan a few candidates to stay robust.
        found = None
        for word in range(10):
            for plan in fill_plans(ctx, res, "x", word, 62, count=2):
                oc = run_one(ctx, plan)
                if oc.outcome == OUTCOME_EXTRA:
                    found = oc
                    break
            if found:
                break
        assert found is not None
        assert found.iterations > ctx.baseline.iterations

    def test_every_outcome_is_a_known_class(self, small_problem):
        *_, ctx = small_problem
        rng = random.Random(77)
        names = [n for n in ctx.regions if n != PAD_STRUCTURE]
        for _ in range(60):
            sid = rng.choice(names)
            plan = InjectionPlan(
                sid,
                rng.randrange(ctx.structure_bits(sid)),
                rng.randrange(1, ctx.T),
                0,
                0,
            )
            oc = run_one(ctx, plan)
            assert oc.outcome in OUTCOME_CLASSES


class TestFlipCheck:
    def test_single_bit_image_difference(self, small_problem):
        _A, _b, _tol, res, ctx = small_problem
        for sid, word, bit in (("b", 3, 62), ("Av", 11, 5), ("x", 9, 30)):
            plans = fill_plans(ctx, res, sid, word, bit, count=1)
            assert flip_check(ctx, plans[0]) is True

    def test_uncaptured_plan_has_no_image(self, small_problem):
        *_, ctx = small_problem
        plan = draw_plans(ctx, PAD_STRUCTURE, 1, seed=0)[0]
        assert flip_check(ctx, plan) is None


def unbounded_row(ctx, plan):
    """A run left to go on to t_max, classified, then relabelled ``hang``
    if it had not converged before iteration HANG_ITERS times the
    baseline's."""
    bl = ctx.baseline
    hang_at = HANG_ITERS * bl.iterations
    apply_ord, reason = resolve_visibility(ctx, plan)
    runner = _InjectedSolve(ctx, plan, apply_ord)
    try:
        with np.errstate(all="ignore"):
            converged, iterations = runner.run(ctx.t_max)
    except Exception as exc:  # noqa: BLE001
        if runner.iter_done < hang_at:
            return OUTCOME_CRASH, runner.iter_done, type(exc).__name__
        converged = False
    if runner.erased:
        return OUTCOME_ACE, bl.iterations, "erased"
    detail = "" if runner.applied else reason
    if not converged or iterations >= hang_at:
        return OUTCOME_HANG, hang_at, detail
    with np.errstate(all="ignore"):
        ok = verify(ctx.A, ctx.b, runner.arr["x"], ctx.tol)
    if not ok:
        return OUTCOME_WRONG, iterations, detail
    if iterations < bl.iterations:
        return OUTCOME_WRONG, iterations, "early-exit"
    if iterations > bl.iterations:
        return OUTCOME_EXTRA, iterations, detail
    return OUTCOME_ACE, iterations, detail


class TestGoldenOutcomes:
    """Pins every outcome of a fixed plan set, to guard refactors of the
    instrumented solver and the campaign driver.

    With seed 0 the 1,000 runs are 778 ACE, 144 crash, 56 wrong-result,
    20 hang and 2 extra-work.  The baseline takes 6 iterations, so a run
    is hung as it opens iteration 24; the 20 hangs are the runs that, left
    to go on, end as wrong results at the cap of 2000 iterations (19) or
    converge at iteration 1110 (one extra-work run).
    """

    DIGEST = "42aa8a0327df60c1e69ef4d53554b4f4a39a0ddfe0b088f0c4a80e29e4b02b28"
    STRUCTURES = ("Ar", "Ac", "Av", "x", "b", "g", "d", "dp", "q", PAD_STRUCTURE)

    def test_outcome_rows_match_digest(self, small_problem):
        *_, ctx = small_problem
        h = hashlib.sha256()
        for sid in self.STRUCTURES:
            for plan in draw_plans(ctx, sid, 100, seed=0):
                oc = run_one(ctx, plan)
                h.update(
                    f"{sid},{plan.bit_index},{plan.inject_time},{oc.outcome},"
                    f"{oc.iterations},{oc.detail}\n".encode()
                )
        assert h.hexdigest() == self.DIGEST

    def test_budget_equals_unbounded_run_relabelled(self, small_problem):
        *_, ctx = small_problem
        assert HANG_ITERS * ctx.baseline.iterations < ctx.t_max
        relabelled = 0
        for sid in self.STRUCTURES:
            for plan in draw_plans(ctx, sid, 100, seed=0):
                oc = run_one(ctx, plan)
                want = unbounded_row(ctx, plan)
                assert (oc.outcome, oc.iterations, oc.detail) == want, plan
                relabelled += want[0] == OUTCOME_HANG
        assert relabelled == 20


class TestCampaign:
    def test_requires_baseline(self):
        *_, ctx = build_problem(side=4, with_baseline=False)
        with pytest.raises(RuntimeError, match="baseline"):
            run_campaign(ctx, "d", 2, seed=0)
        with pytest.raises(RuntimeError, match="baseline"):
            run_one(ctx, InjectionPlan("d", 0, 1, 0, 0))

    def test_tally_and_p_unace(self, small_problem):
        *_, ctx = small_problem
        r = run_campaign(ctx, PAD_STRUCTURE, 25, seed=5)
        assert r.n_runs == 25
        assert r.tally[OUTCOME_ACE] == 25
        assert r.p_unace == 0.0
        assert r.ci99[0] == 0.0
        assert r.baseline_iterations == ctx.baseline.iterations

    def test_log_resume_completes_identically(self, small_problem, tmp_path):
        *_, ctx = small_problem
        path = tmp_path / "campaign.csv"
        full = run_campaign(ctx, "Av", 14, seed=21, log_path=str(path))
        text = path.read_text().splitlines()
        truncated = "\n".join(text[: 2 + 5]) + "\n"  # header + 5 rows
        path.write_text(truncated)
        resumed = run_campaign(ctx, "Av", 14, seed=21, log_path=str(path))
        assert resumed.tally == full.tally
        assert resumed.p_unace == full.p_unace
        assert len(path.read_text().splitlines()) == 2 + 14

    @pytest.mark.parametrize("where", ["row", "csv-header", "campaign-header"])
    def test_torn_log_line_is_rerun(self, small_problem, tmp_path, where):
        *_, ctx = small_problem
        full_path = tmp_path / "full.csv"
        run_campaign(ctx, "Av", 14, seed=21, log_path=str(full_path))
        full = full_path.read_bytes()
        lines = full.splitlines(keepends=True)
        if where == "row":
            # Cut the sixth row inside its outcome field, before `detail`.
            keep = b"".join(lines[: 2 + 5])
            row = lines[2 + 5]
            cut = keep + row[: row.index(b",ACE,") + 3]
        elif where == "csv-header":
            cut = lines[0] + lines[1][:10]
        else:
            cut = lines[0][:10]
        path = tmp_path / "torn.csv"
        path.write_bytes(cut)
        resumed = run_campaign(ctx, "Av", 14, seed=21, log_path=str(path))
        assert resumed.n_runs == 14
        assert path.read_bytes() == full

    def test_log_guards_against_mismatch(self, small_problem, tmp_path):
        *_, ctx = small_problem
        path = tmp_path / "campaign.csv"
        run_campaign(ctx, "Av", 4, seed=21, log_path=str(path))
        with pytest.raises(ValueError, match="seed is 21"):
            run_campaign(ctx, "Av", 8, seed=22, log_path=str(path))
        with pytest.raises(ValueError, match="structure is Av"):
            run_campaign(ctx, "d", 8, seed=21, log_path=str(path))

    def test_log_header_and_rows(self, small_problem, tmp_path):
        *_, ctx = small_problem
        rows = []
        for sid in ("Ar", "q"):
            path = tmp_path / f"{sid}.csv"
            run_campaign(ctx, sid, 100, seed=0, log_path=str(path))
            lines = path.read_text().splitlines()
            assert lines[0] == (
                f"# campaign schema={LOG_SCHEMA} structure={sid} seed=0 "
                f"baseline={ctx.baseline.iterations} T={ctx.T} "
                f"hang_iters={HANG_ITERS}"
            )
            assert lines[1] == (
                "run,structure,bit_index,inject_time,outcome,iterations,"
                "reason,detail"
            )
            rows += [line.split(",") for line in lines[2:]]
        assert {row[6] for row in rows} == {"fill", "silent", "writeback", "erased"}
        # A crash names its exception in `detail` and keeps its reason.
        crashes = [row for row in rows if row[4] == OUTCOME_CRASH]
        assert crashes and {row[6] for row in crashes} == {"fill"}
        assert {row[7] for row in crashes} <= {"IndexError", "_SegFault"}
        hangs = [row for row in rows if row[4] == OUTCOME_HANG]
        assert hangs and {row[5] for row in hangs} == {
            str(HANG_ITERS * ctx.baseline.iterations)
        }

    @pytest.mark.parametrize(
        "field, value", [("schema", "1"), ("baseline", "7"), ("T", "1"),
                         ("hang_iters", "10")]
    )
    def test_log_refused_when_its_rules_differ(
        self, small_problem, tmp_path, field, value
    ):
        *_, ctx = small_problem
        path = tmp_path / "campaign.csv"
        run_campaign(ctx, "Av", 4, seed=21, log_path=str(path))
        header, rest = path.read_text().split("\n", 1)
        fields = dict(part.split("=") for part in header.split()[2:])
        fields[field] = value
        header = "# campaign " + " ".join(f"{k}={v}" for k, v in fields.items())
        path.write_text(header + "\n" + rest)
        with pytest.raises(ValueError, match=f"its {field} is {value},"):
            run_campaign(ctx, "Av", 8, seed=21, log_path=str(path))

    def test_schema_1_log_is_refused(self, small_problem, tmp_path):
        *_, ctx = small_problem
        path = tmp_path / "campaign.csv"
        path.write_text(
            f"# campaign structure=Av seed=21 baseline={ctx.baseline.iterations} "
            f"T={ctx.T}\n"
            "run,structure,bit_index,inject_time,outcome,iterations,wall_time,"
            "detail\n"
            "0,Av,100,200,ACE,6,0.000101,silent\n"
        )
        before = path.read_bytes()
        with pytest.raises(ValueError, match="its schema is missing"):
            run_campaign(ctx, "Av", 4, seed=21, log_path=str(path))
        assert path.read_bytes() == before

    def test_rows_do_not_depend_on_the_clock(
        self, small_problem, tmp_path, monkeypatch
    ):
        *_, ctx = small_problem
        steady = [tmp_path / f"steady-{sid}.csv" for sid in ("g", "q")]
        jumpy = [tmp_path / f"jumpy-{sid}.csv" for sid in ("g", "q")]
        for sid, path in zip(("g", "q"), steady):
            run_campaign(ctx, sid, 100, seed=0, log_path=str(path))
        ticks = itertools.count()
        monkeypatch.setattr(
            inject._time, "perf_counter", lambda: 1e6 * next(ticks)
        )
        for sid, path in zip(("g", "q"), jumpy):
            run_campaign(ctx, sid, 100, seed=0, log_path=str(path))
        assert next(ticks) > 200  # the clock did jump under every run
        for a, b in zip(steady, jumpy):
            assert a.read_bytes() == b.read_bytes()
        assert any(",hang," in p.read_text() for p in steady)

    def test_parallel_matches_serial(self, small_problem):
        *_, ctx = small_problem
        serial = run_campaign(ctx, "b", 10, seed=3)
        parallel = run_campaign(ctx, "b", 10, seed=3, parallel=2)
        assert serial.tally == parallel.tally

    def test_campaign_result_serialization(self, small_problem):
        *_, ctx = small_problem
        r = run_campaign(ctx, "b", 6, seed=13)
        doc = r.to_dict()
        assert doc["structure"] == "b"
        assert doc["runs"] == 6
        assert sum(doc["tally"].values()) == 6
        assert 0.0 <= doc["p_unace"] <= 1.0
