"""Tests for the injection harness.

The heavy lifting here is validating the instrumented solver against
independent oracles:

* an unapplied flip must reproduce the clean solver bit for bit;
* a flip applied before the first access must equal solving the
  explicitly flipped problem with the clean solver;
* a flip surfacing mid-phase must match a scalar interpreter that walks
  the trace emitter's own event template and switches the flipped word's
  value at the injection ordinal;
* a row ``run_one`` settles early must equal the row of the same plan
  solved to its end with the settlements turned off (``_FullSolve``).
"""

import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest

from memvuln.cachesim import (
    LINE_BITS,
    REQ_FILL,
    REQ_WRITEBACK,
    CacheConfig,
    CacheSimulator,
    LevelConfig,
)
from memvuln import cg
from memvuln.cg import (
    EPS,
    G_RECOMPUTE,
    Q_SPMV,
    RECOMPUTE_EVERY,
    T_MAX,
    X_UPDATE,
    CsrMatrix,
    LoopState,
    _AccessEmitter,
    default_structure_map,
    default_tol,
    generate_poisson27,
    solve,
    spmv,
    verify,
)
from memvuln import inject
from memvuln.faultmodel import AccessTimeline
from memvuln.cli import build_problem as build_pipeline_problem
from memvuln.trace import KIND_LOAD, KIND_STORE, TRACKED_STRUCTURES
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
    resolve_visibility,
    run_campaign,
    run_one,
    wilson_ci,
)
from memvuln.vulnmetrics import accumulate

from observers import in_region
from test_vulnmetrics import random_result, single_region_map


class _FullSolve(_InjectedSolve):
    """A runner with the early settlements turned off: it computes every
    sweep and runs every iteration up to its cap.  The oracles below use
    it, so they do not rest on the rules they check."""

    def _non_finite(self, state):
        return False

    def _emptied_row(self, state):
        return False

    def _baseline_sweep(self, phase):
        return False


def churn_config():
    """A hierarchy small enough that lines travel to memory constantly."""
    cfg = CacheConfig()
    cfg.l1 = LevelConfig(8, 4096, 4, 32)
    cfg.l2 = LevelConfig(8, 8192, 12, 32)
    cfg.l3 = LevelConfig(16, 16384, 28, 128)
    cfg.validate()
    return cfg


def build_problem(side=6, cfg=None):
    A = generate_poisson27(side)
    b = np.zeros(A.n_rows)
    spmv(A, np.ones(A.n_rows), out=b)
    tol = default_tol(b)
    sim = CacheSimulator(cfg or churn_config())
    rec = solve(A, b, tol=tol, observer=sim)
    assert rec.converged
    res = sim.finish()
    ctx = build_context(A, b, tol, res.by_line())
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
        u = int(t_f) - ctx.events.t_start
        if 0 < u < ctx.events.T:
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
            lo, hi = wilson_ci(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_reference_width(self):
        lo, hi = wilson_ci(1495, 6500)
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
            assert 0 < plan.inject_time < ctx.events.T
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
        u_abs = ctx.events.t_start + plan.inject_time
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
                sid, rng.randrange(bits), rng.randrange(1, ctx.events.T), 0, 0
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


class TestTimelineIdentity:
    """A word's fault-model timeline, built from its line's rows in the
    index, is vulnerable exactly as long as its ledger says: with mvf's
    tags for ``vuln_time``, with fea's for ``kept_time``."""

    @staticmethod
    def check_every_word(ev, smap):
        ledgers = accumulate(ev, smap)
        for reg in smap:
            led = ledgers[reg.name]
            for w in range(led.n_words):
                addr = reg.base + 8 * w
                rows = ev.rows(addr >> LINE_BITS)
                t = ev.time[rows] - ev.t_start
                keep = t > 0  # ``AccessTimeline`` refuses times at or below 0
                fill = ev.kind[rows] == REQ_FILL
                overwritten = (ev.mask[rows] >> ((addr >> 3) % 8)) & 1 == 1
                for unsafe, want in ((fill, led.vuln_time[w]),
                                     (fill & ~overwritten, led.kept_time[w])):
                    timeline = AccessTimeline(t[keep], unsafe[keep])
                    assert timeline.vulnerable_time() == want, (reg.name, w)

    def test_every_word_of_every_structure(self, small_problem):
        A, *_, ctx = small_problem
        ev = ctx.events
        # One event opens the window, and it closes an empty period.
        assert np.count_nonzero(ev.time == ev.t_start) == 1
        self.check_every_word(ev, default_structure_map(A))

    def test_partial_masks(self):
        # The solve above resolves whole lines only (masks 0 and 0xff), so
        # only masks like these show a word-order error inside a mask.
        rng = random.Random(4)
        for _ in range(40):
            res = random_result(rng)
            assert np.any((res.res_mask != 0) & (res.res_mask != 0xFF))
            self.check_every_word(res.by_line(), single_region_map(6))


class TestRunnerFidelity:
    def test_unapplied_flip_reproduces_baseline_bitwise(self, small_problem):
        A, b, tol, res, ctx = small_problem
        rec = solve(A, b, tol=tol)
        plan = InjectionPlan("d", 64 * 3 + 7, 1, 0, 0)
        runner = _FullSolve(ctx, plan, apply_ord=None)
        converged, iterations = runner.run(T_MAX)
        assert converged and iterations == rec.iterations
        assert np.array_equal(runner.arr["x"], rec.x)
        assert runner.end == res.n_accesses

    def test_flip_before_first_event_equals_flipped_problem(self, small_problem):
        A, b, tol, _res, ctx = small_problem
        cases = [
            ("b", 5, 61),
            ("b", 11, 3),
            ("Av", 40, 62),
            ("Av", 7, 1),
            ("Ac", 25, 2),  # keeps the index in range
        ]
        for sid, word, bit in cases:
            plan = InjectionPlan(sid, 64 * word + bit, 1, 0, 0)
            runner = _FullSolve(ctx, plan, apply_ord=0)
            with np.errstate(all="ignore"):
                converged, iterations = runner.run(T_MAX)
            A2 = CsrMatrix(
                A.n_rows, A.row_ptr.copy(), A.col_idx.copy(), A.values.copy()
            )
            b2 = b.copy()
            arr = {"b": b2, "Av": A2.values, "Ac": A2.col_idx}[sid]
            view = arr.view(np.uint64)
            view[word] ^= np.uint64(1 << bit)
            with np.errstate(all="ignore"):
                ref = solve(A2, b2, tol=tol, t_max=T_MAX)
            assert converged == ref.converged
            assert iterations == ref.iterations
            assert np.array_equal(
                runner.arr["x"].view(np.uint64), ref.x.view(np.uint64)
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
    """The context with a baseline that makes every run start at iteration 0:
    it keeps only checkpoint 0, the fresh start."""
    first = ctx.baseline.checkpoints[:1]
    baseline = dataclasses.replace(ctx.baseline, checkpoints=first)
    return dataclasses.replace(ctx, baseline=baseline)


class _RunPastErasure(_FullSolve):
    """A runner that replays the whole solve even after an erasure."""

    def open_phase(self, phase, parity, at):
        erased, self.erased = self.erased, False
        super().open_phase(phase, parity, at)
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
        assert [c.state.ordinal for c in checkpoints] == starts
        assert [c.state.t for c in checkpoints] == list(
            range(ctx.baseline.iterations + 1)
        )
        # The solve's last access closes the converging iteration's EPS.
        assert cg.locate(checkpoints, res.n_accesses - 1, ctx.n, ctx.nnz) == (
            checkpoints[-1].state.t, EPS, EPS.length(ctx.n, ctx.nnz) - 1
        )

    def test_restart_equals_run_from_iteration_zero(self, small_problem):
        *_, ctx = small_problem
        scratch = without_checkpoints(ctx)
        ords = [c.state.ordinal for c in ctx.baseline.checkpoints]
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
                start = probe._restart()
                assert (start.t, start.ordinal) == (t, ords[t])
                got = _FullSolve(ctx, plan, e)
                want = _FullSolve(scratch, plan, e)
                with np.errstate(all="ignore"):
                    rows = [r.run(T_MAX) for r in (got, want)]
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
                    converged, iterations = full.run(T_MAX)
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


def pairwise_sum(a):
    """numpy's pairwise sum of float64 terms: a loop below 8 terms, eight
    accumulators up to 128, halves at a multiple of 8 above."""
    n = len(a)
    if n < 8:
        res = np.float64(-0.0)
        for v in a:
            res = res + v
        return res
    if n <= 128:
        r, i = list(a[:8]), 8
        while i < n - n % 8:
            r = [r[j] + a[i + j] for j in range(8)]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in a[i:]:
            res = res + v
        return res
    half = n // 2 - n // 2 % 8
    return pairwise_sum(a[:half]) + pairwise_sum(a[half:])


def scalar_sweep_oracle(ctx, template, src_name, values, flip, e_off):
    """Interpret a sparse-sweep event template one access at a time.

    ``values`` maps structure name to its pristine array; ``flip`` is
    (structure, word, new_value) switching that word's readout for every
    access ordinal >= e_off.  Returns the per-row products in C order,
    each row summed as ``np.add.reduceat`` sums it: its first product
    plus the pairwise sum of the rest.  Row-pointer corruption is outside
    this oracle's scope.
    """
    kinds, addrs = template
    f_name, f_word, f_new = flip

    def val(name, idx, pos):
        if name == f_name and idx == f_word and pos >= e_off:
            return f_new
        return values[name][idx]

    n = ctx.n
    out = np.zeros(n)
    terms = []
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
            terms.append(cur_av * val(src_name, cur_col, pos))
        elif kinds[pos] == KIND_STORE:
            out[row] = terms[0] + pairwise_sum(terms[1:])
            terms = []
            row += 1
    assert row == n
    return out


#: The sweeps a flip can land in, one per source buffer: (phase, parity).
SWEEPS = ((Q_SPMV, 0), (Q_SPMV, 1), (G_RECOMPUTE, 0))


@pytest.fixture(scope="module")
def phase_rig():
    A, _b, _tol, _res, ctx = build_problem(side=4)
    emitter = _AccessEmitter(A, None)
    templates = {sweep: emitter._template(*sweep) for sweep in SWEEPS}
    rng = np.random.default_rng(23)
    d0 = rng.normal(size=A.n_rows)
    return A, ctx, templates, d0


class TestMidPhaseSplits:
    """Drive single phases through the loop's hooks against independent
    oracles; the tests do a phase's elementwise arithmetic themselves.
    Each sweep test runs on every sweep a flip can land in (``SWEEPS``),
    with ``d0`` as that sweep's source vector."""

    def make_runner(self, ctx, plan, e, d0, phase, parity):
        runner = _FullSolve(ctx, plan, apply_ord=e)
        runner._restart()  # copies iteration 0's state vectors
        runner.arr[phase.source(parity)][:] = d0
        return runner

    def sweep(self, runner, phase, parity):
        """Open the phase at ordinal 0, where iteration 0 opens, and return
        its product."""
        runner.open_phase(phase, parity, 0)
        out = np.empty(runner.n)
        runner.product(phase, parity, out)
        return out

    def flipped_value(self, arr, word, bit):
        v = arr[word : word + 1].copy()
        v.view(np.uint64)[0] ^= np.uint64(1 << bit)
        return v[0]

    def loads_of(self, ctx, template, name, word):
        """Stream positions of the sweep's loads of the word."""
        return np.flatnonzero(template[1] == ctx.regions[name][0] + 8 * word)

    def check_split(self, ctx, template, phase, parity, values, flip, e, plan):
        """One flip landing ``e`` accesses into the sweep, against the
        scalar oracle; the flip stays in the image afterwards."""
        name, word, new = flip
        runner = self.make_runner(ctx, plan, e, values[phase.source(parity)],
                                  phase, parity)
        with np.errstate(all="ignore"):
            got = self.sweep(runner, phase, parity)
            want = scalar_sweep_oracle(
                ctx, template, phase.source(parity), values, flip, e
            )
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64),
                                      err_msg=f"{phase.name} {parity} {e}")
        assert runner.applied
        stored = runner.arr[name][word : word + 1]
        assert stored.tobytes() == np.array([new], stored.dtype).tobytes()

    def test_source_vector_split_all_offsets(self, phase_rig):
        A, ctx, templates, d0 = phase_rig
        rng = random.Random(3)
        for (phase, parity), template in templates.items():
            src = phase.source(parity)
            values = {"Ac": A.col_idx, "Av": A.values, src: d0}
            for _ in range(25):
                word = rng.randrange(A.n_rows)
                bit = rng.choice([48, 52, 58, 62])
                # A random ordinal, and the edges of the word's gathered loads.
                loads = self.loads_of(ctx, template, src, word)
                edges = (int(loads[0]), int(loads[0]) + 1, int(loads[-1]) + 1)
                new = self.flipped_value(d0, word, bit)
                plan = InjectionPlan(src, 64 * word + bit, 1, 0, 0)
                for e in (rng.randrange(1, len(template[0])),) + edges:
                    self.check_split(ctx, template, phase, parity, values,
                                     (src, word, new), e, plan)

    def test_matrix_value_split(self, phase_rig):
        A, ctx, templates, d0 = phase_rig
        rng = random.Random(4)
        for (phase, parity), template in templates.items():
            values = {"Ac": A.col_idx, "Av": A.values, phase.source(parity): d0}
            for _ in range(25):
                word = rng.randrange(A.nnz)
                bit = rng.choice([50, 55, 62])
                (load,) = self.loads_of(ctx, template, "Av", word)
                new = self.flipped_value(A.values, word, bit)
                plan = InjectionPlan("Av", 64 * word + bit, 1, 0, 0)
                for e in (rng.randrange(1, len(template[0])), load, load + 1):
                    self.check_split(ctx, template, phase, parity, values,
                                     ("Av", word, new), int(e), plan)

    def test_column_index_split_in_range(self, phase_rig):
        A, ctx, templates, d0 = phase_rig
        rng = random.Random(6)
        for (phase, parity), template in templates.items():
            values = {"Ac": A.col_idx, "Av": A.values, phase.source(parity): d0}
            tried = 0
            while tried < 25:
                word = rng.randrange(A.nnz)
                bit = rng.randrange(0, 6)
                new = int(A.col_idx[word]) ^ (1 << bit)
                if new >= A.n_rows:
                    continue
                tried += 1
                (load,) = self.loads_of(ctx, template, "Ac", word)
                plan = InjectionPlan("Ac", 64 * word + bit, 1, 0, 0)
                for e in (rng.randrange(1, len(template[0])), load, load + 1):
                    self.check_split(ctx, template, phase, parity, values,
                                     ("Ac", word, new), int(e), plan)

    def test_column_index_out_of_range_raises_where_it_is_read(self, phase_rig):
        A, ctx, templates, d0 = phase_rig
        word, bit = 100, 40  # a column far past the source vector
        for (phase, parity), template in templates.items():
            (load,) = self.loads_of(ctx, template, "Ac", word)
            plan = InjectionPlan("Ac", 64 * word + bit, 1, 0, 0)
            runner = self.make_runner(ctx, plan, int(load), d0, phase, parity)
            with pytest.raises(IndexError):
                self.sweep(runner, phase, parity)
            # Landing past its load, the flip leaves this sweep whole and
            # is read by the next.
            runner = self.make_runner(ctx, plan, int(load) + 1, d0, phase, parity)
            got = self.sweep(runner, phase, parity)
            np.testing.assert_array_equal(got, spmv(A, d0))
            assert runner.applied
            with pytest.raises(IndexError):
                self.sweep(runner, phase, parity)

    def test_row_pointer_split_three_cases(self, phase_rig):
        A, ctx, templates, d0 = phase_rig
        n, nnz, rp = A.n_rows, A.nnz, A.row_ptr
        prod = A.values * d0[A.col_idx]
        pristine = spmv(A, d0)

        def expected(r0, new_val, moved):
            """The product with each moved row summed over its new bounds,
            or None when one of them escapes the matrix arrays."""
            want = pristine.copy()
            for r in moved:
                lo, hi = (new_val, rp[r + 1]) if r == r0 else (rp[r], new_val)
                if hi > lo and (lo < 0 or hi > nnz):
                    return None
                want[r] = np.add.reduce(prod[lo:hi]) if hi > lo else 0.0
            return want

        rng = random.Random(8)
        # Entry 0 is read only as row 0's start, entry n only as row n - 1's
        # end, an interior entry as both.
        entries = [0, n] + rng.sample(range(1, n), 3)
        escaped = 0
        for (phase, parity), template in templates.items():
            for r0, bit in itertools.product(entries, (0, 1, 2, 3, 40, 63)):
                new_val = int(self.flipped_value(rp, r0, bit))
                rows = [r for r in (r0 - 1, r0) if 0 <= r < n]
                loads = self.loads_of(ctx, template, "Ar", r0)
                assert len(loads) == len(rows)
                plan = InjectionPlan("Ar", 64 * r0 + bit, 1, 0, 0)
                for e in sorted({0, *loads, *(loads + 1)}):
                    runner = self.make_runner(ctx, plan, int(e), d0, phase, parity)
                    # A row moves in this sweep when its load comes at or
                    # after the flip, and in every later sweep.
                    for moved in ([r for r, p in zip(rows, loads) if p >= e], rows):
                        want = expected(r0, new_val, moved)
                        if want is None:
                            escaped += 1
                            with pytest.raises(inject._SegFault):
                                self.sweep(runner, phase, parity)
                            break
                        got = self.sweep(runner, phase, parity)
                        np.testing.assert_array_equal(
                            got, want, err_msg=f"{phase.name} {r0} {bit} {e}")
                        assert runner.applied
        assert escaped > 20

    def test_elementwise_split_boundaries(self, phase_rig):
        A, ctx, _templates, d0 = phase_rig
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
            runner = _FullSolve(ctx, plan, apply_ord=e)
            runner._restart()  # copies iteration 0's state vectors
            runner.arr["x"][:] = x0
            runner.arr["d"][:] = d0
            runner.open_phase(X_UPDATE, 0, 0)
            runner.arr["x"] += alpha * runner.arr["d"]
            if label == "after":
                # Past the word's last access: the flip lands in memory
                # only once the next phase opens.
                assert runner.pending
                runner.open_phase(EPS, 0, X_UPDATE.length(n, ctx.nnz))
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
        A, ctx, templates, d0 = phase_rig
        # A vector the sweep does not touch (b for q_spmv, q for
        # g_recompute): any mid-phase ordinal simply deposits the flip for
        # later phases.
        for phase, parity in templates:
            read = {phase.source(parity), *(name for name, _ in phase.operands(parity))}
            name = next(v for v in ("b", "q") if v not in read)
            plan = InjectionPlan(name, 64 * 2 + 40, 1, 0, 0)
            runner = self.make_runner(ctx, plan, 17, d0, phase, parity)
            got = self.sweep(runner, phase, parity)
            np.testing.assert_array_equal(got, spmv(A, d0))
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
            u = rng.randrange(last + 1 - ctx.events.t_start, ctx.events.T)
            oc = run_one(ctx, InjectionPlan("b", bit, u, 0, 0))
            assert oc.outcome == OUTCOME_ACE

    def test_hang_on_poisoned_state(self, small_problem):
        *_, ctx = small_problem
        # Left to T_MAX this run ends as a wrong result at iteration 2000.
        plan = InjectionPlan("Av", 158910, 12070, 0, 0)
        oc = run_one(ctx, plan)
        assert oc.outcome == OUTCOME_HANG
        assert oc.iterations == HANG_ITERS * ctx.baseline.iterations
        assert _outcome_row(run_one(ctx, plan)) == _outcome_row(oc)

    def test_solver_cap_below_budget_ends_a_hang(self, small_problem, monkeypatch):
        *_, ctx = small_problem
        monkeypatch.setattr(inject, "T_MAX", 10)
        assert inject.T_MAX < HANG_ITERS * ctx.baseline.iterations
        oc = run_one(ctx, InjectionPlan("Av", 158910, 12070, 0, 0))
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
                rng.randrange(1, ctx.events.T),
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

    def test_plans_settled_without_a_solve_are_audited(self, small_problem):
        *_, ctx = small_problem
        audited = 0
        for plan in draw_plans(ctx, "x", 100, seed=0):
            apply_ord, _reason = resolve_visibility(ctx, plan)
            if apply_ord is None:
                continue
            row = inject._x_row(ctx, plan, apply_ord)
            if row is not None and row[1] != "erased":
                assert flip_check(ctx, plan) is True, plan
                audited += 1
        assert audited > 20

    def test_row_emptying_plan_is_audited(self, small_problem):
        *_, ctx = small_problem
        # Bit 9 of entry 173 moves row 173's start from 3470 past its end,
        # 3488, inside nnz; the run is decided a hang at iteration 5.
        plan = InjectionPlan("Ar", 64 * 173 + 9, 76997, 0, 0)
        apply_ord, _reason = resolve_visibility(ctx, plan)
        runner = _InjectedSolve(ctx, plan, apply_ord)
        cap = HANG_ITERS * ctx.baseline.iterations
        with np.errstate(all="ignore"):
            assert runner.run(cap) == (False, cap)
        assert runner.empty_rows == [173] and runner.iter_done < cap
        assert flip_check(ctx, plan) is True

    def test_uncaptured_plan_has_no_image(self, small_problem):
        *_, ctx = small_problem
        plan = draw_plans(ctx, PAD_STRUCTURE, 1, seed=0)[0]
        assert flip_check(ctx, plan) is None


def rows_both_ways(ctx, plans, monkeypatch):
    """Every plan's log row through ``run_one`` with the settlement rules
    on, and with them off: no ``x`` word settled, every sweep computed and
    every run solved to its end.

    Returns both row lists, the plan indices each rule decided (``sweep``:
    a plan with at least one sweep copied from the baseline), and the
    final ``x`` that each way handed to ``verify``, by plan index.
    """
    decided = {rule: set() for rule in ("x", "non-finite", "emptied-row", "sweep")}
    now = [None]

    def note(rule, hit):
        if hit:
            decided[rule].add(now[0])
        return hit

    class Recording(_InjectedSolve):
        def _non_finite(self, state):
            return note("non-finite", super()._non_finite(state))

        def _emptied_row(self, state):
            return note("emptied-row", super()._emptied_row(state))

        def _baseline_sweep(self, phase):
            return note("sweep", super()._baseline_sweep(phase))

    x_row, verify_ = inject._x_row, inject.verify

    def classify(runner, settle):
        finals = {}

        def spy(A, b, x, tol):
            finals[now[0]] = x.copy()
            return verify_(A, b, x, tol)

        monkeypatch.setattr(inject, "_InjectedSolve", runner)
        monkeypatch.setattr(inject, "_x_row", settle)
        monkeypatch.setattr(inject, "verify", spy)
        rows = []
        for now[0], plan in enumerate(plans):
            rows.append(_outcome_row(run_one(ctx, plan)))
        return rows, finals

    def settle(*args):
        row = x_row(*args)
        note("x", row is not None)
        return row

    on = classify(Recording, settle)
    off = classify(_FullSolve, lambda *a: None)
    return on[0], off[0], decided, on[1], off[1]


def campaign_plans(ctx, seeds, runs=100):
    """The plans of the pipeline's campaigns for each seed: structure i of
    a pipeline at seed s draws with seed s + i."""
    return [plan for seed in seeds for i, name in enumerate(TRACKED_STRUCTURES)
            for plan in draw_plans(ctx, name, runs, seed + i)]


@pytest.fixture(scope="module")
def side16_context():
    A, b, tol = build_pipeline_problem(16, 1e-8)
    sim = CacheSimulator(CacheConfig.desk_scaled(16))
    solve(A, b, tol=tol, observer=sim)
    return build_context(A, b, tol, sim.finish().by_line())


def test_only_recompute_and_x_update_touch_x():
    # The proof of the x rule (``_x_row``) rests on this: across the phase
    # table and both parities, x is a sweep's source only in g_recompute
    # and an own operand only in x_update.
    as_source = {phase.name for phase in cg.PHASES for parity in (0, 1)
                 if phase.src is not None and phase.source(parity) == "x"}
    as_operand = {phase.name for phase in cg.PHASES for parity in (0, 1)
                  if any(name == "x" for name, _ in phase.operands(parity))}
    assert as_source == {G_RECOMPUTE.name}
    assert as_operand == {X_UPDATE.name}


class TestSettlements:
    """Rows settled before a run's end equal full solves, plan for plan."""

    def check_both_ways(self, ctx, plans, monkeypatch):
        on, off, decided, on_x, off_x = rows_both_ways(ctx, plans, monkeypatch)
        for plan, a, b in zip(plans, on, off):
            assert a == b, plan
        # A settled x word is the full solve's final x, bit for bit.
        compared = 0
        for i in decided["x"]:
            if i in on_x:  # not erased
                assert np.array_equal(
                    on_x[i].view(np.uint64), off_x[i].view(np.uint64)
                ), plans[i]
                compared += 1
        return decided, compared

    def test_side_16_campaign_rows(self, side16_context, monkeypatch):
        ctx = side16_context
        assert ctx.baseline.iterations < RECOMPUTE_EVERY
        plans = campaign_plans(ctx, seeds=range(3))
        decided, compared = self.check_both_ways(ctx, plans, monkeypatch)
        for rule, hits in decided.items():
            assert hits, rule
        assert compared > 200

    def test_recompute_every_4(self, monkeypatch):
        # With a recompute every 4 iterations, one opens inside the 6
        # iterations of the side-6 baseline, and inside every hang budget.
        monkeypatch.setattr(cg, "RECOMPUTE_EVERY", 4)
        *_, ctx = build_problem(side=6)
        last = ctx.baseline.iterations
        assert last > 4
        plans = campaign_plans(ctx, seeds=range(3))
        plans += draw_plans(ctx, "x", 500, seed=99)
        # Rows that a recompute refills from b: more Ar plans, some of
        # which empty an interior row (b is 0 there).
        plans += [plan for seed in range(3, 10)
                  for plan in draw_plans(ctx, "Ar", 100, seed)]
        decided, compared = self.check_both_ways(ctx, plans, monkeypatch)
        assert decided["emptied-row"] and decided["non-finite"]
        assert compared > 50
        # Iteration 4's recompute reads x flips landing in iterations 1
        # to 3, so those are solved.
        ords = [c.state.ordinal for c in ctx.baseline.checkpoints]
        landed = {i: resolve_visibility(ctx, plan)[0]
                  for i, plan in enumerate(plans) if plan.structure_id == "x"}
        guarded = {i for i, e in landed.items()
                   if e is not None and ords[1] <= e < ords[4]}
        assert len(guarded) > 20 and not guarded & decided["x"]

    def test_x_flips_at_the_edges_of_its_update(self, small_problem, monkeypatch):
        # Flips just before, on and past a word's x_update load and store,
        # as an iteration opens, and in the converging iteration.
        *_, ctx = small_problem
        cps = ctx.baseline.checkpoints
        last = len(cps) - 1
        x_len = X_UPDATE.length(ctx.n, ctx.nnz)
        ordinals = {0: [cps[last].state.ordinal + 1]}
        for t in (1, 3, last - 1):
            x_start = cps[t + 1].state.ordinal - x_len
            for w in (0, 9, ctx.n - 1):
                ordinals.setdefault(w, []).extend(
                    [cps[t].state.ordinal] + [x_start + 3 * w + k for k in range(-1, 4)]
                )
        # Here a plan's instant is its flip's apply ordinal.
        plans = [InjectionPlan("x", 64 * w + bit, e, 0, 0)
                 for w, es in ordinals.items() for e in es for bit in (30, 52, 62, 63)]
        monkeypatch.setattr(inject, "resolve_visibility",
                            lambda _ctx, plan: (plan.inject_time, "fill"))
        decided, compared = self.check_both_ways(ctx, plans, monkeypatch)
        assert len(decided["x"]) == len(plans)
        assert compared == len(plans) - 2 * 4 * 3 * 3  # two erasing ordinals

    def test_non_finite_g_alone_does_not_decide(self, small_problem):
        # A recompute rebuilds g from x, so a non-finite g with a finite x
        # says nothing about convergence.
        *_, ctx = small_problem
        plan = InjectionPlan("g", 64 * 3 + 62, 1, 0, 0)
        runner = _InjectedSolve(ctx, plan, 0)
        runner._restart()  # copies iteration 0's state vectors
        runner._apply()
        runner.arr["x"][:] = ctx.baseline.checkpoints[-1].vectors["x"]
        runner.arr["g"][3] = np.inf
        runner.t_cap = HANG_ITERS * ctx.baseline.iterations
        state = LoopState(t=RECOMPUTE_EVERY, eps_old=np.inf, alpha=0.5)
        assert not runner._non_finite(state)
        runner.boundary(state)  # does not end the run
        runner.arr["x"][7] = np.nan
        assert runner._non_finite(state)
        with pytest.raises(inject._Hung):
            runner.boundary(state)


def unbounded_row(ctx, plan):
    """A run left to go on to T_MAX, classified, then relabelled ``hang``
    if it had not converged before iteration HANG_ITERS times the
    baseline's."""
    bl = ctx.baseline
    hang_at = HANG_ITERS * bl.iterations
    apply_ord, reason = resolve_visibility(ctx, plan)
    runner = _FullSolve(ctx, plan, apply_ord)
    try:
        with np.errstate(all="ignore"):
            converged, iterations = runner.run(T_MAX)
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
        assert HANG_ITERS * ctx.baseline.iterations < T_MAX
        relabelled = 0
        for sid in self.STRUCTURES:
            for plan in draw_plans(ctx, sid, 100, seed=0):
                oc = run_one(ctx, plan)
                want = unbounded_row(ctx, plan)
                assert (oc.outcome, oc.iterations, oc.detail) == want, plan
                relabelled += want[0] == OUTCOME_HANG
        assert relabelled == 20


class TestCampaign:
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
                f"baseline={ctx.baseline.iterations} T={ctx.events.T} "
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
            f"T={ctx.events.T}\n"
            "run,structure,bit_index,inject_time,outcome,iterations,wall_time,"
            "detail\n"
            "0,Av,100,200,ACE,6,0.000101,silent\n"
        )
        before = path.read_bytes()
        with pytest.raises(ValueError, match="its schema is missing"):
            run_campaign(ctx, "Av", 4, seed=21, log_path=str(path))
        assert path.read_bytes() == before

    @staticmethod
    def edit_log_line(path, index, edit):
        """Replace line ``index`` of a log by ``edit`` of its cells."""
        lines = path.read_bytes().decode().split("\n")
        end = "\r" if lines[index].endswith("\r") else ""
        cells = lines[index].removesuffix("\r").split(",")
        lines[index] = ",".join(edit(cells)) + end
        path.write_bytes("\n".join(lines).encode())

    @pytest.mark.parametrize("index, edit, message", [
        (3, lambda c: c[:4] + ["bogus"] + c[5:],
         "logged run 1: unknown outcome 'bogus'"),
        (3, lambda c: ["0", "b", "5"], "logged run 1: 3 columns, want 8"),
        (3, lambda c: c[:5] + ["6.5"] + c[6:],
         "logged run 1: invalid literal for int() with base 10: '6.5'"),
        (1, lambda c: c[1:] + c[:1], "log refused: its columns are"),
    ], ids=["unknown-outcome", "short-row", "non-integer", "column-order"])
    def test_malformed_log_row_is_refused(
        self, small_problem, tmp_path, index, edit, message
    ):
        *_, ctx = small_problem
        path = tmp_path / "campaign.csv"
        run_campaign(ctx, "Av", 4, seed=21, log_path=str(path))
        self.edit_log_line(path, index, edit)
        before = path.read_bytes()
        with pytest.raises(ValueError) as exc:
            run_campaign(ctx, "Av", 8, seed=21, log_path=str(path))
        assert str(exc.value).startswith(f"{path}: {message}")
        assert path.read_bytes() == before

    @pytest.mark.parametrize("column, value", [
        (0, "2"), (1, "d"), (2, "7"), (3, "9"),
    ], ids=["run", "structure", "bit_index", "inject_time"])
    def test_log_row_off_the_plan_sequence_is_refused(
        self, small_problem, tmp_path, column, value
    ):
        # run, structure, bit_index, inject_time: each must be the plan's.
        *_, ctx = small_problem
        path = tmp_path / "campaign.csv"
        run_campaign(ctx, "Av", 4, seed=21, log_path=str(path))
        self.edit_log_line(
            path, 3, lambda c: c[:column] + [value] + c[column + 1:])
        with pytest.raises(ValueError, match=(
            "logged run 1 does not match the plan sequence for seed 21")):
            run_campaign(ctx, "Av", 8, seed=21, log_path=str(path))

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

    def test_parallel_matches_serial(self, small_problem, tmp_path):
        *_, ctx = small_problem
        rows, logs = {}, {}
        for parallel in (1, 2):
            got = rows[parallel] = []
            log = tmp_path / f"parallel{parallel}.csv"
            run_campaign(
                ctx, "Ac", 30, seed=3, log_path=log, parallel=parallel,
                progress=lambda _i, _n, oc: got.append(
                    dataclasses.replace(oc, wall_time=0.0)
                ),
            )
            logs[parallel] = log.read_bytes()
        assert len(rows[1]) == 30 and len({oc.outcome for oc in rows[1]}) > 1
        assert rows[1] == rows[2]
        assert logs[1] == logs[2]

    def test_campaign_result_serialization(self, small_problem):
        *_, ctx = small_problem
        r = run_campaign(ctx, "b", 6, seed=13)
        doc = r.to_dict()
        assert doc["structure"] == "b"
        assert doc["runs"] == 6
        assert sum(doc["tally"].values()) == 6
        assert 0.0 <= doc["p_unace"] <= 1.0
