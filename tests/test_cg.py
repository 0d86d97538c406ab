"""Solver, matrix generation, and access-observation tests."""

import numpy as np
import pytest
import scipy.sparse as sp

from memvuln import cg
from memvuln.trace import KIND_LOAD, KIND_STORE

from observers import CollectingObserver, in_region


def as_scipy(A):
    return sp.csr_matrix((A.values, A.col_idx, A.row_ptr), shape=(A.n_rows, A.n_rows))


def diagonal_csr(diag):
    """Diagonal CSR matrix (converges in one CG iteration)."""
    n = len(diag)
    idx = np.arange(n + 1, dtype=np.int64)
    return cg.CsrMatrix(n, idx, idx[:-1].copy(), np.asarray(diag, dtype=np.float64))


def brute_force_neighbor_count(side, row):
    """Count grid neighbors (incl. self) by direct enumeration."""
    z, rem = divmod(row, side * side)
    y, x = divmod(rem, side)
    count = 0
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if 0 <= z + dz < side and 0 <= y + dy < side and 0 <= x + dx < side:
                    count += 1
    return count


class TestGenerate:
    def test_side2_complete_neighborhood(self):
        A = cg.generate_poisson27(2)
        assert A.n_rows == 8
        assert np.all(np.diff(A.row_ptr) == 8)
        assert A.row_ptr.dtype == np.int64 and A.col_idx.dtype == np.int64
        assert len(A.row_ptr) == A.n_rows + 1
        assert A.row_ptr[0] == 0 and A.row_ptr[-1] == A.nnz
        assert A.col_idx.min() >= 0 and A.col_idx.max() < A.n_rows

    def test_side3_center_and_corner(self):
        A = cg.generate_poisson27(3)
        deg = np.diff(A.row_ptr)
        assert deg[13] == 27
        assert deg[0] == 8

    def test_degrees_match_brute_force(self):
        side = 4
        A = cg.generate_poisson27(side)
        deg = np.diff(A.row_ptr)
        for row in range(side**3):
            assert deg[row] == brute_force_neighbor_count(side, row)

    def test_symmetric(self):
        A = as_scipy(cg.generate_poisson27(4))
        assert (A != A.T).nnz == 0

    def test_positive_definite_samples(self):
        A = as_scipy(cg.generate_poisson27(3))
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = rng.standard_normal(A.shape[0])
            assert v @ (A @ v) > 0

    def test_weights(self):
        A = cg.generate_poisson27(3)
        S = as_scipy(A)
        assert np.all(S.diagonal() == 26.0)
        off = A.values[A.values != 26.0]
        assert np.all(off == -1.0)

    @pytest.mark.parametrize("side", (2, 3, 4, 5))
    def test_matches_plain_loop_in_column_order(self, side):
        # Every sweep sums a row in column order, so the order is part of
        # the matrix: rows in order, each row's columns ascending.
        def coords(i):
            z, rem = divmod(i, side * side)
            return (z, *divmod(rem, side))

        n = side**3
        row_of, cols, vals = [], [], []
        for row in range(n):
            for col in range(n):
                if max(abs(a - c) for a, c in zip(coords(row), coords(col))) <= 1:
                    row_of.append(row)
                    cols.append(col)
                    vals.append(26.0 if col == row else -1.0)
        A = cg.generate_poisson27(side)
        assert A.nz_rows().tolist() == row_of
        assert A.col_idx.tolist() == cols
        assert A.values.tolist() == vals

    def test_side_too_small(self):
        with pytest.raises(ValueError):
            cg.generate_poisson27(1)

    def test_capacity_limit(self):
        with pytest.raises(cg.CapacityError):
            cg.generate_poisson27(1024)


class TestSpmv:
    def test_matches_scipy(self):
        A = cg.generate_poisson27(3)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(A.n_rows)
        assert np.allclose(cg.spmv(A, v), as_scipy(A) @ v)

    def test_preallocated_buffers(self):
        A = cg.generate_poisson27(3)
        v = np.arange(A.n_rows, dtype=float)
        out = np.empty(A.n_rows)
        assert cg.spmv(A, v, out=out) is out
        assert np.array_equal(out, cg.spmv(A, v))

    def test_corrupted_column_index_raises(self):
        A = cg.generate_poisson27(3)
        A.col_idx[5] = A.n_rows + (1 << 40)
        with pytest.raises(IndexError):
            cg.spmv(A, np.ones(A.n_rows))


class TestReductions:
    def test_norm2_blocked_value(self):
        v = np.arange(10000, dtype=float)
        assert cg.dot_blocked(v, v) == pytest.approx(float(np.sum(v * v)), rel=1e-12)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(100000)
        assert cg.dot_blocked(v, v) == cg.dot_blocked(v.copy(), v.copy())


class TestSolve:
    def test_diagonal_converges_in_one_iteration(self):
        # A scaled identity has a single eigenvalue, so CG needs one step.
        A = diagonal_csr(np.full(64, 2.0))
        b = np.random.default_rng(5).standard_normal(64)
        rec = cg.solve(A, b, tol=cg.default_tol(b))
        assert rec.converged and rec.iterations == 1
        assert rec.verified

    def test_poisson_converges_and_verifies(self):
        for side in (2, 3, 4, 8):
            A = cg.generate_poisson27(side)
            b = cg.spmv(A, np.ones(A.n_rows))
            rec = cg.solve(A, b, tol=cg.default_tol(b))
            assert rec.converged
            assert rec.verified
            assert rec.final_residual_norm_sq < cg.default_tol(b)

    def test_repeated_runs_identical(self):
        A = cg.generate_poisson27(8)
        b = cg.spmv(A, np.ones(A.n_rows))
        tol = cg.default_tol(b)
        base = cg.solve(A, b, tol=tol)
        xs = []
        for _ in range(100):
            rec = cg.solve(A, b, tol=tol)
            assert rec.iterations == base.iterations
            xs.append(rec.x)
        for x in xs[1:]:
            assert np.array_equal(x, xs[0])

    def test_iterations_capped(self):
        A = cg.generate_poisson27(4)
        b = cg.spmv(A, np.ones(A.n_rows))
        rec = cg.solve(A, b, tol=1e-300, t_max=3)
        assert not rec.converged
        assert rec.iterations == 3
        assert not rec.verified

    def test_breakdown_raises(self):
        # Indefinite permutation matrix makes <q, d> vanish at t=0.
        A = cg.CsrMatrix(
            2,
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            np.array([1.0, 1.0]),
        )
        b = np.array([1.0, 0.0])
        with pytest.raises(cg.CgBreakdownError):
            cg.solve(A, b, tol=1e-12)

    def test_nan_poisoning_runs_to_cap(self):
        A = cg.generate_poisson27(2)
        b = cg.spmv(A, np.ones(A.n_rows))
        b[0] = np.nan
        rec = cg.solve(A, b, tol=1e-8, t_max=5)
        assert not rec.converged and rec.iterations == 5

    def test_verify_trivial_cases(self):
        rng = np.random.default_rng(11)
        diag = rng.uniform(1.0, 2.0, 16)
        A = diagonal_csr(diag)
        b = rng.standard_normal(16)
        assert cg.verify(A, b, b / diag, 1e-20)
        assert not cg.verify(A, b, np.zeros(16), 1e-8)


# ---------------------------------------------------------------------------
# Observed-access oracle: replay the solver's logical access pattern with a
# plain per-element loop and demand exact sequence equality.


def oracle_phase(A, name, parity):
    """One phase's accesses, as (kind, structure, index), by a plain loop."""
    d_name, dp_name = ("d", "dp") if parity == 0 else ("dp", "d")
    n = A.n_rows
    out = []

    def ev(kind, name, i):
        out.append((kind, name, int(i)))

    def spmv_like(src, trailer):
        for r in range(n):
            ev(KIND_LOAD, "Ar", r)
            ev(KIND_LOAD, "Ar", r + 1)
            for j in range(A.row_ptr[r], A.row_ptr[r + 1]):
                ev(KIND_LOAD, "Ac", j)
                ev(KIND_LOAD, "Av", j)
                ev(KIND_LOAD, src, A.col_idx[j])
            for name, kind in trailer:
                ev(kind, name, r)

    if name == "g_recompute":
        spmv_like("x", [("b", KIND_LOAD), ("g", KIND_STORE)])
    elif name == "q_spmv":
        spmv_like(d_name, [("q", KIND_STORE)])
    else:
        ops = {
            "g_axpy": [(KIND_LOAD, "g"), (KIND_LOAD, "q"), (KIND_STORE, "g")],
            "eps": [(KIND_LOAD, "g")],
            "d_update": [
                (KIND_LOAD, dp_name), (KIND_LOAD, "g"), (KIND_STORE, d_name)
            ],
            "alpha_dot": [(KIND_LOAD, "q"), (KIND_LOAD, d_name)],
            "x_update": [(KIND_LOAD, "x"), (KIND_LOAD, d_name), (KIND_STORE, "x")],
        }[name]
        for i in range(n):
            for kind, op in ops:
                ev(kind, op, i)
    return out


def oracle_event_stream(A, smap, iterations, converged):
    base = {r.name: r.base for r in smap.regions}
    phases = []
    for t in range(iterations + 1 if converged else iterations):
        parity = t % 2
        phases.append(("g_recompute" if t % 50 == 0 else "g_axpy", parity))
        phases.append(("eps", parity))
        if converged and t == iterations:
            break
        for name in ("d_update", "q_spmv", "alpha_dot", "x_update"):
            phases.append((name, parity))
    events = [e for name, parity in phases for e in oracle_phase(A, name, parity)]
    return (
        np.array([k for k, _, _ in events], dtype=np.uint8),
        np.array([base[s] + 8 * i for _, s, i in events], dtype=np.uint64),
    )


class TestPhaseTable:
    """The table's lengths and ordinals against the loop oracle's blocks
    and the emitter's, for every phase and parity."""

    def decode(self, smap, kinds, addrs):
        regions = list(smap)
        out = []
        for kind, addr in zip(kinds.tolist(), addrs.tolist()):
            reg = next(r for r in regions if r.base <= addr < r.end)
            out.append((kind, reg.name, (addr - reg.base) // 8))
        return out

    @pytest.mark.parametrize("phase", cg.PHASES, ids=lambda p: p.name)
    @pytest.mark.parametrize("parity", (0, 1))
    def test_ordinals_locate_every_access(self, phase, parity):
        A = cg.generate_poisson27(3)
        n, rp = A.n_rows, A.row_ptr
        want = oracle_phase(A, phase.name, parity)
        obs = CollectingObserver()
        emitter = cg._AccessEmitter(A, obs)
        emitter.emit(phase, parity)
        kinds, addrs = obs.arrays()
        assert phase.length(n, A.nnz) == len(want) == len(kinds)
        assert self.decode(emitter.smap, kinds, addrs) == want
        for k, (name, kind) in enumerate(phase.operands(parity)):
            for i in range(n):
                assert want[phase.op_ord(k, i, rp)] == (kind, name, i)
        if phase.src is None:
            return
        for r in range(n):
            for k in (0, 1):
                assert want[phase.row_ptr_ord(k, r, rp)] == (KIND_LOAD, "Ar", r + k)
        for r in range(n):
            for j in range(rp[r], rp[r + 1]):
                idx = (j, j, A.col_idx[j])
                for k, name in enumerate(phase.nz_operands(parity)):
                    assert want[phase.nz_ord(k, j, r)] == (KIND_LOAD, name, idx[k])


class TestLoopCursor:
    """The loop is the one access cursor: each phase opens at the offset of
    its block in the emitted stream, and ``next_recompute`` agrees with
    the loop's residual schedule."""

    @pytest.mark.parametrize("every", (2, 3))
    def test_open_phase_gets_its_block_offset(self, monkeypatch, every):
        # Recomputes every 2 iterations make both residual phases occur;
        # every 3, each phase opens at both parities.
        monkeypatch.setattr(cg, "RECOMPUTE_EVERY", every)
        A = cg.generate_poisson27(3)
        b = cg.spmv(A, np.ones(A.n_rows))
        obs = CollectingObserver()
        opened, states = [], []
        iterate = cg.iterate

        def spy(arr, tol, t_max, open_phase, product, **kw):
            def hook(phase, parity, at):
                opened.append((phase.name, parity, at, obs.n_events))
                open_phase(phase, parity, at)

            def boundary(state):
                states.append((state.ordinal, obs.n_events))
                kw["boundary"](state)

            return iterate(arr, tol, t_max, hook, product,
                           **kw | {"boundary": boundary})

        monkeypatch.setattr(cg, "iterate", spy)
        checkpoints = []
        rec = cg.solve(A, b, tol=cg.default_tol(b), observer=obs,
                       checkpoints=checkpoints)
        assert rec.converged and rec.iterations >= every
        assert [at for *_, at, _ in opened] == [n for *_, n in opened]
        assert [at for at, _ in states] == [n for _, n in states]
        assert [c.state.ordinal for c in checkpoints] == [at for at, _ in states]
        seen = {(name, parity) for name, parity, *_ in opened}
        assert {"g_recompute", "g_axpy"} <= {name for name, _ in seen}
        if every == 3:
            assert seen == {(p.name, parity) for p in cg.PHASES for parity in (0, 1)}

    @pytest.mark.parametrize("kept", ("all", "first"))
    @pytest.mark.parametrize("every", (2, 3))
    def test_locate_places_every_access(self, monkeypatch, every, kept):
        # Every access of the solve, located from its checkpoints (all of
        # them, or checkpoint 0 alone), lies in the phase the loop opened
        # around it, at its offset there.
        monkeypatch.setattr(cg, "RECOMPUTE_EVERY", every)
        A = cg.generate_poisson27(3)
        b = cg.spmv(A, np.ones(A.n_rows))
        tol = cg.default_tol(b)
        checkpoints = []
        cg.solve(A, b, tol=tol, checkpoints=checkpoints)
        if kept == "first":
            checkpoints = checkpoints[:1]
        opened, t = [], None

        def boundary(state):
            nonlocal t
            t = state.t

        def open_phase(phase, parity, at):
            opened.append((t, phase, at))

        arr = cg.memory_image(A, b)

        def product(phase, parity, out):
            cg.spmv(A, arr[phase.source(parity)], out=out)

        cg.iterate(arr, tol, cg.T_MAX, open_phase, product, boundary=boundary)
        assert {"g_recompute", "g_axpy"} <= {phase.name for _, phase, _ in opened}
        for it, phase, at in opened:
            for offset in range(phase.length(A.n_rows, A.nnz)):
                got = cg.locate(checkpoints, at + offset, A.n_rows, A.nnz)
                assert got == (it, phase, offset)

    @pytest.mark.parametrize("every", (50, 4))
    def test_next_recompute(self, monkeypatch, every):
        monkeypatch.setattr(cg, "RECOMPUTE_EVERY", every)
        for t in range(201):
            nxt = cg.next_recompute(t)
            assert (nxt == t) == (t % every == 0)
            assert t <= nxt < t + every and nxt % every == 0


class TestObservedAccesses:
    def run_observed(self, side):
        A = cg.generate_poisson27(side)
        b = cg.spmv(A, np.ones(A.n_rows))
        obs = CollectingObserver()
        rec = cg.solve(A, b, tol=cg.default_tol(b), observer=obs)
        return A, obs, rec

    def test_exact_sequence_matches_loop_oracle(self):
        A, obs, rec = self.run_observed(2)
        kinds, addrs = obs.arrays()
        ok, oa = oracle_event_stream(A, obs.smap, rec.iterations, rec.converged)
        assert np.array_equal(kinds, ok)
        assert np.array_equal(addrs, oa)

    def test_exact_sequence_past_a_recompute(self):
        # A NaN right-hand side runs to the cap, so g_recompute opens at
        # t=0 and again at t=50, after the emitter has dropped its block.
        A = cg.generate_poisson27(2)
        b = cg.spmv(A, np.ones(A.n_rows))
        b[0] = np.nan
        obs = CollectingObserver()
        rec = cg.solve(A, b, tol=1e-8, t_max=52, observer=obs)
        assert rec.iterations == 52 and not rec.converged
        want = oracle_event_stream(A, obs.smap, rec.iterations, rec.converged)
        for got, ref in zip(obs.arrays(), want):
            assert np.array_equal(got, ref)

    def test_exact_sequence_side3(self):
        A, obs, rec = self.run_observed(3)
        kinds, addrs = obs.arrays()
        ok, oa = oracle_event_stream(A, obs.smap, rec.iterations, rec.converged)
        assert np.array_equal(kinds, ok)
        assert np.array_equal(addrs, oa)

    def test_sparse_sweep_loads_per_structure(self):
        A, obs, rec = self.run_observed(2)
        kinds, addrs = obs.arrays()
        n = A.n_rows
        for name in ("Ac", "Av", "Ar"):
            loads = np.sum(in_region(obs.smap, name, addrs) & (kinds == KIND_LOAD))
            assert loads >= n

    def test_observer_does_not_change_math(self):
        A = cg.generate_poisson27(4)
        b = cg.spmv(A, np.ones(A.n_rows))
        tol = cg.default_tol(b)
        r1 = cg.solve(A, b, tol=tol)
        r2 = cg.solve(A, b, tol=tol, observer=CollectingObserver())
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.x, r2.x)

    def test_memory_image_shares_inputs_and_zeroes_state(self):
        A = cg.generate_poisson27(3)
        b = cg.spmv(A, np.ones(A.n_rows))
        image = cg.memory_image(A, b)
        assert list(image) == cg.default_structure_map(A).names()
        for name, array in (("Ar", A.row_ptr), ("Ac", A.col_idx),
                            ("Av", A.values), ("b", b)):
            assert image[name] is array
        state = [image[name] for name in cg.STATE_VECTORS]
        assert len({id(v) for v in state}) == 5
        assert all(np.array_equal(v, np.zeros(A.n_rows)) for v in state)

    def test_structure_map_geometry(self):
        A = cg.generate_poisson27(2)
        smap = cg.default_structure_map(A)
        assert smap.names() == ["Ar", "Ac", "Av", "x", "b", "g", "d", "dp", "q"]
        assert smap.region("Ar").length == (A.n_rows + 1) * 8
        assert smap.region("Ac").length == A.nnz * 8
        for reg in smap:
            assert reg.base % 4096 == 0

    def test_empty_roi_when_no_iterations(self):
        A = cg.generate_poisson27(2)
        b = cg.spmv(A, np.ones(A.n_rows))
        obs = CollectingObserver()
        cg.solve(A, b, tol=1e-8, t_max=0, observer=obs)
        assert obs.smap is not None
        assert obs.n_events == 0
