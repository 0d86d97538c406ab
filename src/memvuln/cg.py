"""Conjugate-gradient benchmark on a 3D Poisson 27-point stencil.

The solver follows the classic double-buffered formulation: the residual
is recomputed from scratch every 50 iterations and updated incrementally
otherwise, the two direction buffers swap roles at the end of every
iteration, and all reductions run in a fixed blocked order so fault-free
runs are bit-reproducible.

An optional observer sees every logical load and store to the nine
tracked structures.  It implements two methods: ``register_structures(smap)``
receives the ``StructureMap`` of the layout once, before any access, and
``emit(kinds, addrs)`` receives each block of accesses in program order,
as uint8 kinds (``KIND_LOAD`` or ``KIND_STORE``) and the uint64 byte
addresses of the 64-bit words they touch.

The phase table (``Phase`` and ``PHASES``) is the one description of the
access layout: each of the seven phases lists its per-element accesses
(or, for a sparse sweep, its source vector and per-row trailer) and owns
the arithmetic that places an access in the stream.  The access emitter
builds its blocks from it, and the injector (``inject._InjectedSolve``)
finds from it where a flipped word is read or written.  Both run the
recurrence through the one loop, ``iterate``, with their own hooks; the
loop can resume from a saved state (``LoopState`` and the vectors),
which is how injected runs skip the fault-free prefix.

``memory_image`` is the one statement of what a solve works on: the
nine tracked structures by name, the inputs shared with the problem and
the ``STATE_VECTORS`` zeroed.  ``solve``, the injector's baseline and
its injected runs all start from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .trace import (
    KIND_LOAD,
    KIND_STORE,
    TRACKED_STRUCTURES,
    StructureMap,
    StructureRegion,
)

#: Hard cap on generated rows (side 512).  A row holds up to 27 CSR
#: entries of 16 bytes, so the cap alone means about 58 GB of matrix in
#: host memory; a larger side is refused before anything is allocated.
MAX_ROWS = 1 << 27

#: Fixed block length for deterministic reductions.
REDUCE_BLOCK = 4096

#: Iteration cap of a solve.
T_MAX = 2000

#: Every structure starts on a page of this many bytes.
PAGE = 4096


class CapacityError(ValueError):
    """Requested problem size is beyond ``MAX_ROWS``."""


class CgBreakdownError(RuntimeError):
    """<q, d> collapsed to exactly zero (possible only under injected faults)."""


@dataclass
class CsrMatrix:
    n_rows: int
    row_ptr: np.ndarray  # int64, n_rows + 1
    col_idx: np.ndarray  # int64, nnz
    values: np.ndarray  # float64, nnz

    @property
    def nnz(self) -> int:
        return len(self.col_idx)

    def nz_rows(self) -> np.ndarray:
        """The row of each nonzero (int64, nnz)."""
        rows = np.arange(self.n_rows, dtype=np.int64)
        return np.repeat(rows, np.diff(self.row_ptr))


def generate_poisson27(side: int) -> CsrMatrix:
    """27-point stencil on a side**3 grid: diagonal 26, neighbors -1.

    Boundary rows are truncated (fewer neighbors), which keeps the matrix
    irreducibly diagonally dominant and hence symmetric positive definite.
    """
    if side < 2:
        raise ValueError("side must be at least 2")
    n = side**3
    if n > MAX_ROWS:
        raise CapacityError(f"side={side} yields {n} rows; limit is {MAX_ROWS}")
    idx = np.arange(n, dtype=np.int64)
    z, rem = np.divmod(idx, side * side)
    y, x = np.divmod(rem, side)
    rows_parts = []
    cols_parts = []
    vals_parts = []
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                nz, ny, nx = z + dz, y + dy, x + dx
                ok = (
                    (0 <= nz)
                    & (nz < side)
                    & (0 <= ny)
                    & (ny < side)
                    & (0 <= nx)
                    & (nx < side)
                )
                rows_parts.append(idx[ok])
                cols_parts.append(((nz * side + ny) * side + nx)[ok])
                weight = 26.0 if (dz, dy, dx) == (0, 0, 0) else -1.0
                vals_parts.append(np.full(int(ok.sum()), weight))
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    vals = np.concatenate(vals_parts)
    order = np.lexsort((cols, rows))
    rows = rows[order]
    cols = cols[order]
    vals = vals[order]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
    return CsrMatrix(n, row_ptr, cols.astype(np.int64), vals)


def norm2_blocked(v: np.ndarray) -> float:
    """Sum of squares in a fixed blocked order (bit-reproducible)."""
    total = 0.0
    for i in range(0, len(v), REDUCE_BLOCK):
        seg = v[i : i + REDUCE_BLOCK]
        total += float(np.add.reduce(seg * seg))
    return total


def dot_blocked(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    for i in range(0, len(a), REDUCE_BLOCK):
        j = i + REDUCE_BLOCK
        total += float(np.add.reduce(a[i:j] * b[i:j]))
    return total


def spmv(A: CsrMatrix, v: np.ndarray, out=None) -> np.ndarray:
    """out = A @ v. Rows must be non-empty (true for all generated matrices)."""
    # Taking into a fresh array: with ``out=`` numpy would buffer the whole
    # take before copying it.
    prod = np.take(v, A.col_idx)
    np.multiply(A.values, prod, out=prod)
    if out is None:
        out = np.empty(A.n_rows)
    np.add.reduceat(prod, A.row_ptr[:-1], out=out)
    return out


#: The vectors a solve writes; it only ever reads the other structures.
STATE_VECTORS = ("x", "g", "d", "dp", "q")


def memory_image(A: CsrMatrix, b: np.ndarray) -> dict:
    """The arrays of the nine tracked structures, by name, as a solve
    starts: the inputs are ``A``'s arrays and ``b`` themselves, not
    copies, and each of the ``STATE_VECTORS`` is a fresh zero vector."""
    inputs = {"Ar": A.row_ptr, "Ac": A.col_idx, "Av": A.values, "b": b}
    return {name: inputs[name] if name in inputs else np.zeros(A.n_rows)
            for name in TRACKED_STRUCTURES}


@dataclass
class SolveRecord:
    iterations: int
    converged: bool
    final_residual_norm_sq: float
    verified: bool
    x: np.ndarray = field(repr=False, compare=False)  # the final iterate


def verify(A: CsrMatrix, b: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """Recompute ||b - A x||^2 against the supplied (pristine) inputs."""
    r = b - spmv(A, x)
    return norm2_blocked(r) < tol


def default_tol(b: np.ndarray, factor: float = 1e-8) -> float:
    return factor * norm2_blocked(b)


def default_structure_map(A: CsrMatrix) -> StructureMap:
    """Page-aligned flat layout of the nine tracked structures."""
    words = {"Ar": A.n_rows + 1, "Ac": A.nnz, "Av": A.nnz}
    regions = []
    base = 0
    for name in TRACKED_STRUCTURES:
        length = 8 * words.get(name, A.n_rows)
        regions.append(StructureRegion(name, base, length))
        base += -(-length // PAGE) * PAGE
    return StructureMap(regions)


# ---------------------------------------------------------------------------
# Phase table


def _role(name, parity: int):
    """The buffer playing role ``name`` at this parity; d and dp swap."""
    if parity and name in ("d", "dp"):
        return "dp" if name == "d" else "d"
    return name


class Phase(NamedTuple):
    """One solver phase, as the memory hierarchy sees it.

    ``ops`` lists the (operand, kind) accesses the phase makes for each
    element, in stream order.  A sparse sweep (``src`` set) reads each row
    as its two row-pointer loads, a (column, value, source) load triplet
    per nonzero, and then ``ops`` as the row's trailer.  The operands
    ``d`` and ``dp`` are roles that swap buffers with parity.  Every
    ordinal is an access's offset from the start of the phase's block.
    """

    name: str
    ops: tuple
    src: str | None = None

    def operands(self, parity: int) -> tuple:
        return tuple((_role(name, parity), kind) for name, kind in self.ops)

    def source(self, parity: int):
        return _role(self.src, parity)

    def nz_operands(self, parity: int) -> tuple:
        """The operands of a nonzero's column, value and source loads."""
        return ("Ac", "Av", self.source(parity))

    @property
    def _row_len(self) -> int:
        """A sweep's accesses per row outside its nonzeros."""
        return 2 + len(self.ops)

    def length(self, n: int, nnz: int) -> int:
        if self.src is None:
            return len(self.ops) * n
        return self._row_len * n + 3 * nnz

    def op_ord(self, k, i, row_ptr):
        """Access k of ``ops`` for element i, or in row i's trailer."""
        if self.src is None:
            return len(self.ops) * i + k
        return self._row_len * i + 3 * row_ptr[i + 1] + 2 + k

    def row_ptr_ord(self, k, r, row_ptr):
        """Row r's row-pointer load k, which reads entry r + k."""
        return self._row_len * r + 3 * row_ptr[r] + k

    def nz_ord(self, k, j, row):
        """Load k (column, value, source) of nonzero j, which lies in row."""
        return self._row_len * row + 2 + 3 * j + k


G_RECOMPUTE = Phase("g_recompute", (("b", KIND_LOAD), ("g", KIND_STORE)), src="x")
G_AXPY = Phase("g_axpy", (("g", KIND_LOAD), ("q", KIND_LOAD), ("g", KIND_STORE)))
EPS = Phase("eps", (("g", KIND_LOAD),))
D_UPDATE = Phase(
    "d_update", (("dp", KIND_LOAD), ("g", KIND_LOAD), ("d", KIND_STORE))
)
Q_SPMV = Phase("q_spmv", (("q", KIND_STORE),), src="d")
ALPHA_DOT = Phase("alpha_dot", (("q", KIND_LOAD), ("d", KIND_LOAD)))
X_UPDATE = Phase(
    "x_update", (("x", KIND_LOAD), ("d", KIND_LOAD), ("x", KIND_STORE))
)
PHASES = (G_RECOMPUTE, G_AXPY, EPS, D_UPDATE, Q_SPMV, ALPHA_DOT, X_UPDATE)

#: The residual is recomputed from scratch every RECOMPUTE_EVERY
#: iterations and updated otherwise.
RECOMPUTE_EVERY = 50


class LoopState(NamedTuple):
    """The solver loop's scalars as iteration ``t`` opens.

    Together with the vectors they are the whole state of a solve:
    ``eps_old`` and ``alpha`` are the previous iteration's residual norm
    and step, and ``parity`` says which buffer plays ``d``.
    """

    t: int = 0
    eps_old: float = float("inf")
    alpha: float = 0.0
    parity: int = 0


def _no_hook(*_args) -> None:
    pass


def iterate(
    arr: dict,
    tol,
    t_max,
    open_phase,
    product,
    native=False,
    start=LoopState(),
    boundary=_no_hook,
):
    """The solver loop over the memory image ``arr`` (see ``memory_image``).

    ``open_phase(phase, t, parity)`` runs as each phase opens and
    ``product(phase, parity, out)`` writes a sweep's sparse product to
    ``out``.  The loop resumes at ``start``, with ``arr`` holding the
    vectors as they stood then, and passes its state to
    ``boundary(state)`` as each iteration opens.  Returns (converged,
    iterations, eps), where iterations is the loop index at which the
    convergence test fired.  A zero <q, d> raises CgBreakdownError
    unless ``native``, which keeps the float semantics of the compiled
    program: the run goes on with inf or nan.
    """
    b, x, g, q = arr["b"], arr["x"], arr["g"], arr["q"]
    t0, eps_old, alpha, parity = start
    d, dp = arr[_role("d", parity)], arr[_role("dp", parity)]
    scratch = np.empty(len(x))
    eps = float("inf")
    for t in range(t0, t_max):
        boundary(LoopState(t, eps_old, alpha, parity))
        if t % RECOMPUTE_EVERY == 0:
            open_phase(G_RECOMPUTE, t, parity)
            product(G_RECOMPUTE, parity, g)
            np.subtract(b, g, out=g)
        else:
            open_phase(G_AXPY, t, parity)
            np.multiply(q, alpha, out=scratch)
            np.subtract(g, scratch, out=g)
        open_phase(EPS, t, parity)
        eps = norm2_blocked(g)
        if eps < tol:
            return True, t, eps
        beta = eps / eps_old  # eps_old failed the test, so it is not 0
        open_phase(D_UPDATE, t, parity)
        np.multiply(dp, beta, out=d)
        d += g
        open_phase(Q_SPMV, t, parity)
        product(Q_SPMV, parity, q)
        open_phase(ALPHA_DOT, t, parity)
        denom = dot_blocked(q, d)
        if denom != 0.0:
            alpha = eps / denom
        elif native:
            alpha = float(np.float64(eps) / denom)  # inf or nan
        else:
            raise CgBreakdownError(f"<q,d> = 0 at iteration {t}")
        open_phase(X_UPDATE, t, parity)
        np.multiply(d, alpha, out=scratch)
        x += scratch
        eps_old = eps
        d, dp = dp, d
        parity ^= 1
    return False, t_max, eps


def solve(
    A: CsrMatrix,
    b: np.ndarray,
    *,
    tol: float,
    t_max: int = T_MAX,
    observer=None,
) -> SolveRecord:
    """Run the solver loop (``iterate``) and verify against (A, b).

    A NaN residual never satisfies the convergence test, so poisoned runs
    fall through to t_max and fail verification.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(b) != A.n_rows:
        raise ValueError("dimension mismatch")
    if np.any(np.diff(A.row_ptr) == 0):
        raise ValueError("matrices with empty rows are not supported")
    arr = memory_image(A, b)

    def product(phase, parity, out):
        spmv(A, arr[phase.source(parity)], out=out)

    open_phase = _no_hook
    if observer is not None:
        emitter = _AccessEmitter(A, observer)
        observer.register_structures(emitter.smap)

        def open_phase(phase, t, parity):
            emitter.emit(phase, parity)

    converged, iterations, eps = iterate(arr, tol, t_max, open_phase, product)

    verified = converged and verify(A, b, arr["x"], tol)
    return SolveRecord(iterations, converged, float(eps), verified, arr["x"])


class _AccessEmitter:
    """Streams each phase's access block, built from the phase table.

    A phase's block is the same every iteration up to the parity of the
    direction buffers, so blocks are cached per phase and resolved
    operands and streamed to the observer in bounded chunks.  The
    ``g_recompute`` block opens only once every ``RECOMPUTE_EVERY``
    iterations and is built afresh each time instead of held.
    """

    CHUNK = 1 << 20

    def __init__(self, A: CsrMatrix, observer):
        self.A = A
        self.obs = observer
        self.smap = default_structure_map(A)
        self._base = {r.name: r.base for r in self.smap.regions}
        self._cache: dict = {}

    def emit(self, phase: Phase, parity: int) -> None:
        kinds, addrs = self._template(phase, parity)
        for i in range(0, len(kinds), self.CHUNK):
            self.obs.emit(kinds[i : i + self.CHUNK], addrs[i : i + self.CHUNK])

    def _template(self, phase: Phase, parity: int):
        key = (phase.name, phase.operands(parity), phase.source(parity))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        A = self.A
        size = phase.length(A.n_rows, A.nnz)
        kinds = np.empty(size, dtype=np.uint8)
        addrs = np.empty(size, dtype=np.uint64)

        def put(pos, name, kind, idx):
            kinds[pos] = kind
            addrs[pos] = self._base[name] + 8 * np.asarray(idx, dtype=np.uint64)

        rows = np.arange(A.n_rows, dtype=np.int64)
        for k, (name, kind) in enumerate(phase.operands(parity)):
            put(phase.op_ord(k, rows, A.row_ptr), name, kind, rows)
        if phase.src is not None:
            for k in (0, 1):
                put(phase.row_ptr_ord(k, rows, A.row_ptr), "Ar", KIND_LOAD, rows + k)
            j = np.arange(A.nnz, dtype=np.int64)
            row_of = A.nz_rows()
            for k, (name, idx) in enumerate(
                zip(phase.nz_operands(parity), (j, j, A.col_idx))
            ):
                put(phase.nz_ord(k, j, row_of), name, KIND_LOAD, idx)
        if phase is not G_RECOMPUTE:
            self._cache[key] = (kinds, addrs)
        return kinds, addrs
