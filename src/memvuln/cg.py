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
loop is the one access cursor, and can resume from a ``Checkpoint``
(which ``solve`` keeps on request), which is how injected runs skip the
fault-free prefix.  ``next_recompute`` says which iterations recompute
and ``t & 1`` which buffer plays ``d`` in iteration ``t``; ``locate``
inverts the cursor, placing any access of a solve from its checkpoints.

``memory_image`` is the one statement of what a solve works on: the
nine tracked structures by name, the inputs shared with the problem and
the ``STATE_VECTORS`` zeroed.  ``solve`` starts from it, and so do the
injector's runs, from the inputs and a checkpoint's vectors.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .trace import (
    KIND_LOAD,
    KIND_STORE,
    SWAPPED_BUFFERS,
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
    step = np.array([-1, 0, 1], dtype=np.int64)
    pos = np.add.outer(np.arange(side), step)
    on = (0 <= pos) & (pos < side)  # on[c, k]: c + step[k] is on the grid
    # ok[z, y, x, dz, dy, dx]: the neighbour lies on the grid.
    ok = (on[:, None, None, :, None, None] & on[None, :, None, None, :, None]
          & on[None, None, :, None, None, :]).reshape(n, 27)
    shift = np.add.outer(np.add.outer(step * side * side, step * side), step).ravel()
    # A row's neighbours in (dz, dy, dx) order are in ascending column
    # order, so each row comes out sorted.
    cols = np.add.outer(np.arange(n, dtype=np.int64), shift)[ok]
    vals = np.broadcast_to(np.where(shift == 0, 26.0, -1.0), ok.shape)[ok]
    row_ptr = np.concatenate(([0], np.cumsum(ok.sum(axis=1))))
    return CsrMatrix(n, row_ptr, cols, vals)


def dot_blocked(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product in a fixed blocked order (bit-reproducible)."""
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
    return dot_blocked(r, r) < tol


def default_tol(b: np.ndarray, factor: float = 1e-8) -> float:
    return factor * dot_blocked(b, b)


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
    if parity and name in SWAPPED_BUFFERS:
        first, second = SWAPPED_BUFFERS
        return second if name == first else first
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


def next_recompute(t: int) -> int:
    """The first iteration at or after ``t`` that recomputes the residual."""
    return -(-t // RECOMPUTE_EVERY) * RECOMPUTE_EVERY


class LoopState(NamedTuple):
    """The solver loop's scalars as iteration ``t`` opens.

    Together with the vectors they are the whole state of a solve:
    ``eps_old`` and ``alpha`` are the previous iteration's residual norm
    and step, and ``ordinal`` is the iteration's first access ordinal;
    ``t & 1`` says which buffer plays ``d``.
    """

    t: int = 0
    eps_old: float = float("inf")
    alpha: float = 0.0
    ordinal: int = 0


class Checkpoint(NamedTuple):
    """A solve as one iteration opens."""

    state: LoopState
    vectors: dict  # STATE_VECTORS by buffer name; d and dp are not roles


def last_checkpoint(checkpoints, ordinal: int) -> int:
    """Index of the last checkpoint at or before access ``ordinal``, or -1."""
    return bisect_right(checkpoints, ordinal, key=lambda c: c.state.ordinal) - 1


def locate(checkpoints, ordinal: int, n: int, nnz: int):
    """Access ``ordinal`` of a solve on an ``n``-row matrix of ``nnz``
    entries, as (iteration, phase, offset into the phase's block).

    Walks from the last of the solve's ``checkpoints`` (0 must be kept) at
    or before it on through later iterations: iteration ``t`` opens
    ``G_RECOMPUTE`` or ``G_AXPY`` (as ``next_recompute`` says), then the
    rest of ``PHASES``.
    """
    t, _eps_old, _alpha, at = checkpoints[last_checkpoint(checkpoints, ordinal)].state
    while True:
        residual = G_RECOMPUTE if next_recompute(t) == t else G_AXPY
        for phase in (residual, *PHASES[2:]):
            end = at + phase.length(n, nnz)
            if ordinal < end:
                return t, phase, ordinal - at
            at = end
        t += 1


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

    ``open_phase(phase, parity, at)`` runs as each phase opens, ``at``
    being the access ordinal it opens at, and ``product(phase, parity,
    out)`` writes a sweep's sparse product to ``out``, at parity
    ``t & 1``.  The loop resumes at ``start``, with ``arr`` holding the
    vectors as they stood then, and passes its state to
    ``boundary(state)`` as each iteration opens.
    Returns (converged, iterations, eps), where iterations is the loop
    index at which the convergence test fired.  A zero <q, d> raises
    CgBreakdownError unless ``native``, which keeps the float semantics
    of the compiled program: the run goes on with inf or nan.
    """
    b, x, g, q = arr["b"], arr["x"], arr["g"], arr["q"]
    t0, eps_old, alpha, at = start
    scratch = np.empty(len(x))
    eps = float("inf")

    def opens(phase):
        nonlocal at
        open_phase(phase, parity, at)
        at += phase.length(len(x), len(arr["Ac"]))

    for t in range(t0, t_max):
        boundary(LoopState(t, eps_old, alpha, at))
        parity = t & 1
        d, dp = arr[_role("d", parity)], arr[_role("dp", parity)]
        if next_recompute(t) == t:
            opens(G_RECOMPUTE)
            product(G_RECOMPUTE, parity, g)
            np.subtract(b, g, out=g)
        else:
            opens(G_AXPY)
            np.multiply(q, alpha, out=scratch)
            np.subtract(g, scratch, out=g)
        opens(EPS)
        eps = dot_blocked(g, g)
        if eps < tol:
            return True, t, eps
        beta = eps / eps_old  # eps_old failed the test, so it is not 0
        opens(D_UPDATE)
        np.multiply(dp, beta, out=d)
        d += g
        opens(Q_SPMV)
        product(Q_SPMV, parity, q)
        opens(ALPHA_DOT)
        denom = dot_blocked(q, d)
        if denom != 0.0:
            alpha = eps / denom
        elif native:
            alpha = float(np.float64(eps) / denom)  # inf or nan
        else:
            raise CgBreakdownError(f"<q,d> = 0 at iteration {t}")
        opens(X_UPDATE)
        np.multiply(d, alpha, out=scratch)
        x += scratch
        eps_old = eps
    return False, t_max, eps


def solve(
    A: CsrMatrix,
    b: np.ndarray,
    *,
    tol: float,
    t_max: int = T_MAX,
    observer=None,
    checkpoints=None,
) -> SolveRecord:
    """Run the solver loop (``iterate``) and verify against (A, b).

    A NaN residual never satisfies the convergence test, so poisoned runs
    fall through to t_max and fail verification.  Given a ``checkpoints``
    list, the solve appends a ``Checkpoint`` to it as each iteration
    opens, the first being the fresh start.
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

    open_phase = boundary = _no_hook
    if observer is not None:
        emitter = _AccessEmitter(A, observer)
        observer.register_structures(emitter.smap)
        open_phase = emitter.emit

    if checkpoints is not None:

        def boundary(state):
            vectors = {k: arr[k].copy() for k in STATE_VECTORS}
            checkpoints.append(Checkpoint(state, vectors))

    converged, iterations, eps = iterate(
        arr, tol, t_max, open_phase, product, boundary=boundary
    )

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

    def emit(self, phase: Phase, parity: int, _at=None) -> None:
        """Stream the phase's block (an ``iterate`` phase hook)."""
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
