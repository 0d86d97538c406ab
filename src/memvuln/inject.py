"""Bit-flip injection campaigns against the solver's memory image.

A campaign draws plans uniformly at random — a bit position inside one
structure and an instant strictly inside the region of interest — and
replays the solve once per plan.  The flip strikes the main-memory copy
of the word: it becomes visible to the program only when memory next
serves that word's line, and it is silently erased when the next traffic
for the line is a write-back (the cached copy was newer) or when the
line never travels again.  The reference request stream recorded by the
cache simulator decides which of these happens and pins the exact
program access ordinal at which the flipped value first reaches the
hierarchy; the instrumented solver below applies the flip at precisely
that point, splitting a phase's vectorized work when the ordinal lands
inside it.

Every run is classified into exactly one outcome class:

* ``ACE`` — converged in the baseline iteration count and verified
  against pristine inputs; indistinguishable from a fault-free run.
* ``crash`` — the run died (out-of-bounds indexing from corrupted
  metadata, or any other abnormal termination).
* ``wrong-result`` — the run completed but the final iterate fails
  verification (or finished on a different schedule than the baseline).
* ``extra-work`` — verified correct, but needed more iterations.
* ``hang`` — wall time exceeded the configured multiple of the baseline.

``p_unace`` is the fraction of runs in any class but ``ACE``.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import multiprocessing
import os
import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm as _norm

from .cg import CsrMatrix, default_structure_map, dot_blocked, norm2_blocked, verify
from .cachesim import REQ_FILL, SimResult

log = logging.getLogger(__name__)

OUTCOME_ACE = "ACE"
OUTCOME_CRASH = "crash"
OUTCOME_WRONG = "wrong-result"
OUTCOME_EXTRA = "extra-work"
OUTCOME_HANG = "hang"
OUTCOME_CLASSES = (
    OUTCOME_ACE,
    OUTCOME_CRASH,
    OUTCOME_WRONG,
    OUTCOME_EXTRA,
    OUTCOME_HANG,
)

#: Name of the synthetic never-accessed control region campaigns may target.
PAD_STRUCTURE = "pad"

#: A run is declared hung once its wall time exceeds this multiple of the
#: baseline's.
HANG_FACTOR = 10.0

_PAGE = 4096


def wilson_ci(successes: int, n: int, confidence: float = 0.99):
    """Wilson score interval for a binomial proportion.

    The degenerate tallies keep their exact endpoints: zero successes
    pin the lower bound to 0.0 and a full house pins the upper to 1.0.
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    z = float(_norm.ppf(0.5 + confidence / 2.0))
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / n + z * z / (4.0 * n * n)
    )
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class InjectionPlan:
    """One run of a campaign: where and when the flip strikes."""

    structure_id: str
    bit_index: int  # uniform over every bit of the structure's data
    inject_time: int  # cycles after the window opens, strictly inside it
    seed: int  # campaign seed the plan was drawn from
    run_index: int = 0

    @property
    def word_index(self) -> int:
        return self.bit_index >> 6

    @property
    def bit(self) -> int:
        return self.bit_index & 63


@dataclass(frozen=True)
class Outcome:
    plan: InjectionPlan
    outcome: str
    iterations: int
    wall_time: float
    detail: str = ""


@dataclass(frozen=True)
class Baseline:
    """Fault-free reference run used to classify injected runs."""

    iterations: int
    wall_time: float
    final_residual_norm_sq: float


@dataclass
class CampaignResult:
    structure_id: str
    n_runs: int
    tally: dict
    p_unace: float
    ci99: tuple
    baseline_iterations: int

    @classmethod
    def from_outcomes(cls, structure_id, outcomes, baseline) -> "CampaignResult":
        tally = {name: 0 for name in OUTCOME_CLASSES}
        for oc in outcomes:
            tally[oc.outcome] += 1
        n = len(outcomes)
        unace = n - tally[OUTCOME_ACE]
        return cls(
            structure_id=structure_id,
            n_runs=n,
            tally=tally,
            p_unace=unace / n if n else 0.0,
            ci99=wilson_ci(unace, n) if n else (0.0, 1.0),
            baseline_iterations=baseline.iterations,
        )

    def to_dict(self) -> dict:
        return {
            "structure": self.structure_id,
            "runs": self.n_runs,
            "tally": dict(self.tally),
            "p_unace": self.p_unace,
            "ci99": list(self.ci99),
            "baseline_iterations": self.baseline_iterations,
        }


class _SegFault(RuntimeError):
    """Emulates what natively compiled row loops do with escaped bounds."""


class _Paused(Exception):
    """Raised by the paused test mode right after the flip is applied."""

    def __init__(self, clean: bool):
        super().__init__("paused after flip")
        self.clean = clean


@dataclass
class InjectionContext:
    """Pristine problem, reference traffic index, and campaign settings."""

    A: CsrMatrix
    b: np.ndarray
    tol: float
    t_max: int
    regions: dict  # name -> (base, length); includes the pad control region
    pad_words: int
    T: int
    t_start: int
    # reference request stream sorted by (line, time)
    ref_line: np.ndarray
    ref_time: np.ndarray
    ref_kind: np.ndarray
    ref_ord: np.ndarray
    # column-occurrence index of the matrix: positions of each column value
    col_order: np.ndarray
    col_sorted: np.ndarray
    row_of: np.ndarray
    baseline: Baseline | None = None

    @property
    def n(self) -> int:
        return self.A.n_rows

    @property
    def nnz(self) -> int:
        return self.A.nnz

    def structure_bits(self, name: str) -> int:
        return 8 * self.regions[name][1]


def build_context(
    A: CsrMatrix,
    b: np.ndarray,
    tol: float,
    result: SimResult,
    smap=None,
    pad_words: int = 512,
    t_max: int = 2000,
) -> InjectionContext:
    """Index the reference run so individual plans resolve in O(log N)."""
    if smap is None:
        smap = default_structure_map(A)
    regions = {r.name: (r.base, r.length) for r in smap}
    pad_base = 0
    for base, length in regions.values():
        end = -(-(base + length) // _PAGE) * _PAGE
        pad_base = max(pad_base, end)
    regions[PAD_STRUCTURE] = (pad_base, 8 * pad_words)
    order = np.lexsort((result.req_time, result.req_line))
    ctx = InjectionContext(
        A=A,
        b=np.asarray(b, dtype=np.float64),
        tol=float(tol),
        t_max=int(t_max),
        regions=regions,
        pad_words=int(pad_words),
        T=result.T,
        t_start=result.t_start,
        ref_line=result.req_line[order],
        ref_time=result.req_time[order],
        ref_kind=result.req_kind[order],
        ref_ord=result.req_ord[order],
        col_order=np.argsort(A.col_idx, kind="stable"),
        col_sorted=np.sort(A.col_idx, kind="stable"),
        row_of=np.repeat(
            np.arange(A.n_rows, dtype=np.int64), np.diff(A.row_ptr)
        ),
    )
    return ctx


def measure_baseline(ctx: InjectionContext) -> Baseline:
    """Fault-free reference run; campaigns refuse to start without one."""
    from .cg import solve

    rec = solve(ctx.A, ctx.b, tol=ctx.tol, t_max=ctx.t_max)
    if not (rec.converged and rec.verified):
        raise RuntimeError("baseline run did not converge and verify")
    ctx.baseline = Baseline(
        iterations=rec.iterations,
        wall_time=rec.roi_wall_time,
        final_residual_norm_sq=rec.final_residual_norm_sq,
    )
    return ctx.baseline


def resolve_visibility(ctx: InjectionContext, plan: InjectionPlan):
    """Where the flip surfaces: (ordinal, reason).

    The ordinal is the index of the program access whose line fill first
    delivers the flipped word, or None with a reason of ``writeback``
    (next traffic overwrote the flip) or ``silent`` (the line never
    travelled again inside the window).
    """
    base, length = ctx.regions[plan.structure_id]
    if not 0 <= plan.bit_index < 8 * length:
        raise ValueError("bit index outside the structure")
    line_addr = (base + 8 * plan.word_index) & ~63
    u_abs = ctx.t_start + plan.inject_time
    lo = np.searchsorted(ctx.ref_line, line_addr, side="left")
    hi = np.searchsorted(ctx.ref_line, line_addr, side="right")
    if lo == hi:
        return None, "silent"
    pos = lo + np.searchsorted(ctx.ref_time[lo:hi], u_abs, side="left")
    if pos == hi:
        return None, "silent"
    if ctx.ref_kind[pos] != REQ_FILL:
        return None, "writeback"
    return int(ctx.ref_ord[pos]), "fill"


def draw_plans(ctx: InjectionContext, structure_id: str, n_runs: int, seed: int):
    """Deterministic plan sequence for a campaign."""
    if structure_id not in ctx.regions:
        raise ValueError(f"unknown structure: {structure_id}")
    if ctx.T < 2:
        raise ValueError("window too short to inject strictly inside it")
    bits = ctx.structure_bits(structure_id)
    rng = np.random.Generator(np.random.Philox(seed))
    plans = []
    for i in range(n_runs):
        while True:
            bit = int(rng.integers(0, bits))
            at = int(rng.integers(1, ctx.T))
            if 0 < at < ctx.T:
                break
            log.info("plan %d fell outside the window; redrawn", i)
        plans.append(InjectionPlan(structure_id, bit, at, seed, i))
    return plans


# ---------------------------------------------------------------------------
# Instrumented solver


class _InjectedSolve:
    """Replays the solver with one flip applied at an exact access ordinal.

    Phases mirror the clean solver's operations verbatim so an unapplied
    or erased flip reproduces the baseline bit for bit.  The cursor
    counts logical accesses in the same order the trace emitter streams
    them; when the flip ordinal falls inside a phase, the phase runs in
    two pieces split at the flipped word's own accesses.  Arithmetic
    follows native float semantics — a zero denominator yields inf/nan
    rather than an exception, so poisoned runs drift to the iteration
    cap or the wall-clock guard just as the real program would.
    """

    def __init__(self, ctx: InjectionContext, plan: InjectionPlan, apply_ord, pause=False):
        self.ctx = ctx
        n, nnz = ctx.n, ctx.nnz
        self.n, self.nnz = n, nnz
        self.rp = ctx.A.row_ptr  # pristine schedule reference
        target = plan.structure_id
        self.target = target
        self.word = plan.word_index
        self.bit = plan.bit
        self.pending = apply_ord is not None
        self.e = apply_ord if apply_ord is not None else -1
        self.applied = False
        self.erased = False
        self.pause = pause
        self.cum = 0
        self.iter_done = 0
        self.ar_flip_entry = None

        self.rp_w = ctx.A.row_ptr.copy() if target == "Ar" else ctx.A.row_ptr
        self.ci_w = ctx.A.col_idx.copy() if target == "Ac" else ctx.A.col_idx
        self.av_w = ctx.A.values.copy() if target == "Av" else ctx.A.values
        b_w = ctx.b.copy() if target == "b" else ctx.b
        self.arr = {
            "Ar": self.rp_w,
            "Ac": self.ci_w,
            "Av": self.av_w,
            "b": b_w,
            "x": np.zeros(n),
            "g": np.zeros(n),
            "d": np.zeros(n),
            "dp": np.zeros(n),
            "q": np.zeros(n),
        }
        if target == PAD_STRUCTURE:
            self.arr[PAD_STRUCTURE] = np.zeros(ctx.pad_words)
        self.prod = np.empty(nnz)
        self.scratch = np.empty(n)

    # -- flip plumbing -------------------------------------------------------

    def _apply(self):
        snapshot = None
        if self.pause:
            snapshot = {k: v.copy() for k, v in self.arr.items()}
        arr = self.arr[self.target]
        view = arr.view(np.uint64)
        view[self.word] = view[self.word] ^ np.uint64(1 << self.bit)
        self.pending = False
        self.applied = True
        if self.target == "Ar":
            self.ar_flip_entry = self.word
        if self.pause:
            diffs = []
            for name, cur in self.arr.items():
                delta = cur.view(np.uint64) ^ snapshot[name].view(np.uint64)
                for i in np.nonzero(delta)[0]:
                    diffs.append((name, int(i), int(delta[i])))
            clean = diffs == [(self.target, self.word, 1 << self.bit)]
            raise _Paused(clean)

    def _cancel(self):
        self.pending = False
        self.erased = True

    def _enter(self, length) -> bool:
        if self.pending and self.e <= self.cum:
            self._apply()
        return self.pending and self.e < self.cum + length

    def _leave(self, length):
        self.cum += length

    def _elem_mid(self, m, roles):
        """Split an elementwise phase at the flipped word's accesses.

        roles maps structure name to (load offset, store offset) within
        an element's event group; every such phase loads before storing.
        """
        e_off = self.e - self.cum
        acc = roles.get(self.target)
        if acc is None:
            self._apply()
            return
        load_k, store_k = acc
        w = self.word
        if load_k is not None and e_off <= m * w + load_k:
            self._apply()
        elif store_k is not None and e_off <= m * w + store_k:
            self._cancel()
        # otherwise every access saw the old value: apply at the next phase

    # -- sparse products -------------------------------------------------------

    def _row_sum(self, start, end) -> float:
        if end <= start:
            return 0.0
        if start < 0 or end > self.nnz:
            raise _SegFault("row bounds escape the matrix arrays")
        return float(np.add.reduce(self.prod[start:end]))

    def _spmv_plain(self, src_name, out):
        np.take(self.arr[src_name], self.ci_w, out=self.prod)
        np.multiply(self.av_w, self.prod, out=self.prod)
        np.add.reduceat(self.prod, self.rp[:-1], out=out)

    def _spmv_value(self, src_name, out):
        """Product under the current memory image (post-flip if applied)."""
        self._spmv_plain(src_name, out)
        r0 = self.ar_flip_entry
        if r0 is not None:
            for r in (r0 - 1, r0):
                if 0 <= r < self.n:
                    out[r] = self._row_sum(
                        int(self.rp_w[r]), int(self.rp_w[r + 1])
                    )

    def _spmv_mid(self, tr, src_name, out, e_off):
        """Sparse sweep with the flip surfacing mid-phase.

        Per row the sweep reads the two row bounds, then per element the
        column, the value, and the gathered source entry; accesses at or
        past the flip ordinal see the new value, earlier ones the old.
        """
        t = self.target
        w = self.word
        if t == src_name:
            np.take(self.arr[src_name], self.ci_w, out=self.prod)
            np.multiply(self.av_w, self.prod, out=self.prod)
            lo = np.searchsorted(self.ctx.col_sorted, w, side="left")
            hi = np.searchsorted(self.ctx.col_sorted, w, side="right")
            occ = self.ctx.col_order[lo:hi]
            sees_new = (
                (2 + tr) * self.ctx.row_of[occ] + 4 + 3 * occ >= e_off
            )
            occ_new = occ[sees_new]
            self._apply()
            if len(occ_new):
                self.prod[occ_new] = self.av_w[occ_new] * self.arr[src_name][w]
            np.add.reduceat(self.prod, self.rp[:-1], out=out)
        elif t == "Av":
            seen_at = (2 + tr) * int(self.ctx.row_of[w]) + 3 + 3 * w
            if e_off <= seen_at:
                self._apply()
            self._spmv_value(src_name, out)
        elif t == "Ac":
            seen_at = (2 + tr) * int(self.ctx.row_of[w]) + 2 + 3 * w
            if e_off <= seen_at:
                self._apply()
            self._spmv_value(src_name, out)
        elif t == "Ar":
            r0 = w
            as_end = (
                None
                if r0 == 0
                else (2 + tr) * (r0 - 1) + 3 * int(self.rp[r0 - 1]) + 1
            )
            as_start = (
                None if r0 == self.n else (2 + tr) * r0 + 3 * int(self.rp[r0])
            )
            if as_end is not None and e_off <= as_end:
                self._apply()
                self._spmv_value(src_name, out)
            elif as_start is not None and e_off <= as_start:
                # The previous row already swept with the old bound; only
                # this row starts at the corrupted one.
                self._apply()
                self._spmv_plain(src_name, out)
                out[r0] = self._row_sum(int(self.rp_w[r0]), int(self.rp[r0 + 1]))
            else:
                self._spmv_plain(src_name, out)
        else:
            self._apply()
            self._spmv_value(src_name, out)

    # -- phases -----------------------------------------------------------------

    def _d_name(self, parity):
        return "d" if parity == 0 else "dp"

    def _dp_name(self, parity):
        return "dp" if parity == 0 else "d"

    def phase_g_recompute(self):
        tr = 2
        length = (2 + tr) * self.n + 3 * self.nnz
        g = self.arr["g"]
        if self._enter(length):
            e_off = self.e - self.cum
            if self.target == "b":
                seen_at = 4 * self.word + 3 * int(self.rp[self.word + 1]) + 2
                if e_off <= seen_at:
                    self._apply()
                self._spmv_value("x", g)
            elif self.target == "g":
                stored_at = 4 * self.word + 3 * int(self.rp[self.word + 1]) + 3
                if e_off <= stored_at:
                    self._cancel()
                self._spmv_value("x", g)
            else:
                self._spmv_mid(tr, "x", g, e_off)
        else:
            self._spmv_value("x", g)
        np.subtract(self.arr["b"], g, out=g)
        self._leave(length)

    def phase_g_axpy(self, alpha):
        length = 3 * self.n
        if self._enter(length):
            self._elem_mid(3, {"g": (0, 2), "q": (1, None)})
        np.multiply(self.arr["q"], alpha, out=self.scratch)
        np.subtract(self.arr["g"], self.scratch, out=self.arr["g"])
        self._leave(length)

    def phase_eps(self) -> float:
        length = self.n
        if self._enter(length):
            self._elem_mid(1, {"g": (0, None)})
        eps = norm2_blocked(self.arr["g"])
        self._leave(length)
        return eps

    def phase_d_update(self, beta, parity):
        length = 3 * self.n
        if self._enter(length):
            self._elem_mid(
                3,
                {
                    self._dp_name(parity): (0, None),
                    "g": (1, None),
                    self._d_name(parity): (None, 2),
                },
            )
        cur_d = self.arr[self._d_name(parity)]
        np.multiply(self.arr[self._dp_name(parity)], beta, out=cur_d)
        cur_d += self.arr["g"]
        self._leave(length)

    def phase_q_spmv(self, parity):
        tr = 1
        length = (2 + tr) * self.n + 3 * self.nnz
        src = self._d_name(parity)
        q = self.arr["q"]
        if self._enter(length):
            e_off = self.e - self.cum
            if self.target == "q":
                stored_at = 3 * self.word + 3 * int(self.rp[self.word + 1]) + 2
                if e_off <= stored_at:
                    self._cancel()
                self._spmv_value(src, q)
            else:
                self._spmv_mid(tr, src, q, e_off)
        else:
            self._spmv_value(src, q)
        self._leave(length)

    def phase_alpha_dot(self, parity) -> float:
        length = 2 * self.n
        if self._enter(length):
            self._elem_mid(
                2, {"q": (0, None), self._d_name(parity): (1, None)}
            )
        denom = dot_blocked(self.arr["q"], self.arr[self._d_name(parity)])
        self._leave(length)
        return denom

    def phase_x_update(self, alpha, parity):
        length = 3 * self.n
        if self._enter(length):
            self._elem_mid(
                3, {"x": (0, 2), self._d_name(parity): (1, None)}
            )
        np.multiply(self.arr[self._d_name(parity)], alpha, out=self.scratch)
        self.arr["x"] += self.scratch
        self._leave(length)

    # -- main loop ----------------------------------------------------------------

    def run(self, time_limit: float):
        """Returns (converged, iterations); wall guard raises nothing."""
        tol = self.ctx.tol
        t_max = self.ctx.t_max
        eps_old = float("inf")
        alpha = 0.0
        parity = 0
        t0 = _time.perf_counter()
        with np.errstate(all="ignore"):
            for t in range(t_max):
                self.iter_done = t
                if _time.perf_counter() - t0 > time_limit:
                    return None, t  # hung
                if t % 50 == 0:
                    self.phase_g_recompute()
                else:
                    self.phase_g_axpy(alpha)
                eps = self.phase_eps()
                if eps < tol:
                    return True, t
                beta = float(np.float64(eps) / np.float64(eps_old))
                self.phase_d_update(beta, parity)
                self.phase_q_spmv(parity)
                denom = self.phase_alpha_dot(parity)
                alpha = float(np.float64(eps) / np.float64(denom))
                self.phase_x_update(alpha, parity)
                eps_old = eps
                parity ^= 1
        return False, t_max


def run_one(ctx: InjectionContext, plan: InjectionPlan, time_limit=None) -> Outcome:
    """Execute one plan and classify the outcome."""
    if ctx.baseline is None:
        raise RuntimeError("no baseline run; call measure_baseline first")
    bl = ctx.baseline
    if time_limit is None:
        time_limit = HANG_FACTOR * bl.wall_time
    apply_ord, reason = resolve_visibility(ctx, plan)
    runner = _InjectedSolve(ctx, plan, apply_ord)
    t0 = _time.perf_counter()
    try:
        converged, iterations = runner.run(time_limit)
    except Exception as exc:  # noqa: BLE001 - any abnormal end is a crash
        wall = _time.perf_counter() - t0
        return Outcome(
            plan, OUTCOME_CRASH, runner.iter_done, wall, type(exc).__name__
        )
    wall = _time.perf_counter() - t0
    if runner.applied:
        detail = ""
    elif runner.erased:
        detail = "erased"
    else:
        detail = reason
    if converged is None:
        return Outcome(plan, OUTCOME_HANG, iterations, wall, detail)
    with np.errstate(all="ignore"):
        ok = verify(ctx.A, ctx.b, runner.arr["x"], ctx.tol)
    if ok:
        if converged and iterations == bl.iterations:
            return Outcome(plan, OUTCOME_ACE, iterations, wall, detail)
        if iterations > bl.iterations:
            return Outcome(
                plan,
                OUTCOME_EXTRA,
                iterations,
                wall,
                detail if converged else "iteration-cap",
            )
        return Outcome(plan, OUTCOME_WRONG, iterations, wall, "early-exit")
    return Outcome(plan, OUTCOME_WRONG, iterations, wall, detail)


def flip_check(ctx: InjectionContext, plan: InjectionPlan):
    """Paused mode: pause at the injection instant and audit the image.

    Returns True when exactly the planned bit of the planned word of the
    planned structure changed and nothing else did, False when the image
    differs in any other way, and None when the plan never surfaces (no
    memory image ever carries the flip).
    """
    apply_ord, _reason = resolve_visibility(ctx, plan)
    if apply_ord is None:
        return None
    runner = _InjectedSolve(ctx, plan, apply_ord, pause=True)
    try:
        runner.run(time_limit=float("inf"))
    except _Paused as p:
        return p.clean
    return None  # erased mid-phase before ever being applied


# ---------------------------------------------------------------------------
# Campaign driver

_LOG_FIELDS = (
    "run",
    "structure",
    "bit_index",
    "inject_time",
    "outcome",
    "iterations",
    "wall_time",
    "detail",
)

_WORKER_STATE: dict = {}


def _worker_init(ctx, time_limit):
    _WORKER_STATE["ctx"] = ctx
    _WORKER_STATE["time_limit"] = time_limit


def _worker_run(plan):
    return run_one(_WORKER_STATE["ctx"], plan, _WORKER_STATE["time_limit"])


def _outcome_row(oc: Outcome) -> dict:
    return {
        "run": oc.plan.run_index,
        "structure": oc.plan.structure_id,
        "bit_index": oc.plan.bit_index,
        "inject_time": oc.plan.inject_time,
        "outcome": oc.outcome,
        "iterations": oc.iterations,
        "wall_time": f"{oc.wall_time:.6f}",
        "detail": oc.detail,
    }


def _read_log(path, structure_id, seed):
    """Finished runs of a campaign log, and the byte offset they end at.

    An unterminated final line is a run interrupted mid-write, not a
    finished one, so it is left out.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n") + 1
    if end == 0:
        return [], 0
    outcomes = []
    with io.StringIO(data[:end].decode(), newline="") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing campaign header line")
        fields = dict(
            part.split("=", 1) for part in header[1:].split() if "=" in part
        )
        if fields.get("structure") != structure_id or int(
            fields.get("seed", -1)
        ) != seed:
            raise ValueError(
                f"{path}: log belongs to a different campaign "
                f"({fields.get('structure')}, seed {fields.get('seed')})"
            )
        for row in csv.DictReader(fh):
            plan = InjectionPlan(
                row["structure"],
                int(row["bit_index"]),
                int(row["inject_time"]),
                seed,
                int(row["run"]),
            )
            outcomes.append(
                Outcome(
                    plan,
                    row["outcome"],
                    int(row["iterations"]),
                    float(row["wall_time"]),
                    row["detail"],
                )
            )
    return outcomes, end


def run_campaign(
    ctx: InjectionContext,
    structure_id: str,
    n_runs: int,
    seed: int,
    log_path=None,
    parallel: int = 1,
    time_limit=None,
    progress=None,
) -> CampaignResult:
    """Run (or resume) a campaign of independent injected solves.

    With a log path every finished run is appended immediately, so an
    interrupted campaign resumes from the completed prefix; the plan
    sequence is a pure function of the seed, making the resumed tail
    exactly the runs the interrupted campaign would have done.
    """
    if ctx.baseline is None:
        raise RuntimeError(
            "campaign refused: measure a baseline run first "
            "(measure_baseline)"
        )
    plans = draw_plans(ctx, structure_id, n_runs, seed)
    outcomes = []
    log_fh = None
    writer = None
    if log_path is not None:
        if os.path.exists(log_path) and os.path.getsize(log_path) > 0:
            outcomes, end = _read_log(log_path, structure_id, seed)
            if len(outcomes) > n_runs:
                outcomes = outcomes[:n_runs]
            for oc, plan in zip(outcomes, plans):
                if (
                    oc.plan.bit_index != plan.bit_index
                    or oc.plan.inject_time != plan.inject_time
                ):
                    raise ValueError(
                        f"{log_path}: logged run {plan.run_index} does not "
                        f"match the plan sequence for seed {seed}"
                    )
        if len(outcomes) < n_runs:
            fresh = not outcomes
            if not fresh:
                os.truncate(log_path, end)  # drop a torn final line
            # A log without a finished run (e.g. torn inside its header) is
            # rewritten, so it never carries a second header.
            log_fh = open(log_path, "w" if fresh else "a", newline="")
            if fresh:
                log_fh.write(
                    f"# campaign structure={structure_id} seed={seed} "
                    f"baseline={ctx.baseline.iterations} T={ctx.T}\n"
                )
            writer = csv.DictWriter(log_fh, fieldnames=_LOG_FIELDS)
            if fresh:
                writer.writeheader()
    pending = plans[len(outcomes) :]
    try:
        if parallel > 1 and pending:
            mp = multiprocessing.get_context("fork")
            with mp.Pool(
                parallel, initializer=_worker_init, initargs=(ctx, time_limit)
            ) as pool:
                chunk = max(1, min(16, len(pending) // (4 * parallel) or 1))
                for oc in pool.imap(_worker_run, pending, chunksize=chunk):
                    outcomes.append(oc)
                    if writer is not None:
                        writer.writerow(_outcome_row(oc))
                        log_fh.flush()
                    if progress is not None:
                        progress(len(outcomes), n_runs, oc)
        else:
            for plan in pending:
                oc = run_one(ctx, plan, time_limit)
                outcomes.append(oc)
                if writer is not None:
                    writer.writerow(_outcome_row(oc))
                    log_fh.flush()
                if progress is not None:
                    progress(len(outcomes), n_runs, oc)
    finally:
        if log_fh is not None:
            log_fh.close()
    return CampaignResult.from_outcomes(structure_id, outcomes, ctx.baseline)
