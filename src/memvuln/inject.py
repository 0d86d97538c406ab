"""Bit-flip injection campaigns against the solver's memory image.

A campaign draws plans uniformly at random — a bit position inside one
structure and an instant strictly inside the region of interest — and
replays the solve once per plan.  The flip strikes the main-memory copy
of the word: it becomes visible to the program only when memory next
serves that word's line, and it is silently erased when the next traffic
for the line is a write-back (the cached copy was newer) or when the
line never travels again.  The line index of the reference request
stream recorded by the cache simulator (``SimResult.by_line``: each
line's fills and write-backs in time order) decides which of these
happens, and its fill row gives the exact program access ordinal at
which the flipped value first reaches the hierarchy; the instrumented
solver below applies the flip at precisely that point, splitting a
phase's vectorized work when the ordinal lands inside it.  Each run
works on the solver's memory image (``cg.memory_image``) with its own
copies of the state vectors and of the input its flip targets.

No run repeats the fault-free work it shares with the baseline, which
``build_context`` measures, so a context is whole from the start.  The
baseline keeps a checkpoint as each of its iterations opens: the vectors
x, g, d, dp and q (``cg.STATE_VECTORS``), the loop's scalars, and the
iteration's first access ordinal; checkpoint 0 is the fresh start.  An
injected run restarts from the last checkpoint at or before its flip's
ordinal, since up to there it is the baseline bit for bit.  A flip that
never surfaces (``silent``, ``writeback``) leaves the memory image the
baseline's for the whole run, so the plan gets the baseline's row
without a solve; an ``erased`` flip does the same from the moment the
store overwrites it, so its run ends there.

Four more rules decide a surfaced run's row before its last iteration,
each exactly: the row equals the full replay's.

* **A flipped ``x`` word.**  Only ``g_recompute`` (as its sweep's
  source) and ``x_update`` read ``x``.  When the flip applies outside a
  recompute and no recompute opens before the baseline's last iteration,
  the flipped word reaches no other vector: the run converges with the
  baseline and its final ``x`` differs from the baseline's in that word
  alone.  ``run_one`` replays the word's updates ``v + d[w] * alpha``
  from the checkpoints and verifies the patched final ``x``, without a
  solve.  The word's first ``x_update`` access at or after the flip
  decides, as in a replay: a load sees the flip, a store erases it.
* **Non-finite ``x`` and ``g``.**  As an iteration opens after the flip
  has applied, both vectors hold a non-finite entry.  Every column is
  still read by some row under a single flip, so a recompute of ``g``
  from ``x`` leaves an entry non-finite, and so does ``g``'s update; the
  residual norm is never below the tolerance and the run is a hang.  A
  non-finite ``g`` alone is not enough, since a recompute rebuilds it.
  A run whose matrix indices escape crashes at the first full sweep
  after the flip applies, before both can turn non-finite.
* **An emptied row.**  An ``Ar`` flip that stays inside ``[0, nnz]``
  makes row ``r`` (``w - 1`` or ``w``) start at or past its end, so its
  products are exactly 0.0.  Once ``q[r]`` is 0.0, ``g[r]`` keeps its
  value, turns NaN, or is reset to ``b[r]`` by a recompute.  The
  residual norm, a float sum of non-negative squares, is at least
  ``g[r]**2``; so when that and ``b[r]**2`` (if a recompute opens before
  the cap) are at or above the tolerance, the run is a hang.
* **A baseline sweep.**  While the flip is pending, the image is the
  baseline's.  A ``q_spmv`` sweep that ends at or before the flip
  computes the baseline's product, checkpoint ``t + 1``'s ``q``, so it
  is copied from there.

Only ``Outcome.wall_time``, which no log row carries, tells settled rows
from full replays.

Every run is classified into exactly one outcome class:

* ``ACE`` — converged in the baseline iteration count and verified
  against pristine inputs; indistinguishable from a fault-free run.
* ``crash`` — the run died (out-of-bounds indexing from corrupted
  metadata, or any other abnormal termination).
* ``wrong-result`` — the run completed but the final iterate fails
  verification (or finished on a different schedule than the baseline).
* ``extra-work`` — verified correct, but needed more iterations.
* ``hang`` — not converged when the loop opens iteration ``HANG_ITERS``
  times the baseline's iteration count.  An iteration count, not the
  clock, decides, so a campaign is a pure function of its seed.

``p_unace`` is the fraction of runs in any class but ``ACE``.
"""

from __future__ import annotations

import csv
import io
import multiprocessing
import os
import time as _time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cg  # RECOMPUTE_EVERY, read at call time as cg.iterate reads it
from .cg import (
    G_RECOMPUTE,
    PAGE,
    Q_SPMV,
    STATE_VECTORS,
    T_MAX,
    X_UPDATE,
    CsrMatrix,
    LoopState,
    Phase,
    _role,
    default_structure_map,
    iterate,
    memory_image,
    spmv,
    verify,
)
from .cachesim import LINE_BITS, REQ_FILL, LineEvents
from .stats import wilson_ci
from .trace import KIND_LOAD, KIND_STORE

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

#: Name and size of the synthetic never-accessed control region campaigns
#: may target.
PAD_STRUCTURE = "pad"
PAD_WORDS = 512

#: A run is hung when the loop opens iteration HANG_ITERS times the
#: baseline's iteration count without having converged.  Runs that end any
#: other way end far sooner: in side-16 campaigns none passed 2.9 times
#: the baseline, and of 9,500 side-32 runs two ended past 4 times it.
HANG_ITERS = 4

#: Version of the campaign-log layout and of the rules that fill it; a log
#: written under another is refused, not resumed.
LOG_SCHEMA = 2


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
    wall_time: float  # measured, never logged; no classification reads it
    detail: str = ""
    reason: str = ""  # fill, silent, writeback or erased


class _Checkpoint(NamedTuple):
    """The fault-free solve as one iteration opens."""

    ordinal: int  # the iteration's first access ordinal
    state: LoopState
    vectors: dict  # STATE_VECTORS by buffer name; d and dp are not roles


@dataclass(frozen=True)
class Baseline:
    """Fault-free reference run used to classify injected runs."""

    iterations: int
    wall_time: float  # a diagnostic: no classification reads it
    checkpoints: tuple = field(repr=False, compare=False)


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


@dataclass
class InjectionContext:
    """Pristine problem, its fault-free baseline, campaign settings, and
    of the reference run only its line index: ``resolve_visibility`` reads
    a line's rows, ``draw_plans`` and the log header the window ``T``."""

    A: CsrMatrix
    b: np.ndarray
    tol: float
    regions: dict  # name -> (base, length); includes the pad control region
    events: LineEvents  # ``SimResult.by_line`` of the reference run
    baseline: Baseline
    image: dict  # the pristine memory image (``cg.memory_image``)

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
    events: LineEvents,
) -> InjectionContext:
    """Take the reference run's line index, so individual plans resolve in
    O(log N), and measure the fault-free baseline (``measure_baseline``)."""
    regions = {r.name: (r.base, r.length) for r in default_structure_map(A)}
    pad_base = max(-(-(base + length) // PAGE) * PAGE
                   for base, length in regions.values())
    regions[PAD_STRUCTURE] = (pad_base, 8 * PAD_WORDS)
    b, tol = np.asarray(b, dtype=np.float64), float(tol)
    return InjectionContext(
        A=A,
        b=b,
        tol=tol,
        regions=regions,
        events=events,
        baseline=measure_baseline(A, b, tol),
        image=memory_image(A, b),
    )


def measure_baseline(A: CsrMatrix, b: np.ndarray, tol: float) -> Baseline:
    """Fault-free reference run, capped at ``T_MAX`` iterations.

    One pass of the solver loop keeps a checkpoint as each iteration
    opens.  An iteration's first access ordinal is the sum of the lengths
    of every phase opened before it, the same cursor the injector keeps.
    """
    arr = memory_image(A, b)
    cum = 0
    kept = []

    def open_phase(phase, t, parity):
        nonlocal cum
        cum += phase.length(A.n_rows, A.nnz)

    def product(phase, parity, out):
        spmv(A, arr[phase.source(parity)], out=out)

    def boundary(state):
        vectors = {k: arr[k].copy() for k in STATE_VECTORS}
        kept.append(_Checkpoint(cum, state, vectors))

    t0 = _time.perf_counter()
    converged, iterations, _ = iterate(
        arr, tol, T_MAX, open_phase, product, boundary=boundary
    )
    wall = _time.perf_counter() - t0
    if not (converged and verify(A, b, arr["x"], tol)):
        raise RuntimeError("baseline run did not converge and verify")
    return Baseline(iterations=iterations, wall_time=wall, checkpoints=tuple(kept))


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
    ev = ctx.events
    rows = ev.rows((base + 8 * plan.word_index) >> LINE_BITS)  # in time order
    pos = rows.start + np.searchsorted(ev.time[rows], ev.t_start + plan.inject_time)
    if pos == rows.stop:
        return None, "silent"
    if ev.kind[pos] != REQ_FILL:
        return None, "writeback"
    return int(ev.ordinal[pos]), "fill"


def draw_plans(ctx: InjectionContext, structure_id: str, n_runs: int, seed: int):
    """Deterministic plan sequence for a campaign."""
    if structure_id not in ctx.regions:
        raise ValueError(f"unknown structure: {structure_id}")
    if ctx.events.T < 2:
        raise ValueError("window too short to inject strictly inside it")
    bits = ctx.structure_bits(structure_id)
    rng = np.random.Generator(np.random.Philox(seed))
    plans = []
    for i in range(n_runs):
        bit = int(rng.integers(0, bits))
        at = int(rng.integers(1, ctx.events.T))  # strictly inside the window
        plans.append(InjectionPlan(structure_id, bit, at, seed, i))
    return plans


# ---------------------------------------------------------------------------
# Instrumented solver


class _Stop(Exception):
    """The run ends early: its flip was erased (or, in a flip check,
    applied)."""


class _Hung(Exception):
    """The run provably cannot converge before its cap."""


#: What a flip meets in a phase when it lands past the word's last own
#: access there: it applies as the next phase opens.
_LATER = -1


def _flip_meets(phase: Phase, parity: int, target: str, word: int, row_ptr,
                e_off: int):
    """What a flip landing ``e_off`` accesses into ``phase`` meets first.

    The flipped word's first own access in the phase at or after
    ``e_off`` decides: its kind (``KIND_LOAD`` sees the flip,
    ``KIND_STORE`` erases it), or ``_LATER`` past them all; None when
    the phase makes no own access to the word.
    """
    met = None
    for k, (name, kind) in enumerate(phase.operands(parity)):
        if name == target:
            if e_off <= phase.op_ord(k, word, row_ptr):
                return kind
            met = _LATER
    return met


def _last_checkpoint(checkpoints, ordinal: int) -> int:
    """Index of the last checkpoint at or before ``ordinal``, or -1."""
    return bisect_right(checkpoints, ordinal, key=lambda c: c.ordinal) - 1


class _InjectedSolve:
    """Replays the solver with one flip applied at an exact access ordinal.

    The run goes through the clean solver's own loop (``cg.iterate``), so
    an unapplied or erased flip reproduces the baseline bit for bit.  It
    therefore starts from a copy of the baseline's last checkpoint at or
    before the flip ordinal, with the cursor at that iteration's first
    access, and stops at the next phase once the flip is erased: the rest
    is the baseline's.  As each phase opens, the cursor advances by the phase's
    length; when the flip ordinal falls inside the phase, the phase table
    (see the ``cg`` module) gives the flipped word's own accesses, and the
    first of them at or after the ordinal decides: a load sees the flip,
    a store erases it, and past them all the flip waits for the next
    phase.  A sweep the flip lands in follows one rule: it gathers every
    product from the image as the sweep opens, applies the flip, gathers
    again the products whose column, value or source load of the word
    comes at or after the ordinal, and sums the rows whose row-pointer
    load of it does over their moved bounds; every later sweep sums both
    rows an ``Ar`` flip moved that way.  Arithmetic follows native float
    semantics — a zero denominator yields inf/nan rather than an
    exception, so poisoned runs drift on to the iteration cap just as the
    real program would, unless an iteration opens in a state that
    provably cannot converge (``_non_finite``, ``_emptied_row``).  A
    sweep that reads the baseline's image copies the baseline's product
    (``_baseline_sweep``).
    """

    def __init__(self, ctx: InjectionContext, plan: InjectionPlan, apply_ord):
        self.ctx = ctx
        self.n, self.nnz = ctx.n, ctx.nnz
        self.rp = ctx.A.row_ptr  # pristine schedule reference
        target = plan.structure_id
        self.target = target
        self.word = plan.word_index
        self.bit = plan.bit
        self.pending = apply_ord is not None
        self.e = 0 if apply_ord is None else apply_ord  # None: from checkpoint 0
        self.applied = False
        self.erased = False
        self.cum = 0
        self.e_off = None  # flip ordinal within the open phase, if inside it
        self.iter_done = 0
        self.t_cap = 0  # the run's iteration cap, set by ``run``
        self.ar_rows = ()  # rows whose bounds an applied Ar flip moved
        self.empty_rows = ()  # those of them it emptied in bounds

        # The inputs, with a copy of the flip's target made before
        # ``_restart`` copies the state vectors in.  Copied after fresh
        # state vectors, its pages were once handed back and faulted in
        # again between runs (100 side-16 Ac runs took twice as long); with
        # checkpoint copies both orders take about 0.07 s for them.
        self.arr = {k: v.copy() if k == target else v
                    for k, v in ctx.image.items() if k not in STATE_VECTORS}
        self.rp_w, self.ci_w, self.av_w = (self.arr[k] for k in ("Ar", "Ac", "Av"))

    # -- flip plumbing -------------------------------------------------------

    def _apply(self):
        view = self.arr[self.target].view(np.uint64)
        view[self.word] = view[self.word] ^ np.uint64(1 << self.bit)
        self.pending = False
        self.applied = True
        if self.target == "Ar":
            w, rp = self.word, self.rp_w
            self.ar_rows = [r for r in (w - 1, w) if 0 <= r < self.n]
            if 0 <= rp[w] <= self.nnz:  # no product can escape the arrays
                self.empty_rows = [r for r in self.ar_rows if rp[r] >= rp[r + 1]]

    def _cancel(self):
        self.pending = False
        self.erased = True

    # -- loop hooks -------------------------------------------------------------

    def boundary(self, state: LoopState) -> None:
        """Note the iteration opening; end a run that cannot converge."""
        self.iter_done = state.t
        if self.applied and (self._non_finite(state) or self._emptied_row(state)):
            raise _Hung

    def _non_finite(self, state: LoopState) -> bool:
        """x and g both hold a non-finite entry.  Then g stays non-finite,
        so eps_old is non-finite from the next iteration on; it is tested
        first, which leaves a finite run one comparison."""
        return not state.eps_old < np.inf and not (
            np.isfinite(self.arr["x"]).all() or np.isfinite(self.arr["g"]).all()
        )

    def _emptied_row(self, state: LoopState) -> bool:
        """An emptied row keeps the residual norm at or above tol."""
        tol = self.ctx.tol
        arr = self.arr
        for r in self.empty_rows:
            g_r = float(arr["g"][r])
            if arr["q"][r] == 0.0 and g_r * g_r >= tol:
                b_r = float(arr["b"][r])
                every = cg.RECOMPUTE_EVERY
                next_recompute = -(-state.t // every) * every
                if b_r * b_r >= tol or next_recompute >= self.t_cap:
                    return True
        return False

    def open_phase(self, phase: Phase, t: int, parity: int) -> None:
        """Advance the cursor over the phase; settle a flip landing in it."""
        if self.erased:
            raise _Stop  # the rest of the run is the baseline's
        start = self.cum
        self.cum += phase.length(self.n, self.nnz)
        self.e_off = None
        if not self.pending or self.e >= self.cum:
            return
        if self.e <= start:
            self._apply()
            return
        e_off = self.e - start
        met = _flip_meets(phase, parity, self.target, self.word, self.rp, e_off)
        if met == KIND_LOAD:
            self._apply()
        elif met == KIND_STORE:
            self._cancel()
        elif met is None:
            if phase.src is None:
                self._apply()
            else:
                self.e_off = e_off  # the sweep's product splits itself

    def product(self, phase: Phase, parity: int, out) -> None:
        """Sparse product of a sweep under the memory image it reads."""
        if self._baseline_sweep(phase):
            cp = self.ctx.baseline.checkpoints[self.iter_done + 1]
            np.copyto(out, cp.vectors["q"])
            return
        src = self.arr[phase.source(parity)]
        # prod[j] = Av[j] * src[Ac[j]]; a column index out of range raises
        # IndexError (see ``cg.spmv``).
        prod = np.take(src, self.ci_w)
        np.multiply(self.av_w, prod, out=prod)
        rows = self.ar_rows
        if self.e_off is not None:  # the flip lands in this sweep
            self._apply()
            nz, rows = self._late_reads(phase, parity)
            prod[nz] = self.av_w[nz] * np.take(src, self.ci_w[nz])
        np.add.reduceat(prod, self.rp[:-1], out=out)
        for r in rows:
            out[r] = self._row_sum(prod, int(self.rp_w[r]), int(self.rp_w[r + 1]))

    def _baseline_sweep(self, phase: Phase) -> bool:
        """A q_spmv that ends at or before a pending flip: it reads the
        baseline's image, so its product is the next checkpoint's q."""
        return phase is Q_SPMV and self.pending and self.e >= self.cum

    # -- sparse products -------------------------------------------------------

    def _late_reads(self, phase: Phase, parity: int):
        """The nonzeros whose column, value or source load reads the
        flipped word at or after the flip ordinal, and the rows whose
        row-pointer load of it does."""
        e_off, w, rp = self.e_off, self.word, self.rp
        nz = np.empty(0, dtype=np.int64)
        for k, name in enumerate(phase.nz_operands(parity)):
            if name == self.target:
                nz = np.flatnonzero(self.ctx.A.col_idx == w) if k == 2 else np.array([w])
                row = np.searchsorted(rp, nz, side="right") - 1
                nz = nz[phase.nz_ord(k, nz, row) >= e_off]
        return nz, [r for r in self.ar_rows if e_off <= phase.row_ptr_ord(w - r, r, rp)]

    def _row_sum(self, prod, start, end) -> float:
        """A row's sum over moved bounds, as a native row loop takes it."""
        if end <= start:
            return 0.0
        if start < 0 or end > self.nnz:
            raise _SegFault("row bounds escape the matrix arrays")
        return float(np.add.reduce(prod[start:end]))

    # -- main loop ----------------------------------------------------------------

    def _restart(self) -> LoopState:
        """Load copies of the last checkpoint at or before the flip ordinal;
        checkpoint 0 is the fresh start."""
        checkpoints = self.ctx.baseline.checkpoints
        cp = checkpoints[_last_checkpoint(checkpoints, self.e)]
        self.arr.update((k, v.copy()) for k, v in cp.vectors.items())
        self.cum = cp.ordinal
        return cp.state

    def run(self, t_cap: int):
        """Returns (converged, iterations) of the loop capped at ``t_cap``
        iterations, or (None, the iteration open) when the run stops early
        because its flip was erased.  A run that provably cannot converge
        returns (False, ``t_cap``) as soon as that is known."""
        start = self._restart()
        self.t_cap = t_cap
        try:
            with np.errstate(all="ignore"):
                converged, iterations, _eps = iterate(
                    self.arr, self.ctx.tol, t_cap,
                    self.open_phase, self.product, native=True,
                    start=start, boundary=self.boundary,
                )
        except _Stop:
            return None, self.iter_done
        except _Hung:
            return False, t_cap
        return converged, iterations


def _x_row(ctx: InjectionContext, plan: InjectionPlan, e: int):
    """The row of a surfaced ``x`` flip, settled from its one word.

    Returns (outcome, detail, reason) at the baseline's iteration count,
    or None when the flip applies in a residual recompute or one opens
    after it before the baseline converges: then the run is solved.
    """
    cps = ctx.baseline.checkpoints
    last = len(cps) - 1
    t = _last_checkpoint(cps, e)  # the iteration the flip lands in
    every = cg.RECOMPUTE_EVERY
    if t // every < last // every:
        return None  # a recompute opens after it
    if t % every == 0 and e < cps[t].ordinal + G_RECOMPUTE.length(ctx.n, ctx.nnz):
        return None  # it lands in this iteration's recompute
    s0 = t  # the first iteration whose x_update reads the flipped word
    if t < last:
        x_start = cps[t + 1].ordinal - X_UPDATE.length(ctx.n, ctx.nnz)
        if e >= x_start:  # x_update closes the iteration
            met = _flip_meets(X_UPDATE, cps[t].state.parity, "x",
                              plan.word_index, ctx.A.row_ptr, e - x_start)
            if met == KIND_STORE:
                return OUTCOME_ACE, "erased", "erased"
            if met == _LATER:
                s0 = t + 1
    w = plan.word_index
    word = cps[s0].vectors["x"][w : w + 1].copy()
    word.view(np.uint64)[0] ^= np.uint64(1 << plan.bit)
    v = word[0]
    with np.errstate(all="ignore"):
        for s in range(s0, last):
            # x_update of iteration s, as the next checkpoint holds its
            # direction buffer and step.
            nxt = cps[s + 1]
            v = v + nxt.vectors[_role("d", cps[s].state.parity)][w] * nxt.state.alpha
        x = cps[last].vectors["x"].copy()
        x[w] = v
        ok = verify(ctx.A, ctx.b, x, ctx.tol)
    return (OUTCOME_ACE if ok else OUTCOME_WRONG), "", "fill"


def run_one(ctx: InjectionContext, plan: InjectionPlan) -> Outcome:
    """Execute one plan and classify the outcome.

    A flip that never surfaces, or is erased before the program reads
    it, leaves the memory image the baseline's: the plan gets the
    baseline's row without a solve, or as soon as the erasure happens.
    A surfaced ``x`` flip that no recompute reads is settled from its
    one word (``_x_row``).  A run that would open iteration
    ``HANG_ITERS`` times the baseline's count unconverged stops there as
    a hang (or at the solver's own cap ``T_MAX``, should that be lower),
    or sooner once it provably cannot converge.
    """
    bl = ctx.baseline
    t0 = _time.perf_counter()
    apply_ord, reason = resolve_visibility(ctx, plan)

    def outcome(name, iterations, detail, why=reason):
        wall = _time.perf_counter() - t0
        return Outcome(plan, name, iterations, wall, detail, why)

    if apply_ord is None:
        return outcome(OUTCOME_ACE, bl.iterations, reason)
    if plan.structure_id == "x":
        row = _x_row(ctx, plan, apply_ord)
        if row is not None:
            name, detail, why = row
            return outcome(name, bl.iterations, detail, why)
    runner = _InjectedSolve(ctx, plan, apply_ord)
    try:
        converged, iterations = runner.run(
            min(HANG_ITERS * bl.iterations, T_MAX)
        )
    except Exception as exc:  # noqa: BLE001 - any abnormal end is a crash
        return outcome(OUTCOME_CRASH, runner.iter_done, type(exc).__name__)
    if runner.erased:
        return outcome(OUTCOME_ACE, bl.iterations, "erased", "erased")
    detail = "" if runner.applied else reason
    if not converged:
        return outcome(OUTCOME_HANG, iterations, detail)
    with np.errstate(all="ignore"):
        ok = verify(ctx.A, ctx.b, runner.arr["x"], ctx.tol)
    if ok:
        if iterations == bl.iterations:
            return outcome(OUTCOME_ACE, iterations, detail)
        if iterations > bl.iterations:
            return outcome(OUTCOME_EXTRA, iterations, detail)
        return outcome(OUTCOME_WRONG, iterations, "early-exit")
    return outcome(OUTCOME_WRONG, iterations, detail)


class _PausedSolve(_InjectedSolve):
    """A run that stops as its flip is applied, noting in ``clean`` whether
    the flip changed the planned bit and nothing else of the image."""

    clean = None

    def _apply(self):
        before = {k: v.copy() for k, v in self.arr.items()}
        super()._apply()
        diffs = []
        for name, cur in self.arr.items():
            delta = cur.view(np.uint64) ^ before[name].view(np.uint64)
            for i in np.nonzero(delta)[0]:
                diffs.append((name, int(i), int(delta[i])))
        self.clean = diffs == [(self.target, self.word, 1 << self.bit)]
        raise _Stop


def flip_check(ctx: InjectionContext, plan: InjectionPlan):
    """Pause at the injection instant and audit the image.

    Returns True when exactly the planned bit of the planned word of the
    planned structure changed and nothing else did, False when the image
    differs in any other way, and None when the plan never surfaces (no
    memory image ever carries the flip) or is erased before it is applied.
    """
    apply_ord, _reason = resolve_visibility(ctx, plan)
    if apply_ord is None:
        return None
    runner = _PausedSolve(ctx, plan, apply_ord)
    runner.run(T_MAX)
    return runner.clean


# ---------------------------------------------------------------------------
# Campaign driver

#: The campaign log's columns in order: each is a field of a run's plan or
#: of its outcome, with the type its text parses to.
_LOG_COLUMNS = (
    ("run", "plan", "run_index", int),
    ("structure", "plan", "structure_id", str),
    ("bit_index", "plan", "bit_index", int),
    ("inject_time", "plan", "inject_time", int),
    ("outcome", "outcome", "outcome", str),
    ("iterations", "outcome", "iterations", int),
    ("reason", "outcome", "reason", str),
    ("detail", "outcome", "detail", str),
)
_LOG_NAMES = [name for name, *_ in _LOG_COLUMNS]

_WORKER_STATE: dict = {}


def _worker_init(ctx):
    _WORKER_STATE["ctx"] = ctx


def _worker_run(plan):
    return run_one(_WORKER_STATE["ctx"], plan)


def _outcome_row(oc: Outcome) -> list:
    return [getattr(oc.plan if part == "plan" else oc, attr)
            for _, part, attr, _ in _LOG_COLUMNS]


def _parse_row(cells: list, seed: int) -> Outcome:
    """The outcome a log row records; its wall time was not measured in
    this process."""
    if len(cells) != len(_LOG_COLUMNS):
        raise ValueError(f"{len(cells)} columns, want {len(_LOG_COLUMNS)}")
    kw = {"plan": {"seed": seed}, "outcome": {"wall_time": float("nan")}}
    for (_, part, attr, parse), text in zip(_LOG_COLUMNS, cells):
        kw[part][attr] = parse(text)
    if kw["outcome"]["outcome"] not in OUTCOME_CLASSES:
        raise ValueError(f"unknown outcome {kw['outcome']['outcome']!r}")
    return Outcome(InjectionPlan(**kw["plan"]), **kw["outcome"])


def _log_header(ctx: InjectionContext, structure_id: str, seed: int) -> dict:
    """What a log must share with the campaign that resumes it."""
    return {
        "schema": LOG_SCHEMA,
        "structure": structure_id,
        "seed": seed,
        "baseline": ctx.baseline.iterations,
        "T": ctx.events.T,
        "hang_iters": HANG_ITERS,
    }


def _read_log(path, want_header: dict):
    """A campaign log's finished runs and the byte offset they end at (0 if none).

    The log's header must match ``want_header`` field for field.  An
    unterminated final line is a run interrupted mid-write, not a
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
        logged = dict(
            part.split("=", 1) for part in header[1:].split() if "=" in part
        )
        for name, want in want_header.items():
            got = logged.get(name, "missing")
            if got != str(want):
                raise ValueError(
                    f"{path}: log refused: its {name} is {got}, this "
                    f"campaign's is {want}; delete it to run the campaign "
                    "afresh"
                )
        rows = csv.reader(fh)
        names = next(rows, _LOG_NAMES)  # absent if torn inside this line
        if names != _LOG_NAMES:
            raise ValueError(f"{path}: log refused: its columns are {names}")
        for i, cells in enumerate(rows):
            try:
                outcomes.append(_parse_row(cells, want_header["seed"]))
            except ValueError as exc:
                raise ValueError(f"{path}: logged run {i}: {exc}") from None
    return outcomes, end if outcomes else 0


def run_campaign(
    ctx: InjectionContext,
    structure_id: str,
    n_runs: int,
    seed: int,
    log_path=None,
    parallel: int = 1,
    progress=None,
) -> CampaignResult:
    """Run (or resume) a campaign of independent injected solves.

    With a log path every finished run is appended immediately, so an
    interrupted campaign resumes from the completed prefix; the plan
    sequence is a pure function of the seed, making the resumed tail
    exactly the runs the interrupted campaign would have done.  An
    unfinished log is cut after its last finished row, which drops a torn
    final line, and only an empty log gets the header and column names.
    """
    plans = draw_plans(ctx, structure_id, n_runs, seed)
    header = _log_header(ctx, structure_id, seed)
    outcomes, end = [], 0
    log_fh = writer = None
    if log_path is not None:
        if os.path.exists(log_path):
            outcomes, end = _read_log(log_path, header)
            outcomes = outcomes[:n_runs]
            for oc, plan in zip(outcomes, plans):
                if oc.plan != plan:
                    raise ValueError(
                        f"{log_path}: logged run {plan.run_index} does not "
                        f"match the plan sequence for seed {seed}"
                    )
        if len(outcomes) < n_runs:
            log_fh = open(log_path, "a", newline="")
            log_fh.truncate(end)
            writer = csv.writer(log_fh)
            if end == 0:
                fields = " ".join(f"{k}={v}" for k, v in header.items())
                log_fh.write(f"# campaign {fields}\n")
                writer.writerow(_LOG_NAMES)
    pending = plans[len(outcomes) :]
    pool = None
    try:
        if parallel > 1 and pending:
            pool = multiprocessing.get_context("fork").Pool(
                parallel, initializer=_worker_init, initargs=(ctx,)
            )
            chunk = max(1, min(16, len(pending) // (4 * parallel) or 1))
            done = pool.imap(_worker_run, pending, chunksize=chunk)
        else:
            done = (run_one(ctx, plan) for plan in pending)
        for oc in done:
            outcomes.append(oc)
            if writer is not None:
                writer.writerow(_outcome_row(oc))
                log_fh.flush()
            if progress is not None:
                progress(len(outcomes), n_runs, oc)
    finally:
        if pool is not None:
            pool.terminate()
        if log_fh is not None:
            log_fh.close()
    return CampaignResult.from_outcomes(structure_id, outcomes, ctx.baseline)
