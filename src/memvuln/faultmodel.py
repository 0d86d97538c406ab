"""Analytic model of fault consumption over an access timeline.

A word's history inside an observation window of length ``T`` is reduced
to an ordered list of tagged accesses: each access closes the period
since the previous one (the first period starts at time 0), and the tag
says what a fault striking that period would do — ``unsafe`` means the
access consumes the corrupted value, ``safe`` means it overwrites it.
Faults arrive as a Poisson process with rate ``rate`` per time unit.

Three estimates of the probability that at least one fault is consumed
are exposed side by side:

* ``p_consume_exact`` — per-period union bound sum(1 - exp(-rate * p));
  exact for each period in isolation, slightly above the joint
  probability when several periods could be hit, and deliberately not
  clamped to [0, 1] so the rare-fault regime boundary stays visible.
* ``p_consume_linear`` — first-order expansion rate * vulnerable_time;
  the form metric pipelines use, accurate when rate * T is small.
* ``p_consume_product`` — 1 - prod(exp(-rate * p)), the exact joint
  probability under independent Poisson splitting; always in [0, 1].

``monte_carlo_consume`` cross-checks them by sampling fault arrivals and
brackets its frequency with a 99% Wilson score interval (``ci99``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .stats import wilson_ci

SAFE = "safe"
UNSAFE = "unsafe"

# Below this expected fault count the three estimates agree to ~1%.
RARE_FAULT_THRESHOLD = 0.01


@dataclass(frozen=True)
class FaultModelParams:
    """Poisson fault arrival rate and observation window length."""

    rate: float
    T: float

    def validate(self) -> None:
        if not (self.rate >= 0.0 and math.isfinite(self.rate)):
            raise ValueError("fault rate must be finite and non-negative")
        if not (self.T >= 0.0 and math.isfinite(self.T)):
            raise ValueError("window length must be finite and non-negative")

    @property
    def expected_faults(self) -> float:
        return self.rate * self.T

    @property
    def is_rare(self) -> bool:
        """True when the single-fault approximations are trustworthy."""
        return self.expected_faults <= RARE_FAULT_THRESHOLD


class AccessTimeline:
    """Strictly increasing access times with safe/unsafe tags."""

    def __init__(self, times, tags):
        t = np.asarray(times, dtype=np.float64)
        unsafe = np.asarray(
            [self._parse_tag(tag) for tag in tags], dtype=bool
        )
        if t.ndim != 1 or t.shape != unsafe.shape:
            raise ValueError("times and tags must be matching 1-d sequences")
        if not np.all(np.isfinite(t)):
            raise ValueError("access times must be finite")
        if len(t) and t[0] <= 0.0:
            raise ValueError("access times must be positive")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("access times must be strictly increasing")
        self.times = t
        self.unsafe = unsafe

    @staticmethod
    def _parse_tag(tag):
        if isinstance(tag, (bool, np.bool_)):
            return bool(tag)
        if tag in (SAFE, UNSAFE):
            return tag == UNSAFE
        raise ValueError(f"unknown access tag: {tag!r}")

    @classmethod
    def from_pairs(cls, pairs) -> "AccessTimeline":
        times = [p[0] for p in pairs]
        tags = [p[1] for p in pairs]
        return cls(times, tags)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        for t, u in zip(self.times, self.unsafe):
            yield float(t), (UNSAFE if u else SAFE)

    @property
    def last_time(self) -> float:
        return float(self.times[-1]) if len(self.times) else 0.0

    def periods(self) -> np.ndarray:
        """Length of the period each access closes (first starts at 0)."""
        if not len(self.times):
            return np.zeros(0)
        return np.diff(self.times, prepend=0.0)

    def vulnerable_time(self) -> float:
        """Total time that would be consumed by an unsafe access."""
        return float(self.periods()[self.unsafe].sum())

    def vulnerability(self, T: float) -> float:
        """Vulnerable fraction of a window of length T."""
        if T <= 0.0:
            raise ValueError("window length must be positive")
        return self.vulnerable_time() / T

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"accesses": [[t, tag] for t, tag in self]}

    @classmethod
    def from_json(cls, doc) -> "AccessTimeline":
        pairs = doc.get("accesses") if isinstance(doc, dict) else None
        if not isinstance(pairs, list):
            raise ValueError("a timeline document needs an 'accesses' list")
        for p in pairs:
            if not (isinstance(p, list) and len(p) == 2
                    and isinstance(p[0], (int, float))):
                raise ValueError(f"access {p!r} is not a [time, tag] pair")
        return cls.from_pairs(pairs)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "AccessTimeline":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _check(params: FaultModelParams, timeline: AccessTimeline) -> None:
    params.validate()
    if timeline.last_time > params.T:
        raise ValueError(
            f"timeline extends past the window "
            f"({timeline.last_time} > {params.T})"
        )


def p_consume_exact(params: FaultModelParams, timeline: AccessTimeline) -> float:
    """Sum over unsafe periods of P(at least one fault in the period).

    Not clamped: the value exceeds 1 exactly when the per-period union
    bound stops being a probability, which is itself a useful signal
    that the rare-fault assumption has been left behind.
    """
    _check(params, timeline)
    p_unsafe = timeline.periods()[timeline.unsafe]
    return float(-np.expm1(-params.rate * p_unsafe).sum())


def p_consume_linear(params: FaultModelParams, timeline: AccessTimeline) -> float:
    """First-order estimate: rate times total vulnerable time."""
    _check(params, timeline)
    return params.rate * timeline.vulnerable_time()


def p_consume_product(params: FaultModelParams, timeline: AccessTimeline) -> float:
    """Exact probability that some fault lands in an unsafe period."""
    _check(params, timeline)
    return float(-math.expm1(-params.rate * timeline.vulnerable_time()))


@dataclass(frozen=True)
class ConsumeEstimate:
    """Monte-Carlo estimate of the consume probability."""

    frequency: float
    ci_low: float
    ci_high: float
    trials: int
    consumed: int


def monte_carlo_consume(
    params: FaultModelParams,
    timeline: AccessTimeline,
    trials: int = 100_000,
    seed: int = 0,
) -> ConsumeEstimate:
    """Sample Poisson fault arrivals and count trials that consume one.

    Each trial draws a Poisson number of faults over [0, T] at uniform
    positions; the trial consumes a fault when any arrival falls inside
    a period closed by an unsafe access.  Returns the hit frequency with
    its 99% Wilson score interval.
    """
    _check(params, timeline)
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.poisson(params.expected_faults, trials)
    total = int(counts.sum())
    hits = 0
    if total and len(timeline):
        fault_times = rng.random(total) * params.T
        trial_of = np.repeat(np.arange(trials), counts)
        period = np.searchsorted(timeline.times, fault_times, side="left")
        in_range = period < len(timeline)
        consumed_fault = np.zeros(total, dtype=bool)
        consumed_fault[in_range] = timeline.unsafe[period[in_range]]
        hit_trials = np.bincount(
            trial_of[consumed_fault], minlength=trials
        ) > 0
        hits = int(hit_trials.sum())
    lo, hi = wilson_ci(hits, trials)
    return ConsumeEstimate(hits / trials, lo, hi, trials, hits)
