"""The statistics of the validation report, computed with numpy alone.

* ``wilson_ci`` — Wilson's (1927) score interval for a binomial
  proportion at 99% confidence, the ``ci99`` of every report.
* ``pearson`` and ``spearman`` — the two correlation coefficients the
  report ranks the metrics with.

Each function performs the same floating-point operations, in the same
order, as the SciPy routine it replaces (``stats.pearsonr`` and
``stats.spearmanr`` of SciPy 1.17 on numpy input), and ``Z99`` is
SciPy's standard normal quantile at 0.995 to the last bit, so the
report's bytes do not depend on which one computed them.
"""

from __future__ import annotations

import math

import numpy as np

#: The standard normal quantile at 0.995, the z of a two-sided 99% interval.
Z99 = 2.5758293035489004


def wilson_ci(successes: int, n: int):
    """Wilson score interval at 99% confidence for a binomial proportion.

    The degenerate tallies keep their exact endpoints: zero successes
    pin the lower bound to 0.0 and a full house pins the upper to 1.0.
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    z = Z99
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / n + z * z / (4.0 * n * n)
    )
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


def _constant(v: np.ndarray) -> bool:
    return bool(np.all(v == v[0]))


def pearson(x, y) -> float:
    """Pearson's r of two equal-length samples; NaN if either is constant.

    The deviations are scaled by their largest magnitude before their
    norm is taken, so the norm cannot overflow.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if _constant(x) or _constant(y):
        return math.nan
    xm = x - np.mean(x, axis=-1, keepdims=True)
    ym = y - np.mean(y, axis=-1, keepdims=True)
    xmax = np.max(np.abs(xm), axis=-1, keepdims=True)
    ymax = np.max(np.abs(ym), axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        normxm = xmax * np.linalg.norm(xm / xmax, axis=-1, keepdims=True)
        normym = ymax * np.linalg.norm(ym / ymax, axis=-1, keepdims=True)
        r = np.vecdot(xm / normxm, ym / normym, axis=-1)
    return float(np.clip(r, -1.0, 1.0))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    first = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    counts = np.diff(np.r_[first, len(v)])
    ranks = np.empty(len(v))
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    return ranks


def spearman(x, y) -> float:
    """Spearman's rho: Pearson's r of the average ranks (by
    ``np.corrcoef``); NaN if either sample is constant or holds a NaN."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if (_constant(x) or _constant(y)
            or np.isnan(x).any() or np.isnan(y).any()):
        return math.nan
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])
