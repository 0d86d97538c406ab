"""The statistics of the validation report, computed with numpy alone.

* ``ndtri`` — the standard normal quantile, a port of Moshier's Cephes
  ``ndtri``: a rational approximation in ``p - 0.5`` for the central
  region and two in ``1 / sqrt(-2 log p)`` for the tails, split at
  ``exp(-2)`` and ``exp(-32)``.
* ``wilson_ci`` — Wilson's (1927) score interval for a binomial
  proportion, with its ``z`` taken from ``ndtri``.
* ``pearson`` and ``spearman`` — the two correlation coefficients the
  report ranks the metrics with.

Each function performs the same floating-point operations, in the same
order, as the SciPy routine it replaces (``special.ndtri``,
``stats.pearsonr`` and ``stats.spearmanr`` of SciPy 1.17 on numpy
input), so the report's bytes do not depend on which one computed them.
"""

from __future__ import annotations

import math

import numpy as np

_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)

# Central region, |p - 0.5| <= 3/8: x/sqrt(2pi) = y + y^3 P0(y^2)/Q0(y^2).
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# Tail, z = sqrt(-2 log p) in [2, 8): p down to exp(-32).
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# Far tail, z >= 8.
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef) -> float:
    """Horner's rule, highest power first.  A leading 1.0 costs Cephes'
    ``p1evl`` nothing in exactness: 1.0 * x is x."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(p: float) -> float:
    """The x with Phi(x) = p for the standard normal CDF Phi.

    Returns -inf at 0, inf at 1 and NaN outside [0, 1].
    """
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    y = p
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


def wilson_ci(successes: int, n: int, confidence: float = 0.99):
    """Wilson score interval for a binomial proportion.

    ``z`` is the ``(1 + confidence) / 2`` normal quantile (``ndtri``).
    The degenerate tallies keep their exact endpoints: zero successes
    pin the lower bound to 0.0 and a full house pins the upper to 1.0.
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    z = ndtri(0.5 + confidence / 2.0)
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
