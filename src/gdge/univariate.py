"""Geometric compounding of the base discrete law, one coordinate.

Let X_1, X_2, ... be iid draws of the base law (`dge`) and let N be an
independent geometric count with success probability theta.  The maximum
X_(N) = max(X_1, ..., X_N) has CDF

    F(x) = theta * A(x) / (1 - (1 - theta) * A(x)),     A = base CDF,

a three-parameter family on {0, 1, 2, ...} (shape alpha, base probability p,
compounding theta).  theta = 1 recovers the base law.  This module evaluates
that family (cdf/pmf/hazard/quantile/moments/generating functions), samples
from it, and exposes the conditional law of the latent count N given the
observed maximum — the ingredient the EM fitter imputes.

All series are truncated with explicit, certified error bounds and give up
with `SeriesCapError` rather than return an uncertified partial sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dge import (
    _CHUNK,
    SERIES_CAP,
    DgeParams,
    SeriesCapError,
    _base_logs,
    _cdf_logs,
    _coords,
    _den,
    _evaluate,
    _floor,
    _ge_inverse,
    _log_cdf,
    _log_gap,
    _logpmf,
    _maybe_scalar,
    _nonneg,
    _quiet_logs,
    _stacked,
    _survival,
    _terms,
    dge_cdf,
)

__all__ = [
    "UgdgeParams",
    "ugdge_cdf",
    "ugdge_pmf",
    "ugdge_hazard",
    "hazard_weight",
    "pmf_weight",
    "ugdge_quantile",
    "ugdge_moment",
    "ugdge_pgf",
    "ugdge_mgf",
    "mixture_cdf_approx",
    "compound_geometric_params",
    "ugdge_sample",
    "cond_n_pmf",
    "cond_n_argmax",
    "cond_n_mean",
]

#: The moment and generating-function series stop once their tail is certified below this times their total.
_SERIES_TOL = 1e-12


@dataclass(frozen=True)
class UgdgeParams:
    """Base-law parameters plus the geometric compounding probability."""

    #: The parameters' names, in the order of `from_values` and `as_tuple`.
    names: ClassVar[tuple] = ("alpha", "p", "theta")

    base: DgeParams
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta!r}")

    @classmethod
    def from_values(cls, alpha: float, p: float, theta: float) -> "UgdgeParams":
        return cls(DgeParams(alpha, p), theta)

    @property
    def alpha(self) -> float:
        return self.base.alpha

    @property
    def p(self) -> float:
        return self.base.p

    def as_tuple(self):
        return (self.base.alpha, self.base.p, self.theta)


def _compound_cdf(theta, laws, *xs):
    """``theta*W / (1 - (1-theta)*W)``, W the product over the base laws ``(alpha, p)`` of their CDFs at ``xs``.

    The CDF of the coordinatewise maxima of one geometric(theta) count of draws, one coordinate per law.
    """

    def cdf(*points):
        lw = sum(_log_cdf(alpha, p, x) for (alpha, p), x in zip(laws, points))
        return theta * np.exp(lw) / _den(theta, lw)

    return _evaluate(cdf, *(_floor(x) for x in xs))


def ugdge_cdf(params: UgdgeParams, x):
    """CDF ``theta*A / (1 - (1-theta)*A)`` with A the base CDF at x."""
    return _compound_cdf(params.theta, [(params.alpha, params.p)], x)


def ugdge_pmf(params: UgdgeParams, x):
    """pmf ``theta*(u - v) / ((1 - tau*u)(1 - tau*v))``, u/v base CDF at x, x-1."""
    al, p, th = params.as_tuple()
    return _evaluate(lambda x: np.exp(_logpmf(th, [(al, p, x)])), _nonneg(x, "ugdge_pmf"))


def ugdge_hazard(params: UgdgeParams, x):
    """Discrete hazard ``pmf(x) / P(X >= x)`` of the compounded law.

    Simplifies to ``theta*(u - v) / ((1 - tau*u)(1 - v))``; the ``1 - v``
    factor is evaluated cancellation-free.
    """
    al, p, th = params.as_tuple()

    def hazard(x):
        lu, lv, lg = _cdf_logs(al, p, x)
        return th * np.exp(lg - np.log(_den(th, lu))) / _survival(lv)

    return _evaluate(hazard, _nonneg(x, "ugdge_hazard"))


def hazard_weight(params: UgdgeParams, x):
    """Factor taking the base hazard at x to the compounded hazard at x.

    ``hazard(x) = hazard_weight(x) * base_hazard(x)`` with weight
    ``theta / (1 - (1-theta) * A(x))`` — an increasing function of x that
    climbs from roughly theta to 1, so compounding damps early hazards most.
    """
    al, p, th = params.as_tuple()
    return _evaluate(lambda x: th / _den(th, _log_cdf(al, p, x)), _floor(x))


def pmf_weight(params: UgdgeParams, x):
    """Factor taking the base pmf at x to the compounded pmf at x."""
    al, p, th = params.as_tuple()

    def weight(x):
        lu, lv, _ = _cdf_logs(al, p, x)
        return th * np.exp(-np.log(_den(th, lu)) - np.log(_den(th, lv)))

    return _evaluate(weight, _nonneg(x, "pmf_weight"))


def ugdge_quantile(params: UgdgeParams, gamma: float) -> int:
    """Smallest integer q with ``cdf(q) >= gamma``, for gamma in (0, 1).

    A closed-form continuous pilot value is floored/ceiled and then corrected
    by a short local integer search, so the result is exact even when the
    pilot lands within rounding error of a jump.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    al, p, th = params.as_tuple()
    # invert: cdf(q) >= gamma  <=>  A >= c  with  c = gamma / (theta + gamma*(1-theta))
    c = gamma / (th + gamma * (1.0 - th))
    # 1 - c**(1/alpha), kept accurate when c is close to 1
    w = -math.expm1(math.log(c) / al)
    if w <= 0.0:  # c rounded to 1: demand essentially the whole support
        raise ValueError("gamma too close to 1 for a finite quantile at these parameters")
    q = max(int(math.ceil(math.log(w) / math.log(p) - 1.0)), 0)
    guard = 0
    while q > 0 and ugdge_cdf(params, q - 1) >= gamma:
        q -= 1
        guard += 1
        if guard > SERIES_CAP:
            raise SeriesCapError("quantile search failed to settle")
    while ugdge_cdf(params, q) < gamma:
        q += 1
        guard += 1
        if guard > SERIES_CAP:
            raise SeriesCapError("quantile search failed to settle")
    return q


def ugdge_moment(params: UgdgeParams, r: int) -> float:
    """r-th raw moment by survival summation.

    ``E X^r = sum_{x>=1} (x^r - (x-1)^r) * P(X >= x)``, the survival formed
    from the log of the base CDF B at x - 1 as ``(1-B)/(1-(1-theta)B)``.  The
    blocks stop once the tail past the last term L is certified below `_SERIES_TOL`
    times the total: for ``p^(L+1) <= 1e-3``, ``P(X >= x) <= 1.01 * alpha *
    p^x / theta`` (as in `_power_weighted_sum`) and the weights grow by at most
    ``((L+2)/L)^(r-1)`` a step.  Past the global term cap, `SeriesCapError`.
    """
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"moment order must be a positive integer, got {r!r}")
    al, p, th = params.as_tuple()
    total, start, block = 0.0, 1, 2048
    while start <= SERIES_CAP:
        xs = np.arange(start, start + block, dtype=float)
        lb = _log_cdf(al, p, xs - 1.0)
        total += float(((xs ** r - (xs - 1.0) ** r) * -np.expm1(lb) / _den(th, lb)).sum())
        last = start + block - 1.0
        q = p * ((last + 2.0) / last) ** (r - 1)
        if p ** (last + 1.0) <= 1e-3 and q < 1.0:
            tail = 1.01 * al / th * ((last + 1.0) ** r - last ** r) * p ** (last + 1.0) / (1.0 - q)
            if tail <= _SERIES_TOL * total:
                return total
        start += block
    raise SeriesCapError("moment series exceeded the term cap")


def _power_weighted_sum(shapes, p: float, theta: float, z: float, eps: float) -> np.ndarray:
    """``sum_x pmf(x) * z**x`` for each law (shape, p, theta) of the 1-D array ``shapes``.

    Requires ``p * |z| < 1``.  The laws share `dge._base_logs` at each block of
    x, which grow from 64 to at most `_CHUNK` elements a law.  A law's tail past
    x is bounded in absolute value using ``P(X >= x) <= 1.01 * shape * p^x /
    theta``, valid once ``p^x <= 1e-3``, and the sum stops once every tail is
    below ``eps`` times its total; where z < 0 lets a total vanish, below
    ``eps`` times the total plus ``eps``.
    """
    q = p * abs(z)
    if not q < 1.0:
        raise ValueError(f"series diverges: p * |weight| = {q:g} >= 1")
    shapes = np.asarray(shapes, dtype=float)[:, None]
    if z == 1.0:  # the total mass
        return np.ones(shapes.shape[0])
    if z == 0.0:
        return np.exp(_logpmf(theta, [(shapes, p, np.zeros(1))]))[:, 0]
    lz, floor = math.log(abs(z)), (eps if z < 0.0 else 0.0)
    tail_const = 1.01 * shapes[:, 0] / theta
    total = np.zeros(shapes.shape[0])
    start, block = 0, 64
    while start <= SERIES_CAP:
        xs = np.arange(start, start + block, dtype=float)
        # pmf * z**x in log space: the factors can under/overflow separately
        # (z = e^t may exceed 1) while their product stays tame
        terms = np.exp(_logpmf(theta, [(shapes, p, xs)]) + xs * lz)
        if z < 0.0:
            terms = np.where(xs % 2 == 0, terms, -terms)
        total += terms.sum(axis=1)
        start += block
        if p ** (start - 1) <= 1e-3 and np.all(tail_const * q ** start / (1.0 - q) <= eps * (np.abs(total) + floor)):
            return total
        block = min(2 * block, max(64, _CHUNK // shapes.shape[0]))
    raise SeriesCapError("generating-function series exceeded the term cap")


def ugdge_pgf(params: UgdgeParams, z: float) -> float:
    """Probability generating function ``E z^X`` for |z| < 1."""
    if not abs(z) < 1.0:
        raise ValueError(f"pgf argument must satisfy |z| < 1, got {z!r}")
    return float(_power_weighted_sum([params.alpha], params.p, params.theta, float(z), _SERIES_TOL)[0])


def ugdge_mgf(params: UgdgeParams, t: float) -> float:
    """Moment generating function ``E exp(t X)``; finite iff ``p*e^t < 1``."""
    return float(_power_weighted_sum([params.alpha], params.p, params.theta, math.exp(float(t)), _SERIES_TOL)[0])


def mixture_cdf_approx(params: UgdgeParams, x, n_terms: int):
    """Partial sum of the geometric-mixture form of the CDF.

    The CDF equals ``theta * sum_{k>=0} (1-theta)^k * A(x)^(k+1)``; truncating
    after ``n_terms`` terms undershoots by at most ``(1-theta)^n_terms``
    uniformly in x.
    """
    if not (isinstance(n_terms, (int, np.integer)) and n_terms >= 1):
        raise ValueError(f"n_terms must be a positive integer, got {n_terms!r}")
    a = np.asarray(dge_cdf(params.base, x), dtype=float)
    tau = 1.0 - params.theta
    acc = np.zeros_like(a)
    for k in range(int(n_terms)):
        acc = acc + tau ** k * a ** (k + 1)
    return _maybe_scalar(params.theta * acc)


def compound_geometric_params(params: UgdgeParams, q: float) -> UgdgeParams:
    """Parameters of the maximum over a geometric(q) number of iid copies.

    The family is closed under geometric maxima: only the compounding
    probability changes, ``theta -> q * theta``.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    return UgdgeParams(params.base, q * params.theta)


def _latent_max(theta, laws, rng: np.random.Generator, size):
    """Coordinatewise maxima of one geometric(theta) count N of draws, one coordinate per base law ``(alpha, p)``.

    The maximum of N iid base variates is the floor of a single continuous
    draw with shape ``N * alpha`` — max-stability of the continuous family —
    so a draw costs the geometric count and then one uniform per law, in the
    order of ``laws``.  The uniforms of every law share one buffer, which
    `_ge_inverse` turns into the draws in place.  Returns one Python int per law
    when ``size`` is None, else one int64 array per law.
    """
    n = np.asarray(rng.geometric(theta, size=size), dtype=float)
    u = np.empty(n.shape)
    out = []
    for alpha, p in laws:
        y = _ge_inverse(n * alpha, -math.log(p), rng.random(size, out=u))
        np.floor(y, out=y)
        out.append(int(y) if size is None else y.astype(np.int64))
    return out


def ugdge_sample(params: UgdgeParams, rng: np.random.Generator, size=None):
    """Draws via the latent construction (`_latent_max`), one geometric and one uniform per variate.

    Returns a Python int when ``size`` is None, else an int64 array.
    """
    return _latent_max(params.theta, [(params.alpha, params.p)], rng, size)[0]


# ---------------------------------------------------------------------------
# the latent count N given a cell of one coordinate or a pair; ``coords`` holds
# ``(alpha, p, x)`` per coordinate.  Given the cell, P(N = n) = theta tau^(n-1)
# prod_j (u_j^n - v_j^n) / pmf, u_j and v_j the base CDFs at x_j and x_j - 1.
# By Fisher's identity (Dempster, Laird and Rubin 1977) the kernel's theta-partial
# ``1/theta - S`` of the log-pmf is the conditional mean of the complete-data
# score ``1/theta - (N - 1)/tau``, so E[N | cell] = 1 + tau S.  The weight
# ``log t(n) = (n-1) log tau + sum_j log(u_j^n - v_j^n)`` of the pmf is concave
# in n, so its mode is found by bisection on the sign of its step.


@_quiet_logs
def _count_terms(theta, coords):
    """The kernel's `_base_logs` per coordinate, log-pmf and S at the cells (see `dge._logpmf_and_grad`), the
    corner terms summed in pairs."""
    logs, logpmf, corners, dens, lprod, den_p = _terms(theta, *_stacked(coords))
    e = np.exp(corners) / dens
    return list(zip(*logs)), logpmf, (e[0::2] + e[1::2]).sum(axis=0) - 2.0 * (1.0 - theta) * (np.exp(lprod) / den_p)


def _count_mean(theta, coords):
    """``E[N | cell] = 1 + tau S``."""
    return 1.0 + (1.0 - theta) * _count_terms(theta, coords)[2]


def _count_pmf(theta, coords, n):
    """``P(N = n | cell)``, from ``log(u^n - v^n) = `_log_gap`(log(1 - p^(x+1)), r, n alpha)`` per coordinate.

    n multiplies the error of ``log(1 - p^(x+1))``, which `_base_logs` keeps to full relative precision
    also where ``p^(x+1)`` crowds 1.
    """
    n = np.asarray(n)
    if np.any(n < 1) or not np.issubdtype(n.dtype, np.integer):
        raise ValueError("latent count must be integer >= 1")
    if theta == 1.0:
        return np.where(n == 1, 1.0, 0.0)
    logs, logpmf, _ = _count_terms(theta, coords)
    if not np.all(logpmf > -math.inf):
        raise ValueError("pmf vanished at the cell; conditional law undefined")
    return np.exp(math.log(theta) + _log_weight(theta, coords, logs, n.astype(float)) - logpmf)


@_quiet_logs
def _log_weight(theta, coords, logs, n):
    """``log t(n) = (n-1) log tau + sum_j log(u_j^n - v_j^n)``, ``logs`` the `_base_logs` of each coordinate."""
    return (n - 1.0) * math.log1p(-theta) + sum(
        _log_gap(l1, r, n * alpha) for (alpha, _, _), (l1, _, r, *_) in zip(coords, logs))


@_quiet_logs
def _count_modes(theta, coords):
    """Smallest mode of N per cell: the least k >= 1 with ``log t(k+1) <= log t(k)`` (`_log_weight`).

    log t is concave in n, and its step ``log t(k+1) - log t(k)`` is at most ``d/k - c``, d the number of
    coordinates and ``c = -(log tau + sum_j log u_j) > 0``, so the mode lies in [1, ceil(d/c)] and
    a bisection on the sign of the step finds it.  Past 2^53, where consecutive integers are no longer all
    floats, `SeriesCapError`.
    """
    coords = [(alpha, p, np.atleast_1d(x)) for alpha, p, x in coords]
    logs = [_base_logs(p, x) for _, p, x in coords]
    c = -(np.log1p(-theta) + sum(alpha * l1 for (alpha, _, _), (l1, *_) in zip(coords, logs)))  # inf at theta = 1
    hi = np.maximum(np.ceil(len(coords) / c), 1.0)
    if np.any(hi > 2.0 ** 53):
        i = int(np.argmax(hi > 2.0 ** 53))
        cell = tuple(int(x[i]) for *_, x in coords)
        raise SeriesCapError(f"the latent-count mode at cell {cell} is bounded only by {hi[i]:g} > 2^53")
    lo = np.ones_like(hi)
    while np.any(lo < hi):
        mid = lo + np.floor((hi - lo) / 2.0)
        down = _log_weight(theta, coords, logs, mid + 1.0) <= _log_weight(theta, coords, logs, mid)
        lo, hi = np.where(down, lo, np.minimum(mid + 1.0, hi)), np.where(down, mid, hi)
    return lo.astype(np.int64)


def cond_n_pmf(params: UgdgeParams, x: int, n):
    """P(latent count = n | observed maximum = x), n >= 1, by `_count_pmf`."""
    return _maybe_scalar(_count_pmf(params.theta, _coords(params.as_tuple(), _nonneg((x,), "a cell")), n))


def cond_n_argmax(params: UgdgeParams, x: int) -> int:
    """Most likely latent count given the observed maximum, smallest on ties.

    Bisects on the sign of the step of the log-concave ``log t(n) = (n-1) log tau +
    log(u^n - v^n)`` (`_count_modes`).
    """
    return int(_count_modes(params.theta, _coords(params.as_tuple(), _nonneg((x,), "a cell")))[0])


def cond_n_mean(params: UgdgeParams, x: int) -> float:
    """Mean latent count given the observed maximum, ``1 + tau S`` (`_count_mean`)."""
    return float(_count_mean(params.theta, _coords(params.as_tuple(), _nonneg((x,), "a cell"))))
