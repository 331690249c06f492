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

import numpy as np

from .dge import (
    _CHUNK,
    SERIES_CAP,
    DgeParams,
    SeriesCapError,
    _cdf_logs,
    _den,
    _evaluate,
    _ge_inverse,
    _log_cdf,
    _log_den,
    _maybe_scalar,
    _nonneg,
    _survival,
    _uni_logpmf,
    dge_cdf,
    pow1m,
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
    "cond_n_mean_closed_form",
]


@dataclass(frozen=True)
class UgdgeParams:
    """Base-law parameters plus the geometric compounding probability."""

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


def ugdge_cdf(params: UgdgeParams, x):
    """CDF ``theta*A / (1 - (1-theta)*A)`` with A the base CDF at x."""
    al, p, th = params.as_tuple()

    def cdf(x):
        la = _log_cdf(al, p, x)
        return th * np.exp(la) / _den(th, la)

    return _evaluate(cdf, np.asarray(x, dtype=float))


def ugdge_pmf(params: UgdgeParams, x):
    """pmf ``theta*(u - v) / ((1 - tau*u)(1 - tau*v))``, u/v base CDF at x, x-1."""
    al, p, th = params.as_tuple()
    return _evaluate(lambda x: np.exp(_uni_logpmf(al, p, th, x)), _nonneg(x, "ugdge_pmf"))


def ugdge_hazard(params: UgdgeParams, x):
    """Discrete hazard ``pmf(x) / P(X >= x)`` of the compounded law.

    Simplifies to ``theta*(u - v) / ((1 - tau*u)(1 - v))``; the ``1 - v``
    factor is evaluated cancellation-free.
    """
    al, p, th = params.as_tuple()

    def hazard(x):
        lu, lv, lg = _cdf_logs(al, p, x)
        return th * np.exp(lg - _log_den(th, lu)) / _survival(lv)

    return _evaluate(hazard, _nonneg(x, "ugdge_hazard"))


def hazard_weight(params: UgdgeParams, x):
    """Factor taking the base hazard at x to the compounded hazard at x.

    ``hazard(x) = hazard_weight(x) * base_hazard(x)`` with weight
    ``theta / (1 - (1-theta) * A(x))`` — an increasing function of x that
    climbs from roughly theta to 1, so compounding damps early hazards most.
    """
    al, p, th = params.as_tuple()
    return _evaluate(lambda x: th / _den(th, _log_cdf(al, p, x)), np.asarray(x, dtype=float))


def pmf_weight(params: UgdgeParams, x):
    """Factor taking the base pmf at x to the compounded pmf at x."""
    al, p, th = params.as_tuple()

    def weight(x):
        lu, lv, _ = _cdf_logs(al, p, x)
        return th * np.exp(-_log_den(th, lu) - _log_den(th, lv))

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


def ugdge_moment(params: UgdgeParams, r: int, eps: float = 1e-12) -> float:
    """r-th raw moment by survival summation.

    ``E X^r = sum_{x>=1} (x^r - (x-1)^r) * P(X >= x)`` with the survival
    ``(1-B)/(1-(1-theta)B)``, ``B`` the base CDF at ``x-1``.  Terms are
    accumulated in blocks until the running term drops below
    ``eps * (total + 1)``; exceeding the global term cap raises
    `SeriesCapError`.
    """
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"moment order must be a positive integer, got {r!r}")
    al, p, th = params.as_tuple()
    tau = 1.0 - th
    total = 0.0
    block = 2048
    start = 1
    while start <= SERIES_CAP:
        xs = np.arange(start, start + block, dtype=float)
        b = pow1m(p, xs, al)  # base CDF at x-1
        surv = (1.0 - b) / (1.0 - tau * b)
        terms = (xs ** r - (xs - 1.0) ** r) * surv
        total += float(terms.sum())
        if terms[-1] < eps * (abs(total) + 1.0):
            return total
        start += block
    raise SeriesCapError("moment series exceeded the term cap")


def _power_weighted_sum(params: UgdgeParams, z: float, eps: float) -> float:
    """``sum_x pmf(x) * z**x`` with a certified geometric tail bound.

    Requires ``p * |z| < 1``.  The tail past x is bounded in absolute value
    using ``P(X >= x) <= 1.01 * alpha * p^x / theta``, valid once
    ``p^x <= 1e-3``.
    """
    al, p, th = params.as_tuple()
    q = p * abs(z)
    if not q < 1.0:
        raise ValueError(f"series diverges: p * |weight| = {q:g} >= 1")
    total = 0.0
    block = 1024
    start = 0
    tail_const = 1.01 * al / th
    while start <= SERIES_CAP:
        xs = np.arange(start, start + block, dtype=float)
        # pmf * z**x in log space: the factors can under/overflow separately
        # (z = e^t may exceed 1) while their product stays tame
        terms = np.exp(_uni_logpmf(al, p, th, xs) + xs * math.log(abs(z)))
        if z < 0.0:
            terms = np.where(xs % 2 == 0, terms, -terms)
        total += float(terms.sum())
        last = start + block - 1
        if p ** last <= 1e-3:
            tail = tail_const * q ** (last + 1) / (1.0 - q)
            if tail < eps * (abs(total) + 1.0):
                return total
        start += block
    raise SeriesCapError("generating-function series exceeded the term cap")


def ugdge_pgf(params: UgdgeParams, z: float, eps: float = 1e-12) -> float:
    """Probability generating function ``E z^X`` for |z| < 1."""
    if not abs(z) < 1.0:
        raise ValueError(f"pgf argument must satisfy |z| < 1, got {z!r}")
    if z == 0.0:
        return float(ugdge_pmf(params, 0))
    return _power_weighted_sum(params, float(z), eps)


def ugdge_mgf(params: UgdgeParams, t: float, eps: float = 1e-12) -> float:
    """Moment generating function ``E exp(t X)``; finite iff ``p*e^t < 1``."""
    return _power_weighted_sum(params, math.exp(float(t)), eps)


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


def ugdge_sample(params: UgdgeParams, rng: np.random.Generator, size=None):
    """Draws via the latent construction, one uniform per variate.

    The maximum of N iid base variates (N geometric) is the floor of a single
    continuous draw with shape ``N * alpha`` — max-stability of the continuous
    family — so each variate costs one geometric and one uniform.  Returns a
    Python int when ``size`` is None, else an int64 array.
    """
    al, p, th = params.as_tuple()
    lam = -math.log(p)
    n = rng.geometric(th, size=size)
    u = rng.random(size)
    y = _ge_inverse(np.asarray(n, dtype=float) * al, lam, u)
    if size is None:
        return int(np.floor(y))
    return np.floor(y).astype(np.int64)


def _uv_scalar(params: UgdgeParams, x: int):
    """Base CDF at x and x-1 plus the pmf at x, validated positive."""
    if x < 0 or x != int(x):
        raise ValueError(f"x must be a nonnegative integer, got {x!r}")
    al, p, th = params.as_tuple()
    u = float(pow1m(p, float(x) + 1.0, al))
    v = float(pow1m(p, float(x), al))
    tau = 1.0 - th
    pm = ugdge_pmf(params, x)
    # the latent-count terms u^n - v^n vanish with the increment u - v
    if not (u > v and pm > 0.0):
        raise ValueError(f"pmf vanished at x={x}; conditional law undefined")
    return u, v, tau, th, pm


def cond_n_pmf(params: UgdgeParams, x: int, n):
    """P(latent count = n | observed maximum = x), n >= 1.

    Equals ``theta * tau^(n-1) * (u^n - v^n) / pmf(x)``.
    """
    u, v, tau, th, pm = _uv_scalar(params, x)
    n = np.asarray(n)
    if np.any(n < 1) or not np.issubdtype(n.dtype, np.integer):
        raise ValueError("latent count must be integer >= 1")
    nf = n.astype(float)
    out = th * tau ** (nf - 1.0) * (u ** nf - v ** nf) / pm
    return _maybe_scalar(out)


def _argmax_scan(parts, tau: float, n_cap: int) -> np.ndarray:
    """Smallest mode over n >= 1 of ``tau^(n-1) * prod_j (hi_j^n - lo_j^n)``, per cell.

    ``parts`` holds one (hi, lo) pair of base-CDF arrays per coordinate.  The
    decreasing envelope ``tau^(n-1) * prod_j hi_j^n`` bounds every later
    term, so a cell is settled, with a certificate, at the first n whose
    envelope falls to the cell's running maximum.  Counts are scanned in
    blocks of growing length, at most `_CHUNK` terms in all, for all
    unsettled cells at once; a cell still unsettled at ``n_cap`` raises
    `SeriesCapError`.
    """
    hi_prod = math.prod(hi for hi, _ in parts)
    best_t = math.prod(hi - lo for hi, lo in parts)
    if np.any(best_t <= 0.0):
        i = int(np.argmax(best_t <= 0.0))
        raise FloatingPointError(f"zero-probability cell {i} in the latent-count scan")
    best_n = np.ones(best_t.shape, dtype=np.int64)
    todo = np.arange(best_t.size)
    n0, block = 2, 16
    while todo.size:
        if n0 > n_cap:
            raise SeriesCapError("latent-count scan exceeded n_cap without a certificate")
        ns = np.arange(n0, min(n0 + block, n_cap + 1), dtype=float)
        lead = tau ** (ns - 1.0)
        env = lead * hi_prod[todo, None] ** ns
        t = math.prod([lead, *(hi[todo, None] ** ns - lo[todo, None] ** ns for hi, lo in parts)])
        prev = best_t[todo]
        # running maximum before each column: settle at the first column whose
        # envelope does not exceed it; only the columns before that count
        before = np.maximum.accumulate(np.column_stack([prev, t[:, :-1]]), axis=1)
        stop = env <= before
        settled = stop.any(axis=1)
        first_stop = np.where(settled, stop.argmax(axis=1), ns.size)
        t = np.where(np.arange(ns.size) < first_stop[:, None], t, -np.inf)
        j = t.argmax(axis=1)
        top = t[np.arange(todo.size), j]
        better = top > prev
        best_t[todo[better]] = top[better]
        best_n[todo[better]] = n0 + j[better]
        todo = todo[~settled]
        n0 += ns.size
        block = min(2 * block, max(16, _CHUNK // max(todo.size, 1)))
    return best_n


def cond_n_argmax(params: UgdgeParams, x: int, n_cap: int = SERIES_CAP) -> int:
    """Most likely latent count given the observed maximum, smallest on ties.

    Scans ``t(n) = tau^(n-1) * (u^n - v^n)`` upward with `_argmax_scan`.
    """
    u, v, tau, th, pm = _uv_scalar(params, x)
    if tau == 0.0:
        return 1
    return int(_argmax_scan([(np.array([u]), np.array([v]))], tau, n_cap)[0])


def cond_n_mean(params: UgdgeParams, x: int, eps: float = 1e-12) -> float:
    """Mean latent count given the observed maximum, by direct summation.

    The tail past n is bounded in closed form by
    ``u * r^n * ((n+1) - n*r) / (1-r)^2`` with ``r = tau * u``, so the
    truncation error is certified below ``eps * (mean + 1)``.
    """
    u, v, tau, th, pm = _uv_scalar(params, x)
    if tau == 0.0:
        return 1.0
    r = tau * u
    scale = th / pm
    total = 0.0
    n = 0
    while True:
        n += 1
        if n > SERIES_CAP:
            raise SeriesCapError("conditional-mean series exceeded the term cap")
        total += n * tau ** (n - 1) * (u ** n - v ** n)
        tail = u * r ** n * ((n + 1.0) - n * r) / (1.0 - r) ** 2
        if scale * tail < eps * (abs(scale * total) + 1.0):
            return scale * total


def cond_n_mean_closed_form(params: UgdgeParams, x: int) -> float:
    """Closed-form companion of `cond_n_mean` (independent cross-check route)."""
    u, v, tau, th, pm = _uv_scalar(params, x)
    return th * (u / (1.0 - tau * u) ** 2 - v / (1.0 - tau * v) ** 2) / pm
