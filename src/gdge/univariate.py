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

The moments and the generating functions, of this law and of the bivariate
one, are one series over the lattice (`_lattice_sum`), truncated on a
certified tail bound at every theta; past its term cap it gives up with
`SeriesCapError` rather than return an uncertified partial sum.
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
    _corners,
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
    """r-th raw moment ``E X^r``, the lattice series (`_lattice_sum`) of the pmf against ``x^r``."""
    if isinstance(r, bool) or not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"moment order must be a positive integer, got {r!r}")
    return _lattice_sum(params.theta, [(params.alpha, params.p)], [0.0], power=int(r))


@_quiet_logs
def _lattice_sum(theta, laws, rates, negative=(False, False), power=0, tol=_SERIES_TOL):
    """``E prod_j w_j(X_j)`` under the compounded law of one or two coordinates, one base ``(alpha, p)`` each in
    ``laws``: ``w_j(x) = x^power e^(rates_j x)``, negated at odd x where ``negative`` flags the axis (a pgf
    argument z is the rate ``log|z|``, -inf at z = 0 as ``0^0 = 1``, and the flag ``z < 0``).  One coordinate's
    alpha may be a column of shapes, one total each.

    The pmf is the kernel's product of positive factors (`dge._terms`) multiplied out, each over one corner's
    ``1 - tau w`` so that no partial product under- or overflows, not `dge._logpmf`'s sum of their logs, whose
    rounding the cancellation of alternating weights would show; ``pmf(x) w(x)`` is formed in log space, where
    a positive rate's weight cannot overflow alone.  The sum runs over boxes
    [0, a_1) x [0, a_2), 16 cells a side and then grown, only the new cells summed, in `_CHUNK` slices, until
    the terms outside are certified below ``tol`` times the total (plus ``tol`` where a sign lets it vanish):
    each axis grows to within a quarter of the least end at which its bound below meets its share, given the
    total so far, but at most doubles.  Where a box would need more than `SERIES_CAP` cells, or more than the
    count series, about ``log(tol) / log(1 - theta)`` counts times the sum of its sides, two coordinates go to
    that series (`_count_series`) if it needs at most `SERIES_CAP` counts; past `SERIES_CAP` cells,
    `SeriesCapError`.  An axis whose weight is 1 sums out.  With
    ``q = p e^t < 1`` (else `ValueError`: the series diverges) and r the power, the terms outside are bounded
    (compared in logs, where theta^-2 or q^a need not be a float):
    - for the base law, ``P(X_1 = x) <= 1 - (1 - p^x)^alpha <= -alpha log(1 - p^x) <= alpha p^x / (1 - p^a)``
      at ``x >= a >= 1``, and past a the ratio of ``|w(x)| p^x`` is at most ``q ((a+1)/a)^r``, so the weighted
      tail ``h(a) = E |w(X_1)| 1{X_1 >= a}`` is at most ``alpha a^r q^a / ((1 - p^a)(1 - q ((a+1)/a)^r))``;
    - given N = n the coordinates are independent maxima of n base draws, and a maximum is one of its draws, so
      ``|w(max)| 1{max >= a} <= sum_i |w(X_i)| 1{X_i >= a}``, of mean ``n h(a)``, and ``E |w(max)| <= n G``, G
      the base law's ``E |w(X_1)|``, or ``<= 1`` where ``|w| <= 1`` (take G = 1 there);
    - a term outside the box has some ``x_j >= a_j``, so the terms outside sum in absolute value to at most
      ``sum_j E[N^(1+m_j)] h_j(a_j) prod_(i != j) G_i``, m_j the number of the other axes with ``G_i > 1``, and
      ``E N = 1/theta``, ``E N^2 = (2 - theta) / theta^2``; one coordinate's is ``P(X >= a) <= alpha p^a /
      ((1 - p^a) theta)``, weighted.  G_i is 1.01 times this sum at theta = 1, which is within `_SERIES_TOL`.
    """
    if not all(t + math.log(p) < 0.0 for (_, p), t in zip(laws, rates)):
        raise ValueError(f"series diverges: p * exp(rate) >= 1 at the rates {rates!r}")
    keep = [j for j, t in enumerate(rates) if t or power or negative[j]]
    if not keep:
        return 1.0
    laws, rates, negative = ([v[j] for j in keep] for v in (laws, rates, negative))
    d = len(laws)
    g = [1.01 * _lattice_sum(1.0, [law], [t], power=power) if d > 1 and (t > 0.0 or power) else 1.0
         for law, t in zip(laws, rates)]

    def tail(j, a):
        """The log of the bound on the terms past a on axis j."""
        (alpha, p), others = laws[j], math.prod(g) / g[j]
        lq = rates[j] + math.log(p)
        ratio = math.exp(lq + power * math.log1p(1.0 / a))
        if ratio >= 1.0:
            return math.inf
        count = math.log(2.0 - theta) - 2.0 * math.log(theta) if others > 1.0 else -math.log(theta)
        return (count + math.log(others * np.max(alpha)) + power * math.log(a) + a * lq
                - math.log((1.0 - p ** a) * (1.0 - ratio)))

    def reach(j, a, bound):
        """The first end ``a 1.25^k``, rounded up, at which ``tail(j, .) <= bound``, or one past `SERIES_CAP`."""
        while a <= SERIES_CAP and tail(j, a) > bound:
            a = -(-5 * a // 4)
        return a

    def box(lows, ends):
        axes = [np.arange(lo, a, dtype=float) for lo, a in zip(lows, ends)]
        if not all(map(len, axes)):
            return 0.0
        logw = [np.multiply(x, t, out=np.zeros_like(x), where=x > 0.0) + (power * np.log(x) if power else 0.0)
                for x, t in zip(axes, rates)]
        rows, total = max(1, _CHUNK * len(axes[0]) // (np.size(laws[0][0]) * math.prod(map(len, axes)))), 0.0
        for i in range(0, len(axes[0]), rows):
            xs, lws = (np.ix_(v[0][i:i + rows], *v[1:]) for v in (axes, logw))
            shapes, ps, cells = _stacked([(*law, x) for law, x in zip(laws, xs)])
            l1, l0, r, *_ = _base_logs(ps, cells)
            lw, lw_ = shapes * l1, shapes * l0  # log u, log v per coordinate
            factors = [*(np.exp(lw) * -np.expm1(-shapes * r)), theta]  # u_j - v_j as in `dge._log_gap`, theta
            if theta < 1.0:  # the other factors of `dge._terms`, each over one corner's den
                if d > 1:
                    lprod = lw.sum(axis=0) + lw_.sum(axis=0)
                    factors.append(theta * (2.0 - theta) - (1.0 - theta) ** 2 * np.expm1(lprod))
                factors = [f / e for f, e in zip(factors, _den(theta, _corners(lw, lw_)))]
            terms = np.exp(np.log(math.prod(factors)) + sum(lws))
            odd = sum(x for x, neg in zip(xs, negative) if neg) % 2  # 0 where no axis is negated
            total = total + (terms * (1.0 - 2.0 * odd)).sum(axis=tuple(range(-d, 0)))
        return total

    ends, want, total, floor = [0] * d, [16] * d, 0.0, tol if any(negative) else 0.0
    counts = math.log(tol) / math.log1p(-theta) if theta < 1.0 else 1.0  # about the count series' length
    while want != ends:
        if d > 1 and math.prod(want) > min(SERIES_CAP, counts * sum(want)) and counts <= SERIES_CAP:
            return _count_series(theta, laws, rates, negative, g, tol)
        want = [min(b, max(2 * a, 16)) for a, b in zip(ends, want)]
        if math.prod(want) > SERIES_CAP:
            raise SeriesCapError("lattice series exceeded the term cap")
        # the new cells, as strips: [0, b_i) on the axes before j, [a_j, b_j) on j, [0, a_i) after it
        total = total + sum(box([0] * j + [a] + [0] * (d - j - 1), want[:j + 1] + ends[j + 1:])
                            for j, a in enumerate(ends))
        ends, budget = want, np.log(tol * (np.min(np.abs(total)) + floor) / d)
        want = [reach(j, a, budget) for j, a in enumerate(ends)]
    return _maybe_scalar(total)


def _count_series(theta, laws, rates, negative, g, tol):
    """`_lattice_sum` of two coordinates where its box would pass the cap or cost more, by the latent count:
    ``sum_n theta tau^(n-1) g_1(n) g_2(n)``, g_j(n) the one-coordinate sum at shape ``n alpha_j`` and theta = 1
    (given N = n the coordinates are independent maxima of n base draws), within ``0.1 tol`` each.  Counts come
    in blocks of growing length, and the sum stops at the first n whose tail is certified below ``0.8 tol``
    times the total (plus ``tol`` where a sign lets it vanish).  For m > n, ``|g_j(m)| <= m G_j`` where
    ``G_j > 1`` (a maximum is bounded by the sum of its draws), ``g_j(m) <= g_j(n)`` where ``0 <= w_j <= 1``
    falls in x (the maximum grows with m), and ``|g_j(m)| <= 1`` elsewhere, so with c_j these constants and k
    the number of G_j > 1 the terms past n sum to at most ``theta prod_j c_j tau^n (n+1)^k / (1 - rho)``,
    ``rho = tau ((n+2)/(n+1))^k`` the largest ratio of two consecutive terms past n.  The g_j's errors add at
    most ``0.2 tol`` times the sum of the terms' absolute values, which is the total where no axis is negated.
    """
    tau, k, floor = 1.0 - theta, sum(c > 1.0 for c in g), tol if any(negative) else 0.0
    total, n0, block = 0.0, 1, 16
    while n0 <= SERIES_CAP:
        ns = np.arange(n0, n0 + block, dtype=float)
        gs = [_lattice_sum(1.0, [(ns[:, None] * alpha, p)], [t], [neg], tol=0.1 * tol)
              for (alpha, p), t, neg in zip(laws, rates, negative)]
        totals = total + np.cumsum(theta * tau ** (ns - 1.0) * gs[0] * gs[1])
        c = math.prod(g) * math.prod(gj for gj, t, neg in zip(gs, rates, negative) if t <= 0.0 and not neg)
        rho = tau * ((ns + 2.0) / (ns + 1.0)) ** k
        tails = np.where(rho < 1.0, theta * c * (ns + 1.0) ** k * tau ** ns / (1.0 - rho), np.inf)
        done = tails <= 0.8 * tol * (np.abs(totals) + floor)
        if done.any():
            return float(totals[done.argmax()])
        total, n0, block = totals[-1], n0 + block, min(2 * block, 256)
    raise SeriesCapError("count series exceeded the term cap")


def _pgf_rates(zs):
    """The rates and signs of the pgf arguments ``zs`` as `_lattice_sum` takes them; each needs |z| < 1."""
    if not all(abs(z) < 1.0 for z in zs):
        raise ValueError(f"pgf arguments must satisfy |z| < 1, got {zs!r}")
    return [math.log(abs(z)) if z else -math.inf for z in zs], [z < 0.0 for z in zs]


def ugdge_pgf(params: UgdgeParams, z: float) -> float:
    """Probability generating function ``E z^X`` for |z| < 1, the lattice series (`_lattice_sum`)."""
    return _lattice_sum(params.theta, [(params.alpha, params.p)], *_pgf_rates([z]))


def ugdge_mgf(params: UgdgeParams, t: float) -> float:
    """Moment generating function ``E exp(t X)`` (`_lattice_sum`), finite iff ``t + log p < 0``, else `ValueError`."""
    return _lattice_sum(params.theta, [(params.alpha, params.p)], [float(t)])


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
