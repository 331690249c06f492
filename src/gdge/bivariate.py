"""Five-parameter bivariate law built from a shared geometric count.

Draw N geometric(theta); draw N iid pairs of independent base variates with
parameters (alpha1, p1) and (alpha2, p2); keep the coordinatewise maxima.
The resulting pair (X, Y) has joint CDF

    F(x, y) = theta * A * B / (1 - (1 - theta) * A * B),

with A, B the base CDFs of the two coordinates.  The shared count makes the
coordinates positively dependent; theta = 1 gives independence.  This module
evaluates the joint law, its marginals and conditionals, the latent-count
conditionals used by the EM fitter, and samples from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dge import (
    SERIES_CAP,
    DgeParams,
    SeriesCapError,
    _cdf_logs,
    _coords,
    _den,
    _evaluate,
    _floor,
    _log_cdf,
    _logpmf,
    _maybe_scalar,
    _nonneg,
)
from .univariate import (
    _SERIES_TOL,
    UgdgeParams,
    _compound_cdf,
    _count_mean,
    _count_modes,
    _count_pmf,
    _latent_max,
    _power_weighted_sum,
)

__all__ = [
    "BgdgeParams",
    "BivCell",
    "bgdge_cdf",
    "prob_eq_le",
    "bgdge_pmf",
    "marginal_params",
    "cond_given_le",
    "max_params",
    "cond_cdf_given_eq",
    "biv_cond_n_pmf",
    "biv_cond_n_argmax",
    "biv_cond_n_mean",
    "bgdge_sample",
    "biv_compound_geometric_params",
    "bgdge_pgf",
    "bgdge_mgf",
]

@dataclass(frozen=True)
class BgdgeParams:
    """Two base-law parameter pairs plus the shared compounding probability."""

    #: The parameters' names, in the order of `from_values` and `as_tuple`.
    names: ClassVar[tuple] = ("alpha1", "p1", "alpha2", "p2", "theta")

    m1: DgeParams
    m2: DgeParams
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta!r}")

    @classmethod
    def from_values(cls, alpha1, p1, alpha2, p2, theta) -> "BgdgeParams":
        return cls(DgeParams(alpha1, p1), DgeParams(alpha2, p2), theta)

    def as_tuple(self):
        return (self.m1.alpha, self.m1.p, self.m2.alpha, self.m2.p, self.theta)


@dataclass(frozen=True)
class BivCell:
    """A lattice point of the joint support."""

    x: int
    y: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError(f"cell coordinates must be nonnegative, got {(self.x, self.y)!r}")


def bgdge_cdf(params: BgdgeParams, x, y):
    """Joint CDF ``theta*A*B / (1 - (1-theta)*A*B)``; 0 off the support."""
    return _compound_cdf(params.theta, [(m.alpha, m.p) for m in (params.m1, params.m2)], x, y)


def prob_eq_le(params: BgdgeParams, x, y):
    """``P(X = x, Y <= y)`` for integer x >= 0 and integer y >= -1.

    Equals ``theta*(u - u_)*b / ((1 - tau*u*b)(1 - tau*u_*b))`` with b the
    base-2 CDF at y; the y = -1 boundary value is 0, so callers never
    special-case the lattice edge.
    """
    a1, p1, a2, p2, th = params.as_tuple()

    def row(x, y):
        lu, lu_, lg = _cdf_logs(a1, p1, x)
        lb = _log_cdf(a2, p2, y)  # -inf at y = -1
        return np.exp(lg + lb + math.log(th) - np.log(_den(th, lu + lb)) - np.log(_den(th, lu_ + lb)))

    return _evaluate(row, _nonneg(x, "prob_eq_le x"), _nonneg(y, "prob_eq_le y", low=-1))


def bgdge_pmf(params: BgdgeParams, x, y):
    """Joint pmf on nonnegative integer cells, exact deep in the tails.

    The four-corner difference of the joint CDF is evaluated in closed form
    as a product of positive factors (see `dge._terms`).
    """
    a1, p1, a2, p2, th = params.as_tuple()

    def pmf(x, y):
        return np.exp(_logpmf(th, [(a1, p1, x), (a2, p2, y)]))

    return _evaluate(pmf, _nonneg(x, "bgdge_pmf x"), _nonneg(y, "bgdge_pmf y"))


def marginal_params(params: BgdgeParams, axis: str) -> UgdgeParams:
    """Parameters of one coordinate's marginal law ('x' or 'y')."""
    if axis == "x":
        return UgdgeParams(params.m1, params.theta)
    if axis == "y":
        return UgdgeParams(params.m2, params.theta)
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def cond_given_le(params: BgdgeParams, y: int) -> UgdgeParams:
    """Law of X given ``Y <= y``: same base, boosted compounding probability.

    Conditioning on a small Y makes large latent counts unlikely, so the
    conditional compounding parameter ``1 - (1-theta) * B(y)`` (`_den`)
    exceeds theta and tends to theta as y grows.  A real y counts as its
    floor, as in the cdf-type evaluators, and ``y = inf`` gives theta itself.
    """
    if not y >= 0:
        raise ValueError(f"cond_given_le y must be a nonnegative integer, got {y!r}")
    theta_star = _den(params.theta, _log_cdf(params.m2.alpha, params.m2.p, float(y)))
    return UgdgeParams(params.m1, float(theta_star))


def max_params(params: BgdgeParams) -> UgdgeParams:
    """Law of ``max(X, Y)``; requires both coordinates to share base p.

    With a common p the two base maxima merge by adding shapes, so the
    result is the univariate law with shape ``alpha1 + alpha2``.
    """
    if params.m1.p != params.m2.p:
        raise ValueError("max(X, Y) is only tractable when both base p parameters are equal")
    return UgdgeParams(DgeParams(params.m1.alpha + params.m2.alpha, params.m1.p), params.theta)


def cond_cdf_given_eq(params: BgdgeParams, x, y: int):
    """``P(X <= x | Y = y)``, vectorized over x for a fixed integer y.

    Equals ``A (1 - tau*v)(1 - tau*v_) / ((1 - tau*A*v)(1 - tau*A*v_))``, A the
    base-1 CDF at x and v, v_ the base-2 CDF at y, y - 1, each factor by `_den`;
    capped at 1 against rounding.
    """
    a1, p1, a2, p2, th = params.as_tuple()
    lv, lv_, _ = _cdf_logs(a2, p2, float(_nonneg(y, "cond_cdf_given_eq y")))

    def cdf(x):
        la = _log_cdf(a1, p1, x)
        return np.minimum(np.exp(la) * _den(th, lv) * _den(th, lv_) / (_den(th, la + lv) * _den(th, la + lv_)), 1.0)

    return _evaluate(cdf, _floor(x))


def biv_cond_n_pmf(params: BgdgeParams, x: int, y: int, n):
    """P(latent count = n | X = x, Y = y), n >= 1, by `univariate._count_pmf`."""
    return _maybe_scalar(_count_pmf(params.theta, _coords(params.as_tuple(), _nonneg((x, y), "a cell")), n))


def biv_cond_n_argmax(params: BgdgeParams, x: int, y: int) -> int:
    """Most likely latent count at a cell, smallest on ties.

    The same bisection as the univariate case (`univariate._count_modes`), on
    ``log t(n) = (n-1) log tau + log(u1^n - v1^n) + log(u2^n - v2^n)``.
    """
    return int(_count_modes(params.theta, _coords(params.as_tuple(), _nonneg((x, y), "a cell")))[0])


def biv_cond_n_mean(params: BgdgeParams, x: int, y: int) -> float:
    """Mean latent count at a cell, ``1 + tau S`` (`univariate._count_mean`)."""
    return float(_count_mean(params.theta, _coords(params.as_tuple(), _nonneg((x, y), "a cell"))))


def bgdge_sample(params: BgdgeParams, rng: np.random.Generator, size=None):
    """Draws via the latent construction (`univariate._latent_max`): one shared count, one uniform per axis.

    Returns a `BivCell` when ``size`` is None, else a pair of int64 arrays.
    """
    x, y = _latent_max(params.theta, [(m.alpha, m.p) for m in (params.m1, params.m2)], rng, size)
    return BivCell(x, y) if size is None else (x, y)


def biv_compound_geometric_params(params: BgdgeParams, q: float) -> BgdgeParams:
    """Coordinatewise maxima over a geometric(q) number of iid pairs.

    The family is closed under this operation; only the compounding
    probability changes, ``theta -> q * theta``.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    return BgdgeParams(params.m1, params.m2, q * params.theta)


def _joint_power_sum(params: BgdgeParams, z1: float, z2: float, eps: float) -> float:
    """``E z1^X z2^Y`` for ``p_i |z_i| < 1`` by conditioning on the latent count.

    Given the count n the coordinates are independent base maxima of shape
    ``n alpha_i``, so the sum runs over n of ``theta tau^(n-1) g1(n) g2(n)``,
    each ``g_i(n)`` a certified one-coordinate sum (`_power_weighted_sum`).
    Counts come in blocks of growing length, one shape column per coordinate
    and block, and the sum stops at the first n whose tail is certified below
    ``0.8 eps`` times the total (the g_i take ``0.1 eps`` each):
    - for |z_i| <= 1, ``|g_i| <= 1``, and for 0 <= z_i <= 1 ``g_i`` does not
      increase in n (the maximum grows), so the tail past n is at most
      ``tau^n h1 h2`` with ``h_i = g_i(n)`` there and 1 where z_i < 0, which
      lets the total vanish and so adds ``eps`` to it;
    - for z_i > 1 (a positive mgf rate), ``g_i(n) <= n c_i`` with c_i the
      base law's mgf (a maximum is bounded by a sum), a
      geometric-times-quadratic tail.
    A coordinate with z = 1 contributes 1: the sum is the other's marginal
    (1 if both are 1).
    """
    a1, p1, a2, p2, th = params.as_tuple()
    if z1 == 1.0 or z2 == 1.0:
        alpha, p, z = (a2, p2, z2) if z1 == 1.0 else (a1, p1, z1)
        return float(_power_weighted_sum([alpha], p, th, z, eps)[0])
    tau = 1.0 - th
    if z1 < 1.0 and z2 < 1.0:
        floor = eps if min(z1, z2) < 0.0 else 0.0

        def tail(ns, g1, g2):
            return tau ** ns * (g1 if z1 >= 0.0 else 1.0) * (g2 if z2 >= 0.0 else 1.0)
    else:
        floor = 0.0
        c1, c2 = (max(float(_power_weighted_sum([a], p, 1.0, z, eps)[0]), 1.0) for a, p, z in
                  ((a1, p1, z1), (a2, p2, z2)))

        def tail(ns, g1, g2):
            rho = tau * ((ns + 2.0) / (ns + 1.0)) ** 2
            with np.errstate(divide="ignore"):
                return np.where(rho < 1.0, th * c1 * c2 * (ns + 1.0) ** 2 * tau ** ns / (1.0 - rho), np.inf)
    total, n0, block = 0.0, 1, 16
    while n0 <= SERIES_CAP:
        ns = np.arange(n0, n0 + block, dtype=float)
        g1 = _power_weighted_sum(ns * a1, p1, 1.0, z1, 0.1 * eps)
        g2 = _power_weighted_sum(ns * a2, p2, 1.0, z2, 0.1 * eps)
        # running totals, added in order of n
        totals = np.cumsum(np.concatenate(([total], th * tau ** (ns - 1.0) * g1 * g2)))[1:]
        done = tail(ns, g1, g2) <= 0.8 * eps * (np.abs(totals) + floor)
        if done.any():
            return float(totals[done.argmax()])
        total, n0, block = totals[-1], n0 + block, min(2 * block, 256)
    raise SeriesCapError("joint generating-function series exceeded the term cap")


def bgdge_pgf(params: BgdgeParams, z1: float, z2: float) -> float:
    """Joint probability generating function ``E z1^X z2^Y``, |z_i| < 1."""
    if not (abs(z1) < 1.0 and abs(z2) < 1.0):
        raise ValueError("pgf arguments must satisfy |z| < 1")
    if z1 == 0.0 and z2 == 0.0:
        return float(bgdge_pmf(params, 0, 0))
    return _joint_power_sum(params, float(z1), float(z2), _SERIES_TOL)


def bgdge_mgf(params: BgdgeParams, t1: float, t2: float) -> float:
    """Joint moment generating function ``E exp(t1 X + t2 Y)``.

    Finite iff ``p_i * exp(t_i) < 1`` for both coordinates; the power sum
    (`_joint_power_sum`) at ``z_i = exp(t_i)``.
    """
    return _joint_power_sum(params, math.exp(float(t1)), math.exp(float(t2)), _SERIES_TOL)
