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

import numpy as np

from .dge import (
    SERIES_CAP,
    DgeParams,
    SeriesCapError,
    _base_logs,
    _biv_logpmf,
    _cdf_logs,
    _den,
    _evaluate,
    _ge_inverse,
    _log_cdf,
    _log_den,
    _maybe_scalar,
    _nonneg,
    dge_cdf,
    dge_pmf,
    pow1m,
)
from .univariate import UgdgeParams, _argmax_scan, ugdge_mgf, ugdge_pgf

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
    "biv_cond_n_mean_closed_form",
    "bgdge_sample",
    "biv_compound_geometric_params",
    "bgdge_pgf",
    "bgdge_mgf",
]

@dataclass(frozen=True)
class BgdgeParams:
    """Two base-law parameter pairs plus the shared compounding probability."""

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
    a1, p1, a2, p2, th = params.as_tuple()

    def cdf(x, y):
        lw = _log_cdf(a1, p1, x) + _log_cdf(a2, p2, y)
        return th * np.exp(lw) / _den(th, lw)

    return _evaluate(cdf, np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def prob_eq_le(params: BgdgeParams, x, y):
    """``P(X = x, Y <= y)`` for integer x >= 0 and integer y >= -1.

    Equals ``theta*(u - u_)*b / ((1 - tau*u*b)(1 - tau*u_*b))`` with b the
    base-2 CDF at y; the y = -1 boundary value is 0, so callers never
    special-case the lattice edge.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < -1):
        raise ValueError("y must be an integer >= -1")
    a1, p1, a2, p2, th = params.as_tuple()

    def row(x, y):
        lu, lu_, lg = _cdf_logs(a1, p1, x)
        lb = a2 * _base_logs(p2, y + 1.0)[1]  # log base-2 CDF at y, -inf at y = -1
        return np.exp(lg + lb + math.log(th) - _log_den(th, lu + lb) - _log_den(th, lu_ + lb))

    return _evaluate(row, _nonneg(x, "prob_eq_le"), y)


def bgdge_pmf(params: BgdgeParams, x, y):
    """Joint pmf on nonnegative integer cells, exact deep in the tails.

    The four-corner difference of the joint CDF is evaluated in closed form
    as a product of positive factors (see `dge._biv_logpmf`).
    """
    a1, p1, a2, p2, th = params.as_tuple()

    def pmf(x, y):
        return np.exp(_biv_logpmf(_cdf_logs(a1, p1, x), _cdf_logs(a2, p2, y), th))

    return _evaluate(pmf, _nonneg(x, "bgdge_pmf"), _nonneg(y, "bgdge_pmf"))


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
    conditional compounding parameter ``1 - (1-theta) * B(y)`` exceeds theta
    and tends to theta as y grows.
    """
    if y < 0:
        raise ValueError(f"y must be a nonnegative integer, got {y!r}")
    b = float(dge_cdf(params.m2, y))
    theta_star = 1.0 - (1.0 - params.theta) * b
    return UgdgeParams(params.m1, theta_star)


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

    Evaluated from the joint CDF difference, rescaled by the base-law factors
    of coordinate 2; clipped into [0, 1].
    """
    if y < 0:
        raise ValueError(f"y must be a nonnegative integer, got {y!r}")
    tau = 1.0 - params.theta
    b = float(dge_cdf(params.m2, y))
    b_ = float(dge_cdf(params.m2, y - 1))
    # the joint CDF difference below resolves nothing once b and b_ coincide
    if not b > b_:
        raise ValueError(f"marginal base pmf vanished at y={y}; conditional undefined")
    f2 = float(dge_pmf(params.m2, y))
    num = np.asarray(bgdge_cdf(params, x, y)) - np.asarray(bgdge_cdf(params, x, y - 1))
    out = (1.0 - tau * b) * (1.0 - tau * b_) * num / (params.theta * f2)
    return _maybe_scalar(np.clip(out, 0.0, 1.0))


def _corner_cdfs(params: BgdgeParams, x: int, y: int):
    """Base CDFs at x, x-1, y, y-1 plus tau/theta and the validated pmf."""
    if x < 0 or x != int(x) or y < 0 or y != int(y):
        raise ValueError(f"cell must have nonnegative integer coordinates, got {(x, y)!r}")
    a1, p1, a2, p2, th = params.as_tuple()
    u = float(pow1m(p1, float(x) + 1.0, a1))
    u_ = float(pow1m(p1, float(x), a1))
    v = float(pow1m(p2, float(y) + 1.0, a2))
    v_ = float(pow1m(p2, float(y), a2))
    pm = float(bgdge_pmf(params, x, y))
    # the latent-count terms u^n - u_^n and v^n - v_^n vanish with the increments
    if not (u > u_ and v > v_ and pm > 0.0):
        raise ValueError(f"joint pmf vanished at {(x, y)}; conditional law undefined")
    return u, u_, v, v_, 1.0 - th, th, pm


def biv_cond_n_pmf(params: BgdgeParams, x: int, y: int, n):
    """P(latent count = n | X = x, Y = y), n >= 1.

    Equals ``theta * tau^(n-1) * (u^n - u_^n) * (v^n - v_^n) / pmf(x, y)``
    with u/u_ and v/v_ the base CDFs at the cell and its lower neighbours.
    """
    u, u_, v, v_, tau, th, pm = _corner_cdfs(params, x, y)
    n = np.asarray(n)
    if np.any(n < 1) or not np.issubdtype(n.dtype, np.integer):
        raise ValueError("latent count must be integer >= 1")
    nf = n.astype(float)
    out = th * tau ** (nf - 1.0) * (u ** nf - u_ ** nf) * (v ** nf - v_ ** nf) / pm
    return _maybe_scalar(out)


def biv_cond_n_argmax(params: BgdgeParams, x: int, y: int, n_cap: int = SERIES_CAP) -> int:
    """Most likely latent count at a cell, smallest on ties.

    Same certified scan as the univariate case, with decreasing envelope
    ``tau^(n-1) * (u*v)^n`` dominating every remaining term.
    """
    u, u_, v, v_, tau, th, pm = _corner_cdfs(params, x, y)
    if tau == 0.0:
        return 1
    parts = [(np.array([u]), np.array([u_])), (np.array([v]), np.array([v_]))]
    return int(_argmax_scan(parts, tau, n_cap)[0])


def biv_cond_n_mean(params: BgdgeParams, x: int, y: int, eps: float = 1e-12) -> float:
    """Mean latent count at a cell, by direct summation with a certified tail.

    The tail past n is bounded by ``u*v * r^n * ((n+1) - n*r) / (1-r)^2``
    with ``r = tau * u * v``.
    """
    u, u_, v, v_, tau, th, pm = _corner_cdfs(params, x, y)
    if tau == 0.0:
        return 1.0
    r = tau * u * v
    scale = th / pm
    total = 0.0
    n = 0
    while True:
        n += 1
        if n > SERIES_CAP:
            raise SeriesCapError("conditional-mean series exceeded the term cap")
        total += n * tau ** (n - 1) * (u ** n - u_ ** n) * (v ** n - v_ ** n)
        tail = u * v * r ** n * ((n + 1.0) - n * r) / (1.0 - r) ** 2
        if scale * tail < eps * (abs(scale * total) + 1.0):
            return scale * total


def biv_cond_n_mean_closed_form(params: BgdgeParams, x: int, y: int) -> float:
    """Closed-form companion of `biv_cond_n_mean` (independent cross-check).

    Sums ``w / (1 - tau*w)^2`` with alternating signs over the four products
    of base CDFs at the cell corners.
    """
    u, u_, v, v_, tau, th, pm = _corner_cdfs(params, x, y)

    def phi(w):
        return w / (1.0 - tau * w) ** 2

    return th * (phi(u * v) - phi(u * v_) - phi(u_ * v) + phi(u_ * v_)) / pm


def bgdge_sample(params: BgdgeParams, rng: np.random.Generator, size=None):
    """Draws via the latent construction: one shared count, one uniform per axis.

    Given the count N, each coordinate is the floor of a continuous draw with
    shape ``N * alpha_i`` (max-stability).  Returns a `BivCell` when ``size``
    is None, else a pair of int64 arrays.
    """
    a1, p1, a2, p2, th = params.as_tuple()
    n = rng.geometric(th, size=size)
    u = rng.random(size)
    v = rng.random(size)
    nf = np.asarray(n, dtype=float)
    gx = _ge_inverse(nf * a1, -math.log(p1), u)
    gy = _ge_inverse(nf * a2, -math.log(p2), v)
    if size is None:
        return BivCell(int(np.floor(gx)), int(np.floor(gy)))
    return np.floor(gx).astype(np.int64), np.floor(gy).astype(np.int64)


def biv_compound_geometric_params(params: BgdgeParams, q: float) -> BgdgeParams:
    """Coordinatewise maxima over a geometric(q) number of iid pairs.

    The family is closed under this operation; only the compounding
    probability changes, ``theta -> q * theta``.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    return BgdgeParams(params.m1, params.m2, q * params.theta)


def _given_count_pgf(alpha: float, p: float, n: int, z: float, eps: float) -> float:
    """``E z^X`` for the base maximum over n iid draws (shape n*alpha)."""
    if z == 1.0:
        return 1.0
    return ugdge_pgf(UgdgeParams(DgeParams(n * alpha, p), 1.0), z, eps)


def _joint_power_sum(params: BgdgeParams, z1: float, z2: float, eps: float) -> float:
    """``E z1^X z2^Y`` for |z_i| <= 1 by conditioning on the latent count.

    Given the count n the coordinates are independent base maxima, so each
    term is a product of two certified one-dimensional sums; the outer tail
    over counts is geometric, bounded by ``(1-theta)^n``.
    """
    a1, p1, a2, p2, th = params.as_tuple()
    tau = 1.0 - th
    total = 0.0
    n = 0
    while True:
        n += 1
        if n > SERIES_CAP:
            raise SeriesCapError("joint generating-function series exceeded the term cap")
        g1 = _given_count_pgf(a1, p1, n, z1, 0.1 * eps)
        g2 = _given_count_pgf(a2, p2, n, z2, 0.1 * eps)
        total += th * tau ** (n - 1) * g1 * g2
        if tau ** n < eps * (abs(total) + 1.0):
            return total


def bgdge_pgf(params: BgdgeParams, z1: float, z2: float, eps: float = 1e-12) -> float:
    """Joint probability generating function ``E z1^X z2^Y``, |z_i| < 1."""
    if not (abs(z1) < 1.0 and abs(z2) < 1.0):
        raise ValueError("pgf arguments must satisfy |z| < 1")
    if z1 == 0.0 and z2 == 0.0:
        return float(bgdge_pmf(params, 0, 0))
    return _joint_power_sum(params, float(z1), float(z2), eps)


def bgdge_mgf(params: BgdgeParams, t1: float, t2: float, eps: float = 1e-12) -> float:
    """Joint moment generating function ``E exp(t1 X + t2 Y)``.

    Finite iff ``p_i * exp(t_i) < 1`` for both coordinates.  Nonpositive
    rates reduce to the power sum; with a positive rate the conditional
    factors grow at most linearly in the latent count (a maximum is bounded
    by a sum), giving a computable geometric-times-quadratic outer tail.
    """
    t1, t2 = float(t1), float(t2)
    if t1 <= 0.0 and t2 <= 0.0:
        return _joint_power_sum(params, math.exp(t1), math.exp(t2), eps)
    a1, p1, a2, p2, th = params.as_tuple()
    for p, t in ((p1, t1), (p2, t2)):
        if not p * math.exp(t) < 1.0:
            raise ValueError(f"series diverges: p * exp(t) = {p * math.exp(t):g} >= 1")
    # linear-growth constants: E e^{tX} given count n is at most n*c for t>0
    c1 = max(ugdge_mgf(UgdgeParams(params.m1, 1.0), t1, eps), 1.0)
    c2 = max(ugdge_mgf(UgdgeParams(params.m2, 1.0), t2, eps), 1.0)
    tau = 1.0 - th
    total = 0.0
    n = 0
    while True:
        n += 1
        if n > SERIES_CAP:
            raise SeriesCapError("joint generating-function series exceeded the term cap")
        g1 = ugdge_mgf(UgdgeParams(DgeParams(n * a1, p1), 1.0), t1, 0.1 * eps)
        g2 = ugdge_mgf(UgdgeParams(DgeParams(n * a2, p2), 1.0), t2, 0.1 * eps)
        total += th * tau ** (n - 1) * g1 * g2
        # remaining terms are below th * c1*c2 * m^2 * tau^(m-1); once the
        # term ratio bound rho < 1 the tail sums geometrically
        rho = tau * ((n + 2.0) / (n + 1.0)) ** 2
        if rho < 1.0:
            tail = th * c1 * c2 * (n + 1.0) ** 2 * tau ** n / (1.0 - rho)
            if tail < eps * (abs(total) + 1.0):
                return total
