"""Base discrete law: the integer part of a generalized-exponential variate.

The continuous generalized exponential (GE) law has CDF
``(1 - exp(-lam * y)) ** alpha`` on ``y >= 0``.  Flooring such a variate
gives a two-parameter law on {0, 1, 2, ...} with

    pmf(x) = (1 - p**(x+1))**alpha - (1 - p**x)**alpha,      p = exp(-lam),
    cdf(x) = (1 - p**(floor(x)+1))**alpha                    for x >= 0.

Everything heavier in this package (geometric compounding, EM fitting) is
built on the two parameter records and the evaluation helpers defined here.

Numerical conventions used throughout the package:

* powers of the form ``(1 - p**t)**alpha`` are evaluated in log space,
  ``exp(alpha * log1p(-p**t))``, which keeps precision for ``p`` close to 1
  and large ``t``;
* ``0**alpha`` is taken to be 0 for every ``alpha > 0``, so the pmf needs no
  special case at the origin;
* no pmf is formed by subtracting CDFs, which crowd 1 in the tail: the
  log-space kernel at the end of this module keeps full relative precision;
* all evaluation functions are pure and accept scalars or arrays; samplers
  take a caller-supplied ``numpy.random.Generator`` and hold no hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SERIES_CAP",
    "SeriesCapError",
    "GeParams",
    "DgeParams",
    "pow1m",
    "ge_cdf",
    "ge_sample",
    "dge_pmf",
    "dge_cdf",
    "dge_hazard",
    "dge_sample",
]

#: Hard cap on the number of terms any truncated series in this package may
#: consume before giving up with :class:`SeriesCapError`.
SERIES_CAP = 1_000_000


class SeriesCapError(RuntimeError):
    """A truncated series or scan exceeded its configured term budget.

    Raised instead of silently returning a partial sum, typically in the
    heavy-tailed regime where the compounding parameter approaches 0.
    """


def _maybe_scalar(out):
    """Return a Python float for 0-d results, pass arrays through."""
    return float(out) if np.ndim(out) == 0 else out


def pow1m(p, t, alpha):
    """``(1 - p**t) ** alpha`` evaluated as ``exp(alpha * log1p(-p**t))``.

    Stable for ``p`` near 1 and large ``t``.  At ``t = 0`` the result is
    exactly 0.0 (the ``0**alpha = 0`` convention).  Returns an ndarray for
    array ``t``, a numpy scalar otherwise.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return np.exp(alpha * np.log1p(-np.power(p, t)))


@dataclass(frozen=True)
class GeParams:
    """Shape/rate pair of the continuous generalized exponential law."""

    alpha: float
    lam: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam!r}")


@dataclass(frozen=True)
class DgeParams:
    """Shape/probability pair of the discretized law; ``p = exp(-lam)``."""

    alpha: float
    p: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p!r}")

    @property
    def lam(self) -> float:
        """Rate of the underlying continuous law."""
        return -math.log(self.p)

    def continuous(self) -> GeParams:
        """The continuous law whose floor this distribution is."""
        return GeParams(self.alpha, self.lam)


def ge_cdf(params: GeParams, y):
    """CDF ``(1 - exp(-lam * y)) ** alpha`` of the continuous law; 0 below 0."""
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.exp(params.alpha * np.log1p(-np.exp(-params.lam * np.maximum(y, 0.0))))
    return _maybe_scalar(np.where(y < 0.0, 0.0, out))


def _ge_inverse(alpha, lam, u):
    """Inverse CDF of the continuous law, sans domain checks (sampler core).

    ``1 - u**(1/alpha)`` is formed as ``-expm1(log(u)/alpha)`` to keep
    precision for ``u`` near 1; ``u = 0`` maps gracefully to 0.
    """
    with np.errstate(divide="ignore"):
        return -np.log(-np.expm1(np.log(u) / alpha)) / lam


def ge_sample(params: GeParams, u):
    """Map uniform(0,1) variates to GE variates by inverse transform."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    return _maybe_scalar(_ge_inverse(params.alpha, params.lam, u))


def dge_pmf(params: DgeParams, x):
    """pmf ``(1 - p**(x+1))**alpha - (1 - p**x)**alpha`` on integers ``x >= 0``."""
    al, p = params.alpha, params.p
    return _evaluate(lambda x: np.exp(_cdf_logs(al, p, x)[2]), _nonneg(x, "dge_pmf"))


def dge_cdf(params: DgeParams, x):
    """Right-continuous step CDF; 0 below the support (negative ``x`` allowed)."""
    return _maybe_scalar(np.exp(_log_cdf(params.alpha, params.p, np.asarray(x, dtype=float))))


def dge_hazard(params: DgeParams, x):
    """Discrete hazard ``pmf(x) / P(X >= x)`` on integers ``x >= 0``."""
    al, p = params.alpha, params.p

    def hazard(x):
        _, lv, lg = _cdf_logs(al, p, x)
        return np.exp(lg) / _survival(lv)

    return _evaluate(hazard, _nonneg(x, "dge_hazard"))


def dge_sample(params: DgeParams, rng: np.random.Generator, size=None):
    """Integer draws: the floor of a continuous draw with rate ``-log(p)``.

    Returns a Python int when ``size`` is None, else an int64 array.
    """
    u = rng.random(size)
    y = _ge_inverse(params.alpha, params.lam, u)
    if size is None:
        return int(np.floor(y))
    return np.floor(y).astype(np.int64)


# ---------------------------------------------------------------------------
# log-space pmf kernel, shared by the evaluators and the fitter
#
# Every pmf in the package is a difference of CDFs that crowd 1 in the tail.
# The kernel never subtracts them: the base gap, the compounding denominators
# and the four-corner joint difference are each rewritten as products of
# factors that are evaluated to full relative precision.  Inputs are float
# arrays of integer values x >= 0.

#: Public evaluators run the kernel on slices of this many elements, so the
#: temporaries of a call on millions of points stay a few hundred kilobytes.
_CHUNK = 1 << 14


def _nonneg(x, what):
    """``x`` as a float array, rejecting negative values."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"{what} is defined on nonnegative integers")
    return x


def _evaluate(fn, *args):
    """``fn`` over the broadcast of the float arrays ``args``, chunk by chunk.

    Returns a float for 0-d input, else an array of the broadcast shape.
    """
    arrays = np.broadcast_arrays(*args)
    flat = [a.ravel() for a in arrays]
    out = np.empty(flat[0].size)
    for i in range(0, out.size, _CHUNK):
        out[i:i + _CHUNK] = fn(*(f[i:i + _CHUNK] for f in flat))
    return _maybe_scalar(out.reshape(arrays[0].shape))


def _base_logs(p, x):
    """Shape-free pieces of the base CDF at ``x``.

    Returns ``l1 = log(1 - p^(x+1))``, ``l0 = log(1 - p^x)`` (-inf at 0) and
    ``r = l1 - l0``, formed as ``log1p(p^x (1-p) / (1-p^x))`` (inf at 0) so
    that it keeps full relative precision where ``l1`` and ``l0`` nearly agree.
    """
    with np.errstate(divide="ignore"):
        px = np.power(p, x)
        q = 0.0 - np.expm1(x * math.log(p))  # 1 - p^x, and +0.0 (not -0.0) at x = 0
        r = np.log1p(px * (1.0 - p) / q)
        return np.log1p(-np.power(p, x + 1.0)), np.log1p(-px), r


def _log_gap(l1, r, shape):
    """``log[(1 - p^(x+1))^shape - (1 - p^x)^shape]`` from `_base_logs` pieces.

    The difference is ``-A(x) * expm1(-shape * r)``; ``shape`` may be an array.
    """
    with np.errstate(divide="ignore"):
        return shape * l1 + np.log(-np.expm1(-shape * r))


def _cdf_logs(alpha, p, x):
    """``log A(x)``, ``log A(x-1)`` and ``log(A(x) - A(x-1))`` of the base law."""
    l1, l0, r = _base_logs(p, x)
    return alpha * l1, alpha * l0, _log_gap(l1, r, alpha)


def _log_cdf(alpha, p, x):
    """``log A(x)`` of the base law at real ``x``: -inf below the support."""
    with np.errstate(divide="ignore"):
        return alpha * np.log1p(-np.power(p, np.maximum(np.floor(x) + 1.0, 0.0)))


def _den(theta, lw):
    """``1 - (1 - theta) w`` from ``log w``, as ``theta - (1 - theta) expm1(log w)``.

    Both terms are nonnegative, so the sum keeps full relative precision
    where ``w`` crowds 1 and theta is small.
    """
    return theta - (1.0 - theta) * np.expm1(lw)


def _log_den(theta, lw):
    """``log(1 - (1 - theta) w)`` from ``log w``, by `_den`."""
    return np.log(_den(theta, lw))


def _survival(lv):
    """``1 - v`` from ``log v``, cancellation-free; raises where it underflows."""
    surv = -np.expm1(lv)
    if np.any(surv <= 0.0):
        raise ValueError("survival underflowed to zero; hazard undefined here")
    return surv


def _uni_logpmf(alpha, p, theta, x):
    """Log-pmf ``log[theta (u - v) / ((1 - tau u)(1 - tau v))]`` of the compounded law."""
    lu, lv, lg = _cdf_logs(alpha, p, x)
    if theta == 1.0:
        return lg
    return lg + math.log(theta) - _log_den(theta, lu) - _log_den(theta, lv)


def _biv_logpmf(tx, ty, theta):
    """Joint log-pmf from the `_cdf_logs` triples of the two coordinates.

    With u, u_ (v, v_) the base CDFs of x at x, x-1 (of y at y, y-1) the
    four-corner difference of ``theta w / (1 - tau w)`` is exactly

        theta (u - u_)(v - v_) (1 - tau^2 u u_ v v_) / prod_corners (1 - tau w),

    a product of positive factors; ``1 - tau^2 P`` is taken as
    ``theta (2 - theta) - tau^2 expm1(log P)``.
    """
    (lu, lu_, gx), (lv, lv_, gy) = tx, ty
    out = gx + gy
    if theta == 1.0:
        return out
    tau = 1.0 - theta
    out += math.log(theta) + np.log(theta * (2.0 - theta) - tau * tau * np.expm1(lu + lu_ + lv + lv_))
    for a in (lu, lu_):
        for b in (lv, lv_):
            out -= _log_den(theta, a + b)
    return out
