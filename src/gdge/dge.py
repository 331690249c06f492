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
  ``exp(alpha * log(1 - p**t))``, the log by one rule with no exception
  (`_log1mexp`) that keeps precision for ``p`` close to 1, small and large ``t``;
  the pmf kernel takes it in one pass over ``t = x`` and ``t = x + 1`` stacked
  (`_base_logs`);
* the log of 0 is -inf without a warning: the entry points that run these
  formulas set that floating-point policy once each (`_quiet_logs`, and
  `_quiet_grad` for the kernel's gradient), not the formulas themselves;
* ``0**alpha`` is taken to be 0 for every ``alpha > 0``, so the pmf needs no
  special case at the origin;
* no pmf is formed by subtracting CDFs, which crowd 1 in the tail: the
  log-space kernel at the end of this module keeps full relative precision;
* all evaluation functions are pure and accept scalars or arrays; samplers
  take a caller-supplied ``numpy.random.Generator`` and hold no hidden state;
* the laws live on the integer lattice, so an array evaluator runs its kernel
  once per distinct lattice point or cell of its input, not once per element
  (`_evaluate`); the pmf family rejects all but integer arguments.
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

#: The floating-point policy of the log-space formulas, which take the log of 0 as -inf and, in the kernel's
#: gradient, mask its 0 * inf and overflows: each entry point that runs them sets it once, as a decorator.
_quiet_logs = np.errstate(divide="ignore")
_quiet_grad = np.errstate(divide="ignore", invalid="ignore", over="ignore")


class SeriesCapError(RuntimeError):
    """A truncated series or a search exceeded its term budget.

    Raised instead of silently returning a partial sum, typically in the
    heavy-tailed regime where the compounding parameter approaches 0.
    """


def _maybe_scalar(out):
    """Return a Python float for 0-d results, pass arrays through."""
    return float(out) if np.ndim(out) == 0 else out


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


@_quiet_logs
def ge_cdf(params: GeParams, y):
    """CDF ``(1 - exp(-lam * y)) ** alpha`` of the continuous law; 0 below 0.

    ``log(1 - exp(-lam y))`` is `_log1mexp`, exact also where ``lam y`` is small.
    """
    y = np.asarray(y, dtype=float)
    lt = -params.lam * np.maximum(y, 0.0)
    out = np.exp(params.alpha * _log1mexp(lt, np.exp(lt))[0])
    return _maybe_scalar(np.where(y < 0.0, 0.0, out))


def _ge_inverse(alpha, lam, u):
    """Inverse CDF of the continuous law, sans domain checks (sampler core).

    ``1 - u**(1/alpha)`` is formed as ``-expm1(log(u)/alpha)`` to keep
    precision for ``u`` near 1; ``u = 0`` maps gracefully to 0.  Works in place
    on the float array ``u``, which the caller owns, and returns it.
    """
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
        np.divide(u, alpha, out=u)
        np.expm1(u, out=u)
        np.negative(u, out=u)
        np.log(u, out=u)
        return np.divide(u, -lam, out=u)


def ge_sample(params: GeParams, u):
    """Map uniform(0,1) variates to GE variates by inverse transform."""
    u = np.array(u, dtype=float)  # a copy: `_ge_inverse` works in place
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    return _maybe_scalar(_ge_inverse(params.alpha, params.lam, u))


def dge_pmf(params: DgeParams, x):
    """pmf ``(1 - p**(x+1))**alpha - (1 - p**x)**alpha`` on integers ``x >= 0``."""
    al, p = params.alpha, params.p
    return _evaluate(lambda x: np.exp(_cdf_logs(al, p, x)[2]), _nonneg(x, "dge_pmf"))


def dge_cdf(params: DgeParams, x):
    """Right-continuous step CDF; 0 below the support (negative ``x`` allowed)."""
    al, p = params.alpha, params.p
    return _evaluate(lambda x: np.exp(_log_cdf(al, p, x)), _floor(x))


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
    y = _ge_inverse(params.alpha, params.lam, np.asarray(rng.random(size)))
    np.floor(y, out=y)
    return int(y) if size is None else y.astype(np.int64)


# ---------------------------------------------------------------------------
# log-space pmf kernel, shared by the evaluators and the fitter
#
# Every pmf in the package is a difference of CDFs that crowd 1 in the tail.
# The kernel never subtracts them: the base gap, the compounding denominators
# and the four-corner joint difference are each rewritten as products of
# factors that are evaluated to full relative precision.  Inputs are float
# arrays of integer values x >= 0.

#: Public evaluators run the kernel on slices of this many lattice points (or
#: elements, where the input is no lattice box), so the kernel's temporaries
#: stay a few hundred kilobytes.  A call on millions of points still makes a
#: few arrays of the input's size: the offsets, the flat index and the output.
_CHUNK = 1 << 14


def _nonneg(x, what, low=0):
    """``x`` as an array of integers ``>= low``: as given for an integer dtype, else as floats.

    Raises `ValueError` naming the first value that is not finite, not an integer or below ``low``.
    Integer input is checked by one reduction, and a mask is built only to name the value.
    """
    x = np.asarray(x)
    faults = []
    if x.dtype.kind not in "iu":
        x = x.astype(float)
        faults = [("is not finite", ~np.isfinite(x)), ("is not an integer", x != np.floor(x))]
    elif not (x.size and x.min() < low):
        return x
    for fault, bad in [*faults, (f"is below {low}", x < low)]:
        if bad.any():
            raise ValueError(f"{what} takes integers >= {low}; {x[bad][0].item()!r} {fault}")
    return x


def _floor(x):
    """``floor(x)``, an integer array as given: the cdf-type evaluators are step functions of it."""
    x = np.asarray(x)
    return x if x.dtype.kind in "iu" else np.floor(x.astype(float))


def _lattice_box(args, size):
    """Lower corner, spans and per-argument intp offsets of the integer box spanned by ``args``.

    None unless every argument is finite and integer-valued and the box holds at most
    ``size`` points.  For an integer dtype the corner and the spans are Python ints and
    the offsets are taken in intp from the argument's own minimum, so they neither wrap
    in a narrow dtype nor depend on numpy's casting rules for Python ints; an argument
    whose minimum is 0 is its own offsets.  Float input is checked for integer values.
    """
    if size == 0:
        return None
    lows, spans = [], []
    for a in args:
        cast = int if a.dtype.kind in "iu" else float
        lo, hi = cast(a.min()), cast(a.max())
        if not float(lo).is_integer():
            return None
        lows.append(lo)
        spans.append(hi - lo + 1)  # nan or inf unless finite
    if not math.prod(spans) <= size:
        return None
    index = []
    for a, lo in zip(args, lows):
        if a.dtype.kind in "iu":
            k = a if lo == 0 else np.subtract(a, a.dtype.type(lo), dtype=np.intp)
        else:
            off = a - lo
            k = off.astype(np.intp)
            if not np.array_equal(k, off):
                return None
        index.append(k)
    return lows, [int(s) for s in spans], index


def _evaluate(fn, *args):
    """``fn`` over the broadcast of the integer or float arrays ``args``, once per distinct lattice point.

    Where `_lattice_box` finds the box spanned by the arguments, ``fn`` runs on the
    box's points in `_CHUNK` slices and each element gathers its value at a flat intp
    index, built Horner-style from the offsets (one argument's offsets are the index);
    otherwise ``fn`` runs on the broadcast, chunk by chunk.  ``fn`` always receives
    float arrays.  Returns a float for 0-d input, else an array of the broadcast shape.
    """
    shape = np.broadcast_shapes(*(a.shape for a in args))
    size = math.prod(shape)
    box = _lattice_box(args, size)
    if box is None:
        flat = [a.ravel() for a in np.broadcast_arrays(*args)]
        out = np.empty(size)
        for i in range(0, size, _CHUNK):
            out[i:i + _CHUNK] = fn(*(f[i:i + _CHUNK].astype(float, copy=False) for f in flat))
        return _maybe_scalar(out.reshape(shape))
    lows, spans, index = box
    vals = np.empty(math.prod(spans))
    for i in range(0, vals.size, _CHUNK):
        points = np.unravel_index(np.arange(i, min(i + _CHUNK, vals.size)), spans)
        vals[i:i + _CHUNK] = fn(*(k + float(lo) for lo, k in zip(lows, points)))
    flat = index[0]
    if len(index) > 1:  # Horner, flat = flat * span + k, in one intp buffer of the broadcast shape
        buf = np.empty(shape, np.intp)
        for k, span in zip(index[1:], spans[1:]):
            flat = np.add(np.multiply(flat, span, out=buf, dtype=np.intp), k, out=buf, dtype=np.intp)
    return _maybe_scalar(vals.take(flat))


_STEPS = np.array([0.0, 1.0])  # t = x + 0 and x + 1 of `_base_logs`


def _base_logs(p, x):
    """Shape-free pieces of the base CDF at ``x``, and the powers they come from.

    Returns ``l1 = log(1 - p^(x+1))``, ``l0 = log(1 - p^x)`` (-inf at 0) and
    ``r = l1 - l0``, formed as ``log1p(p^x (1-p) / (1-p^x))`` (inf at 0) so
    that it keeps full relative precision where ``l1`` and ``l0`` nearly agree;
    then ``p^x``, ``1 - p^x`` and ``1 - p^(x+1)``, which `_coord_partials` reuses.
    ``l0`` with ``1 - p^x`` and ``l1`` with ``1 - p^(x+1)`` are `_log1mexp` at
    ``t = x`` and ``t = x + 1``, so ``l0`` at x is bit for bit ``l1`` at x - 1.
    """
    t = _STEPS.reshape(2, *(1,) * max(np.ndim(p), np.ndim(x))) + x  # x and x + 1, first, before p's axes
    pt = np.power(p, t)
    (l0, l1), (q0, q1) = _log1mexp(t * np.log(p), pt)  # q0 is +0.0 at x = 0, where x log p = -0.0
    return l1, l0, np.log1p(pt[0] * (1.0 - p) / q0), pt[0], q0, q1


def _log1mexp(lt, e):
    """``log(1 - e)`` and ``1 - e = -expm1(lt)`` for ``e = exp(lt) <= 1``, such as a power ``p^t``.

    The log is ``log1p(-e)`` except where ``e > 1/2``: there the rounding of
    ``e`` would cost digits, and it is the log of ``-expm1(lt)``, exact also
    where ``e`` crowds 1 (Maechler 2012).  -inf at ``e = 1``.  The package's one rule for
    ``log(1 - p^t)``: `ge_cdf`, the cdfs (`_log_cdf`) and the pmf kernel (`_base_logs`) take it.
    """
    q = -np.expm1(lt)
    return np.where(e > 0.5, np.log(q), np.log1p(-e)), q


def _log_gap(l1, r, shape):
    """``log[(1 - p^(x+1))^shape - (1 - p^x)^shape]`` from `_base_logs` pieces.

    The difference is ``-A(x) * expm1(-shape * r)``; ``shape`` may be an array.
    """
    return shape * l1 + np.log(-np.expm1(-shape * r))


def _coord_logs(alpha, p, x):
    """`_base_logs` at (p, x) and the `_cdf_logs` triple they give at shape ``alpha``."""
    logs = l1, l0, r, *_ = _base_logs(p, x)
    return logs, (alpha * l1, alpha * l0, _log_gap(l1, r, alpha))


@_quiet_logs
def _cdf_logs(alpha, p, x):
    """``log A(x)``, ``log A(x-1)`` and ``log(A(x) - A(x-1))`` of the base law."""
    return _coord_logs(alpha, p, x)[1]


@_quiet_logs
def _log_cdf(alpha, p, x):
    """``log A(x)`` of the base law at real ``x``, by `_log1mexp` at ``t = floor(x) + 1``: -inf below the support."""
    t = np.maximum(np.floor(x) + 1.0, 0.0)
    return alpha * _log1mexp(t * math.log(p), np.power(p, t))[0]


def _den(theta, lw):
    """``1 - (1 - theta) w`` from ``log w``, as ``theta - (1 - theta) expm1(log w)``.

    Both terms are nonnegative, so the sum keeps full relative precision
    where ``w`` crowds 1 and theta is small.
    """
    return theta - (1.0 - theta) * np.expm1(lw)


def _survival(lv):
    """``1 - v`` from ``log v``, cancellation-free; raises where it underflows."""
    surv = -np.expm1(lv)
    if np.any(surv <= 0.0):
        raise ValueError("survival underflowed to zero; hazard undefined here")
    return surv


def _coords(q, cells):
    """``(shape, p, x)`` per coordinate, from parameters ``q`` that hold a (shape, p) pair per coordinate."""
    return [(q[2 * j], q[2 * j + 1], x) for j, x in enumerate(cells)]


def _stacked(coords):
    """The shapes, the probabilities and the cells of ``coords``, one ``(shape, p, x)`` per coordinate, each
    stacked on a new first axis with as many axes after it as the widest input, so that they broadcast."""
    if len(coords) == 1:  # a view, and a leading axis of length 1 broadcasts as it is
        return [np.asarray(v, dtype=float)[None] for v in coords[0]]
    out = [np.array(np.broadcast_arrays(*v) if len(set(map(np.shape, v))) > 1 else v, dtype=float) for v in zip(*coords)]
    nd = max(a.ndim for a in out)
    return [a if a.ndim == nd else a.reshape(len(a), *(1,) * (nd - a.ndim), *a.shape[1:]) for a in out]


def _terms(theta, alpha, p, x):
    """The compounded law of one or two coordinates at their cells, from the coordinates' shapes, probabilities
    and cells stacked first (`_stacked`), so that one pass of the coordinate formulas serves them all.

    With u_j, v_j the base CDFs of coordinate j at x_j and x_j - 1, the pmf is the difference of
    ``theta w / (1 - tau w)`` over the corners w of the cell, the products of one of u_j, v_j per coordinate;
    it is exactly

        theta (u - v) / ((1 - tau u)(1 - tau v))                                   (one coordinate),
        theta (u1 - v1)(u2 - v2) (1 - tau^2 P) / prod_corners (1 - tau w)         (two),

    with P = u1 v1 u2 v2: a product of positive factors, ``1 - tau^2 P`` taken as
    ``theta (2 - theta) - tau^2 expm1(log P)``.  Returns the stacked `_base_logs`, the log-pmf, the corners'
    ``log w`` and `_den` with the corners first, (u, v) for one coordinate and (u1 u2, u1 v2, v1 u2, v1 v2)
    for two, and ``log P`` with ``1 - tau^2 P`` (-inf and 1 for one coordinate, which has no such factor).
    """
    logs, (lw, lw_, g) = _coord_logs(alpha, p, x)
    corners = _corners(lw, lw_)
    if len(x) == 1:
        lprod, den_p = -math.inf, 1.0
        logpmf = g[0] + np.log(theta)
    else:
        tau, lprod = 1.0 - theta, lw[0] + lw_[0] + lw[1] + lw_[1]
        den_p = theta * (2.0 - theta) - tau * tau * np.expm1(lprod)
        logpmf = g[0] + g[1]
        logpmf += np.log(theta) + np.log(den_p)
    dens = _den(theta, corners)
    for ld in np.log(dens):
        logpmf -= ld
    return logs, logpmf, corners, dens, lprod, den_p


def _corners(lw, lw_):
    """The corners' ``log w`` of `_terms`, from the log base CDFs at the cell (``lw``) and below it (``lw_``),
    stacked per coordinate."""
    at = np.array([lw, lw_])
    return at[:, 0] if len(lw) == 1 else (at[:, None, 0] + at[None, :, 1]).reshape(4, *at.shape[2:])


@_quiet_logs
def _logpmf(theta, coords):
    """The log-pmf of `_terms`, without the pieces of its gradient.

    At theta = 1, ``tau = 0`` makes every `_den` and ``1 - tau^2 P`` exactly 1, so the general formulas give
    the sum of the base laws' log-gaps bit for bit.
    """
    return _terms(theta, *_stacked(coords))[1]


# ---------------------------------------------------------------------------
# gradient of the kernel: a log-pmf holds a coordinate's (alpha, p) through
# log(u - v) and through the compounding factor h(log u, log v, ..., theta).
# The fitter passes parameters as columns (k, 1) against cells (c,): every
# array below is then (d, k, c), d coordinates stacked first, one row per
# parameter point.


def _coord_partials(alpha, p, x, logs, c1, c0):
    """Partials in (alpha, p) of ``log(u - v) + h`` for one coordinate, u, v its base CDF at x, x - 1.

    ``logs`` is `_base_logs` at (p, x); ``c1 - 1`` and ``c0`` are the partials of h in ``log u`` and
    ``log v``; ``log(u - v) = log u + log(1 - exp(-alpha r))`` (`_log_gap`),
    ``dr/dp = p^x / (1-p^(x+1)) (x (1-p) / (p (1-p^x)) - 1)``.  Where ``alpha r`` is 0 the log-gap is -inf,
    the pmf having underflowed to 0, and both partials are 0, as the fitter counts such a cell.
    """
    l1, l0, r, px, q0, q1 = logs
    z = alpha * r
    dlr = 1.0 / np.expm1(z)  # d log(1 - exp(-z)) / dz
    a, b, lower = px / q1, x / (p * q0), x > 0  # b is inf at x = 0, where v's terms vanish
    d_alpha = c1 * l1 + np.where(lower, c0 * l0 + r * dlr, 0.0)
    d_p = alpha * (np.where(lower, a * ((1.0 - p) * b - 1.0) * dlr - c0 * px * b, 0.0) - c1 * (x + 1.0) * a)
    if not z.all():  # r * dlr and a * dlr are 0 * inf there
        d_alpha, d_p = np.where(z == 0.0, 0.0, d_alpha), np.where(z == 0.0, 0.0, d_p)
    return d_alpha, d_p


@_quiet_grad
def _logpmf_and_grad(theta, alpha, p, x):
    """`_logpmf` and its partials in each coordinate's (shape, p), then in theta, stacked first, from one
    `_base_logs` pass on all coordinates, which come stacked as `_terms` takes them.

    With ``e = w / (1 - tau w)`` at each corner w of `_terms`, a coordinate's ``c1`` and ``c0`` (see
    `_coord_partials`) sum e over the corners at its u and at its v, and the theta-partial is ``1/theta - S``,
    S the sum of e over all corners, less ``2 tau P / (1 - tau^2 P)`` for two coordinates.  The same
    formulas serve every theta: at theta = 1 they give, bit for bit, ``c1`` = 1, ``c0`` = 0, e = w and the
    base laws' log-pmf.
    """
    logs, logpmf, corners, dens, lprod, den_p = _terms(theta, alpha, p, x)
    tau, e = 1.0 - theta, np.exp(corners) / dens
    if len(x) == 1:
        c1, c0 = 1.0 + tau * e[:1], tau * e[1:]
        d_theta = 1.0 / theta - e[0] - e[1]
    else:
        ratio = np.exp(lprod) / den_p
        k = tau * tau * ratio
        sums = np.array([e[0::2] + e[1::2], e[:2] + e[2:]])  # [j, i]: coordinate j at its u (0) or v (1)
        c1, c0 = 1.0 - k + tau * sums[:, 0], tau * sums[:, 1] - k
        d_theta = 1.0 / theta + 2.0 * tau * ratio - (sums[0, 0] + sums[0, 1])
    d_alpha, d_p = _coord_partials(alpha, p, x, logs, c1, c0)
    return logpmf, np.array([v for pair in zip(d_alpha, d_p) for v in pair] + [d_theta])
