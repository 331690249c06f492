"""Maximum-likelihood fitting of the compounded laws.

The univariate and the bivariate law are one law of one or two coordinates
that share the geometric count, and one path fits both: `_loglik` gives the
log-likelihood of the law on counts or on a `BivDataset` (`_ll`, on the
kernel `dge._logpmf_and_grad`), `_fit` fits it by maximum likelihood and
`_em_fit` by EM.
Every maximum-likelihood fit -- univariate (`fit_uni_mle`), bivariate
(`fit_biv_mle`) and the equal-margins null of the likelihood-ratio test, the
bivariate law with one (shape, p) for both coordinates -- runs through one
function, `_fit`, and one search, `_search`: a trust-region Newton method whose
step is a Newton step shifted just enough to make its matrix positive
definite, on the analytic gradient of the `dge` kernel and a Hessian from
differences of that gradient, with all starts advancing in lockstep.  It
searches a bounded box in log coordinates for shapes and theta (up to exactly
theta = 1) and logit coordinates for probabilities.  The kernel takes
parameters as columns, so one call evaluates every start's trial point
together with the neighbours that give its Hessian.  One acceptance rule
and one stop rule serve every iteration, the last ones near the optimum
included.  The theta = 1 submodel (pure base law / independence) is
fitted first and wins ties.  At theta = 1 the law is a sum of base-law
terms per coordinate, so that search runs on the one base-law likelihood,
`_base_ll`, on each coordinate's distinct values rather than on the cells:
counts as one (shape, p) pair, a bivariate law's margins as two pairs, the
equal-margins law's margins together as one pair.
Standard errors come from the same kind of Hessian.

EM, the paper's algorithm, stays as `em_fit_uni`/`em_fit_biv`.  Given each
observation's latent geometric count n_i, the complete-data likelihood
separates into a Bernoulli-style factor for theta and, per coordinate, a
base-law likelihood in which x_i carries shape n_i * alpha.  The E-step
imputes each n_i by its conditional mode (or mean); the M-step sets
theta = m / sum(n_i) and maximizes each coordinate's weighted likelihood in
(alpha, p) by the same gradient search on the same base-law likelihood
(`m_step_pair` on `_base_ll`, with shapes n_i * alpha).  Mode imputation is
not monotone, so a step that lowers the observed log-likelihood by more than
a slack ends EM.

Likelihoods, E- and M-steps work on distinct values, pairs or value-count
pairs with their multiplicities (`_distinct`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bivariate import BgdgeParams
from .dge import (_base_logs, _coord_partials, _coords, _log_gap, _logpmf, _logpmf_and_grad, _nonneg, _quiet_grad,
                  _quiet_logs)
from .univariate import UgdgeParams, _count_mean, _count_modes

__all__ = [
    "BivDataset",
    "EmConfig",
    "FitReport",
    "observed_loglik_uni",
    "observed_loglik_biv",
    "latent_weighted_loglik",
    "e_step",
    "e_step_uni",
    "m_step_pair",
    "em_fit_uni",
    "em_fit_biv",
    "fit_uni_mle",
    "fit_biv_mle",
    "std_errors",
]

#: A proposed EM step may lower the observed log-likelihood by at most this
#: much before it is rejected (mode imputation is not exactly monotone).
ASCENT_SLACK = 1e-8

#: EM has converged when its log-likelihood moves by less than ``ll_rel_tol`` (relative) and no parameter
#: by more than this.
PARAM_TOL = 1e-6

#: The boundary submodel wins ties against interior candidates within this.
_SNAP_SLACK = 1e-7

#: Optimizer-facing log-likelihoods count a cell of smaller log-probability
#: (numerically vanishing) at this value, so a search never sees -inf.
_LOG_FLOOR = math.log(1e-300)


def _as_counts(x, name="x") -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    return _nonneg(arr, name).astype(np.int64)


@dataclass(frozen=True)
class BivDataset:
    """Paired nonnegative integer observations, in file order."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_counts(self.x, "x")
        y = _as_counts(self.y, "y")
        if x.size != y.size:
            raise ValueError(f"coordinate lengths differ: {x.size} vs {y.size}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def from_pairs(cls, pairs) -> "BivDataset":
        pairs = list(pairs)
        return cls(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))

    def __len__(self) -> int:
        return int(self.x.size)

    @property
    def m(self) -> int:
        return int(self.x.size)

    def contingency_table(self) -> np.ndarray:
        """Counts over the rectangle [0, max x] x [0, max y]."""
        table = np.zeros((int(self.x.max()) + 1, int(self.y.max()) + 1), dtype=np.int64)
        np.add.at(table, (self.x, self.y), 1)
        return table


@dataclass(frozen=True)
class EmConfig:
    """Tolerance, iteration budget and E-step of EM.  ``max_iter`` also caps the iterations of each
    trust-region search, those of EM's M-step included; maximum-likelihood searches stop by their own
    rule (`_search`), so ``ll_rel_tol`` bounds EM only, as the fixed `PARAM_TOL` does."""

    ll_rel_tol: float = 1e-8
    max_iter: int = 500
    e_step: str = "argmax"  # or "expected"

    def __post_init__(self):
        if not self.ll_rel_tol > 0:
            raise ValueError("ll_rel_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("iteration budget out of range")
        if self.e_step not in ("argmax", "expected"):
            raise ValueError(f"e_step must be 'argmax' or 'expected', got {self.e_step!r}")


@dataclass(frozen=True)
class FitReport:
    """Everything a fit produces, immutable and schema-stable."""

    params: object  # UgdgeParams or BgdgeParams
    param_names: tuple
    estimates: tuple
    std_errors: tuple
    ci95: tuple  # of (lo, hi) pairs
    loglik: float
    iters: int
    converged: bool
    ll_trace: tuple
    stop_reason: str
    method: str
    notes: tuple = ()


# ---------------------------------------------------------------------------
# log-likelihoods


def _distinct(*cols):
    """Distinct rows of equal-length columns, each row counted once.

    Returns ``(columns, weights, inverse, margins)``: the distinct rows column
    by column as floats, in sorted order, their multiplicities, the index
    taking each original row to its distinct row, and each column's distinct
    values as floats with their counts, from the one `np.unique` call per
    column.  A likelihood of the rows is then ``weights @ logpmf(columns)``.
    One column's distinct rows are its distinct values.
    """
    if len(cols) == 1:
        cells, inv, w = np.unique(cols[0], return_inverse=True, return_counts=True)
        cells, w = cells.astype(float), w.astype(float)
        return (cells,), w, inv.reshape(-1), [(cells, w)]
    levels, idx, counts = zip(*(np.unique(c, return_inverse=True, return_counts=True) for c in cols))
    dims = [lev.size for lev in levels]
    key = np.ravel_multi_index([i.reshape(-1) for i in idx], dims)
    keys, inv, w = np.unique(key, return_inverse=True, return_counts=True)
    rows = np.unravel_index(keys, dims)
    levels = [np.asarray(lev, dtype=float) for lev in levels]
    cells = tuple(lev[r] for lev, r in zip(levels, rows))
    return cells, w.astype(float), inv.reshape(-1), [(lev, n.astype(float)) for lev, n in zip(levels, counts)]


def _columns(q):
    """The parameters of ``q`` (rows of points, or one point) as columns that broadcast against cells."""
    return np.ascontiguousarray(np.transpose(q), dtype=float)[..., None]


def _ll_and_grad(logpmf, grad, w):
    """Weighted sums over cells (the last axis) of log-pmfs and of their partials (stacked first in
    ``grad``), floored at `_LOG_FLOOR`: one value and one gradient row per parameter point."""
    low = logpmf < _LOG_FLOOR
    if low.any():
        logpmf, grad = np.where(low, _LOG_FLOOR, logpmf), np.where(low, 0.0, grad)
    return logpmf @ w, (grad @ w).T


def _ll(cells, q):
    """Log-likelihood on ``(x, weights)`` and its gradient in each coordinate's (shape, p), then theta, per point
    of ``q``; ``x`` holds the cells of one or two coordinates stacked first, (d, c).

    With `_base_ll`, which takes every theta = 1 search and EM's M-step, it is every likelihood of a fit, so
    that wrapping the two counts a fit's work.
    """
    x, w = cells
    q = _columns(q)
    return _ll_and_grad(*_logpmf_and_grad(q[-1], q[:-1:2], q[1::2], x[..., None, :] if q.ndim > 2 else x), w)


def _handle(cols, w):
    """The log-likelihood with gradient (`_ll`) on the cells ``cols``, one array per coordinate, weighted by ``w``."""
    cells = np.array(cols), w
    return lambda q: _ll(cells, q)


@_quiet_grad
def _base_ll(pairs, q):
    """The base-law log-likelihood and its gradient per point of ``q``, on cells grouped by (shape, p) pair.

    ``pairs`` holds each pair's (value, shape multiplier n, weight) cells, in which a value x carries shape
    ``n * shape``: ``sum w log[(1 - p^(x+1))^(n shape) - (1 - p^x)^(n shape)]``.  Pair j takes its (shape, p)
    from columns 2j and 2j + 1 of ``q``, and its block's gradient goes there; a further column, theta, gets
    partial 0, since every theta = 1 search holds it.  With n = 1 this is the law's log-likelihood at
    theta = 1: on counts one pair, on a bivariate law's margins two, with one (shape, p) for both margins one
    pair of both margins' values.
    """
    q = np.asarray(q, dtype=float)
    cols, value, grad = _columns(q), 0.0, np.zeros(q.shape)
    for j, (x, n, w) in enumerate(pairs):
        shape, p = n * cols[2 * j], cols[2 * j + 1]
        logs = l1, _, r, *_ = _base_logs(p, x)
        d_shape, d_p = _coord_partials(shape, p, x, logs, 1.0, 0.0)
        v, grad[..., 2 * j:2 * j + 2] = _ll_and_grad(_log_gap(l1, r, shape), np.array([n * d_shape, d_p]), w)
        value = value + v
    return value, grad


def _observed_loglik(params, data) -> float:
    """Observed-data log-likelihood of the law of one or two coordinates on its `_cols`."""
    cells, w, *_ = _distinct(*_cols(data))
    q = params.as_tuple()
    logpmf = _logpmf(q[-1], _coords(q, cells))
    bad = ~np.isfinite(logpmf)
    if np.any(bad):
        at = [int(c[np.argmax(bad)]) for c in cells]
        where = f"x={at[0]}" if len(at) == 1 else f"cell=({at[0]}, {at[1]})"
        raise FloatingPointError(f"model probability underflowed at {where}")
    return float(w @ logpmf)


def observed_loglik_uni(params: UgdgeParams, x) -> float:
    """Observed-data log-likelihood; raises if any observation has no mass."""
    return _observed_loglik(params, _as_counts(x))


def observed_loglik_biv(params: BgdgeParams, data: BivDataset) -> float:
    """Observed-data log-likelihood; raises if any cell has no mass."""
    return _observed_loglik(params, data)


@_quiet_logs
def latent_weighted_loglik(values, counts, alpha: float, p: float) -> float:
    """Weighted base log-likelihood: each value's shape is scaled by its count.

    ``sum_i log[(1 - p^(x_i+1))^(n_i a) - (1 - p^(x_i))^(n_i a)]``; -inf when
    any bracketed difference vanishes (numerically extinct term).
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    shape = np.broadcast_to(np.asarray(counts, dtype=float) * alpha, v.shape)
    l1, _, r, *_ = _base_logs(p, v)
    total = float(_log_gap(l1, r, shape).sum())
    return total if total > -math.inf else -math.inf


# ---------------------------------------------------------------------------
# E-step


def _e_step(theta, coords, cfg: EmConfig | None):
    """Latent counts of the observations, given ``(shape, p, counts)`` per coordinate, per distinct cell:
    the conditional mode (`univariate._count_modes`, int64) or mean (`univariate._count_mean`, float)."""
    cfg = cfg or EmConfig()
    cells, _, inv, _ = _distinct(*(x for _, _, x in coords))
    law = [(alpha, p, c) for (alpha, p, _), c in zip(coords, cells)]
    if cfg.e_step == "argmax":
        return _count_modes(theta, law)[inv]
    return _count_mean(theta, law)[inv]


def e_step(omega: BgdgeParams, data: BivDataset, cfg: EmConfig | None = None):
    """Impute each pair's latent count given the current iterate.

    Default: the conditional mode (smallest maximizer), an int64 array.
    With ``cfg.e_step == "expected"``: the conditional mean, a float array.
    """
    a1, p1, a2, p2, th = omega.as_tuple()
    return _e_step(th, [(a1, p1, data.x), (a2, p2, data.y)], cfg)


def e_step_uni(params: UgdgeParams, x, cfg: EmConfig | None = None):
    """Univariate specialization of `e_step`."""
    alpha, p, th = params.as_tuple()
    return _e_step(th, [(alpha, p, _as_counts(x))], cfg)


# ---------------------------------------------------------------------------
# M-step


def _latent_cells(values, counts):
    """Distinct (value, count) pairs with multiplicities; rejects empty input."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty observation set")
    (x, n), w, *_ = _distinct(v, np.broadcast_to(np.asarray(counts, dtype=float), v.shape))
    return x, n, w


def _geometric_p(values, w=None) -> float:
    """The geometric (shape 1) maximum-likelihood p, ``mean / (1 + mean)``, inside the search box."""
    mean = float(np.average(values, weights=w))
    return float(np.clip(mean / (1.0 + mean), *_UNIT))


def m_step_pair(values, counts, cfg: EmConfig | None = None):
    """Joint maximizer of the weighted base log-likelihood over (shape, p).

    `_search` on `_base_ll` from shape 1 / (mean count) and the geometric p,
    inside the search box: shape in [1e-3, 1e3], p in [1e-6, 1 - 1e-6].  Returns
    ``(alpha, p)``.
    """
    cells = _latent_cells(values, counts)
    if np.all(cells[0] == 0):
        warnings.warn(
            "degenerate observations (all zero): likelihood maximized on a "
            "boundary ridge; returning the small-p representative",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0, _UNIT[0]
    start = (1.0 / np.average(cells[1], weights=cells[2]), _geometric_p(cells[0], cells[2]))
    return _search(lambda q: _base_ll([cells], q), [start], slice(None), cfg or EmConfig())[0]


# ---------------------------------------------------------------------------
# EM drivers


#: By number of coordinates: the parameter record and the name of its theta = 1 submodel.
_LAWS = {1: (UgdgeParams, "base-law"), 2: (BgdgeParams, "independence")}


def _cols(data):
    """The count columns of ``data``: a `BivDataset`'s two, or the one array of counts."""
    return (data.x, data.y) if isinstance(data, BivDataset) else (data,)


def _check_record(params, data):
    """Raise `TypeError` unless ``params`` is the parameter record of the law on ``data``."""
    if not isinstance(params, (UgdgeParams, BgdgeParams)):
        raise TypeError(f"unsupported parameter record {type(params).__name__}")
    if isinstance(params, BgdgeParams) != isinstance(data, BivDataset):
        need = "a BivDataset" if isinstance(params, BgdgeParams) else "an array of counts"
        raise TypeError(f"a {type(params).__name__} record needs {need}, got {type(data).__name__}")


def _finish_report(params, data, iters, trace, stop_reason, converged, method, notes, compute_se):
    """The `FitReport` of an estimate whose log-likelihood is ``trace[-1]``."""
    est, names = params.as_tuple(), params.names
    notes = [*notes, *(f"{name} = {v:g} on the edge of the search box"
                       for name, v, edge in zip(names, est, _on_bound(np.array(est))) if edge)]
    if compute_se:
        se, se_notes = std_errors(params, data)
        notes += se_notes
    else:
        se = tuple(math.nan for _ in names)
    ci = tuple(
        (e - 1.96 * s, e + 1.96 * s) if math.isfinite(s) else (math.nan, math.nan)
        for e, s in zip(est, se)
    )
    return FitReport(
        params=params,
        param_names=names,
        estimates=tuple(float(e) for e in est),
        std_errors=tuple(float(s) for s in se),
        ci95=ci,
        loglik=float(trace[-1]),
        iters=int(iters),
        converged=bool(converged),
        ll_trace=tuple(float(t) for t in trace),
        stop_reason=stop_reason,
        method=method,
        notes=tuple(notes),
    )


def _loglik(data):
    """The log-likelihood with gradient (`_ll`) of the law on ``data``, counts or a `BivDataset`."""
    return _handle(*_distinct(*_cols(data))[:2])


def _em_fit(data, init, cfg: EmConfig | None, compute_se: bool) -> FitReport:
    """EM for the law on ``data`` from the parameter record ``init``, with ascent guard.

    Each iteration imputes the latent counts (`_e_step`), fits each coordinate's (shape, p) to them
    (`m_step_pair`) and sets theta to ``m / sum(counts)``.
    """
    _check_record(init, data)
    cfg = cfg or EmConfig()
    ll, cols = _loglik(data), _cols(data)
    q = init.as_tuple()
    trace, stop = [ll(q)[0]], "max_iter"
    for _ in range(cfg.max_iter):
        ns = _e_step(q[-1], _coords(q, cols), cfg)
        k = float(np.asarray(ns, dtype=float).sum())
        new = (*(v for c in cols for v in m_step_pair(c, ns, cfg)), min(cols[0].size / k, 1.0))
        ll_new = ll(new)[0]
        if ll_new < trace[-1] - ASCENT_SLACK:
            stop = "ll_decrease"
            break
        change = max(abs(a - b) for a, b in zip(new, q))
        rel = abs(ll_new - trace[-1]) / max(1.0, abs(trace[-1]))
        q = new
        trace.append(ll_new)
        if rel < cfg.ll_rel_tol and change < PARAM_TOL:
            stop = "converged"
            break
    params = type(init).from_values(*q)
    return _finish_report(params, data, len(trace) - 1, trace, stop, stop != "max_iter", "em", (), compute_se)


def em_fit_uni(x, init: UgdgeParams, cfg: EmConfig | None = None, compute_se: bool = True) -> FitReport:
    """EM for the univariate law from a given start, with ascent guard."""
    return _em_fit(_as_counts(x), init, cfg, compute_se)


def em_fit_biv(
    data: BivDataset, init: BgdgeParams, cfg: EmConfig | None = None, compute_se: bool = True
) -> FitReport:
    """EM for the bivariate law from a given start, with ascent guard."""
    return _em_fit(data, init, cfg, compute_se)


# ---------------------------------------------------------------------------
# the maximum-likelihood pipeline


# The search box.  On an escape ridge shape and compounding go to zero together
# toward a limit law outside the family, and an unbounded search would follow
# it indefinitely: shapes stay in [1e-3, 1e3], probabilities in [1e-6, 1 - 1e-6],
# theta in [1e-6, 1].
_W_SHAPE = (math.log(1e-3), math.log(1e3))
_W_UNIT = (-13.815510557964274, 13.815510557964274)  # log(1e-6) and -log(1e-6)
#: The probabilities at the edges of the search box, the expit of `_W_UNIT` as `_from_search` takes it.
_UNIT = tuple((1.0 / (1.0 + np.exp(-np.array(_W_UNIT)))).tolist())

# Theta is searched as its log, up to exactly theta = 1.  Where the likelihood rises
# toward the theta = 1 submodel, a logit search coordinate would move about one unit
# per Newton step toward an edge that never reaches theta = 1; a step in log theta that
# meets the edge lands on theta = 1.
_W_THETA = (math.log(_UNIT[0]), 0.0)

#: The roles of a parameter, in the order of `_EDGES`, the search box of each role's
#: coordinate: the (shape, p) pairs alternate 0, 1, and a last, odd one is theta.
_SHAPE, _P, _THETA = range(3)
_EDGES = np.array([_W_SHAPE, _W_UNIT, _W_THETA])


#: Compounding probabilities at which the theta = 1 fit seeds a search.
_START_THETAS = (0.25, 0.75)

#: The fit converges when no component of the projected gradient of the
#: log-likelihood, in the search coordinates, exceeds this.
_GTOL = 1e-6

#: Step, in the search coordinates, of the gradient differences that give a Hessian.
_HESS_STEP = 1e-4

#: Trust radius, in the search coordinates, of each start's first step; the radius never
#: exceeds the second value, and a start whose radius falls below the third has stalled.
_RADIUS = (1.0, 64.0, 1e-10)

#: The shifted Newton step keeps the least eigenvalue of its matrix at about this or above.
_MIN_CURVATURE = 1e-8


def _box(q, free=slice(None)):
    """Search coordinates of ``q[free]``, their bounds, and the role of each.

    The parameters come in (shape, p) pairs, and a last one of an odd count is
    theta.  A shape and theta are searched as their logs, a probability as its
    logit.
    """
    n = len(q)
    role = np.arange(n) % 2
    if n % 2:
        role[-1] = _THETA
    role = role[free]
    v = np.asarray(q, dtype=float)[free]
    w = np.log(v)
    prob = role == _P
    w[prob] -= np.log1p(-v[prob])
    return w, *_EDGES[role].T, role


def _from_search(w, prob):
    """The values at search coordinates ``w`` (the last axis as in `_box`): exp, or expit where ``prob``."""
    return np.where(prob, 1.0 / (1.0 + np.exp(-w)), np.exp(w))


def _on_bound(q) -> np.ndarray:
    """Which parameters sit on an edge of the search box.  Theta = 1 is the submodel, not an edge."""
    w, lo, hi, role = _box(q)
    return (np.abs(w - lo) <= 1e-8) | ((np.abs(w - hi) <= 1e-8) & (role != _THETA))


def _with_hessian(fun, h):
    """The map taking rows ``x`` to ``fun`` at them and at their neighbours ``x +- h_j e_j``, in one call.

    ``fun`` maps rows of points to a value and a gradient row per point.  The map returns the
    value (k,), the gradient (k, d) and the symmetrized Hessian (k, d, d) from central
    differences of the gradient, for the k rows of ``x``.
    """
    d = h.size
    shifts, twice = np.array([np.diag(h), -np.diag(h)])[:, None], 2.0 * h[:, None]  # x - h_j e_j is x + (-h_j e_j)

    def at(x):
        k = len(x)
        value, grad = fun(np.concatenate([x, (x[:, None] + shifts).reshape(-1, d)]))
        plus, minus = grad[k:].reshape(2, k, d, d)
        cols = (plus - minus) / twice
        return value[:k], grad[:k], 0.5 * (cols + np.swapaxes(cols, 1, 2))

    return at


def _shifted_newton(hess, grad, radius, move, eye=None):
    """The step ``s = -(H + mu I)^-1 g`` on the coordinates ``move``, cut back to ``|s| <= radius``, for stacks
    of problems.

    The others are held: they get no gradient and a unit curvature of their own, so the step leaves them.
    ``mu = max(0, _MIN_CURVATURE - 1.01 lam_min)``, ``lam_min`` the least eigenvalue of ``H``: no shift
    where ``H`` is safely positive definite, else just enough of one to make it so.  Every trust-region
    step has this form for some ``mu >= 0`` (Nocedal and Wright 2006, Thm 4.1); the radius, which the
    ratio test adapts, bounds its length.  ``eye``, the identity of the problems' size, is built here unless
    given.
    """
    eye = np.eye(move.shape[-1]) if eye is None else eye
    if not move.all():
        hess, grad = np.where(move[:, :, None] & move[:, None, :], hess, eye), np.where(move, grad, 0.0)
    mu = np.maximum(0.0, _MIN_CURVATURE - 1.01 * np.linalg.eigvalsh(hess)[:, 0])
    step = -np.linalg.solve(hess + mu[:, None, None] * eye, grad[..., None])[..., 0]
    return step * (radius / np.maximum(np.sqrt(np.add.reduce(step * step, axis=1)), radius))[:, None]


def _held(w, g, lo, hi):
    """Which coordinates sit on a bound that the descent direction ``-g`` pushes beyond, and the
    projected-gradient test, per row, of ``g`` with those coordinates held."""
    held = ((w <= lo) & (g > 0.0)) | ((w >= hi) & (g < 0.0))
    return held, np.logical_and.reduce((np.abs(g) <= _GTOL) | held, axis=-1)


def _shortened(w, step, lo, hi):
    """``w + t step`` for the largest ``t <= 1`` that stays in the box, with the first bound met exactly, per
    row; where that ``t`` is 0, a step that leaves a bound it starts on, the full step with each coordinate
    that it takes past a bound put on that bound."""
    bound = np.where(step < 0.0, lo, hi)
    room = np.divide(bound - w, step, out=np.full(w.shape, np.inf), where=step != 0.0)  # how far each bound lies
    t = np.minimum.reduce(room, axis=-1, keepdims=True)
    t = np.where(t > 0.0, np.minimum(t, 1.0), 1.0)
    return np.minimum(np.maximum(np.where(room <= t, bound, w + t * step), lo), hi)  # in the box to the last bit


def _search(ll, starts, free, cfg: EmConfig):
    """Maximize ``ll``, a log-likelihood with its gradient per row of points, over the ``free`` parameters.

    The others stay as in the first start.  A trust-region Newton method runs
    from every start in lockstep: each iteration makes one call of ``ll``, on
    every running start's trial point and the neighbours that give its
    Hessian (`_with_hessian`), so a kept trial brings its gradient and
    Hessian, and a rejected one only shrinks the trust radius.  The step
    (`_shifted_newton`) moves the coordinates that no bound holds, nor one
    that the step would push beyond a bound it sits on, and stops at the
    first bound it meets (`_shortened`), which a later step then holds.
    A trial is kept when its gain is more than 1e-4 of the predicted one,
    or when it passes the projected-gradient test `_GTOL` and its likelihood
    is within the rounding of a likelihood near its maximum (1e-14 relative)
    of the current one.  A start that passes `_GTOL` refines until its next
    step is at most 1e-13 in every coordinate (checked before the call) or
    its trial is not kept; any start stops when its radius falls below
    ``_RADIUS[2]``; ``cfg.max_iter`` caps the iterations.  Returns
    ``(params, ll, stop, iterations, trace)`` at the start that ends highest:
    ``stop`` is "converged" when its end passes `_GTOL`; ``trace`` is the
    log-likelihood at its start and at its end.

    A fit's few dozen cells make each iteration's cost mostly fixed numpy
    overhead, so the loop keeps only the running starts, in compact arrays in
    start order, and updates a kept trial's rows in place, or takes the
    trial's arrays whole when every trial is kept; a start that stops is
    written once into the per-start results.  Each iteration tests the
    bounds once at the point and once at the trial (`_held`, with the
    projected-gradient test), whose held coordinates are the next
    iteration's.
    """
    q0 = np.array(starts[0], dtype=float)
    lo, hi, role = _box(q0, free)[1:]
    prob, eye = role == _P, np.eye(lo.size)

    def f(w):  # -ll and its gradient in the search coordinates, at the rows of w
        q = np.repeat(q0[None], len(w), axis=0)
        v = q[:, free] = _from_search(w, prob)
        value, grad = ll(q)
        return -value, -grad[:, free] * np.where(prob, v * (1.0 - v), v)

    at = _with_hessian(f, np.full(lo.size, _HESS_STEP))
    w = np.clip([_box(q, free)[0] for q in starts], lo, hi)
    f_start, g, hess = at(w)
    held, passed = _held(w, g, lo, hi)
    # per start, written when it stops: its point, value, projected-gradient test, and whether it still ran
    end = [np.empty_like(w), np.empty_like(f_start), np.empty(len(w), dtype=bool), np.empty(len(w), dtype=bool)]

    def retire(run, gone, live=False):  # the running starts at `gone` into `end`; returns the others
        i = run[0][gone]
        end[0][i], end[1][i], end[2][i], end[3][i] = run[1][gone], run[2][gone], run[6][gone], live
        return [a[~gone] for a in run]

    # the running starts, in start order: index, point, value, gradient, Hessian, radius, whether the point
    # passes the projected-gradient test, and the coordinates that no bound holds
    run = [np.arange(len(w)), w, f_start.copy(), g, hess, np.full(len(w), _RADIUS[0]), passed, ~held]
    nit = 0
    while len(run[0]) and nit < cfg.max_iter:
        w, fw, g, hess, radius, passed, move = run[1:]
        step = _shifted_newton(hess, g, radius, move, eye)
        out = ((w <= lo) & (step < 0.0)) | ((w >= hi) & (step > 0.0))  # on a bound that the step pushes beyond
        if out.any():
            step = _shifted_newton(hess, g, radius, move & ~out, eye)
        trial = _shortened(w, step, lo, hi)
        step = trial - w
        short = passed & np.logical_and.reduce(np.abs(step) <= 1e-13, axis=1)  # too short to move an estimate
        if short.any():
            run, trial, step = retire(run, short), trial[~short], step[~short]
            if not len(run[0]):
                break
            w, fw, g, hess, radius, passed, move = run[1:]
        nit += 1
        pred = -np.einsum("kj,kj->k", step, g + 0.5 * np.einsum("kjl,kl->kj", hess, step))
        ft, gt, ht = at(trial)
        up = pred > 0.0
        rho = np.where(up, (fw - ft) / np.where(up, pred, 1.0), -np.inf)
        size = np.sqrt(np.add.reduce(step * step, axis=1))
        grown = np.where((rho > 0.75) & (size > 0.8 * radius), np.minimum(2.0 * radius, _RADIUS[1]), radius)
        run[5] = radius = np.where(rho >= 0.25, grown, 0.25 * size)  # a nan trial shrinks it too
        held, trial_passes = _held(trial, gt, lo, hi)
        keep = (rho > 1e-4) | (trial_passes & (ft <= fw + 1e-14 * np.abs(fw)))
        stays = (keep | ~passed) & (radius >= _RADIUS[2])
        if keep.all():
            run[1:5], run[6:] = (trial, ft, gt, ht), (trial_passes, ~held)
        else:
            rows = keep[:, None]
            for a, b, where in ((w, trial, rows), (fw, ft, keep), (g, gt, rows), (hess, ht, rows[..., None]),
                                (passed, trial_passes, keep), (move, ~held, rows)):
                np.copyto(a, b, where=where)
        if not stays.all():
            run = retire(run, ~stays)
    retire(run, np.ones(len(run[0]), dtype=bool), live=True)
    w, fw, passed, live = end
    best = int(np.argmin(fw))
    stop = "converged" if passed[best] else "max_iter" if live[best] else "gradient_above_tol"
    q0[free] = _from_search(w[best], prob)
    return tuple(float(v) for v in q0), float(-fw[best]), stop, nit, [-f_start[best], -fw[best]]


class _Fit(NamedTuple):
    """What `_fit` found: the estimate, its search record and the theta = 1 fit."""

    est: tuple
    loglik: float
    stop: str
    iters: int
    trace: list
    notes: list
    base: tuple
    ll_base: float


_TIE = [0, 1, 0, 1, 2]  # where the shared (shape, p, theta) sit among the five bivariate parameters


def _fit(data, cfg: EmConfig, init=None, extra_starts=(), tied=False) -> _Fit:
    """The maximum-likelihood fit of the law on ``data``, counts or a `BivDataset`; with ``tied``, of the
    bivariate law with one (shape, p) for both coordinates, searched in (shape, p, theta) at `_TIE`.

    The theta = 1 submodel is fitted first, by `_search` with theta held at 1 from each coordinate's geometric
    fit, on `_base_ll` with shape multiplier 1: the counts as one pair, the margins as two, or both margins'
    values as one pair when ``tied``.  The starts, in order: the parameter record ``init`` (by default that
    fit with theta = 0.5), the fit moved to each theta of `_START_THETAS`, and ``extra_starts``; one `_search`
    runs them all in lockstep on the law's likelihood (`_ll`).  Its best endpoint wins, unless the theta = 1
    fit comes within `_SNAP_SLACK` of it: ties go to the smaller model.  A tied fit's ``est`` and ``base`` are
    five-parameter tuples.
    """
    cols = _cols(data)
    record, submodel = _LAWS[len(cols)]
    if init is not None:
        _check_record(init, data)
    extra = [record.from_values(*s).as_tuple() for s in extra_starts]
    cells, w, _, margins = _distinct(*cols)
    ll = _handle(cells, w)
    if tied:
        full, submodel, cols = ll, "equal-margins", [np.concatenate(cols)]
        margins = [tuple(map(np.concatenate, zip(*margins)))]

        def ll(q):
            value, grad = full(np.asarray(q)[..., _TIE])
            return value, np.concatenate([grad[..., :2] + grad[..., 2:4], grad[..., 4:]], axis=-1)

    pairs = [(v, 1.0, n) for v, n in margins]
    base = (*(v for c in cols for v in (1.0, _geometric_p(c))), 1.0)
    base, ll_base, base_stop, base_iters, _ = _search(lambda q: _base_ll(pairs, q), [base], slice(-1), cfg)
    first = init.as_tuple() if init is not None else (*base[:-1], 0.5)
    starts = [first, *((*base[:-1], th) for th in _START_THETAS), *extra]
    est, ll_best, stop, iters, trace = _search(ll, starts, slice(None), cfg)
    notes = []
    if ll_base >= ll_best - _SNAP_SLACK:
        est, ll_best, stop, iters = base, ll_base, base_stop, base_iters
        trace.append(ll_base)
        notes.append(f"theta at boundary 1 ({submodel} submodel at least as likely)")
    if tied:
        est, base = tuple(np.asarray(est)[_TIE]), tuple(np.asarray(base)[_TIE])
    return _Fit(est, ll_best, stop, iters, trace, notes, base, ll_base)


_METHOD = "trust-newton"


def _mle_report(data, cfg: EmConfig | None, init, extra_starts, compute_se: bool) -> FitReport:
    """The `FitReport` of `_fit` on ``data``."""
    f = _fit(data, cfg or EmConfig(), init, extra_starts)
    params = _LAWS[len(f.est) // 2][0].from_values(*f.est)
    return _finish_report(params, data, f.iters, f.trace, f.stop, f.stop == "converged", _METHOD, f.notes, compute_se)


def fit_uni_mle(x, cfg: EmConfig | None = None, init: UgdgeParams | None = None, compute_se: bool = True) -> FitReport:
    """Univariate maximum likelihood through `_fit`.

    The search starts from ``init`` or, by default, from the theta = 1 fit
    with theta = 0.5.  The theta = 1 submodel (pure base law) wins ties
    within a slack, and the report's notes then say so.
    """
    return _mle_report(_as_counts(x), cfg, init, (), compute_se)


def fit_biv_mle(
    data: BivDataset,
    cfg: EmConfig | None = None,
    init: BgdgeParams | None = None,
    extra_starts=(),
    compute_se: bool = True,
) -> FitReport:
    """Bivariate maximum likelihood through `_fit`.

    The search starts from ``init`` or, by default, from the theta = 1
    (independence) fit with theta = 0.5.  ``extra_starts`` (5-tuples, each
    checked by `BgdgeParams.from_values`) are further starts; the
    independence submodel wins ties within a slack.
    """
    return _mle_report(data, cfg, init, extra_starts, compute_se)


# ---------------------------------------------------------------------------
# standard errors


def std_errors(params, data):
    """Observed-information standard errors.

    The information is the difference Hessian of `_with_hessian`, with steps
    of about `_HESS_STEP` in the search coordinates.  Returns ``(se, notes)``, se in
    the order of the record's parameters.  Theta on its boundary 1, or a
    parameter on an edge of the search box, is pinned: its se is NaN and the
    information is taken over the rest.  Non-invertible or non-positive
    information yields NaNs with an explanatory note, not an exception.
    """
    _check_record(params, data)
    ll = _loglik(data if isinstance(params, BgdgeParams) else _as_counts(data))
    q = np.array(params.as_tuple())
    free = ~_on_bound(q)
    notes = [f"{name} on the edge of the search box: its standard error is undefined (reported NaN)"
             for name, f in zip(params.names, free) if not f]
    if q[-1] == 1.0:
        free[-1] = False
        notes.append("theta at boundary 1: its standard error is undefined (reported NaN)")
    se = np.full(q.size, math.nan)
    if np.any(free):

        def neg(v):  # -ll and its gradient in the free parameters, at the rows of v
            at = np.repeat(q[None], len(v), axis=0)
            at[:, free] = v
            value, grad = ll(at)
            return -value, -grad[:, free]

        v = q[free]
        info = _with_hessian(neg, _HESS_STEP * np.where(_box(q, free)[3] == _SHAPE, v, v * (1.0 - v)))(v[None])[2][0]
        try:
            cov = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            notes.append("observed information is singular; standard errors unavailable")
            return tuple(se), notes
        diag = np.diag(cov)
        if np.any(diag <= 0.0):
            notes.append(
                "observed information is not positive definite at the estimate; "
                "some standard errors unavailable"
            )
        with np.errstate(invalid="ignore"):
            se[free] = np.where(diag > 0.0, np.sqrt(np.abs(diag)), math.nan)
    return tuple(float(s) for s in se), notes
