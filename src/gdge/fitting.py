"""Maximum-likelihood fitting of the compounded laws by EM.

The latent-count construction makes EM natural: if each observation's
geometric count n_i were known, the complete-data likelihood would separate
into a Bernoulli-style factor for theta and, per coordinate, a weighted
base-law likelihood whose x_i carries weight n_i.  The fitter alternates

  E-step   impute each n_i by the conditional mode given the observation
           (config-switchable to the conditional mean),
  M-step   theta <- m / sum(n_i), and per coordinate a profile search:
           inner 1-D shape maximization (the weighted log-likelihood is
           unimodal in the shape), outer grid-plus-golden search over p.

Mode imputation is not guaranteed to increase the observed likelihood, so
each accepted iterate is guarded: a step that would lower the observed
log-likelihood by more than a small slack is rejected and iteration stops.

`fit_uni_mle` / `fit_biv_mle` wrap the EM core in a multi-start pipeline
with a simplex polish and an explicit boundary comparison against the
theta = 1 (pure base law / independence) submodel, and report standard
errors from the finite-difference observed information.

Count data hold few distinct values, so every likelihood, E-step and
M-step works on the distinct values (or pairs, or value-count pairs) with
their multiplicities, found once per call by `_distinct`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .bivariate import BgdgeParams
from .dge import SeriesCapError, _base_logs, _biv_logpmf, _cdf_logs, _log_gap, _uni_logpmf
from .univariate import UgdgeParams, _argmax_scan

__all__ = [
    "BivDataset",
    "EmConfig",
    "FitReport",
    "observed_loglik_uni",
    "observed_loglik_biv",
    "latent_weighted_loglik",
    "complete_loglik",
    "e_step",
    "e_step_uni",
    "profile_alpha_max",
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

#: The boundary submodel wins ties against interior candidates within this.
_SNAP_SLACK = 1e-7

#: Probability-scale margin for the p search grid.
_P_EPS = 1e-3

#: Optimizer-facing log-likelihoods count a cell of smaller log-probability
#: (numerically vanishing) at this value, so a search never sees -inf.
_LOG_FLOOR = math.log(1e-300)

#: The fitter's likelihoods take a difference ``hi - lo`` of CDF values
#: directly where it exceeds this fraction of ``hi`` (relative error below
#: about 5e-12) and through the exact log-space kernel of `dge` elsewhere.
#: The direct form is the arithmetic of the Serie A reports that the test
#: suite pins to ten digits; the likelihood is flat to its last bits near the
#: optimum, so the simplex and golden searches reproduce those digits only on
#: that arithmetic.  It is kept wherever it is accurate.
_DIRECT_MIN = 1e-4


def _as_counts(x, name="x") -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.equal(np.floor(arr.astype(float)), arr.astype(float))):
        raise ValueError(f"{name} must contain integers")
    out = arr.astype(np.int64)
    if np.any(out < 0):
        raise ValueError(f"{name} must be nonnegative")
    return out


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
    """Tolerances and search budgets for the EM fitter."""

    ll_rel_tol: float = 1e-8
    param_tol: float = 1e-6
    max_iter: int = 500
    n_cap: int = 100_000
    inner_tol: float = 1e-7
    p_grid: int = 64
    e_step: str = "argmax"  # or "expected"
    polish_theta_grid: tuple = (0.15, 0.35, 0.55, 0.75, 0.95)
    biv_polish_theta_grid: tuple = (0.25, 0.75)
    polish_maxfev: int = 4000

    def __post_init__(self):
        if not (self.ll_rel_tol > 0 and self.param_tol > 0 and self.inner_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1 or self.n_cap < 1 or self.p_grid < 2:
            raise ValueError("iteration/search budgets out of range")
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

    Returns ``(*columns, weights, inverse)``: the distinct rows column by
    column as floats, in sorted order, their multiplicities, and the index
    taking each original row to its distinct row.  A likelihood of the rows
    is then ``weights @ logpmf(columns)``.
    """
    levels, idx = zip(*(np.unique(c, return_inverse=True) for c in cols))
    dims = [lev.size for lev in levels]
    key = np.ravel_multi_index([i.reshape(-1) for i in idx], dims)
    keys, inv, w = np.unique(key, return_inverse=True, return_counts=True)
    rows = np.unravel_index(keys, dims)
    cells = (np.asarray(lev, dtype=float)[r] for lev, r in zip(levels, rows))
    return (*cells, w.astype(float), inv.reshape(-1))


def _base_cdfs(alpha, p, x):
    """Base CDF at x and at x - 1."""
    l1, l0, _ = _base_logs(p, x)
    return np.exp(alpha * l1), np.exp(alpha * l0)


def _patched_log(q, redo, exact):
    """``log(q)``, with the entries flagged in ``redo`` taken from ``exact(redo)``."""
    if not np.count_nonzero(redo):
        return np.log(q)
    q[redo] = 1.0
    out = np.log(q)
    out[redo] = exact(redo)
    return out


def _fit_uni_logpmf(alpha, p, theta, x):
    """Log-pmf as the fitter has always formed it, exact kernel where that cancels."""
    u, v = _base_cdfs(alpha, p, x)
    tau = 1.0 - theta
    gap = u - v
    den = 1.0 - tau * u
    redo = (gap <= _DIRECT_MIN * u) | (den <= _DIRECT_MIN)
    pm = theta * gap / (den * (1.0 - tau * v))
    return _patched_log(pm, redo, lambda k: _uni_logpmf(alpha, p, theta, x[k]))


def _fit_biv_logpmf(x, y, a1, p1, a2, p2, th):
    """Joint log-pmf as the fitter has always formed it, exact kernel where that cancels."""
    u, u_ = _base_cdfs(a1, p1, x)
    b, b_ = _base_cdfs(a2, p2, y)
    tau = 1.0 - th
    num = th * (u - u_)
    den = 1.0 - tau * u * b
    redo = (u - u_ <= _DIRECT_MIN * u) | (b - b_ <= _DIRECT_MIN * b) | (den <= _DIRECT_MIN)
    g_hi = num * b / (den * (1.0 - tau * u_ * b))
    g_lo = num * b_ / ((1.0 - tau * u * b_) * (1.0 - tau * u_ * b_))
    return _patched_log(
        g_hi - g_lo,
        redo,
        lambda k: _biv_logpmf(_cdf_logs(a1, p1, x[k]), _cdf_logs(a2, p2, y[k]), th),
    )


def _uni_ll(cells, alpha: float, p: float, theta: float) -> float:
    """Optimizer-facing log-likelihood on ``(values, weights)``; never -inf."""
    x, w = cells
    return float(w @ np.maximum(_fit_uni_logpmf(alpha, p, theta, x), _LOG_FLOOR))


def _biv_ll(cells, a1, p1, a2, p2, th) -> float:
    """Optimizer-facing log-likelihood on ``(x, y, weights)``; never -inf."""
    x, y, w = cells
    return float(w @ np.maximum(_fit_biv_logpmf(x, y, a1, p1, a2, p2, th), _LOG_FLOOR))


def _checked_ll(logpmf, w, where) -> float:
    bad = ~np.isfinite(logpmf)
    if np.any(bad):
        raise FloatingPointError(f"model probability underflowed at {where(int(np.argmax(bad)))}")
    return float(w @ logpmf)


def observed_loglik_uni(params: UgdgeParams, x) -> float:
    """Observed-data log-likelihood; raises if any observation has no mass."""
    vals, w, _ = _distinct(_as_counts(x))
    return _checked_ll(_uni_logpmf(*params.as_tuple(), vals), w, lambda k: f"x={int(vals[k])}")


def observed_loglik_biv(params: BgdgeParams, data: BivDataset) -> float:
    """Observed-data log-likelihood; raises if any cell has no mass."""
    a1, p1, a2, p2, th = params.as_tuple()
    cx, cy, w, _ = _distinct(data.x, data.y)
    return _checked_ll(
        _biv_logpmf(_cdf_logs(a1, p1, cx), _cdf_logs(a2, p2, cy), th),
        w,
        lambda k: f"cell=({int(cx[k])}, {int(cy[k])})",
    )


def _latent_logpmf(l1, l0, r, shape):
    """Per-value terms of the weighted base log-likelihood, from `_base_logs` pieces.

    ``log[(1 - p^(x+1))^shape - (1 - p^x)^shape]``, by direct difference
    where that keeps its digits and by the exact kernel elsewhere.
    """
    hi = np.exp(shape * l1)
    gap = hi - np.exp(shape * l0)
    return _patched_log(gap, gap <= _DIRECT_MIN * hi, lambda k: _log_gap(l1[k], r[k], shape[k]))


def _weighted_sum(terms, w=None) -> float:
    total = terms.sum() if w is None else w @ terms
    return float(total) if total > -math.inf else -math.inf


def latent_weighted_loglik(values, counts, alpha: float, p: float) -> float:
    """Weighted base log-likelihood: each value's shape is scaled by its count.

    ``sum_i log[(1 - p^(x_i+1))^(n_i a) - (1 - p^(x_i))^(n_i a)]``; -inf when
    any bracketed difference vanishes (numerically extinct term).
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    shape = np.broadcast_to(np.asarray(counts, dtype=float) * alpha, v.shape)
    return _weighted_sum(_latent_logpmf(*_base_logs(p, v), shape))


def complete_loglik(omega: BgdgeParams, data: BivDataset, counts) -> float:
    """Complete-data log-likelihood given imputed latent counts.

    ``m ln theta + (k - m) ln(1 - theta)`` plus one weighted base
    log-likelihood per coordinate.  At theta = 1 the second term is 0 when
    k = m and the value is undefined (domain error) when k > m.
    """
    n = np.asarray(counts, dtype=float)
    if n.size != len(data) or np.any(n < 1):
        raise ValueError("counts must align with the data and all be >= 1")
    m = float(len(data))
    k = float(n.sum())
    a1, p1, a2, p2, th = omega.as_tuple()
    if th == 1.0:
        if k > m:
            raise ValueError("theta = 1 is incompatible with any latent count > 1")
        geom = 0.0
    else:
        geom = m * math.log(th) + (k - m) * math.log(1.0 - th)
    return (
        geom
        + latent_weighted_loglik(data.x, n, a1, p1)
        + latent_weighted_loglik(data.y, n, a2, p2)
    )


# ---------------------------------------------------------------------------
# E-step


def _impute(parts, tau, cfg: EmConfig, inv):
    """Latent counts per distinct cell, expanded to the observations by ``inv``.

    ``parts`` holds one (hi, lo) base-CDF pair per coordinate; the
    conditional mean sums over the corners ``prod_j (hi_j or lo_j)`` with
    alternating signs.
    """
    if cfg.e_step == "argmax":
        return _argmax_scan(parts, tau, cfg.n_cap)[inv]
    corners = [(1.0, 1.0)]
    for hi, lo in parts:
        corners = [z for c, s in corners for z in ((c * hi, s), (c * lo, -s))]
    num = sum(s * c / (1.0 - tau * c) ** 2 for c, s in corners)
    den = sum(s * c / (1.0 - tau * c) for c, s in corners)
    if np.any(den <= 0.0):
        raise FloatingPointError(f"zero-probability cell {int(np.argmax(den <= 0.0))} in the E-step")
    return (num / den)[inv]


def e_step(omega: BgdgeParams, data: BivDataset, cfg: EmConfig | None = None):
    """Impute each pair's latent count given the current iterate.

    Default: the conditional mode (smallest maximizer), an int64 array.
    With ``cfg.e_step == "expected"``: the conditional mean, a float array.
    Each distinct pair is evaluated once.
    """
    cfg = cfg or EmConfig()
    a1, p1, a2, p2, th = omega.as_tuple()
    if th >= 1.0:
        return np.ones(len(data), dtype=np.int64)
    cx, cy, _, inv = _distinct(data.x, data.y)
    return _impute([_base_cdfs(a1, p1, cx), _base_cdfs(a2, p2, cy)], 1.0 - th, cfg, inv)


def e_step_uni(params: UgdgeParams, x, cfg: EmConfig | None = None):
    """Univariate specialization of `e_step`."""
    cfg = cfg or EmConfig()
    alpha, p, th = params.as_tuple()
    xi = _as_counts(x)
    if th >= 1.0:
        return np.ones(xi.size, dtype=np.int64)
    vals, _, inv = _distinct(xi)
    return _impute([_base_cdfs(alpha, p, vals)], 1.0 - th, cfg, inv)


# ---------------------------------------------------------------------------
# M-step


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer of a unimodal f on [lo, hi]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _latent_cells(values, counts):
    """Distinct (value, count) pairs with multiplicities; rejects empty input."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty observation set")
    return _distinct(v, np.broadcast_to(np.asarray(counts, dtype=float), v.shape))[:3]


def _profile(p: float, cells, inner_tol: float):
    """`profile_alpha_max` on distinct (value, count, weight) cells.

    The p-only pieces of the weighted log-likelihood are computed once; each
    shape probe then costs a handful of array operations on the cells.
    """
    x, n, w = cells
    l1, l0, r = _base_logs(p, x)

    def g(alpha):
        return _weighted_sum(_latent_logpmf(l1, l0, r, n * alpha), w)

    a, b, c = 0.5, 1.0, 2.0
    ga, gb, gc = g(a), g(b), g(c)
    for _ in range(200):
        if gb >= ga and gb >= gc:
            break
        if gc >= gb:
            a, b, ga, gb = b, c, gb, gc
            c *= 2.0
            gc = g(c)
        else:
            b, c, gb, gc = a, b, ga, gb
            a *= 0.5
            ga = g(a)
    else:
        raise RuntimeError("failed to bracket the profile maximum in the shape")
    alpha = _golden_max(g, a, c, inner_tol)
    return alpha, g(alpha)


def profile_alpha_max(p: float, values, counts, inner_tol: float = 1e-7):
    """Best shape at fixed p for the weighted base log-likelihood.

    The objective is unimodal in the shape (log-concave), so a doubling
    bracket from 1 followed by golden-section search finds the global
    maximum.  Returns ``(alpha, value)``.
    """
    cells = _latent_cells(values, counts)
    if np.all(cells[0] == 0):
        raise ValueError(
            "all observations are zero: the weighted log-likelihood is monotone "
            "in the shape (boundary ridge, no interior maximizer)"
        )
    return _profile(p, cells, inner_tol)


def m_step_pair(values, counts, cfg: EmConfig | None = None):
    """Joint maximizer of the weighted base log-likelihood over (shape, p).

    Profile search: every p on a grid over (eps, 1-eps) is scored by the
    inner shape maximization, then the best grid cell is refined by
    golden-section on the profiled objective.  Returns ``(alpha, p)``.
    """
    cfg = cfg or EmConfig()
    cells = _latent_cells(values, counts)
    if np.all(cells[0] == 0):
        warnings.warn(
            "degenerate observations (all zero): likelihood maximized on a "
            "boundary ridge; returning the small-p representative",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0, _P_EPS

    def profiled(p):
        return _profile(p, cells, cfg.inner_tol)[1]

    grid = np.linspace(_P_EPS, 1.0 - _P_EPS, cfg.p_grid)
    scores = np.array([profiled(p) for p in grid])
    best = int(np.argmax(scores))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]

    p_star = _golden_max(profiled, lo, hi, cfg.inner_tol)
    alpha_star, _ = _profile(p_star, cells, cfg.inner_tol)
    if p_star < 2.0 * _P_EPS or p_star > 1.0 - 2.0 * _P_EPS:
        warnings.warn(
            f"p maximizer {p_star:.6f} sits at the edge of the search range",
            RuntimeWarning,
            stacklevel=2,
        )
    return alpha_star, p_star


# ---------------------------------------------------------------------------
# EM drivers


def _finish_report(
    params,
    names,
    ll,
    iters,
    converged,
    trace,
    stop_reason,
    method,
    notes,
    se_fn,
    compute_se,
):
    if compute_se:
        se, se_notes = se_fn(params)
        notes = tuple(notes) + tuple(se_notes)
    else:
        se = tuple(math.nan for _ in names)
    est = params.as_tuple()
    ci = tuple(
        (e - 1.96 * s, e + 1.96 * s) if math.isfinite(s) else (math.nan, math.nan)
        for e, s in zip(est, se)
    )
    return FitReport(
        params=params,
        param_names=tuple(names),
        estimates=tuple(float(e) for e in est),
        std_errors=tuple(float(s) for s in se),
        ci95=ci,
        loglik=float(ll),
        iters=int(iters),
        converged=bool(converged),
        ll_trace=tuple(float(t) for t in trace),
        stop_reason=stop_reason,
        method=method,
        notes=tuple(notes),
    )


_UNI_NAMES = ("alpha", "p", "theta")
_BIV_NAMES = ("alpha1", "p1", "alpha2", "p2", "theta")


def _em(ll, impute, m_step, start, m: int, cfg: EmConfig, stop_on_cap: bool = False):
    """EM iterations with the ascent guard, one loop for every model.

    ``impute(params)`` gives the latent counts, ``m_step(counts)`` the
    (shape, p) pairs and theta is ``m / sum(counts)``.  A latent-count scan
    past its cap raises `SeriesCapError`, or with ``stop_on_cap`` ends the
    iteration at the current iterate.  Returns ``(params, trace, stop)``;
    the iterate's log-likelihood is ``trace[-1]``.
    """
    params = tuple(start)
    trace = [ll(*params)]
    stop = "max_iter"
    for _ in range(cfg.max_iter):
        try:
            ns = impute(params)
        except SeriesCapError:
            if not stop_on_cap:
                raise
            stop = "em_series_cap"
            break
        k = float(np.asarray(ns, dtype=float).sum())
        new = (*m_step(ns), min(m / k, 1.0))
        ll_new = ll(*new)
        if ll_new < trace[-1] - ASCENT_SLACK:
            stop = "ll_decrease"
            break
        change = max(abs(a - b) for a, b in zip(new, params))
        rel = abs(ll_new - trace[-1]) / max(1.0, abs(trace[-1]))
        params = new
        trace.append(ll_new)
        if rel < cfg.ll_rel_tol and change < cfg.param_tol:
            stop = "converged"
            break
    return params, trace, stop


def em_fit_uni(x, init: UgdgeParams, cfg: EmConfig | None = None, compute_se: bool = True) -> FitReport:
    """EM for the univariate law from a given start, with ascent guard."""
    cfg = cfg or EmConfig()
    xi = _as_counts(x)
    cells = _distinct(xi)[:2]
    est, trace, stop = _em(
        lambda *q: _uni_ll(cells, *q),
        lambda q: e_step_uni(UgdgeParams.from_values(*q), xi, cfg),
        lambda ns: m_step_pair(xi, ns, cfg),
        init.as_tuple(),
        xi.size,
        cfg,
    )
    return _finish_report(
        UgdgeParams.from_values(*est), _UNI_NAMES, trace[-1], len(trace) - 1, stop != "max_iter",
        trace, stop, "em", (), lambda q: std_errors(q, xi), compute_se,
    )


def em_fit_biv(
    data: BivDataset, init: BgdgeParams, cfg: EmConfig | None = None, compute_se: bool = True
) -> FitReport:
    """EM for the bivariate law from a given start, with ascent guard."""
    cfg = cfg or EmConfig()
    cells = _distinct(data.x, data.y)[:3]
    est, trace, stop = _em(
        lambda *q: _biv_ll(cells, *q),
        lambda q: e_step(BgdgeParams.from_values(*q), data, cfg),
        lambda ns: m_step_pair(data.x, ns, cfg) + m_step_pair(data.y, ns, cfg),
        init.as_tuple(),
        len(data),
        cfg,
    )
    return _finish_report(
        BgdgeParams.from_values(*est), _BIV_NAMES, trace[-1], len(trace) - 1, stop != "max_iter",
        trace, stop, "em", (), lambda q: std_errors(q, data), compute_se,
    )


# ---------------------------------------------------------------------------
# polish and pipelines


# The simplex refinement searches a generous compact box.  The likelihood
# has an escape ridge where shape and compounding go to zero together while
# approaching a limit law outside the family; without bounds the search can
# run down that ridge indefinitely (and push later latent-count scans past
# their certificates), so parameters are confined to shape in [1e-3, 1e3]
# and unit-interval parameters in [1e-6, 1 - 1e-6].
_W_SHAPE_LO, _W_SHAPE_HI = math.log(1e-3), math.log(1e3)
_W_UNIT = 13.815510557964274  # logit(1 - 1e-6)


def _to_w(v: float, is_shape: bool) -> float:
    """Search coordinate of a parameter: log of a shape, logit of a probability."""
    if is_shape:
        return math.log(min(max(v, 1e-3), 1e3))
    v = min(max(v, 1e-6), 1.0 - 1e-6)
    return math.log(v / (1.0 - v))


def _from_w(w: float, is_shape: bool) -> float:
    """Parameter at a search coordinate, clamped into the box."""
    if is_shape:
        return math.exp(min(max(w, _W_SHAPE_LO), _W_SHAPE_HI))
    return float(expit(min(max(w, -_W_UNIT), _W_UNIT)))


def _polish(ll, start, maxfev: int, xatol: float = 1e-7, fatol: float = 1e-10):
    """Simplex refinement of ``ll(*params)`` in box-bounded log/logit coordinates.

    Shapes sit at the even positions before the last; every other
    parameter lies in the unit interval.  Returns ``(params, ll)``.
    """
    is_shape = [i % 2 == 0 and i < len(start) - 1 for i in range(len(start))]

    def params(w):
        return tuple(_from_w(v, s) for v, s in zip(w, is_shape))

    res = minimize(
        lambda w: -ll(*params(w)),
        np.array([_to_w(v, s) for v, s in zip(start, is_shape)]),
        method="Nelder-Mead",
        options={"xatol": xatol, "fatol": fatol, "maxfev": maxfev},
    )
    return params(res.x), -float(res.fun)


def _extend_trace(trace, ll_final):
    trace = list(trace)
    if ll_final >= trace[-1]:
        trace.append(ll_final)
    return trace


def fit_uni_mle(x, cfg: EmConfig | None = None, init: UgdgeParams | None = None, compute_se: bool = True) -> FitReport:
    """Full univariate ML pipeline: base fit, EM, multi-start polish, boundary check.

    The theta = 1 submodel (pure base law) is an honest candidate: if its
    likelihood comes within a tie-break slack of the best interior candidate,
    the boundary fit is reported.
    """
    cfg = cfg or EmConfig()
    xi = _as_counts(x)
    cells = _distinct(xi)[:2]

    def ll(*q):
        return _uni_ll(cells, *q)

    al_d, p_d = m_step_pair(xi, np.ones(xi.size), cfg)
    ll_dge = ll(al_d, p_d, 1.0)

    start = init if init is not None else UgdgeParams.from_values(al_d, p_d, 0.5)
    notes = []
    try:
        em = em_fit_uni(xi, start, cfg, compute_se=False)
        seed, seed_ll = em.estimates, em.loglik
        em_iters, em_conv, em_trace, em_stop = em.iters, em.converged, em.ll_trace, em.stop_reason
    except SeriesCapError:
        # An extreme start can make the latent-count scan uncertifiable;
        # fall back to direct refinement from the start point.
        seed = start.as_tuple()
        seed_ll = ll(*seed)
        em_iters, em_conv, em_trace, em_stop = 0, True, (seed_ll,), "em_series_cap"
        notes.append("EM imputation scan exceeded its cap; direct refinement only")

    candidates = [(seed, seed_ll)]
    candidates.append(_polish(ll, seed, 3000))
    for th0 in cfg.polish_theta_grid:
        candidates.append(_polish(ll, (al_d, p_d, th0), 3000))
    est, ll_best = max(candidates, key=lambda c: c[1])

    if ll_dge >= ll_best - _SNAP_SLACK:
        est, ll_best = (al_d, p_d, 1.0), ll_dge
        notes.append("theta at boundary 1 (base-law submodel at least as likely)")
    params = UgdgeParams.from_values(*est)
    return _finish_report(
        params,
        _UNI_NAMES,
        ll_best,
        em_iters,
        em_conv,
        _extend_trace(em_trace, ll_best),
        em_stop,
        "em+polish",
        notes,
        lambda q: std_errors(q, xi),
        compute_se,
    )


def fit_biv_mle(
    data: BivDataset,
    cfg: EmConfig | None = None,
    init: BgdgeParams | None = None,
    extra_starts=(),
    compute_se: bool = True,
) -> FitReport:
    """Full bivariate ML pipeline.

    Default initialization fits each marginal by `fit_uni_mle` and averages
    their compounding estimates.  Candidates: the EM endpoint, its polish,
    polishes from the independent base fits at a small theta grid, any
    caller-supplied ``extra_starts`` (5-tuples), and the theta = 1
    independence submodel, which wins ties within a slack.
    """
    cfg = cfg or EmConfig()
    cells = _distinct(data.x, data.y)[:3]

    def ll(*q):
        return _biv_ll(cells, *q)

    def polish(start):
        return _polish(ll, start, cfg.polish_maxfev, xatol=1e-6, fatol=1e-9)

    a1d, p1d = m_step_pair(data.x, np.ones(len(data)), cfg)
    a2d, p2d = m_step_pair(data.y, np.ones(len(data)), cfg)
    ll_null = ll(a1d, p1d, a2d, p2d, 1.0)

    if init is None:
        f1 = fit_uni_mle(data.x, cfg, compute_se=False)
        f2 = fit_uni_mle(data.y, cfg, compute_se=False)
        th0 = min(1.0, 0.5 * (f1.estimates[2] + f2.estimates[2]))
        init = BgdgeParams.from_values(
            f1.estimates[0], f1.estimates[1], f2.estimates[0], f2.estimates[1], th0
        )
    notes = []
    try:
        em = em_fit_biv(data, init, cfg, compute_se=False)
        seed, seed_ll = em.estimates, em.loglik
        em_iters, em_conv, em_trace, em_stop = em.iters, em.converged, em.ll_trace, em.stop_reason
    except SeriesCapError:
        seed = init.as_tuple()
        seed_ll = ll(*seed)
        em_iters, em_conv, em_trace, em_stop = 0, True, (seed_ll,), "em_series_cap"
        notes.append("EM imputation scan exceeded its cap; direct refinement only")

    candidates = [(seed, seed_ll)]
    candidates.append(polish(seed))
    for th0 in cfg.biv_polish_theta_grid:
        candidates.append(polish((a1d, p1d, a2d, p2d, th0)))
    for s in extra_starts:
        candidates.append(polish(tuple(s)))
    candidates.append(((a1d, p1d, a2d, p2d, 1.0), ll_null))
    est, ll_best = max(candidates, key=lambda c: c[1])

    if ll_null >= ll_best - _SNAP_SLACK:
        est, ll_best = (a1d, p1d, a2d, p2d, 1.0), ll_null
        notes.append("theta at boundary 1 (independence submodel at least as likely)")
    params = BgdgeParams.from_values(*est)
    return _finish_report(
        params,
        _BIV_NAMES,
        ll_best,
        em_iters,
        em_conv,
        _extend_trace(em_trace, ll_best),
        em_stop,
        "em+polish",
        notes,
        lambda q: std_errors(q, data),
        compute_se,
    )


# ---------------------------------------------------------------------------
# standard errors


def _hessian(f, w0: np.ndarray, h: np.ndarray) -> np.ndarray:
    k = w0.size
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            wpp = w0.copy()
            wpm = w0.copy()
            wmp = w0.copy()
            wmm = w0.copy()
            wpp[i] += h[i]
            wpp[j] += h[j]
            wpm[i] += h[i]
            wpm[j] -= h[j]
            wmp[i] -= h[i]
            wmp[j] += h[j]
            wmm[i] -= h[i]
            wmm[j] -= h[j]
            val = (f(wpp) - f(wpm) - f(wmp) + f(wmm)) / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = val
    return hess


def std_errors(params, data):
    """Finite-difference observed-information standard errors.

    Returns ``(se, notes)`` where se aligns with the parameter order of the
    given record.  A boundary compounding estimate (theta = 1) is pinned:
    its se is NaN and the information is taken over the remaining
    parameters.  Non-invertible or non-positive information yields NaNs
    with an explanatory note rather than an exception.
    """
    if isinstance(params, BgdgeParams):
        w0 = np.array(params.as_tuple())
        cells = _distinct(data.x, data.y)[:3]

        def full(w):
            return _biv_ll(cells, *w)

        bounded_above = [False, True, False, True, True]
    elif isinstance(params, UgdgeParams):
        w0 = np.array(params.as_tuple())
        cells = _distinct(_as_counts(data))[:2]

        def full(w):
            return _uni_ll(cells, *w)

        bounded_above = [False, True, True]
    else:
        raise TypeError(f"unsupported parameter record {type(params).__name__}")

    notes = []
    k = w0.size
    active = list(range(k))
    if w0[-1] >= 1.0:
        active = active[:-1]
        notes.append("theta at boundary 1: its standard error is undefined (reported NaN)")

    h = np.maximum(1e-4, 1e-4 * np.abs(w0))
    for i in range(k):
        h[i] = min(h[i], w0[i] / 4.0)
        if bounded_above[i]:
            h[i] = min(h[i], (1.0 - w0[i]) / 4.0)
    se = np.full(k, math.nan)
    if active:
        idx = np.array(active)
        if np.any(h[idx] <= 0.0):
            notes.append("a parameter sits on its domain edge; information not computed")
            return tuple(se), notes

        def restricted(wa):
            w = w0.copy()
            w[idx] = wa
            return full(w)

        hess = _hessian(restricted, w0[idx].copy(), h[idx])
        info = -hess
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
            se[idx] = np.where(diag > 0.0, np.sqrt(np.abs(diag)), math.nan)
    return tuple(float(s) for s in se), notes
