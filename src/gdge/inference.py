"""Likelihood-ratio tests and chi-square goodness of fit.

Two nested comparisons come up for the bivariate model:

* equal marginals — the null shares one (shape, p) pair across both
  coordinates (compounding free); reference law chi-square with 2 df;
* independence — the null pins the compounding probability to 1.  That
  parameter value sits on the boundary of its range, so the LRT statistic is
  a 50/50 mixture of a point mass at 0 and chi-square with 1 df.

Both fits of each test run through the fitting module's one
maximum-likelihood search.  The independence null is the full fit's own
theta = 1 submodel; the equal-margins null is fitted first and its optimum
is a further start of the full fit, which keeps the models numerically
nested (the full likelihood can never fall below the null beyond slack).

Goodness of fit bins the support, compares observed against model-expected
counts, pools thinly-populated cells from the tail inward, and reports the
usual chi-square statistic.  The pooling rule and degrees-of-freedom
convention are explicit arguments because published tables rarely state
theirs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .bivariate import BgdgeParams, bgdge_cdf, bgdge_pmf, marginal_params
from .fitting import BivDataset, EmConfig, _as_counts, _fit_biv, _fit_equal_margins
from .univariate import UgdgeParams, ugdge_cdf, ugdge_pmf

__all__ = [
    "TestResult",
    "GofResult",
    "test_equal_marginals",
    "test_independence",
    "gof_chisq_uni",
    "gof_chisq_biv",
    "chi2_sf",
    "chi2_sf_reference",
]


@dataclass(frozen=True)
class TestResult:
    """A likelihood-ratio comparison of two nested fits."""

    statistic: float
    reference: str
    p_value: float
    ll_full: float
    ll_null: float
    full_params: tuple
    null_params: tuple


@dataclass(frozen=True)
class GofResult:
    """Binned chi-square comparison of observed and model-expected counts."""

    cells: tuple  # of (observed, expected, pooled) triples
    labels: tuple
    statistic: float
    df: int
    p_value: float


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function (upper tail probability)."""
    return float(chi2.sf(x, df))


def chi2_sf_reference(x: float, df: int) -> float:
    """Independent closed-form route for df in {1, 2} (validation only)."""
    if x < 0:
        raise ValueError("statistic must be nonnegative")
    if df == 1:
        return math.erfc(math.sqrt(x / 2.0))
    if df == 2:
        return math.exp(-x / 2.0)
    raise ValueError("reference route implemented for df in {1, 2} only")


# ---------------------------------------------------------------------------
# likelihood-ratio tests


def _lrt(data: BivDataset, full, null_params, ll_null, reference: str, p_value) -> TestResult:
    """The test of a full fit (a fitting-module fit record) against a null."""
    if len(data) < 5:
        warnings.warn("very small sample: asymptotic LRT reference is unreliable", stacklevel=3)
    raw = 2.0 * (full.loglik - ll_null)
    if raw < -1e-6:
        warnings.warn(
            f"null log-likelihood exceeded the full fit by {-raw / 2.0:g}; "
            "treating the statistic as 0",
            stacklevel=3,
        )
    stat = max(0.0, raw)
    return TestResult(
        statistic=stat,
        reference=reference,
        p_value=p_value(stat),
        ll_full=float(full.loglik),
        ll_null=float(ll_null),
        full_params=full.est,
        null_params=tuple(null_params),
    )


def test_equal_marginals(data: BivDataset, cfg: EmConfig | None = None) -> TestResult:
    """LRT of a shared marginal law across the two coordinates.

    Null: one (shape, p) pair for both coordinates, compounding free.
    Reference law: chi-square with 2 df.
    """
    cfg = cfg or EmConfig()
    null = _fit_equal_margins(data, cfg)
    full = _fit_biv(data, cfg, extra_starts=[null.est])
    return _lrt(data, full, null.est, null.loglik, "chi2(2)", lambda stat: chi2_sf(stat, 2))


def test_independence(data: BivDataset, cfg: EmConfig | None = None) -> TestResult:
    """LRT of independent coordinates (compounding probability pinned to 1).

    The null is the full fit's own theta = 1 submodel.  Its value sits on
    the parameter boundary, so the reference law is the 50/50 mixture of a
    point mass at 0 and chi-square with 1 df: p = 1 when the statistic is
    0, else half the chi-square(1) tail.
    """
    full = _fit_biv(data, cfg or EmConfig())
    return _lrt(
        data,
        full,
        full.base,
        full.ll_base,
        "0.5*{0} + 0.5*chi2(1)",
        lambda stat: 1.0 if stat <= 0.0 else 0.5 * chi2_sf(stat, 1),
    )


# ---------------------------------------------------------------------------
# goodness of fit


def _pool_tail(obs, exp, labels, pool_min):
    """Merge the rightmost cell leftward while its expected count < pool_min."""
    cells = [[float(o), float(e), False] for o, e in zip(obs, exp)]
    labels = list(labels)
    while len(cells) > 1 and cells[-1][1] < pool_min:
        o, e, _ = cells.pop()
        lab = labels.pop()
        cells[-1][0] += o
        cells[-1][1] += e
        cells[-1][2] = True
        labels[-1] = f"{labels[-1]}+{lab}"
    if len(cells) < 2:
        raise ValueError("insufficient cells after pooling for a chi-square comparison")
    return cells, labels


def _chisq_from_cells(cells):
    stat = 0.0
    for o, e, _ in cells:
        if e > 0.0:
            stat += (o - e) ** 2 / e
        elif o > 0.0:
            raise ValueError("observed count in a zero-expectation cell; widen pooling")
    return stat


def gof_chisq_uni(
    x,
    fitted: UgdgeParams,
    n_params: int = 3,
    pool_min: float = 1.0,
    tail: str = "cell",
) -> GofResult:
    """Chi-square fit of a univariate sample against a fitted law.

    Cells are the observed values 0..max(x); with ``tail="cell"`` a terminal
    cell absorbs the remaining model mass so expected counts total m
    exactly, while ``tail="none"`` compares only the listed values (matching
    tables that ignore the tail).  Cells are pooled from the tail inward
    while the last expected count is below ``pool_min``.  df = cells - 1 -
    n_params, floored at 1.
    """
    if tail not in ("cell", "none"):
        raise ValueError(f"tail must be 'cell' or 'none', got {tail!r}")
    xi = _as_counts(x)
    m = xi.size
    x_max = int(xi.max())
    obs = np.bincount(xi, minlength=x_max + 1).astype(float)
    grid = np.arange(x_max + 1)
    exp = m * np.asarray(ugdge_pmf(fitted, grid), dtype=float)
    labels = [str(v) for v in grid]
    if tail == "cell":
        obs = np.append(obs, 0.0)
        exp = np.append(exp, max(m - exp.sum(), 0.0))
        labels.append(f">{x_max}")
    cells, labels = _pool_tail(obs, exp, labels, pool_min)
    stat = _chisq_from_cells(cells)
    df = max(len(cells) - 1 - n_params, 1)
    return GofResult(
        cells=tuple((o, e, pooled) for o, e, pooled in cells),
        labels=tuple(labels),
        statistic=float(stat),
        df=int(df),
        p_value=chi2_sf(stat, df),
    )


def _expected_rectangle(params: BgdgeParams, m: int, x_max: int, y_max: int, fold: bool):
    """m * pmf over [0, x_max] x [0, y_max], optionally with tail mass folded in.

    Folding adds each row's unobserved upper tail to its last column, each
    column's to its last row, and the joint upper-corner mass to the corner,
    so the table totals exactly m.
    """
    exp = m * bgdge_pmf(params, np.arange(x_max + 1)[:, None], np.arange(y_max + 1))
    if fold:
        mx = marginal_params(params, "x")
        my = marginal_params(params, "y")
        pmf_x = m * np.asarray(ugdge_pmf(mx, np.arange(x_max + 1)), dtype=float)
        pmf_y = m * np.asarray(ugdge_pmf(my, np.arange(y_max + 1)), dtype=float)
        row_tail = pmf_x - exp.sum(axis=1)
        col_tail = pmf_y - exp.sum(axis=0)
        fx = float(np.asarray(bgdge_cdf(params, x_max, y_max)))
        corner = m * (
            1.0
            - float(ugdge_cdf(mx, x_max))
            - float(ugdge_cdf(my, y_max))
            + fx
        )
        exp[:, -1] += np.maximum(row_tail, 0.0)
        exp[-1, :] += np.maximum(col_tail, 0.0)
        exp[-1, -1] += max(corner, 0.0)
    return exp


def gof_chisq_biv(
    data: BivDataset,
    fitted: BgdgeParams,
    n_params: int = 5,
    pool_min: float = 1.0,
    df_override: int | None = None,
    fold_tail: bool = True,
) -> GofResult:
    """Chi-square fit of paired data on its observed support rectangle.

    Expected counts are m * pmf per cell; with ``fold_tail`` the off-
    rectangle model mass is folded into the edge cells so totals match m.
    Cells are flattened row-major before tail-inward pooling.  df = cells -
    1 - n_params floored at 1, unless ``df_override`` is given.
    """
    m = len(data)
    x_max = int(data.x.max())
    y_max = int(data.y.max())
    obs = data.contingency_table().astype(float)
    exp = _expected_rectangle(fitted, m, x_max, y_max, fold_tail)
    labels = [f"{i},{j}" for i in range(x_max + 1) for j in range(y_max + 1)]
    cells, labels = _pool_tail(obs.ravel(), exp.ravel(), labels, pool_min)
    stat = _chisq_from_cells(cells)
    df = int(df_override) if df_override is not None else max(len(cells) - 1 - n_params, 1)
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    return GofResult(
        cells=tuple((o, e, pooled) for o, e, pooled in cells),
        labels=tuple(labels),
        statistic=float(stat),
        df=df,
        p_value=chi2_sf(stat, df),
    )
