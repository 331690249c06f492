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
Run together (`_test_both`), the two tests share that one full fit.

Goodness of fit bins the support, compares observed against model-expected
counts, pools thinly-populated cells from the tail inward, and reports the
usual chi-square statistic.  The pooling rule and degrees-of-freedom
convention are explicit arguments because published tables rarely state
theirs.

Every p-value comes from the chi-square upper tail, `chi2_sf`, which sums the
closed forms of an integer number of degrees of freedom with `math`, so this
module needs no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bivariate import BgdgeParams, bgdge_cdf, bgdge_pmf, marginal_params
from .fitting import BivDataset, EmConfig, _as_counts, _fit
from .univariate import UgdgeParams, ugdge_cdf, ugdge_pmf

__all__ = [
    "TestResult",
    "GofResult",
    "test_equal_marginals",
    "test_independence",
    "gof_chisq_uni",
    "gof_chisq_biv",
    "chi2_sf",
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


#: log 2 in two parts: the leading one (fdlibm's ``ln2_hi``) has 32 significant bits, so
#: ``n * _LN2[0]`` is exact for ``|n| < 2^20``.
_LN2 = (6.93147180369123816490e-01, 1.90821492927058770002e-10)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function (upper tail probability) for a positive integer ``df``.

    With ``y = x / 2`` and ``m = df // 2`` the tail has finite-sum forms
    (Abramowitz and Stegun 1964, section 26.4): ``exp(-y) sum_{k<m} y^k / k!`` for even
    df and ``erfc(sqrt(y)) + exp(-y) sum_{k<m} y^(k+1/2) / Gamma(k+3/2)`` for odd df.
    The terms are positive, each the last times ``y / (k + 1)`` or ``y / (k + 3/2)``.
    The sum is rescaled by powers of two before it could overflow, and the scale comes
    back with ``ldexp``; from ``y = 700``, where ``exp(-y)`` nears underflow, ``exp(-y)``
    enters as ``2^-n exp(-r)`` (Cody and Waite 1980), ``n`` the nearest integer to
    ``y / log 2`` and ``r`` the remainder, formed with a two-part ``log 2`` so that it
    keeps its digits for ``y`` up to about 7e5.
    Guards: ``nan`` for df <= 0 or nan, 1.0 for x < 0, 0.0 at ``x = inf`` and ``nan``
    at ``x = nan``.  A df that is not an integer raises `ValueError`.
    """
    if not df > 0:
        return math.nan
    if not float(df).is_integer():
        raise ValueError(f"chi2_sf takes an integer df; got {df!r}")
    if x < 0:
        return 1.0
    if not x < math.inf:
        return 0.0 if x == math.inf else math.nan
    y, half = x / 2.0, 0.5 * (int(df) % 2)
    term = 2.0 * math.sqrt(y / math.pi) if half else 1.0
    total, scale = 0.0, 0  # the sum so far is total * 2**scale
    for k in range(int(df) // 2):
        total += term
        term *= y / (k + 1 + half)
        if term > 2.0**900:
            total, term, scale = total * 2.0**-900, term * 2.0**-900, scale + 900
    head = math.erfc(math.sqrt(y)) if half else 0.0
    mant, power = math.frexp(total)
    if y < 700.0:  # total's mantissa keeps exp(-y) * total off underflow
        return min(1.0, head + math.ldexp(math.exp(-y) * mant, power + scale))
    n = round(y / _LN2[0])
    r = (y - n * _LN2[0]) - n * _LN2[1]  # exp(-y) = 2^-n exp(-r), |r| <= log(2) / 2
    return min(1.0, head + math.ldexp(math.exp(-r) * mant, power + scale - n))


# ---------------------------------------------------------------------------
# likelihood-ratio tests


def _lrt(data: BivDataset, full, null_params, ll_null, reference: str, p_value) -> TestResult:
    """The test of a full fit (a fitting-module fit record) against a null."""
    if len(data) < 5:
        warnings.warn("very small sample: asymptotic LRT reference is unreliable", stacklevel=4)
    raw = 2.0 * (full.loglik - ll_null)
    if raw < -1e-6:
        warnings.warn(
            f"null log-likelihood exceeded the full fit by {-raw / 2.0:g}; "
            "treating the statistic as 0",
            stacklevel=4,
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


def _equal_fits(data: BivDataset, cfg: EmConfig):
    """The equal-margins null and the full fit, whose starts include the null optimum."""
    null = _fit(data, cfg, tied=True)
    return null, _fit(data, cfg, extra_starts=[null.est])


def _equal_lrt(data: BivDataset, null, full) -> TestResult:
    return _lrt(data, full, null.est, null.loglik, "chi2(2)", lambda stat: chi2_sf(stat, 2))


def _indep_lrt(data: BivDataset, full) -> TestResult:
    return _lrt(data, full, full.base, full.ll_base, "0.5*{0} + 0.5*chi2(1)",
                lambda stat: 1.0 if stat <= 0.0 else 0.5 * chi2_sf(stat, 1))


def test_equal_marginals(data: BivDataset, cfg: EmConfig | None = None) -> TestResult:
    """LRT of a shared marginal law across the two coordinates.

    Null: one (shape, p) pair for both coordinates, compounding free.
    Reference law: chi-square with 2 df.
    """
    return _equal_lrt(data, *_equal_fits(data, cfg or EmConfig()))


def test_independence(data: BivDataset, cfg: EmConfig | None = None) -> TestResult:
    """LRT of independent coordinates (compounding probability pinned to 1).

    The null is the full fit's own theta = 1 submodel.  Its value sits on
    the parameter boundary, so the reference law is the 50/50 mixture of a
    point mass at 0 and chi-square with 1 df: p = 1 when the statistic is
    0, else half the chi-square(1) tail.
    """
    return _indep_lrt(data, _fit(data, cfg or EmConfig()))


def _test_both(data: BivDataset, cfg: EmConfig):
    """`test_equal_marginals` and `test_independence` on one full fit, the equal-margins test's.

    Its starts include the independence test's, plus the null optimum, so
    it is at least as good a full fit.
    """
    null, full = _equal_fits(data, cfg)
    return _equal_lrt(data, null, full), _indep_lrt(data, full)


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


def _gof(obs, exp, labels, pool_min, n_params, df=None) -> GofResult:
    """The chi-square comparison of observed and expected counts per labelled cell, pooled by `_pool_tail`.

    df is ``df`` if given, else cells - 1 - n_params floored at 1.
    """
    cells, labels = _pool_tail(obs, exp, labels, pool_min)
    stat = _chisq_from_cells(cells)
    df = int(df) if df is not None else max(len(cells) - 1 - n_params, 1)
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    return GofResult(
        cells=tuple((o, e, pooled) for o, e, pooled in cells),
        labels=tuple(labels),
        statistic=float(stat),
        df=df,
        p_value=chi2_sf(stat, df),
    )


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
    return _gof(obs, exp, labels, pool_min, n_params)


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
    return _gof(obs.ravel(), exp.ravel(), labels, pool_min, n_params, df_override)
