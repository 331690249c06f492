"""Direct sums over the latent count N for E[N | cell], with certified tails.

The library computes these means in closed form, ``1 + tau S`` from the
likelihood kernel; the sums below are the independent references the tests
hold it to.
"""

import math

import numpy as np

from gdge import SERIES_CAP, SeriesCapError, bgdge_pmf, dge_cdf, ugdge_pmf
from gdge.dge import _base_logs


def series_cond_n_mean(params, x, eps=1e-12):
    """Mean latent count given the observed maximum, by direct summation.

    Term n is ``n theta tau^(n-1) (u^n - v^n) / pmf(x)``, with
    ``u^n - v^n = -u^n expm1(-n alpha r)`` (`_base_logs`).  The tail past n
    is bounded in closed form by ``u * r^n * ((n+1) - n*r) / (1-r)^2`` with
    ``r = tau * u``, so the truncation error is certified below
    ``eps * (mean + 1)``.
    """
    al, p, th = params.as_tuple()
    with np.errstate(divide="ignore"):  # log(1 - p^0) = -inf; the formulas leave that policy to their caller
        l1, _, lr = (float(t) for t in _base_logs(p, float(x))[:3])
    u, ar, tau = math.exp(al * l1), al * lr, 1.0 - th
    if tau == 0.0:
        return 1.0
    r = tau * u
    scale = th / float(ugdge_pmf(params, x))
    total = 0.0
    n = 0
    while True:
        n += 1
        if n > SERIES_CAP:
            raise SeriesCapError("conditional-mean series exceeded the term cap")
        total -= n * tau ** (n - 1) * u ** n * math.expm1(-n * ar)
        tail = u * r ** n * ((n + 1.0) - n * r) / (1.0 - r) ** 2
        if scale * tail < eps * (abs(scale * total) + 1.0):
            return scale * total


def series_biv_cond_n_mean(params, x, y, eps=1e-12):
    """Mean latent count at a cell, by direct summation with a certified tail.

    Term n is ``n theta tau^(n-1) (u^n - u_^n)(v^n - v_^n) / pmf(x, y)``.  The
    tail past n is bounded by ``u*v * r^n * ((n+1) - n*r) / (1-r)^2`` with
    ``r = tau * u * v``.
    """
    u, u_ = (float(dge_cdf(params.m1, t)) for t in (x, x - 1))
    v, v_ = (float(dge_cdf(params.m2, t)) for t in (y, y - 1))
    th = params.theta
    tau = 1.0 - th
    if tau == 0.0:
        return 1.0
    r = tau * u * v
    scale = th / float(bgdge_pmf(params, x, y))
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
