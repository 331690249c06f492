"""Tests of the benchmark's mpmath oracle.

    python3 -m pytest perfbench/test_oracle.py
"""

import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from gdge import BgdgeParams, UgdgeParams, bgdge_pmf, ugdge_cdf, ugdge_pmf  # noqa: E402


def brute_uni_pmf(alpha, p, theta, x, dps):
    """The pmf formula at one fixed, very high precision."""
    with mp.workdps(dps):
        a, p, th = mpf(alpha), mpf(p), mpf(theta)

        def cdf(t):
            if t < 0:
                return mpf(0)
            base = (1 - p ** (t + 1)) ** a
            return th * base / (1 - (1 - th) * base)

        return +(cdf(x) - cdf(x - 1))


@pytest.mark.parametrize("params", [(2.0, 0.25, 0.25), (0.4, 0.3, 1.0), (2.0, 0.9, 0.5), (0.7, 0.6, 0.05)])
def test_uni_sums_to_one(params):
    law = oracle.UniLaw(*params)
    support = 1200
    with mp.workdps(40):
        total = mpmath.fsum(law.pmf(x) for x in range(support))
        # each term keeps GUARD = 30 digits, the tail past the support is < 1e-50
        assert abs(total - law.cdf(support - 1)) < mpf(10) ** -28
        assert abs(1 - total) < mpf(10) ** -28


@pytest.mark.parametrize("params", [(2.0, 0.25, 2.0, 0.25, 0.25), (1.5, 0.6, 0.8, 0.5, 0.5)])
def test_biv_sums_to_one(params):
    law = oracle.BivLaw(*params)
    k = 140
    with mp.workdps(40):
        total = mpmath.fsum(law.pmf(x, y) for x in range(k) for y in range(k))
        assert abs(total - law.cdf(k - 1, k - 1)) < mpf(10) ** -27
        assert abs(1 - total) < mpf(10) ** -25


@pytest.mark.parametrize("params", [(2.0, 0.25, 0.25), (0.4, 0.3, 1.0), (4.0, 0.8, 0.6), (0.5, 0.5, 0.05)])
def test_agrees_with_ugdge_in_the_body(params):
    law = oracle.UniLaw(*params)
    xs = np.arange(0, 60)
    ref = np.array([float(law.pmf(int(x))) for x in xs])
    body = ref > 1e-12
    got = np.asarray(ugdge_pmf(UgdgeParams.from_values(*params), xs))
    assert np.max(np.abs(got[body] - ref[body]) / ref[body]) < 1e-13
    ref_cdf = np.array([float(law.cdf(int(x))) for x in xs])
    got_cdf = np.asarray(ugdge_cdf(UgdgeParams.from_values(*params), xs))
    assert np.max(np.abs(got_cdf - ref_cdf) / ref_cdf) < 1e-13


def test_agrees_with_bgdge_in_the_body():
    params = (2.0, 0.25, 2.0, 0.25, 0.25)
    law = oracle.BivLaw(*params)
    for x in range(6):
        for y in range(6):
            ref = float(law.pmf(x, y))
            got = float(bgdge_pmf(BgdgeParams.from_values(*params), x, y))
            assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize("params,x", [((2.0, 0.9, 1.0), 6000), ((0.4, 0.3, 1.0), 500), ((2.0, 0.9, 0.5), 343)])
def test_deep_tail_precision_follows_the_probability(params, x):
    """Fixed 50 digits cancel to garbage here; the adaptive precision does not."""
    want = brute_uni_pmf(*params, x, dps=800)
    assert want > 0
    got = oracle.UniLaw(*params).pmf(x)
    assert abs(got - want) <= mpf(10) ** -oracle.GUARD * want
    fixed = brute_uni_pmf(*params, x, dps=50)
    if want < mpf(10) ** -60:
        assert abs(fixed - want) > mpf("0.01") * want


def test_biv_deep_tail_matches_brute_force():
    params = (2.0, 0.25, 2.0, 0.25, 0.25)
    law = oracle.BivLaw(*params)
    with mp.workdps(400):
        brute = oracle.BivLaw(*params)
        want = +(brute._cdf(27, 27) - brute._cdf(26, 27) - brute._cdf(27, 26) + brute._cdf(26, 26))
    got = law.pmf(27, 27)
    assert abs(got - want) <= mpf(10) ** -oracle.GUARD * want
    assert abs(float(got) - 1.9413373839423311e-31) < 1e-45


def test_series_references():
    uni = oracle.UniLaw(2.0, 0.25, 0.25)
    with mp.workdps(40):
        mean = mpmath.fsum(x * uni.pmf(x) for x in range(400))
    assert abs(uni.moment(1) - mean) < 1e-25 * mean
    biv = oracle.BivLaw(2.0, 0.25, 2.0, 0.25, 0.25)
    z1, z2 = 0.3, 0.5
    with mp.workdps(40):
        pgf = mpmath.fsum(biv.pmf(x, y) * mpf(z1) ** x * mpf(z2) ** y for x in range(80) for y in range(80))
    assert abs(biv.pgf(z1, z2) - pgf) < 1e-22 * pgf
    # the closed form: sum_n n tau**(n-1) w**n = w / (1 - tau*w)**2 at each corner
    with mp.workdps(40):
        a = [(1 - mpf(0.25) ** (t + 1)) ** 2 for t in (1, 2)]
        tau = mpf(0.75)

        def phi(w):
            return w / (1 - tau * w) ** 2

        closed = mpf(0.25) * (phi(a[1] * a[1]) - 2 * phi(a[1] * a[0]) + phi(a[0] * a[0])) / biv.pmf(2, 2)
    assert abs(biv.cond_n_mean(2, 2) - closed) < 1e-25 * closed
    assert abs(oracle.BivLaw(2.0, 0.25, 2.0, 0.25, 1.0).cond_n_mean(3, 4) - 1) < 1e-25


def test_chi2_upper_closed_forms():
    for stat in (0.3, 2.0, 11.0):
        assert abs(oracle.chi2_upper(stat, 2) - float(mpmath.exp(-stat / 2))) < 1e-15
        assert abs(oracle.chi2_upper(stat, 1) - float(mpmath.erfc(mpmath.sqrt(stat / 2)))) < 1e-15
