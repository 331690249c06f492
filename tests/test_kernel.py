"""The log-space pmf kernel, likelihoods on distinct cells, the blocked mode scan."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdge import (
    BgdgeParams,
    BivDataset,
    DgeParams,
    EmConfig,
    SeriesCapError,
    UgdgeParams,
    bgdge_cdf,
    bgdge_pmf,
    bgdge_sample,
    biv_cond_n_argmax,
    biv_cond_n_mean,
    cond_cdf_given_eq,
    cond_n_argmax,
    cond_n_mean,
    dge_pmf,
    e_step,
    e_step_uni,
    hazard_weight,
    latent_weighted_loglik,
    observed_loglik_biv,
    observed_loglik_uni,
    profile_alpha_max,
    ugdge_cdf,
    ugdge_pmf,
    ugdge_sample,
)

#: Working precision of the reference: 120 digits beyond the smallest pmf
#: (1e-280) that the relative bar applies to, so the CDF differences below
#: lose nothing that matters.
REF_DPS = 400
REL = 1e-12
TINY = 1e-280


def ref_cdf(alpha, p, theta, x):
    """Compounded CDF ``theta A / (1 - (1 - theta) A)`` in mpmath, A the base CDF."""
    if x < 0:
        return mp.mpf(0)
    a = (1 - mp.mpf(p) ** (x + 1)) ** mp.mpf(alpha)
    theta = mp.mpf(theta)
    return theta * a / (1 - (1 - theta) * a)


def ref_uni_pmf(alpha, p, theta, x):
    with mp.workdps(REF_DPS):
        return float(ref_cdf(alpha, p, theta, x) - ref_cdf(alpha, p, theta, x - 1))


def ref_biv_pmf(a1, p1, a2, p2, theta, x, y):
    """Four-corner difference of the joint CDF ``theta A B / (1 - (1 - theta) A B)``."""
    with mp.workdps(REF_DPS):
        def base(alpha, p, t):
            return (1 - mp.mpf(p) ** (t + 1)) ** mp.mpf(alpha) if t >= 0 else mp.mpf(0)

        def joint(s, t):
            w = base(a1, p1, s) * base(a2, p2, t)
            th = mp.mpf(theta)
            return th * w / (1 - (1 - th) * w)

        return float(joint(x, y) - joint(x - 1, y) - joint(x, y - 1) + joint(x - 1, y - 1))


def assert_close(got, want):
    got = np.ravel(got)
    want = np.asarray(want, dtype=float)
    mask = want > TINY
    assert mask.any()
    err = np.abs(got[mask] - want[mask]) / want[mask]
    assert err.max() <= REL, f"relative error {err.max():.3g}"


# deep-tail grids: base laws whose CDFs crowd 1 long before the pmf vanishes
DEEP_UNI = [
    ((0.4, 0.3), np.arange(0, 120)),
    ((2.0, 0.9), np.arange(0, 600, 3)),
    # p near 1: log(1 - p^(x+1)) and log(1 - p^x) agree to 4 digits
    ((0.7, 0.9999), np.array([0, 1, 10, 1000, 20_000, 100_000, 300_000])),
]
DEEP_BIV = [
    ((2.0, 0.25, 2.0, 0.25, 0.25), np.arange(20, 41)),
    ((1.5, 0.6, 0.8, 0.5, 0.5), np.arange(25, 41)),
]


@pytest.mark.parametrize("theta", [1.0, 0.5, 1e-4, 1e-6])
@pytest.mark.parametrize("law,grid", DEEP_UNI)
def test_univariate_kernel_matches_reference_in_deep_tail(law, grid, theta):
    alpha, p = law
    if theta == 1.0:
        got = dge_pmf(DgeParams(alpha, p), grid)
    else:
        got = ugdge_pmf(UgdgeParams.from_values(alpha, p, theta), grid)
    assert_close(got, [ref_uni_pmf(alpha, p, theta, int(x)) for x in grid])


@pytest.mark.parametrize("theta_override", [None, 1e-6])
@pytest.mark.parametrize("law,grid", DEEP_BIV)
def test_bivariate_kernel_matches_reference_in_deep_tail(law, grid, theta_override):
    law = law[:4] + ((theta_override,) if theta_override else law[4:])
    gx, gy = np.meshgrid(grid[::3], grid[::3], indexing="ij")
    got = bgdge_pmf(BgdgeParams.from_values(*law), gx, gy)
    assert_close(got, [ref_biv_pmf(*law, int(x), int(y)) for x, y in zip(gx.ravel(), gy.ravel())])


@given(
    st.floats(0.2, 8.0),
    st.floats(0.05, 0.95),
    st.floats(1e-6, 1.0),
    st.integers(0, 400),
)
def test_univariate_kernel_property(alpha, p, theta, x):
    want = ref_uni_pmf(alpha, p, theta, x)
    if want > TINY:
        assert_close(ugdge_pmf(UgdgeParams.from_values(alpha, p, theta), x), [want])


@given(
    st.floats(0.3, 6.0),
    st.floats(0.05, 0.9),
    st.floats(0.3, 6.0),
    st.floats(0.05, 0.9),
    st.floats(1e-6, 1.0),
    st.integers(0, 60),
    st.integers(0, 60),
)
def test_bivariate_kernel_property(a1, p1, a2, p2, theta, x, y):
    want = ref_biv_pmf(a1, p1, a2, p2, theta, x, y)
    if want > TINY:
        assert_close(bgdge_pmf(BgdgeParams.from_values(a1, p1, a2, p2, theta), x, y), [want])


def ref_base(alpha, p, x):
    """Base CDF ``(1 - p^(x+1))^alpha`` in mpmath; 0 below the support."""
    return (1 - mp.mpf(p) ** (x + 1)) ** mp.mpf(alpha) if x >= 0 else mp.mpf(0)


@pytest.mark.parametrize("theta", [0.5, 1e-4, 1e-6])
@pytest.mark.parametrize("law,grid", [((1.5, 0.4), np.arange(-1, 40)), DEEP_UNI[2]])
def test_cdfs_and_hazard_weight_match_reference_at_small_theta(law, grid, theta):
    # each is a ratio over 1 - (1 - theta) A, which cancels at small theta
    # where A crowds 1 unless it is formed from log A
    alpha, p = law
    gx, gy = np.meshgrid(grid[::2], grid[::2], indexing="ij")
    with mp.workdps(REF_DPS):
        th = mp.mpf(theta)
        cdf = [float(ref_cdf(alpha, p, theta, int(x))) for x in grid]
        weight = [float(th / (1 - (1 - th) * ref_base(alpha, p, int(x)))) for x in grid]
        joint = []
        for x, y in zip(gx.ravel(), gy.ravel()):
            w = ref_base(alpha, p, int(x)) * ref_base(2.0, 0.3, int(y))
            joint.append(float(th * w / (1 - (1 - th) * w)))
    uni = UgdgeParams.from_values(alpha, p, theta)
    assert_close(ugdge_cdf(uni, grid), cdf)
    assert_close(hazard_weight(uni, grid), weight)
    assert_close(bgdge_cdf(BgdgeParams.from_values(alpha, p, 2.0, 0.3, theta), gx, gy), joint)


def test_latent_count_laws_refuse_cells_the_cdfs_cannot_resolve():
    # the pmf is about 2e-19, but the base CDFs at x and x - 1 agree in double
    # precision, so the conditional formulas in u^n - v^n would return 0
    uni = UgdgeParams.from_values(2.0, 0.9, 0.5)
    biv = BgdgeParams.from_values(2.0, 0.9, 2.0, 0.9, 0.5)
    assert ugdge_pmf(uni, 400) > 0.0 and bgdge_pmf(biv, 400, 3) > 0.0
    calls = [
        lambda: cond_n_argmax(uni, 400),
        lambda: cond_n_mean(uni, 400),
        lambda: biv_cond_n_argmax(biv, 400, 3),
        lambda: biv_cond_n_mean(biv, 400, 3),
        lambda: cond_cdf_given_eq(biv, 3, 400),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------------------
# likelihoods on distinct cells


def test_loglik_on_cells_equals_per_observation_sum():
    truth = BgdgeParams.from_values(2.0, 0.25, 1.5, 0.4, 0.3)
    bx, by = bgdge_sample(truth, np.random.default_rng(31), size=3000)
    data = BivDataset(bx, by)
    per_obs = float(np.sum(np.log(bgdge_pmf(truth, bx, by))))
    assert observed_loglik_biv(truth, data) == pytest.approx(per_obs, rel=1e-12)

    uni = UgdgeParams.from_values(1.0, 0.8, 0.02)
    x = ugdge_sample(uni, np.random.default_rng(32), size=3000)
    per_obs = float(np.sum(np.log(ugdge_pmf(uni, x))))
    assert observed_loglik_uni(uni, x) == pytest.approx(per_obs, rel=1e-12)


def test_profile_on_cells_equals_latent_loglik_per_observation():
    rng = np.random.default_rng(33)
    values = rng.integers(0, 9, size=2000)
    counts = rng.integers(1, 5, size=2000)
    alpha, val = profile_alpha_max(0.4, values, counts)
    direct = latent_weighted_loglik(values, counts, alpha, 0.4)
    assert val == pytest.approx(direct, rel=1e-12)


def test_latent_loglik_is_exact_where_direct_difference_cancels():
    # (1 - p^(x+1))^a - (1 - p^x)^a at p = 0.9, x = 400 is about 2e-19 * a,
    # far below the rounding of either term
    with mp.workdps(60):
        want = sum(
            float(mp.log((1 - mp.mpf(0.9) ** (x + 1)) ** n - (1 - mp.mpf(0.9) ** x) ** n))
            for x, n in ((400, 2.0), (350, 6.0))
        )
    got = latent_weighted_loglik([400, 350], [1, 3], 2.0, 0.9)
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# blocked latent-count scan


def brute_modes(parts, tau, n_max):
    """Smallest maximizer of tau^(n-1) prod (hi^n - lo^n) over 1..n_max, and the
    first n whose envelope tau^(n-1) prod hi^n falls to the running maximum."""
    ns = np.arange(1, n_max + 1, dtype=float)
    modes, certs = [], []
    for k in range(parts[0][0].size):
        t = tau ** (ns - 1.0)
        env = tau ** (ns - 1.0)
        for hi, lo in parts:
            t = t * (hi[k] ** ns - lo[k] ** ns)
            env = env * hi[k] ** ns
        run = np.maximum.accumulate(t)
        stop = int(np.argmax(env[1:] <= run[:-1])) + 2
        assert env[stop - 1] <= run[stop - 2]
        modes.append(int(np.argmax(t)) + 1)
        certs.append(stop)
    return np.array(modes), max(certs)


def base_cdfs(alpha, p, x):
    x = np.asarray(x, dtype=float)
    return (1.0 - p ** (x + 1.0)) ** alpha, np.where(x > 0, (1.0 - p**x) ** alpha, 0.0)


# the ridge iterate where the simulation study's n = 25 replication 2 starts EM
RIDGE = BgdgeParams.from_values(
    0.0010000000000000002, 0.18952461979873433, 0.0010000000000000002, 0.21561047978907735,
    8.06460292589674e-05,
)


@pytest.mark.parametrize(
    "omega",
    [RIDGE, BgdgeParams.from_values(1.8, 0.3, 2.4, 0.2, 0.15), BgdgeParams.from_values(0.5, 0.6, 3.0, 0.3, 0.01)],
)
def test_blocked_scan_matches_brute_force(omega):
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    bx, by = bgdge_sample(truth, np.random.default_rng([20260822, 25, 2]), size=25)
    data = BivDataset(bx, by)
    a1, p1, a2, p2, th = omega.as_tuple()
    cells = sorted(set(zip(bx.tolist(), by.tolist())))
    cx = np.array([c[0] for c in cells])
    cy = np.array([c[1] for c in cells])
    parts = [base_cdfs(a1, p1, cx), base_cdfs(a2, p2, cy)]
    want, cert = brute_modes(parts, 1.0 - th, 60_000)

    got = e_step(omega, data, EmConfig(n_cap=cert))
    index = {c: i for i, c in enumerate(cells)}
    assert got.tolist() == [int(want[index[c]]) for c in zip(bx.tolist(), by.tolist())]
    with pytest.raises(SeriesCapError):
        e_step(omega, data, EmConfig(n_cap=cert - 1))
    if omega is RIDGE:
        assert cert > 18_000  # the long scan the blocks exist for


@pytest.mark.parametrize("alpha", [0.05, 0.6, 3.0])
def test_blocked_scan_finds_modes_across_block_boundaries(alpha):
    # small theta spreads the modes over the first few hundred counts, across
    # the boundaries of the scan's growing blocks
    x = np.arange(0, 12)
    for theta in np.geomspace(2e-3, 0.3, 12):
        want, _ = brute_modes([base_cdfs(alpha, 0.4, x)], 1.0 - theta, 20_000)
        got = e_step_uni(UgdgeParams.from_values(alpha, 0.4, theta), x)
        assert got.tolist() == want.tolist()


def test_blocked_scan_univariate_matches_brute_force():
    params = UgdgeParams.from_values(0.05, 0.5, 2e-4)
    x = np.array([0, 1, 1, 2, 5, 9, 9, 14])
    vals = np.unique(x)
    want, cert = brute_modes([base_cdfs(0.05, 0.5, vals)], 1.0 - 2e-4, 60_000)
    got = e_step_uni(params, x, EmConfig(n_cap=cert))
    assert got.tolist() == [int(want[np.searchsorted(vals, v)]) for v in x]
    with pytest.raises(SeriesCapError):
        e_step_uni(params, x, EmConfig(n_cap=cert - 1))
