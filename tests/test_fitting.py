"""EM machinery and maximum-likelihood drivers."""

import math

import numpy as np
import pytest

from gdge import (
    BgdgeParams,
    BivDataset,
    EmConfig,
    SeriesCapError,
    UgdgeParams,
    bgdge_pmf,
    bgdge_sample,
    complete_loglik,
    e_step,
    e_step_uni,
    em_fit_biv,
    em_fit_uni,
    fit_biv_mle,
    fit_uni_mle,
    latent_weighted_loglik,
    m_step_pair,
    observed_loglik_biv,
    observed_loglik_uni,
    profile_alpha_max,
    std_errors,
    ugdge_pmf,
    ugdge_sample,
)
from gdge.simulate import fast_sim_config


def brute_biv_weights(omega, x, y, n_max=5000):
    a1, p1, a2, p2, th = omega.as_tuple()
    tau = 1.0 - th
    ns = np.arange(1, n_max + 1, dtype=float)
    u1 = (1.0 - p1 ** (x + 1.0)) ** a1
    v1 = (1.0 - p1**x) ** a1 if x else 0.0
    u2 = (1.0 - p2 ** (y + 1.0)) ** a2
    v2 = (1.0 - p2**y) ** a2 if y else 0.0
    return ns, tau ** (ns - 1.0) * (u1**ns - v1**ns) * (u2**ns - v2**ns)


def brute_uni_weights(params, x, n_max=5000):
    al, p, th = params.as_tuple()
    tau = 1.0 - th
    ns = np.arange(1, n_max + 1, dtype=float)
    u = (1.0 - p ** (x + 1.0)) ** al
    v = (1.0 - p**x) ** al if x else 0.0
    return ns, tau ** (ns - 1.0) * (u**ns - v**ns)


# ---------------------------------------------------------------------------
# E-step


def test_e_step_argmax_matches_bruteforce():
    omega = BgdgeParams.from_values(1.8, 0.3, 2.4, 0.2, 0.15)
    data = BivDataset(np.array([0, 1, 3, 6, 2]), np.array([0, 2, 1, 5, 2]))
    got = e_step(omega, data)
    assert got.dtype == np.int64
    for i, (x, y) in enumerate(zip(data.x, data.y)):
        ns, w = brute_biv_weights(omega, float(x), float(y))
        assert got[i] == int(ns[np.argmax(w)])


def test_e_step_theta_one_imputes_all_ones():
    omega = BgdgeParams.from_values(1.8, 0.3, 2.4, 0.2, 1.0)
    data = BivDataset(np.array([0, 4, 2]), np.array([1, 0, 3]))
    got = e_step(omega, data)
    assert got.dtype == np.int64
    assert (got == 1).all()


def test_e_step_expected_matches_bruteforce_mean():
    omega = BgdgeParams.from_values(1.8, 0.3, 2.4, 0.2, 0.15)
    data = BivDataset(np.array([0, 1, 3, 6]), np.array([0, 2, 1, 5]))
    got = e_step(omega, data, EmConfig(e_step="expected"))
    assert got.dtype == np.float64
    for i, (x, y) in enumerate(zip(data.x, data.y)):
        ns, w = brute_biv_weights(omega, float(x), float(y))
        assert got[i] == pytest.approx(float((ns * w).sum() / w.sum()), rel=1e-9)


def test_e_step_uni_argmax_and_mean_match_bruteforce():
    params = UgdgeParams.from_values(2.2, 0.4, 0.2)
    x = np.array([0, 1, 2, 5, 9])
    modes = e_step_uni(params, x)
    means = e_step_uni(params, x, EmConfig(e_step="expected"))
    for i, xi in enumerate(x):
        ns, w = brute_uni_weights(params, float(xi))
        assert modes[i] == int(ns[np.argmax(w)])
        assert means[i] == pytest.approx(float((ns * w).sum() / w.sum()), rel=1e-9)


# ---------------------------------------------------------------------------
# M-step


def test_m_step_pair_beats_dense_grid():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 8, size=40).astype(float)
    counts = rng.integers(1, 4, size=40).astype(float)
    alpha, p = m_step_pair(values, counts)
    best = latent_weighted_loglik(values, counts, alpha, p)
    for pa in np.linspace(0.05, 2.5, 50) ** 2:  # shapes 0.0025 .. 6.25
        for pp in np.linspace(0.02, 0.98, 50):
            assert best >= latent_weighted_loglik(values, counts, pa, pp) - 1e-6


def test_profile_alpha_max_dominates_shape_grid():
    values = np.array([0.0, 1.0, 1.0, 2.0, 4.0, 7.0])
    counts = np.array([1.0, 1.0, 2.0, 1.0, 3.0, 1.0])
    for p in (0.2, 0.5, 0.8):
        alpha, val = profile_alpha_max(p, values, counts)
        assert val == pytest.approx(latent_weighted_loglik(values, counts, alpha, p))
        for a in np.geomspace(0.01, 50.0, 200):
            assert val >= latent_weighted_loglik(values, counts, a, p) - 1e-9


def test_m_step_degenerate_inputs():
    with pytest.raises(ValueError):
        profile_alpha_max(0.5, [], [])
    with pytest.raises(ValueError):
        profile_alpha_max(0.5, [0, 0, 0], [1, 1, 1])
    with pytest.warns(RuntimeWarning):
        alpha, p = m_step_pair([0, 0], [1, 1])
    assert alpha == 1.0 and 0.0 < p < 0.01


# ---------------------------------------------------------------------------
# EM drivers


TRUTHS_UNI = [
    UgdgeParams.from_values(2.0, 0.25, 0.25),
    UgdgeParams.from_values(1.2, 0.5, 0.6),
    UgdgeParams.from_values(3.0, 0.3, 0.9),
    UgdgeParams.from_values(0.7, 0.4, 0.45),
    UgdgeParams.from_values(2.5, 0.35, 1.0),
]


@pytest.mark.parametrize("seed,truth", list(enumerate(TRUTHS_UNI)))
def test_em_uni_trace_is_monotone_up_to_slack(seed, truth):
    rng = np.random.default_rng(100 + seed)
    x = ugdge_sample(truth, rng, size=60)
    init = UgdgeParams.from_values(1.0, 0.5, 0.5)
    rep = em_fit_uni(x, init, fast_sim_config(), compute_se=False)
    trace = np.array(rep.ll_trace)
    assert np.all(np.diff(trace) >= -1e-8)
    assert rep.loglik == trace[-1]
    assert rep.loglik >= trace[0] - 1e-12
    assert rep.method == "em"
    assert rep.stop_reason in ("converged", "ll_decrease", "max_iter")
    assert rep.converged == (rep.stop_reason != "max_iter")


def test_em_biv_trace_is_monotone_up_to_slack():
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    rng = np.random.default_rng(42)
    bx, by = bgdge_sample(truth, rng, size=80)
    init = BgdgeParams.from_values(1.5, 0.4, 1.5, 0.4, 0.5)
    rep = em_fit_biv(BivDataset(bx, by), init, fast_sim_config(), compute_se=False)
    trace = np.array(rep.ll_trace)
    assert np.all(np.diff(trace) >= -1e-8)
    assert rep.loglik == pytest.approx(
        observed_loglik_biv(rep.params, BivDataset(bx, by)), rel=1e-12
    )


def test_em_max_iter_reports_nonconvergence():
    rng = np.random.default_rng(9)
    x = ugdge_sample(TRUTHS_UNI[0], rng, size=50)
    rep = em_fit_uni(x, UgdgeParams.from_values(0.3, 0.9, 0.1), EmConfig(max_iter=1), compute_se=False)
    assert rep.iters <= 1
    if rep.stop_reason == "max_iter":
        assert not rep.converged


# ---------------------------------------------------------------------------
# full pipelines on the bundled match data


def test_uni_mle_first_margin_regression(football):
    rep = fit_uni_mle(football.x)
    assert rep.estimates == pytest.approx((4.673367185, 0.2614860362, 1.0), rel=1e-5)
    assert rep.loglik == pytest.approx(-33.41928189, rel=1e-9)
    assert rep.converged
    assert math.isnan(rep.std_errors[2])
    assert any("boundary" in note for note in rep.notes)
    assert rep.loglik == pytest.approx(observed_loglik_uni(rep.params, football.x), rel=1e-12)


def test_biv_mle_regression(football):
    rep = fit_biv_mle(football)
    assert rep.param_names == ("alpha1", "p1", "alpha2", "p2", "theta")
    assert rep.estimates == pytest.approx(
        (2.648139037, 0.2040633934, 6.782316251, 0.1603608612, 0.2725069821), rel=1e-5
    )
    assert rep.loglik == pytest.approx(-63.93613125, rel=1e-9)
    assert rep.converged
    assert rep.method == "em+polish"
    se = np.array(rep.std_errors)
    assert np.isfinite(se).all()
    assert se == pytest.approx((2.3574, 0.0743, 5.0696, 0.0635, 0.2791), abs=2e-3)
    for (lo, hi), e, s in zip(rep.ci95, rep.estimates, se):
        assert lo == pytest.approx(e - 1.96 * s, rel=1e-9)
        assert hi == pytest.approx(e + 1.96 * s, rel=1e-9)


def test_biv_mle_beats_both_em_endpoints(football):
    direct = fit_biv_mle(football, compute_se=False)
    init = BgdgeParams.from_values(4.6587, 0.2618, 6.8029, 0.1683, 0.6638)
    em_only = em_fit_biv(football, init, compute_se=False)
    assert direct.loglik >= em_only.loglik - 1e-9


# EM from theta = 1e-5 meets latent-count modes far past a scan cap of 100:
# the pipeline keeps the last EM iterate and polishes on from there
CAP_CFG = EmConfig(n_cap=100)


def test_uni_mle_polishes_on_when_em_scan_passes_its_cap(football):
    init = UgdgeParams.from_values(0.05, 0.5, 1e-5)
    with pytest.raises(SeriesCapError):
        e_step_uni(init, football.y, CAP_CFG)
    rep = fit_uni_mle(football.y, CAP_CFG, init=init, compute_se=False)
    assert rep.stop_reason == "em_series_cap"
    assert any("exceeded its cap" in note for note in rep.notes)
    ll_start = observed_loglik_uni(init, football.y)
    assert rep.ll_trace[0] == pytest.approx(ll_start, rel=1e-12)
    assert rep.loglik >= ll_start


def test_biv_mle_polishes_on_when_em_scan_passes_its_cap(football):
    init = BgdgeParams.from_values(0.05, 0.5, 0.05, 0.5, 1e-5)
    with pytest.raises(SeriesCapError):
        e_step(init, football, CAP_CFG)
    rep = fit_biv_mle(football, CAP_CFG, init=init, compute_se=False)
    assert rep.stop_reason == "em_series_cap"
    assert any("exceeded its cap" in note for note in rep.notes)
    ll_start = observed_loglik_biv(init, football)
    assert rep.ll_trace[0] == pytest.approx(ll_start, rel=1e-12)
    assert rep.loglik >= ll_start


# ---------------------------------------------------------------------------
# recovery and uncertainty


def test_uni_mle_recovers_truth_loosely():
    truth = UgdgeParams.from_values(2.0, 0.3, 0.5)
    rng = np.random.default_rng(77)
    x = ugdge_sample(truth, rng, size=400)
    rep = fit_uni_mle(x, fast_sim_config(), compute_se=False)
    assert rep.converged
    assert abs(rep.estimates[0] - 2.0) < 1.2
    assert abs(rep.estimates[1] - 0.3) < 0.12
    assert abs(rep.estimates[2] - 0.5) < 0.35


def test_biv_mle_recovers_truth_loosely():
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    rng = np.random.default_rng(5150)
    bx, by = bgdge_sample(truth, rng, size=400)
    rep = fit_biv_mle(BivDataset(bx, by), fast_sim_config(), compute_se=False)
    assert rep.converged
    est = rep.estimates
    assert abs(est[0] - 2.0) < 1.2 and abs(est[2] - 2.0) < 1.2
    assert abs(est[1] - 0.25) < 0.12 and abs(est[3] - 0.25) < 0.12
    assert abs(est[4] - 0.25) < 0.25


def test_std_errors_shrink_like_root_n():
    truth = UgdgeParams.from_values(2.0, 0.3, 0.25)
    rng = np.random.default_rng(9)
    rep_small = fit_uni_mle(ugdge_sample(truth, rng, size=400), fast_sim_config())
    rep_big = fit_uni_mle(ugdge_sample(truth, rng, size=3600), fast_sim_config())
    for s, b in zip(rep_small.std_errors, rep_big.std_errors):
        assert math.isfinite(s) and math.isfinite(b)
        assert 1.8 < s / b < 5.0  # ideal ratio sqrt(9) = 3


def test_std_errors_match_forward_difference_oracle():
    truth = UgdgeParams.from_values(2.0, 0.3, 0.25)
    rng = np.random.default_rng(12)
    x = ugdge_sample(truth, rng, size=300)
    params = fit_uni_mle(x, fast_sim_config(), compute_se=False).params
    se, notes = std_errors(params, x)
    assert notes == []

    def f(w):
        return observed_loglik_uni(UgdgeParams.from_values(*w), x)

    w0 = np.array(params.as_tuple())
    h = np.array([1e-5, 1e-5, 1e-5])
    hess = np.empty((3, 3))
    f0 = f(w0)
    for i in range(3):
        for j in range(3):
            wij = w0.copy()
            wij[i] += h[i]
            wij[j] += h[j]
            wi = w0.copy()
            wi[i] += h[i]
            wj = w0.copy()
            wj[j] += h[j]
            hess[i, j] = (f(wij) - f(wi) - f(wj) + f0) / (h[i] * h[j])
    oracle = np.sqrt(np.diag(np.linalg.inv(-0.5 * (hess + hess.T))))
    assert np.array(se) == pytest.approx(oracle, rel=0.02)


def test_std_errors_boundary_theta_is_nan_with_note(football):
    params = UgdgeParams.from_values(4.673367185, 0.2614860362, 1.0)
    se, notes = std_errors(params, football.x)
    assert math.isnan(se[2])
    assert math.isfinite(se[0]) and math.isfinite(se[1])
    assert any("boundary" in n for n in notes)


# ---------------------------------------------------------------------------
# complete-data likelihood and input validation


def test_complete_loglik_theta_one_identity(football):
    omega = BgdgeParams.from_values(2.5, 0.3, 3.0, 0.2, 1.0)
    ones = np.ones(len(football))
    got = complete_loglik(omega, football, ones)
    direct = float(
        np.log(bgdge_pmf(omega, football.x.astype(float), football.y.astype(float))).sum()
    )
    assert got == pytest.approx(direct, rel=1e-10)
    assert got == pytest.approx(observed_loglik_biv(omega, football), rel=1e-10)
    with pytest.raises(ValueError):
        complete_loglik(omega, football, ones + 1.0)


def test_complete_loglik_counts_validation(football):
    omega = BgdgeParams.from_values(2.5, 0.3, 3.0, 0.2, 0.5)
    with pytest.raises(ValueError):
        complete_loglik(omega, football, np.ones(3))
    with pytest.raises(ValueError):
        complete_loglik(omega, football, np.zeros(len(football)))


def test_observed_loglik_uni_matches_pmf_sum():
    params = UgdgeParams.from_values(1.5, 0.4, 0.6)
    x = np.array([0, 1, 1, 3, 6])
    direct = float(np.log(ugdge_pmf(params, x.astype(float))).sum())
    assert observed_loglik_uni(params, x) == pytest.approx(direct, rel=1e-12)


def test_dataset_validation():
    with pytest.raises(ValueError):
        BivDataset(np.array([1, 2]), np.array([1]))
    with pytest.raises(ValueError):
        BivDataset(np.array([1, -2]), np.array([1, 0]))
    with pytest.raises(ValueError):
        BivDataset(np.array([1.5, 2.0]), np.array([1.0, 0.0]))
    d = BivDataset.from_pairs([(1, 2), (0, 0), (3, 1)])
    assert d.m == len(d) == 3
    table = d.contingency_table()
    assert table.shape == (4, 3)
    assert table[1, 2] == 1 and table.sum() == 3


def test_em_config_validation():
    with pytest.raises(ValueError):
        EmConfig(max_iter=0)
    with pytest.raises(ValueError):
        EmConfig(ll_rel_tol=0.0)
    with pytest.raises(ValueError):
        EmConfig(e_step="mode")
    with pytest.raises(ValueError):
        EmConfig(p_grid=1)


def test_fit_requires_nonempty_data():
    with pytest.raises(ValueError):
        fit_uni_mle(np.array([], dtype=int))
