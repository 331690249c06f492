"""EM machinery and maximum-likelihood drivers."""

import inspect
import itertools
import math
import warnings
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from gdge import (
    BgdgeParams,
    BivDataset,
    EmConfig,
    UgdgeParams,
    bgdge_pmf,
    bgdge_sample,
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
    std_errors,
    ugdge_pmf,
    ugdge_sample,
)
from gdge import fitting
from gdge import test_independence as lrt_independence
from gdge.dge import _base_logs, _log_gap, _logpmf_and_grad, _stacked
from gdge.fitting import _fit
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
    # the modes are int64 and the means float, at theta = 1 as elsewhere
    for cfg, dtype in ((None, np.int64), (EmConfig(e_step="expected"), np.float64)):
        for got in (e_step(omega, data, cfg), e_step_uni(UgdgeParams.from_values(1.8, 0.3, 1.0), data.x, cfg)):
            assert got.dtype == dtype
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


def test_m_step_degenerate_inputs():
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


@pytest.mark.parametrize("law, fit, column", [(UgdgeParams, fit_uni_mle, "x"), (BgdgeParams, fit_biv_mle, None)],
                         ids=["uni", "biv"])
def test_record_names_are_its_values_and_its_reports_names(football, law, fit, column):
    # one list of names serves the records, the fit reports, the simulation table and the command line
    assert law.names == tuple(inspect.signature(law.from_values).parameters)
    rep = fit(getattr(football, column) if column else football, compute_se=False)
    assert rep.param_names == law.names
    assert rep.params.as_tuple() == rep.estimates


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
    assert rep.method == "trust-newton"
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


# from theta = 1e-5 on the ridge the latent-count modes reach 211: the E-step
# imputes them, and the gradient search climbs from that start


def test_uni_mle_climbs_from_a_ridge_start(football):
    init = UgdgeParams.from_values(0.05, 0.5, 1e-5)
    for x, n in zip(football.y, e_step_uni(init, football.y)):
        ns, w = brute_uni_weights(init, float(x))
        assert n == int(ns[np.argmax(w)])
    rep = fit_uni_mle(football.y, init=init, compute_se=False)
    assert rep.converged
    assert rep.loglik >= observed_loglik_uni(init, football.y)


def test_biv_mle_climbs_from_a_ridge_start(football):
    init = BgdgeParams.from_values(0.05, 0.5, 0.05, 0.5, 1e-5)
    for x, y, n in zip(football.x, football.y, e_step(init, football)):
        ns, w = brute_biv_weights(init, float(x), float(y))
        assert n == int(ns[np.argmax(w)])
    rep = fit_biv_mle(football, init=init, compute_se=False)
    assert rep.converged
    assert rep.loglik >= observed_loglik_biv(init, football)


# the maximizer of the 26-match likelihood, found by Newton's method in
# mpmath at 40 digits (gradient norm 1e-26), rounded to 13 digits
SERIEA_MLE = (2.648138531581, 0.204063392347, 6.782315129779, 0.1603608641943, 0.2725069489861)


def test_biv_mle_reaches_the_certified_optimum(football):
    cells = Counter(zip(football.x.tolist(), football.y.tolist()))

    def loglik(*q):  # four-corner differences of the joint CDF, independent of the kernel
        def joint(s, t):
            w = (1 - q[1] ** (s + 1)) ** q[0] * (1 - q[3] ** (t + 1)) ** q[2] if s >= 0 and t >= 0 else 0
            return q[4] * w / (1 - (1 - q[4]) * w)

        return sum(
            k * mp.log(joint(x, y) - joint(x - 1, y) - joint(x, y - 1) + joint(x - 1, y - 1))
            for (x, y), k in cells.items()
        )

    with mp.workdps(40):
        q = [mp.mpf(str(v)) for v in SERIEA_MLE]
        grad = [mp.diff(lambda t, i=i: loglik(*q[:i], t, *q[i + 1:]), q[i]) for i in range(5)]
    assert max(abs(float(g)) for g in grad) <= 1e-9
    rep = fit_biv_mle(football, compute_se=False)
    assert rep.converged
    assert rep.estimates == pytest.approx(SERIEA_MLE, rel=1e-9)


def test_box_edge_estimate_is_noted_and_gets_nan_standard_error():
    # margin x of the simulation study's replication 2 at n = 25: the
    # likelihood rises along the ridge to the shape's lower bound 1e-3
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    x, _ = bgdge_sample(truth, np.random.default_rng([20260822, 25, 2]), size=25)
    rep = fit_uni_mle(x, fast_sim_config())
    assert rep.estimates[0] == pytest.approx(1e-3, rel=1e-12)
    assert rep.converged
    assert "alpha = 0.001 on the edge of the search box" in rep.notes
    assert math.isnan(rep.std_errors[0]) and all(math.isnan(v) for v in rep.ci95[0])
    assert all(math.isfinite(s) for s in rep.std_errors[1:])


def test_search_drives_the_gradient_to_rounding_on_a_large_sample():
    # at n = 1000 a Newton step gains less than the rounding of the
    # log-likelihood, which the search's acceptance rule must allow for
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    bx, by = bgdge_sample(truth, np.random.default_rng(31), size=1000)
    rep = fit_biv_mle(BivDataset(bx, by), fast_sim_config(), compute_se=False)
    cells = Counter(zip(bx.tolist(), by.tolist()))
    cx, cy = (np.array(c, dtype=float) for c in zip(*cells))
    a1, p1, a2, p2, theta = rep.estimates
    grad = _logpmf_and_grad(theta, *_stacked([(a1, p1, cx), (a2, p2, cy)]))[1] @ np.array(list(cells.values()), float)
    q = np.array(rep.estimates)
    assert rep.converged
    assert np.abs(grad * np.where([True, False, True, False, False], q, q * (1 - q))).max() <= 1e-9


def test_search_maps_of_a_probability_match_mpmath():
    # the logit of `_box` within 2 ulp * max(1, |w|), the expit of `_from_search` within 2 ulp relative, over
    # the box's probabilities (p within 1e-15 of 1/2 included) and its logits
    eps = np.finfo(float).eps
    tails = np.geomspace(1e-6, 0.5, 301)
    ps = np.concatenate([tails, 1.0 - tails, 0.5 + np.linspace(-1e-15, 1e-15, 41), np.linspace(0.25, 0.75, 101)])
    w = fitting._box(np.column_stack([np.ones_like(ps), ps]).ravel())[0][1::2]
    ws = np.concatenate([np.linspace(*fitting._W_UNIT, 401), np.linspace(-1e-6, 1e-6, 41)])
    v = fitting._from_search(ws[:, None], np.array([True]))[:, 0]
    with mp.workdps(50):
        want_w = np.array([float(mp.log(mp.mpf(p) / (1 - mp.mpf(p)))) for p in ps])
        want_v = np.array([float(1 / (1 + mp.exp(-mp.mpf(x)))) for x in ws])
    assert np.all(np.abs(w - want_w) <= 2.0 * eps * np.maximum(1.0, np.abs(want_w)))
    assert np.all(np.abs(v - want_v) <= 2.0 * eps * want_v)


def expit(w):
    """The probability whose logit is ``w``."""
    return 1.0 / (1.0 + math.exp(-w))


def test_search_keeps_a_passing_trial_whose_gain_is_below_rounding():
    # -ll = 2^23 + |w - w*|^2 / 2 in (log shape, logit p): 3.6e-6 from w* the gain left is below the
    # rounding of -ll, so a ratio test alone rejects the Newton step to w* until the radius stalls
    opt = np.array([1.0, 0.3])
    calls = []

    def ll(q):
        calls.append(len(q))
        d = np.column_stack([np.log(q[:, 0]), np.log(q[:, 1] / (1.0 - q[:, 1]))]) - opt
        return -(2.0**23) - 0.5 * (d**2).sum(axis=1), -d / np.column_stack([q[:, 0], q[:, 1] * (1.0 - q[:, 1])])

    w0 = opt + [3e-6, -2e-6]
    start = (math.exp(w0[0]), expit(w0[1]))
    _, _, stop, iters, _ = fitting._search(ll, [start], slice(None), fast_sim_config())
    assert (stop, iters, len(calls)) == ("converged", 1, 2)


def test_biv_mle_meets_its_convergence_test_on_the_ridge():
    # replication 1 at n = 25: shape 1 ends on its bound and theta near 3e-4,
    # where the likelihood is too flat for a relative-tolerance stop to settle
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    bx, by = bgdge_sample(truth, np.random.default_rng([20260822, 25, 1]), size=25)
    rep = fit_biv_mle(BivDataset(bx, by), fast_sim_config(), compute_se=False)
    assert rep.converged and rep.stop_reason == "converged"


def counted_kernel_calls(monkeypatch):
    """The list that every later call of the fitter's likelihoods, `fitting._ll` on the cells and the base-law
    `fitting._base_ll`, appends to, as the name with the arguments."""
    calls = []
    for name in ("_ll", "_base_ll"):
        f = getattr(fitting, name)
        monkeypatch.setattr(fitting, name, lambda *a, name=name, f=f: calls.append((name, *a)) or f(*a))
    return calls


def coordinate_columns(call):
    """How many coordinates the stacked cells ``(x, weights)`` of an `_ll` call hold."""
    return len(call[1][0])


def theta_one_pairs(margins):
    """The `_base_ll` pairs of the values and counts ``margins``, shape multiplier 1."""
    return [(v, 1.0, n) for v, n in margins]


def test_biv_mle_fits_no_margin_to_start(football, monkeypatch):
    # no separate margin fit seeds the starts: a fit's likelihood calls are the theta = 1 search's, one per
    # iteration (and one at its start) on the two margins as two pairs, then the full search's on the cells
    cfg = EmConfig()
    base = (1.0, fitting._geometric_p(football.x), 1.0, fitting._geometric_p(football.y), 1.0)
    pairs = theta_one_pairs(fitting._distinct(football.x, football.y)[3])
    base_iters = fitting._search(lambda q: fitting._base_ll(pairs, q), [base], slice(-1), cfg)[3]
    calls = counted_kernel_calls(monkeypatch)
    rep = fit_biv_mle(football, cfg, compute_se=False)
    assert rep.converged and rep.estimates[4] < 1.0  # the full search's end, not the theta = 1 fit
    assert [name for name, *_ in calls] == ["_base_ll"] * (base_iters + 1) + ["_ll"] * (rep.iters + 1)
    assert all(len(call[1]) == 2 for call in calls[:base_iters + 1])
    assert all(coordinate_columns(call) == 2 for call in calls[base_iters + 1:])


def test_uni_mle_calls_the_kernel_with_one_coordinate_only(football, monkeypatch):
    calls = counted_kernel_calls(monkeypatch)
    assert fit_uni_mle(football.x).converged
    on_cells = [call for call in calls if call[0] == "_ll"]
    assert on_cells and all(coordinate_columns(call) == 1 for call in on_cells)


def test_a_search_rising_to_theta_1_lands_there(monkeypatch):
    # theta is searched as log theta up to exactly 1; as a logit it crept up to its box edge one
    # unit per Newton step: 35 kernel calls for this boundary LRT, 49 for the zero-heavy fit
    calls = counted_kernel_calls(monkeypatch)
    null = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 1.0)
    lrt_independence(BivDataset(*bgdge_sample(null, np.random.default_rng([99, 100, 3]), size=100)))
    assert len(calls) <= 20
    calls.clear()
    x = ugdge_sample(UgdgeParams.from_values(0.3, 0.5, 0.9), np.random.default_rng([1, 10_000, 0]), size=10_000)
    rep = fit_uni_mle(x)
    assert len(calls) <= 25
    assert rep.estimates[2] == 1.0 and rep.converged
    assert not [note for note in rep.notes if "search box" in note]


def gate_datasets():
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    for n in (25, 100):
        for r in range(5):
            yield BivDataset(*bgdge_sample(truth, np.random.default_rng([20260822, n, r]), size=n))


def test_biv_mle_default_starts_lose_nothing_to_the_margin_averaged_start(football):
    cfg = fast_sim_config()
    for data in [football, *gate_datasets()]:
        f1, f2 = (_fit(c, cfg).est for c in (data.x, data.y))
        averaged = (*f1[:2], *f2[:2], min(1.0, 0.5 * (f1[2] + f2[2])))
        default = fit_biv_mle(data, cfg, compute_se=False).loglik
        assert fit_biv_mle(data, cfg, extra_starts=[averaged], compute_se=False).loglik <= default + 1e-9


# ---------------------------------------------------------------------------
# the theta = 1 search from its one geometric start


def base_grid_max(x, size=400):
    """Largest theta = 1 log-likelihood of counts ``x`` on a dense (alpha, p) grid."""
    vals, w = np.unique(x, return_counts=True)
    alphas = np.geomspace(1e-3, 1e3, size)[:, None]
    best = -math.inf
    for p in np.linspace(1e-6, 1.0 - 1e-6, size):
        with np.errstate(divide="ignore"):  # the formulas leave the log of 0 to their caller
            l1, _, r, *_ = _base_logs(p, vals.astype(float))
            best = max(best, float(np.max(_log_gap(l1, r, alphas) @ w)))
    return best


@pytest.mark.parametrize(
    "law,seed",
    [
        ((50.0, 0.5, 1.0), [7, 7, 25]),  # a shape search from the grid's first p never ended
        ((20.0, 0.9, 0.5), [7, 3, 25]),  # the shape bracket was lost
    ],
)
def test_uni_fit_far_from_zero_converges_above_the_base_grid(law, seed):
    x = ugdge_sample(UgdgeParams.from_values(*law), np.random.default_rng(seed), size=25)
    rep = fit_uni_mle(x, compute_se=False)
    assert rep.converged
    assert _fit(x, EmConfig()).ll_base >= base_grid_max(x) - 1e-9


def test_biv_fit_far_from_zero_converges_above_the_base_grid():
    truth = BgdgeParams.from_values(50.0, 0.5, 50.0, 0.5, 0.5)
    bx, by = bgdge_sample(truth, np.random.default_rng(1), size=25)
    data = BivDataset(bx, by)
    rep = fit_biv_mle(data, fast_sim_config(), compute_se=False)
    assert rep.converged
    assert _fit(data, fast_sim_config()).ll_base >= base_grid_max(bx) + base_grid_max(by) - 1e-9


def wide_span_data():
    return BivDataset(*bgdge_sample(BgdgeParams.from_values(2.0, 0.99, 2.0, 0.99, 0.5), np.random.default_rng(3),
                                    size=1000))


def theta_one_points(data, corners=True):
    """Points at theta = 1 around each margin's geometric fit and, with ``corners``, at the corners of the search
    box but shape 1e3 at p = 1 - 1e-6, where every pmf underflows and the two likelihoods floor different cells."""
    rng = np.random.default_rng(0)
    pairs = [(math.exp(rng.normal()), expit(math.log(p / (1.0 - p)) + 0.1 * rng.normal()))
             for p in (fitting._geometric_p(data.x), fitting._geometric_p(data.y)) for _ in range(3)]
    if corners:
        pairs += [(a, p) for a in (1e-3, 1e3) for p in fitting._UNIT if (a, p) != (1e3, fitting._UNIT[1])]
    return np.array([(*c1, *c2, 1.0) for c1 in pairs for c2 in pairs])


def assert_rel(got, want, tol=1e-13):
    assert np.all(np.abs(got - want) <= tol * np.abs(want)), np.max(np.abs(got - want) / np.abs(want))


def test_theta_one_handles_equal_the_full_likelihood_at_theta_1(football):
    # `_base_ll` at theta = 1: on counts one pair; independence: the two margins as two pairs; equal margins:
    # both margins' values as one pair
    for data in [football, *gate_datasets(), wide_span_data()]:
        margins = fitting._distinct(data.x, data.y)[3]
        q = theta_one_points(data, corners=data.x.size < 1000)  # at p = 1e-6 the wide span's pmfs underflow
        for x, margin, cols in ((data.x, margins[0], [0, 1, 4]), (data.y, margins[1], [2, 3, 4])):
            (value, grad), (want, want_grad) = fitting._base_ll(theta_one_pairs([margin]), q[:, cols]), \
                fitting._loglik(x)(q[:, cols])
            assert_rel(value, want)
            assert_rel(grad[:, :2], want_grad[:, :2])
            assert not grad[:, 2].any()
        ll = fitting._loglik(data)
        (value, grad), (want, want_grad) = fitting._base_ll(theta_one_pairs(margins), q), ll(q)
        assert_rel(value, want)
        assert_rel(grad[:, :4], want_grad[:, :4])
        assert not grad[:, 4].any()
        tied = q[:, [0, 1, 4]]
        pooled = theta_one_pairs([tuple(map(np.concatenate, zip(*margins)))])
        (value, grad), (want, want_grad) = fitting._base_ll(pooled, tied), ll(tied[:, fitting._TIE])
        assert_rel(value, want)
        assert_rel(grad[:, :2], want_grad[:, :2] + want_grad[:, 2:4])
        assert not grad[:, 2].any()


def test_base_ll_on_one_pair_is_the_theta_1_likelihood_bit_for_bit(football):
    # the cells of counts are their distinct values, so with shape multiplier 1 the two handles evaluate the
    # same log-gaps and (shape, p) partials and sum them alike
    x4 = ugdge_sample(UgdgeParams.from_values(1.0, 0.8, 0.02), np.random.default_rng([1, 10_000, 1]), size=10_000)
    columns = [football.x, football.y, *(c for data in list(gate_datasets())[5:7] for c in (data.x, data.y)), x4]
    for x in columns:
        (cells,), w, _, margins = fitting._distinct(x)
        q = theta_one_points(BivDataset(x, x))[:, [0, 1, 4]]
        value, grad = fitting._base_ll(theta_one_pairs(margins), q)
        want, want_grad = fitting._ll((np.array([cells]), w), q)
        assert np.array_equal(value, want) and np.array_equal(grad[:, :2], want_grad[:, :2])


def test_m_step_with_unit_counts_is_the_theta_1_fit(football):
    cfg = EmConfig()
    for data in [football, *gate_datasets()]:
        for x in (data.x, data.y):
            assert m_step_pair(x, 1, cfg) == pytest.approx(_fit(x, cfg).base[:2], rel=1e-9, abs=0)


def test_biv_theta_one_fit_is_each_margins_own_base_fit(football):
    cfg = fast_sim_config()
    for data in [football, *gate_datasets()]:
        base = _fit(data, cfg).base
        for column, est in ((data.x, base[:2]), (data.y, base[2:4])):
            assert est == pytest.approx(_fit(column, cfg).base[:2], rel=1e-9, abs=0)


def test_base_fits_reach_the_base_grid_on_serie_a(football):
    for x in (football.x, football.y):
        assert _fit(x, EmConfig()).ll_base >= base_grid_max(x) - 1e-9
    pooled = np.concatenate([football.x, football.y])
    assert _fit(football, EmConfig(), tied=True).ll_base >= base_grid_max(pooled) - 1e-9


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


def test_std_errors_rejects_a_record_of_the_other_dimension(football):
    for params, data in ((BgdgeParams.from_values(2.6, 0.2, 6.8, 0.16, 0.27), football.x),
                         (UgdgeParams.from_values(2.6, 0.2, 0.27), football)):
        with pytest.raises(TypeError, match="record needs"):
            std_errors(params, data)


# ---------------------------------------------------------------------------
# input validation


BIV_START, UNI_START = (4.6587, 0.2618, 6.8029, 0.1683, 0.6638), (4.6587, 0.2618, 0.6638)


@pytest.mark.parametrize("fit, start", [
    (lambda data, init: fit_uni_mle(data.x, init=init, compute_se=False), BgdgeParams.from_values(*BIV_START)),
    (lambda data, init: fit_biv_mle(data, init=init, compute_se=False), UgdgeParams.from_values(*UNI_START)),
    (lambda data, init: em_fit_uni(data.x, init, compute_se=False), BgdgeParams.from_values(*BIV_START)),
    (lambda data, init: em_fit_biv(data, init, compute_se=False), UgdgeParams.from_values(*UNI_START)),
    (lambda data, init: fit_biv_mle(data, init=init, compute_se=False), BIV_START),
], ids=["fit_uni_mle", "fit_biv_mle", "em_fit_uni", "em_fit_biv", "tuple"])
def test_fits_reject_a_start_of_the_other_law(football, fit, start):
    with pytest.raises(TypeError, match=f"record needs|unsupported parameter record {type(start).__name__}"):
        fit(football, start)


@pytest.mark.parametrize("start, error, match", [
    ((math.nan, 0.2618, 6.8029, 0.1683, 0.6638), ValueError, "alpha must be positive"),
    ((4.6587, 0.2618, -6.8029, 0.1683, 0.6638), ValueError, "alpha must be positive"),
    ((4.6587, 1.0, 6.8029, 0.1683, 0.6638), ValueError, "p must lie in"),
    ((4.6587, 0.2618, 6.8029, 0.1683, 1.5), ValueError, "theta must lie in"),
    ((4.6587, 0.2618, 6.8029, 0.1683), TypeError, "theta"),
], ids=["nan-shape", "negative-shape", "p-1", "theta-1.5", "four-values"])
def test_biv_mle_rejects_a_bad_extra_start(football, start, error, match):
    # each failed deep in the search or in numpy, or, theta 1.5, was clipped to 1
    with pytest.raises(error, match=match):
        fit_biv_mle(football, extra_starts=[BIV_START, start], compute_se=False)


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


def test_counts_name_the_value_that_is_not_a_nonnegative_integer():
    for bad, fault in (([1.0, np.inf], "x takes integers >= 0; inf is not finite"),
                       ([np.nan, 2.0], "nan is not finite"), ([1.0, 2.5], "2.5 is not an integer"),
                       ([3, -1], "-1 is below 0")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=fault):
                BivDataset(np.array(bad), np.zeros(2, dtype=int))
    with pytest.raises(ValueError, match="y takes integers >= 0; -2 is below 0"):
        BivDataset(np.array([1, 2]), np.array([0, -2]))
    assert fit_uni_mle(np.array([0.0, 1.0, 1.0, 3.0])).loglik == fit_uni_mle(np.array([0, 1, 1, 3])).loglik


def test_em_config_validation():
    with pytest.raises(ValueError):
        EmConfig(max_iter=0)
    with pytest.raises(ValueError):
        EmConfig(ll_rel_tol=0.0)
    with pytest.raises(ValueError):
        EmConfig(e_step="mode")


def test_fit_requires_nonempty_data():
    with pytest.raises(ValueError):
        fit_uni_mle(np.array([], dtype=int))


# ---------------------------------------------------------------------------
# the trust-region search


def test_shifted_newton_step_descends_within_its_radius():
    rng = np.random.default_rng(20261019)
    for k in range(1000):
        d = int(rng.integers(2, 6))
        a = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-3, 3)
        hess = a @ a.T if k % 3 == 0 else 0.5 * (a + a.T)  # every third positive definite
        grad = rng.normal(size=d) * 10.0 ** rng.uniform(-4, 2)
        move = rng.random(d) < 0.8
        radius = 10.0 ** rng.uniform(-3, 2)
        (s,) = fitting._shifted_newton(hess[None], grad[None], np.array([radius]), move[None])
        assert np.all(s[~move] == 0.0) and np.linalg.norm(s) <= radius * (1.0 + 1e-12)
        if move.any():
            assert s @ grad < 0.0
        sub = hess[np.ix_(move, move)]
        if k % 3 == 0 and move.any() and np.linalg.eigvalsh(sub)[0] > 1e-6:  # no shift: Newton, cut back
            newton = -np.linalg.solve(sub, grad[move])
            want = newton * min(1.0, radius / np.linalg.norm(newton))
            assert np.allclose(s[move], want, rtol=1e-8, atol=1e-12 * np.abs(want).max())


def test_shortened_step_stops_on_the_first_bound_it_meets():
    lo, hi = np.array([0.0, -1.0, -2.0]), np.array([1.0, 1.0, 0.0])
    w = np.array([[0.5, 0.0, -1.0], [0.5, 0.0, 0.0], [0.2, 0.2, -0.2]])
    step = np.array([[1.0, 0.2, 0.0], [0.2, 0.2, 1.0], [0.1, -0.1, 0.1]])
    got = fitting._shortened(w, step, lo, hi)
    # row 0 meets x0 = 1 halfway; row 1 starts on its bound and leaves it, so it is cut back to
    # the box; row 2 stays inside
    assert np.array_equal(got[:2], [[1.0, 0.1, -1.0], [0.7, 0.2, 0.0]]) and np.array_equal(got[2], w[2] + step[2])


def test_lockstep_search_reaches_the_better_of_its_starts(football):
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    ridge = BivDataset(*bgdge_sample(truth, np.random.default_rng([20260822, 25, 1]), size=25))
    cfg = fast_sim_config()
    for data in (football, ridge):
        ll = fitting._loglik(data)
        base = _fit(data, cfg).base
        a, b = (*base[:-1], 0.25), (*base[:-1], 0.75)
        alone = max(fitting._search(ll, [s], slice(None), cfg)[1] for s in (a, b))
        assert fitting._search(ll, [a, b], slice(None), cfg)[1] == pytest.approx(alone, rel=0, abs=1e-12)


# In search coordinates w = (log shape, logit p): a quadratic bowl for w0 >= 0 whose reported gradient points
# the wrong way, so every trial from there is rejected until the radius falls below _RADIUS[2] (17
# iterations), and a quartic bowl with a small quadratic part for w0 < 0, where Newton steps cut the distance
# by a third and a start runs for 27 iterations.
BAD, GOOD = np.array([3.0, -2.0]), np.array([-1.0, 0.5])


def two_region_ll(q):
    w = np.column_stack([np.log(q[:, 0]), np.log(q[:, 1] / (1.0 - q[:, 1]))])
    d_bad, d_good = w - BAD, w - GOOD
    bad = w[:, :1] >= 0.0
    value = np.where(bad[:, 0], 0.5 * (d_bad**2).sum(axis=1) + 1.0, (0.25 * d_good**4 + 0.5e-6 * d_good**2).sum(axis=1))
    grad = np.where(bad, -d_bad, d_good**3 + 1e-6 * d_good)
    return -value, -grad / np.column_stack([q[:, 0], q[:, 1] * (1.0 - q[:, 1])])


def margin_search(r):
    """The lockstep search of `fit_uni_mle` on a study margin (n = 25, replication r), from its three starts."""
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    x = bgdge_sample(truth, np.random.default_rng([20260822, 25, r]), size=25)[0]
    base = _fit(x, fast_sim_config()).base
    return fitting._loglik(x), [(*base[:-1], th) for th in (0.5, 0.25, 0.75)]


TWO_REGION_STARTS = [(math.exp(2.0), expit(-1.0)), (math.exp(-4.0), expit(3.0))]


# (estimate, loglik, stop, iterations) as the search returned them before it kept only its running starts,
# and the rows of each kernel call as (rows, calls) runs: a start that stops leaves the calls
@pytest.mark.parametrize("search, max_iter, want, rows", [
    # the first start stops by its radius at iteration 17, the second runs on and converges
    ((two_region_ll, TWO_REGION_STARTS), 500,
     ((0.3678794411714396, 0.6224593312018549), -2.805386594192223e-35, "converged", 27), [(10, 18), (5, 10)]),
    # the cap stops both while they run
    ((two_region_ll, TWO_REGION_STARTS), 10,
     ((0.34713236408534237, 0.6337579372520973), -4.210366516290645e-06, "max_iter", 10), [(10, 11)]),
    # the cap stops the second, which passes the gradient test, after the first stopped
    ((two_region_ll, TWO_REGION_STARTS), 20,
     ((0.36760298283975595, 0.6225861674100786), -5.293222134313176e-13, "converged", 20), [(10, 18), (5, 3)]),
    # the second start stops on a short step after iteration 11, the others after iteration 13
    (lambda: margin_search(2), 500, ((0.0010000000000000002, 0.18952468983230983, 7.321046494464347e-05),
                                     -32.67299421321355, "converged", 13), [(21, 12), (14, 2)]),
    # the cap stops the two that still run
    (lambda: margin_search(2), 12, ((0.0010000000000000002, 0.18952468983230983, 7.32104651677698e-05),
                                    -32.672994213213514, "converged", 12), [(21, 12), (14, 1)]),
    # the starts stop after iterations 5, 6 and 10; a kept trial on a bound changes which coordinates the
    # next step holds
    (lambda: margin_search(8), 500, ((1.6052907421299136, 0.4912666852620484, 0.9306664062426363),
                                     -40.557869256966114, "converged", 10), [(21, 6), (14, 1), (7, 4)]),
], ids=["radius", "cap-both-running", "cap-after-radius", "short", "cap-after-short", "held"])
def test_lockstep_starts_that_stop_at_different_iterations(search, max_iter, want, rows):
    ll, starts = search() if callable(search) else search
    calls = []

    def counted(q):
        calls.append(len(q))
        return ll(q)

    est, loglik, stop, iters, _ = fitting._search(counted, starts, slice(None), EmConfig(max_iter=max_iter))
    assert (stop, iters) == want[2:]
    assert est == pytest.approx(want[0], rel=1e-12) and loglik == pytest.approx(want[1], rel=1e-12)
    assert [(r, len(list(run))) for r, run in itertools.groupby(calls)] == rows


def test_distinct_of_one_column_is_the_general_result():
    x = ugdge_sample(UgdgeParams.from_values(1.0, 0.8, 0.02), np.random.default_rng([1, 10_000, 1]), size=10_000)
    for col in (x, x[:1], np.array([3, 0, 3, 3]), x.astype(float)):
        (values,), counts, at, margin = fitting._distinct(col)
        # the general path on two columns, the second constant
        (cells, _), w, inv, margins = fitting._distinct(col, np.zeros_like(col))
        assert values.dtype == counts.dtype == float and at.shape == col.shape
        assert np.array_equal(values, cells) and np.array_equal(counts, w) and np.array_equal(at, inv)
        assert np.array_equal(values[at], col)
        # each column's distinct values with their counts
        for (v, n), want in zip([*margin, *margins], [(values, counts), (values, counts), ([0.0], [col.size])]):
            assert v.dtype == n.dtype == float and np.array_equal(v, want[0]) and np.array_equal(n, want[1])
