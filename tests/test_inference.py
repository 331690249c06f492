"""Likelihood-ratio tests and binned goodness-of-fit."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.stats import chi2

import gdge
from gdge import (
    BgdgeParams,
    BivDataset,
    UgdgeParams,
    bgdge_sample,
    chi2_sf,
    gof_chisq_biv,
    gof_chisq_uni,
    ugdge_sample,
)
from gdge import test_equal_marginals as lrt_equal_marginals
from gdge import test_independence as lrt_independence
from gdge.simulate import fast_sim_config


# ---------------------------------------------------------------------------
# chi-square tail


def chi2_sf_reference(x: float, df: int) -> float:
    """Independent closed-form route for df in {1, 2}."""
    if x < 0:
        raise ValueError("statistic must be nonnegative")
    if df == 1:
        return math.erfc(math.sqrt(x / 2.0))
    if df == 2:
        return math.exp(-x / 2.0)
    raise ValueError("reference route implemented for df in {1, 2} only")


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


CHI2_XS = (0.0, 1e-300, 1e-10, 0.3, 3.84, 20.0, 150.0, 400.0, 1000.0, 1450.0, 1500.0)


def _chi2_draws():
    """Seeded (df, x) draws over df in [-1, 50] and x in [-5, inf), df rounded to an integer."""
    rng = np.random.default_rng(20261018)
    return [(round(float(d)), float(x)) for d, x in zip(
        rng.uniform(-1.0, 50.0, 400), rng.exponential(30.0, 400) - 5.0)]


def _chi2_guard(x: float, df: int):
    """What `chi2_sf` must return exactly outside the interior, else None."""
    if not df > 0 or math.isnan(x):
        return math.nan
    return 1.0 if x < 0 else 0.0 if x == math.inf else None


def _chi2_cases():
    """df 1-60 over `CHI2_XS`, and the draws inside the guards."""
    grid = [(df, x) for df in range(1, 61) for x in CHI2_XS]
    return grid + [(df, x) for df, x in _chi2_draws() if _chi2_guard(x, df) is None]


def _chi2_mp(x: float, df: int):
    """The regularized upper incomplete gamma Q(df/2, x/2), at the caller's mpmath precision."""
    return mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)


def test_chi2_sf_matches_mpmath_reference():
    with mpmath.workdps(50):
        for df, x in _chi2_cases():
            want, got = _chi2_mp(x, df), chi2_sf(x, df)
            if want > 1e-300:
                assert abs(got - want) <= 1e-13 * want, (df, x, got, float(want))
            else:
                assert abs(got - want) <= 1e-313, (df, x, got, float(want))


def test_chi2_sf_rescales_a_sum_past_overflow():
    # near x = df = 3000 the terms y^k / k! exceed the double range before exp(-y) shrinks them.
    # Below x = 1400 the rescaled sum comes back through exp(-y) and its power of two.
    with mpmath.workdps(50):
        for df, x in ((2000, 1360.0), (1300, 1300.0), (2001, 2100.0), (3000, 2900.0), (3000, 3000.0)):
            want = _chi2_mp(x, df)
            assert abs(chi2_sf(x, df) - want) <= 1e-12 * want, (df, x)


def test_chi2_sf_keeps_its_digits_where_exp_of_minus_half_x_underflows():
    # from x = 1400 exp(-x/2) enters split into a power of two and exp of a remainder;
    # as exp(log(sum) - x/2) it lost about 1e-16 * x/2 relative (1.1e-13 and 3.1e-12 at the first two)
    with mpmath.workdps(50):
        for df, x in ((3000, 3000.0), (100_000, 99_000.0), (2001, 2100.0), (3000, 2900.0)):
            want = _chi2_mp(x, df)
            assert abs(chi2_sf(x, df) - want) <= 5e-14 * want, (df, x)


def test_chi2_sf_guards_are_exact():
    dfs = (1, 2, 3, 9, 40, 0, -1, math.nan)
    xs = (-5.0, -0.1, 0.0, 3.84, math.inf, math.nan)
    cases = [(d, x) for d in dfs for x in xs] + _chi2_draws()
    for df, x in cases:
        want = _chi2_guard(x, df)
        if want is not None:
            assert _same(chi2_sf(x, df), want), (df, x)
    for df in (1, 2, 3, 9, 40):
        assert chi2_sf(0.0, df) == 1.0


@pytest.mark.parametrize("df", [0.5, 2.5])
def test_chi2_sf_rejects_a_df_that_is_not_an_integer(df):
    with pytest.raises(ValueError, match=str(df)):
        chi2_sf(3.0, df)


def test_chi2_sf_agrees_with_scipy_stats():
    for df, x in _chi2_cases():
        want = float(chi2.sf(x, df))
        if want > 1e-300:
            assert chi2_sf(x, df) == pytest.approx(want, rel=2e-13, abs=0.0), (df, x)


SRC = str(Path(gdge.__file__).resolve().parents[1])
SERIEA = [["fit", "{data}", "--uni", "--column", "x"], ["fit", "{data}", "--uni", "--column", "y"],
          ["fit", "{data}", "--biv", "--gof"], ["test", "{data}", "--test", "both"]]


def _run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_import_loads_no_scipy():
    code = ("import sys, gdge, gdge.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert _run_python(code).strip() == "[]"


def _cli_reports(argvs):
    """``[exit code, stdout]`` of `gdge.cli.main` for each argv; self-contained, as its source also runs in a subprocess."""
    import contextlib
    import io

    import gdge.cli

    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = gdge.cli.main(argv)
        out.append([code, buf.getvalue()])
    return out


def test_cli_runs_seriea_with_scipy_blocked():
    argvs = [[a.format(data=gdge.bundled_data_path()) for a in argv] for argv in SERIEA]
    code = "\n".join([
        "import json, sys",
        "sys.modules['scipy'] = None  # an import of scipy or scipy.* now raises ImportError",
        inspect.getsource(_cli_reports),
        f"print(json.dumps(_cli_reports({argvs!r})))",
    ])
    blocked = json.loads(_run_python(code))
    assert [c for c, _ in blocked] == [0, 0, 0, 0]
    assert blocked == _cli_reports(argvs)


def test_chi2_sf_matches_closed_form_reference():
    for stat in (0.0, 0.3, 1.7, 3.84, 9.2, 20.0):
        assert chi2_sf(stat, 1) == pytest.approx(chi2_sf_reference(stat, 1), rel=1e-12)
        assert chi2_sf(stat, 2) == pytest.approx(chi2_sf_reference(stat, 2), rel=1e-12)


def test_chi2_reference_domain():
    with pytest.raises(ValueError):
        chi2_sf_reference(-0.1, 1)
    with pytest.raises(ValueError):
        chi2_sf_reference(1.0, 3)


# ---------------------------------------------------------------------------
# likelihood-ratio tests on the bundled match data


def test_equal_marginals_regression(football):
    r = lrt_equal_marginals(football)
    assert r.reference == "chi2(2)"
    assert r.statistic == pytest.approx(2.685581136, rel=1e-6)
    assert r.p_value == pytest.approx(0.261115989, rel=1e-6)
    assert r.p_value == pytest.approx(chi2_sf(r.statistic, 2), rel=1e-12)
    assert r.ll_null == pytest.approx(-65.27892182, rel=1e-8)
    assert r.ll_full == pytest.approx(-63.93613125, rel=1e-8)
    assert r.null_params == pytest.approx(
        (4.620925114, 0.1970505548, 4.620925114, 0.1970505548, 0.3716681903), rel=1e-5
    )
    assert r.null_params[0] == r.null_params[2] and r.null_params[1] == r.null_params[3]


def test_independence_regression(football):
    r = lrt_independence(football)
    assert r.reference == "0.5*{0} + 0.5*chi2(1)"
    assert r.statistic == pytest.approx(3.008305268, rel=1e-6)
    assert r.p_value == pytest.approx(0.04141942977, rel=1e-6)
    assert r.p_value == pytest.approx(0.5 * chi2_sf(r.statistic, 1), rel=1e-12)
    assert r.ll_null == pytest.approx(-65.44028389, rel=1e-8)
    assert r.ll_full == pytest.approx(-63.93613125, rel=1e-8)
    assert r.null_params[4] == 1.0
    assert r.null_params[:2] == pytest.approx((4.673367185, 0.2614860362), rel=1e-5)
    assert r.null_params[2:4] == pytest.approx((8.434275883, 0.2311210368), rel=1e-5)


# ---------------------------------------------------------------------------
# behavior under the null


def test_equal_marginals_accepts_pooled_truth():
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.5)
    rng = np.random.default_rng(314)
    bx, by = bgdge_sample(truth, rng, size=120)
    r = lrt_equal_marginals(BivDataset(bx, by), fast_sim_config())
    assert r.statistic < 8.0
    assert r.p_value > 0.01


def test_independence_statistic_is_zero_on_boundary_sample():
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 1.0)
    rng = np.random.default_rng([99, 100, 2])
    bx, by = bgdge_sample(truth, rng, size=100)
    r = lrt_independence(BivDataset(bx, by), fast_sim_config())
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_small_sample_warning():
    d = BivDataset(np.array([0, 1, 2]), np.array([1, 0, 2]))
    with pytest.warns(UserWarning, match="small sample"):
        lrt_independence(d, fast_sim_config())


# ---------------------------------------------------------------------------
# univariate goodness of fit


def test_gof_uni_published_convention(football):
    g1 = gof_chisq_uni(football.x, UgdgeParams.from_values(4.6587, 0.2618, 0.9987),
                       pool_min=0.0, tail="none")
    g2 = gof_chisq_uni(football.y, UgdgeParams.from_values(6.8029, 0.1683, 0.3288),
                       pool_min=0.0, tail="none")
    assert g1.statistic == pytest.approx(6.1486, abs=2e-4)
    assert g2.statistic == pytest.approx(0.6853, abs=2e-4)
    assert g1.labels == ("0", "1", "2", "3")
    assert g1.df == 1 and g2.df == 1  # 4 cells - 1 - 3 params, floored at 1


def test_gof_uni_tail_cell_sums_to_sample_size(football):
    fitted = UgdgeParams.from_values(4.6587, 0.2618, 0.9987)
    g = gof_chisq_uni(football.x, fitted, pool_min=0.0, tail="cell")
    total = sum(e for _, e, _ in g.cells)
    assert total == pytest.approx(len(football.x), rel=1e-9)
    assert g.labels[-1].startswith(">")


def test_gof_uni_pooling_merges_sparse_tail():
    x = np.array([0] * 30 + [1] * 12 + [2] * 3 + [5])
    fitted = UgdgeParams.from_values(1.0, 0.3, 1.0)
    g = gof_chisq_uni(x, fitted, pool_min=3.0, tail="cell")
    assert any(pooled for _, _, pooled in g.cells)
    assert "+" in g.labels[-1]
    merged = gof_chisq_uni(x, fitted, pool_min=0.0, tail="cell")
    assert len(g.cells) < len(merged.cells)
    assert sum(o for o, _, _ in g.cells) == x.size


def test_gof_uni_insufficient_cells():
    x = np.zeros(20, dtype=int)
    fitted = UgdgeParams.from_values(1.0, 0.3, 1.0)
    with pytest.raises(ValueError, match="insufficient cells"):
        gof_chisq_uni(x, fitted, pool_min=50.0)


def test_gof_uni_tail_validation(football):
    with pytest.raises(ValueError):
        gof_chisq_uni(football.x, UgdgeParams.from_values(1.0, 0.3, 1.0), tail="fold")


def test_gof_uni_detects_wrong_model():
    rng = np.random.default_rng(21)
    x = ugdge_sample(UgdgeParams.from_values(6.0, 0.6, 1.0), rng, size=400)
    g = gof_chisq_uni(x, UgdgeParams.from_values(0.5, 0.2, 1.0))
    assert g.p_value < 1e-6


def test_gof_uni_accepts_true_model():
    truth = UgdgeParams.from_values(2.0, 0.3, 0.5)
    rng = np.random.default_rng(22)
    x = ugdge_sample(truth, rng, size=400)
    g = gof_chisq_uni(x, truth, n_params=0)
    assert g.p_value > 0.01


# ---------------------------------------------------------------------------
# bivariate goodness of fit


PUBLISHED_BIV = BgdgeParams.from_values(4.5519, 0.2570, 8.3892, 0.2250, 0.9211)


def test_gof_biv_plain_rectangle_regression(football):
    g = gof_chisq_biv(football, PUBLISHED_BIV, pool_min=0.0, fold_tail=False)
    assert g.statistic == pytest.approx(40.47384020, rel=1e-6)
    assert len(g.cells) == 16
    assert g.df == 10  # 16 - 1 - 5
    assert g.labels[0] == "0,0" and g.labels[-1] == "3,3"


def test_gof_biv_folded_tail_regression(football):
    g = gof_chisq_biv(football, PUBLISHED_BIV, pool_min=0.0, fold_tail=True)
    assert g.statistic == pytest.approx(25.01790391, rel=1e-6)
    total = sum(e for _, e, _ in g.cells)
    assert total == pytest.approx(len(football), rel=1e-9)


def test_gof_biv_default_pooling_regression(football):
    g = gof_chisq_biv(football, PUBLISHED_BIV)
    assert g.statistic == pytest.approx(10.02347844, rel=1e-6)
    assert g.df == 8
    assert sum(o for o, _, _ in g.cells) == len(football)


def test_gof_biv_df_override(football):
    g = gof_chisq_biv(football, PUBLISHED_BIV, pool_min=0.0, df_override=9)
    assert g.df == 9
    assert g.p_value == pytest.approx(chi2_sf(g.statistic, 9), rel=1e-12)
    with pytest.raises(ValueError):
        gof_chisq_biv(football, PUBLISHED_BIV, df_override=0)


def test_gof_biv_at_own_mle_regression(football):
    # The likelihood maximizer is not the chi-square minimizer on this data:
    # the published near-independence point scores better per cell.
    fitted = BgdgeParams.from_values(
        2.648139037, 0.2040633934, 6.782316251, 0.1603608612, 0.2725069821
    )
    g = gof_chisq_biv(football, fitted)
    assert g.statistic == pytest.approx(19.95545243, rel=1e-6)
    assert g.df == 9


def test_gof_biv_accepts_true_model():
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    rng = np.random.default_rng(24)
    bx, by = bgdge_sample(truth, rng, size=500)
    g = gof_chisq_biv(BivDataset(bx, by), truth, n_params=0)
    assert g.p_value > 0.01


def test_gof_biv_detects_wrong_model():
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    rng = np.random.default_rng(23)
    bx, by = bgdge_sample(truth, rng, size=500)
    wrong = BgdgeParams.from_values(8.0, 0.6, 0.5, 0.1, 1.0)
    g = gof_chisq_biv(BivDataset(bx, by), wrong)
    assert g.p_value < 1e-6


def test_df_floor_at_one():
    x = np.array([0] * 10 + [1] * 8)
    g = gof_chisq_uni(x, UgdgeParams.from_values(1.0, 0.35, 1.0), pool_min=0.0, tail="none")
    assert g.df == 1  # 2 cells - 1 - 3 params floors at 1
