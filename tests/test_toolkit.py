"""Dataset I/O, report formatting, the command-line interface, and the package's exports."""

import importlib
import inspect
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdge import (
    BgdgeParams,
    BivDataset,
    DataFormatError,
    SimSpec,
    UgdgeParams,
    bgdge_cdf,
    bgdge_pmf,
    bundled_data_path,
    fit_biv_mle,
    format_report,
    read_dataset,
    run_simulation,
    ugdge_cdf,
    ugdge_pmf,
    write_dataset,
    write_report,
)
from gdge.cli import main
from gdge.simulate import fast_sim_config


# ---------------------------------------------------------------------------
# exports


@pytest.mark.parametrize(
    "module", ["gdge", *(f"gdge.{m}" for m in ("dge", "univariate", "bivariate", "fitting", "inference", "io",
                                                "simulate", "cli"))])
def test_every_exported_name_resolves(module):
    # a stale name in an __all__ breaks ``from gdge import *`` and every tool that looks the names up
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    # the package exports the modules' __all__ lists, so a public function or class left out of its
    # module's list would drop out of ``gdge`` and out of every tool that wraps the exported functions
    defined = [name for name, obj in vars(mod).items() if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == mod.__name__]
    assert [name for name in defined if name not in mod.__all__] == []


# ---------------------------------------------------------------------------
# dataset I/O


@given(st.lists(st.integers(0, 40), min_size=1, max_size=30))
def test_uni_round_trip(tmp_path_factory, xs):
    path = tmp_path_factory.mktemp("io") / "u.csv"
    write_dataset(path, xs)
    back = read_dataset(path, mode="uni")
    assert back.dtype == np.int64
    assert list(back) == xs


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=30))
def test_biv_round_trip(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("io") / "b.csv"
    write_dataset(path, BivDataset.from_pairs(pairs))
    back = read_dataset(path, mode="biv")
    assert [(int(a), int(b)) for a, b in zip(back.x, back.y)] == pairs


def test_write_accepts_pair_of_sequences(tmp_path):
    path = tmp_path / "pair.csv"
    write_dataset(path, (np.array([1, 2]), np.array([0, 3])), comments=("made up",))
    text = path.read_text()
    assert text.startswith("# made up\nx,y\n")
    back = read_dataset(path)
    assert isinstance(back, BivDataset)
    with pytest.raises(ValueError):
        write_dataset(path, (np.array([1, 2]), np.array([0])))


def test_read_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# note\nx\n3\n-1\n")
    with pytest.raises(DataFormatError, match="line 4: negative entry -1"):
        read_dataset(bad)
    bad.write_text("x\n2.5\n")
    with pytest.raises(DataFormatError, match="line 2: non-integer entry '2.5'"):
        read_dataset(bad)
    bad.write_text("x,y\n1\n")
    with pytest.raises(DataFormatError, match="line 2: expected 2 column"):
        read_dataset(bad)
    bad.write_text("count\n1\n")
    with pytest.raises(DataFormatError, match="header must be 'x' or 'x,y'"):
        read_dataset(bad)


@pytest.mark.parametrize("entry", ["1_0", "\u0663"])
def test_read_takes_only_decimal_integers(tmp_path, capsys, entry):
    # `int` alone reads "1_0" as 10 and the Arabic-Indic digit three as 3
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x,y\n1,2\n3,{entry}\n", encoding="utf-8")
    message = f"line 3: non-integer entry {entry!r}"
    with pytest.raises(DataFormatError) as info:
        read_dataset(bad)
    assert str(info.value) == message
    assert main(["fit", "--biv", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_read_keeps_signed_entries(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x\n+4\n 0 \n-0\n")
    assert read_dataset(f).tolist() == [4, 0, 0]
    f.write_text("x\n+4\n-3\n")
    with pytest.raises(DataFormatError) as info:
        read_dataset(f)
    assert str(info.value) == "line 3: negative entry -3"


def test_read_mode_mismatch_and_empty(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x,y\n1,2\n")
    with pytest.raises(DataFormatError, match="bivariate but univariate was requested"):
        read_dataset(f, mode="uni")
    f.write_text("x\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        read_dataset(f)
    f.write_text("# only comments\n")
    with pytest.raises(DataFormatError, match="no header"):
        read_dataset(f)
    with pytest.raises(ValueError):
        read_dataset(f, mode="paired")


@pytest.mark.parametrize("text, want", [("x,y\n1,2\n3,4\n", [(1, 2), (3, 4)]), ("# note\nx\n5\n", [5])])
def test_read_skips_a_byte_order_mark(tmp_path, capsys, text, want):
    # spreadsheets' "CSV UTF-8" starts the file with EF BB BF; the header was read as '\ufeffx,y'
    f = tmp_path / "bom.csv"
    f.write_bytes(b"\xef\xbb\xbf" + text.encode())
    back = read_dataset(f)
    assert (list(zip(back.x.tolist(), back.y.tolist())) if isinstance(back, BivDataset) else back.tolist()) == want
    if isinstance(back, BivDataset):
        rc, out = run_cli(capsys, ["gof", str(f), "--biv", "--params", "2,0.25,2,0.25,0.25"])
        assert rc == 0 and "m = 2" in out


def test_read_skips_comments_and_blanks(tmp_path):
    f = tmp_path / "c.csv"
    f.write_text("# a\n\nx\n# mid\n3\n\n1\n")
    assert list(read_dataset(f)) == [3, 1]


def test_bundled_match_data(football):
    assert len(football) == 26
    table = football.contingency_table()
    assert table.sum() == 26
    assert list(table.sum(axis=1)) == [6, 14, 2, 4]
    assert list(table.sum(axis=0)) == [3, 13, 7, 3]
    assert bundled_data_path().endswith("seriea.csv")


# ---------------------------------------------------------------------------
# report formatting


def test_format_report_value_rendering():
    text = format_report(
        [
            ("flag", True),
            ("other", False),
            ("count", 26),
            ("ll", -63.936131254321987),
            ("missing", math.nan),
            ("name", "em+polish"),
        ]
    )
    assert text == (
        "flag = true\nother = false\ncount = 26\n"
        "ll = -63.93613125\nmissing = nan\nname = em+polish\n"
    )


def test_write_report_to_file(tmp_path):
    out = tmp_path / "r.txt"
    text = write_report([("a", 1.5)], out=out)
    assert out.read_text() == text == "a = 1.5\n"
    assert write_report([("a", 1.5)]) == text


# ---------------------------------------------------------------------------
# CLI: fits and reports


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_cli_fit_uni_report(capsys):
    rc, out = run_cli(capsys, ["fit", "--uni", bundled_data_path(), "--column", "x"])
    assert rc == 0
    keys = [line.split(" = ")[0] for line in out.strip().splitlines()]
    assert keys[:5] == ["command", "mode", "data", "m", "method"]
    for want in ("loglik", "est_alpha", "se_alpha", "ci95_alpha_lo", "est_theta", "notes"):
        assert want in keys
    assert "loglik = -33.41928189" in out
    assert "converged = true" in out


def test_cli_fit_is_deterministic(capsys):
    argv = ["fit", "--biv", bundled_data_path()]
    rc1, out1 = run_cli(capsys, argv)
    rc2, out2 = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "est_theta = 0.272506949\n" in out1  # 0.2725069490, the certified optimum


def test_cli_fit_gof_block(capsys):
    rc, out = run_cli(capsys, ["fit", "--biv", bundled_data_path(), "--gof", "--pool-min", "0"])
    assert rc == 0
    assert "gof_statistic = 26.48888698" in out
    assert "gof_cells = 16" in out
    assert "gof_cell_16_label = 3,3" in out


def test_cli_fit_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "fit.txt"
    rc, out = run_cli(capsys, ["fit", "--uni", bundled_data_path(), "--column", "y",
                               "--out", str(out_path)])
    assert rc == 0
    assert out == ""
    assert "loglik = -31.88320652" in out_path.read_text()


def test_cli_fit_nonconvergence_exit_code(capsys, tmp_path):
    out_path = tmp_path / "nc.txt"
    rc, _ = run_cli(capsys, [
        "fit", "--uni", bundled_data_path(), "--column", "x",
        "--init", "0.2,0.9,0.05", "--no-polish", "--max-iter", "1",
        "--out", str(out_path),
    ])
    assert rc == 4
    text = out_path.read_text()
    assert "converged = false" in text
    assert "stop_reason = max_iter" in text


def test_cli_fit_max_iter_caps_the_gradient_search(capsys, tmp_path):
    out_path = tmp_path / "cap.txt"
    rc, _ = run_cli(capsys, ["fit", "--biv", bundled_data_path(), "--max-iter", "1", "--out", str(out_path)])
    assert rc == 4
    text = out_path.read_text()
    assert "converged = false" in text
    assert "stop_reason = max_iter" in text


def test_cli_input_errors(capsys, tmp_path):
    assert main(["fit", "--uni", str(tmp_path / "missing.csv")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text("x\n-3\n")
    assert main(["fit", "--uni", str(bad)]) == 2
    capsys.readouterr()
    uni = tmp_path / "u.csv"
    uni.write_text("x\n1\n2\n")
    assert main(["fit", "--biv", str(uni)]) == 2
    capsys.readouterr()
    assert main(["fit", "--biv", bundled_data_path(), "--column", "y"]) == 2
    capsys.readouterr()
    assert main(["gof", "--uni", "--params", "2,0.3,1.5", str(uni)]) == 2  # theta > 1
    capsys.readouterr()
    assert main(["fit", "--uni", str(uni), "--no-polish"]) == 2  # requires --init
    capsys.readouterr()
    assert main(["fit", "--biv", bundled_data_path(), "--tol", "1e-1"]) == 2  # EM-only, needs --no-polish
    capsys.readouterr()
    params = "2,0.25,2,0.25,0.25"
    assert main(["gof", "--biv", "--params", params, bundled_data_path(), "--df", "0"]) == 2
    capsys.readouterr()
    assert main(["fit", "--biv", bundled_data_path(), "--gof", "--df", "-1"]) == 2
    capsys.readouterr()
    for pool_min in ("nan", "inf"):
        assert main(["gof", "--biv", "--params", params, bundled_data_path(), "--pool-min", pool_min]) == 2
        capsys.readouterr()
    assert main(["fit", "--uni", str(uni), "--gof", "--pool-min", "nan"]) == 2
    capsys.readouterr()
    # the flags of the other mode: rejected by fit as by gof
    assert main(["fit", "--uni", bundled_data_path(), "--gof", "--df", "5"]) == 2
    capsys.readouterr()
    assert main(["fit", "--biv", bundled_data_path(), "--gof", "--tail", "none"]) == 2
    capsys.readouterr()
    assert main(["gof", "--uni", "--params", "2,0.3,0.5", bundled_data_path(), "--df", "5"]) == 2
    capsys.readouterr()
    assert main(["gof", "--biv", "--params", params, bundled_data_path(), "--tail", "none"]) == 2
    capsys.readouterr()
    # a negative seed is an input error, not a numerical failure of the generator
    assert main(["sample", "--uni", "--params", "2,0.25,0.5", "--count", "3", "--seed", "-1",
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()
    assert main(["simulate", "--reps", "1", "--sizes", "25", "--seed", "-5"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(capsys, tmp_path):
    data = tmp_path / "far.csv"
    data.write_text("x\n0\n0\n1\n5\n")
    rc = main(["gof", "--uni", "--params", "1,1e-6,1", str(data)])
    capsys.readouterr()
    assert rc == 3


def test_cli_argparse_errors_exit_two(capsys):
    assert main(["fit", "--uni"]) == 2  # missing positional
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# CLI: tests and goodness of fit


def test_cli_test_subcommand(capsys):
    rc, out = run_cli(capsys, ["test", bundled_data_path()])
    assert rc == 0
    assert "test_1 = equal_marginals" in out
    assert "test_2 = independence" in out
    assert "equal_statistic = 2.685581136" in out
    assert "indep_p_value = 0.04141942977" in out
    rc, out = run_cli(capsys, ["test", bundled_data_path(), "--test", "equal"])
    assert rc == 0
    assert "test = equal_marginals" in out
    assert "statistic = 2.685581136" in out
    assert "indep" not in out


def test_cli_test_both_fits_the_full_model_once(capsys, monkeypatch):
    import gdge.inference as inference

    calls = []
    fit = inference._fit
    monkeypatch.setattr(inference, "_fit", lambda *a, **k: calls.append(k) or fit(*a, **k))
    rc, both = run_cli(capsys, ["test", bundled_data_path(), "--test", "both"])
    # the equal-margins null is the tied fit, the other the full one
    assert rc == 0 and [k.get("tied", False) for k in calls] == [True, False]
    # the independence test run alone fits afresh and reports the same lines
    rc, alone = run_cli(capsys, ["test", bundled_data_path(), "--test", "indep"])
    assert rc == 0 and [k.get("tied", False) for k in calls] == [True, False, False]
    shared = both.split("test_2 = independence\n")[1]
    assert shared.replace("indep_", "") == alone.split("test = independence\n")[1]


def test_cli_gof_biv(capsys):
    rc, out = run_cli(capsys, [
        "gof", "--biv", "--params", "4.5519,0.2570,8.3892,0.2250,0.9211",
        "--pool-min", "0", bundled_data_path(),
    ])
    assert rc == 0
    assert "gof_statistic = 25.01790391" in out
    assert "gof_cells = 16" in out


# ---------------------------------------------------------------------------
# CLI: tables and samples


def test_cli_table_horizon_zero(capsys):
    rc, out = run_cli(capsys, ["table", "--uni", "--params", "1.5,0.3679,0.5", "--horizon", "0"])
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "x,pmf,cdf"
    assert len(lines) == 2
    assert lines[1].startswith("0,")


def test_cli_table_biv_header(capsys):
    rc, out = run_cli(capsys, ["table", "--biv", "--params", "2,0.25,2,0.25,0.5", "--horizon", "2"])
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "x,y,pmf,cdf"
    assert len(lines) == 1 + 9  # 3x3 grid


@pytest.mark.parametrize("mode, record, pmf, cdf, params", [
    ("--uni", UgdgeParams, ugdge_pmf, ugdge_cdf, "2.648,0.204,0.2725"),
    ("--biv", BgdgeParams, bgdge_pmf, bgdge_cdf, "2.648,0.204,6.78,0.16,0.2725"),
], ids=["uni", "biv"])
def test_cli_table_equals_the_scalar_evaluators_per_cell(capsys, mode, record, pmf, cdf, params):
    rc, out = run_cli(capsys, ["table", mode, "--params", params, "--horizon", "3"])
    assert rc == 0
    law = record.from_values(*map(float, params.split(",")))
    cells = itertools.product(range(4), repeat=len(law.names) // 2)  # x, or (x, y) row-major
    want = [",".join([*map(str, cell), f"{pmf(law, *cell):.10g}", f"{cdf(law, *cell):.10g}"]) for cell in cells]
    assert out.splitlines()[2:] == want


def test_cli_sample_count_zero(capsys, tmp_path):
    out_path = tmp_path / "s0.csv"
    rc, _ = run_cli(capsys, ["sample", "--uni", "--params", "2,0.3,0.5", "--count", "0",
                             "--seed", "5", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[-1] == "x"
    assert any(l.startswith("# seed: 5") for l in lines)


def test_cli_sample_seed_reproducibility(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sample", "--biv", "--params", "2,0.25,2,0.25,0.25", "--count", "50", "--seed", "99"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_sample_round_trip_recovers_truth(capsys, tmp_path):
    path = tmp_path / "big.csv"
    rc, _ = run_cli(capsys, ["sample", "--biv", "--params", "2.0,0.25,2.0,0.25,0.25",
                             "--count", "1000", "--seed", "31", "--out", str(path)])
    assert rc == 0
    data = read_dataset(path, mode="biv")
    rep = fit_biv_mle(data, fast_sim_config(), compute_se=False)
    assert rep.converged
    est = rep.estimates
    assert abs(est[0] - 2.0) < 0.75 and abs(est[2] - 2.0) < 0.75
    assert abs(est[1] - 0.25) < 0.08 and abs(est[3] - 0.25) < 0.08
    assert abs(est[4] - 0.25) < 0.15


# ---------------------------------------------------------------------------
# simulation study plumbing


def test_cli_simulate_tiny(capsys):
    rc, out = run_cli(capsys, ["simulate", "--reps", "2", "--sizes", "12", "--seed", "7"])
    assert rc == 0
    assert "command = simulate" in out
    assert "init_rule = theta-one-fit+theta-grid" in out
    assert "e_step" not in out  # the study fits by maximum likelihood and runs no E-step
    assert "ae_n12_alpha1 = " in out
    assert "excluded_n12 = 0" in out


def test_sim_spec_validation():
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    with pytest.raises(ValueError):
        SimSpec(truth, (25,), replications=0, seed=1)
    with pytest.raises(ValueError):
        SimSpec(truth, (1,), replications=5, seed=1)
    with pytest.raises(ValueError):
        SimSpec(truth, (), replications=5, seed=1)
    spec = SimSpec(truth, [10.0, 25], replications=5, seed=1)
    assert spec.sample_sizes == (10, 25)


def test_run_simulation_is_deterministic():
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    spec = SimSpec(truth, (15,), replications=3, seed=77)
    t1 = run_simulation(spec)
    t2 = run_simulation(spec)
    assert t1.report_pairs() == t2.report_pairs()
    assert t1.excluded[15] == 0
    assert format_report(t1.report_pairs()) == format_report(t2.report_pairs())


def test_run_simulation_counts_excluded(monkeypatch):
    import gdge.simulate as sim

    real = sim.fit_biv_mle
    calls = {"n": 0}

    def flaky(data, cfg, compute_se):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ValueError("synthetic failure")
        return real(data, cfg, compute_se=compute_se)

    monkeypatch.setattr(sim, "fit_biv_mle", flaky)
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    table = run_simulation(SimSpec(truth, (15,), replications=3, seed=77))
    assert table.excluded[15] == 1
    assert calls["n"] == 3


def test_run_simulation_counts_exclusions_by_reason(monkeypatch):
    import gdge.simulate as sim

    real = sim.fit_biv_mle
    calls = {"n": 0}

    def flaky(data, cfg, compute_se):
        calls["n"] += 1
        if calls["n"] == 1:
            raise FloatingPointError("synthetic failure")
        rep = real(data, cfg, compute_se=compute_se)
        return rep if calls["n"] == 2 else replace(rep, converged=False)

    monkeypatch.setattr(sim, "fit_biv_mle", flaky)
    truth = BgdgeParams.from_values(2.0, 0.25, 2.0, 0.25, 0.25)
    table = run_simulation(SimSpec(truth, (15,), replications=4, seed=77))
    assert table.excluded[15] == 3
    assert table.excluded_by[15] == {"error": 1, "nonconverged": 2}
    pairs = dict(table.report_pairs())
    assert pairs["excluded_error_n15"] == 1 and pairs["excluded_nonconverged_n15"] == 2
