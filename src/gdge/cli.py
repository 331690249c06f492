"""Command-line front end.

Subcommands: ``fit`` (maximum likelihood, optional goodness-of-fit block),
``test`` (likelihood-ratio tests on paired data), ``gof`` (chi-square at
given parameters), ``table`` (pmf/cdf values for plotting), ``sample``
(seeded dataset generation), and ``simulate`` (replicated bias/MSE study).

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 fit did not
converge (the report is still written).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import replace

import numpy as np

from .bivariate import BgdgeParams, bgdge_cdf, bgdge_pmf, bgdge_sample
from .dge import SeriesCapError
from .fitting import (
    BivDataset,
    EmConfig,
    FitReport,
    em_fit_biv,
    em_fit_uni,
    fit_biv_mle,
    fit_uni_mle,
)
from .inference import (
    _test_both,
    gof_chisq_biv,
    gof_chisq_uni,
    test_equal_marginals,
    test_independence,
)
from .io import DataFormatError, read_dataset, write_dataset, write_report
from .simulate import SimSpec, fast_sim_config, run_simulation
from .univariate import UgdgeParams, ugdge_cdf, ugdge_pmf, ugdge_sample

__all__ = ["main"]

_MAX_ITER_HELP = "iteration cap of each trust-region search, or of EM with fit --no-polish"
_TOL_HELP = "relative log-likelihood tolerance of EM with --no-polish (ML fits stop on the gradient test)"


def _order(law) -> str:
    """The parameter names of the record ``law``, comma-separated in the order of its values."""
    return ",".join(law.names)


class _InputError(Exception):
    """Bad command-line input or dataset shape; maps to exit code 2."""


# ---------------------------------------------------------------------------
# argument helpers


def _parse_floats(text: str, n: int, what: str):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != n:
        raise _InputError(f"{what} needs {n} comma-separated values, got {len(parts)}")
    try:
        return tuple(float(s) for s in parts)
    except ValueError:
        raise _InputError(f"{what} has a non-numeric entry in {text!r}") from None


def _law(args):
    """The parameter record of the ``--uni`` or ``--biv`` model."""
    return BgdgeParams if args.biv else UgdgeParams


def _params(text: str, law, what: str = "--params"):
    """The parameter record ``law`` from the comma-separated values of ``text``, in the order of its names."""
    vals = _parse_floats(text, len(law.names), f"{what} ({_order(law)})")
    try:
        return law.from_values(*vals)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _load(path: str, args):
    """Read the dataset and coerce it to the requested mode."""
    data = read_dataset(path, mode="auto")
    if args.biv:
        if not isinstance(data, BivDataset):
            raise _InputError(f"{path} is univariate but --biv was requested")
        if getattr(args, "column", None) not in (None, "x"):
            raise _InputError("--column only applies to --uni")
        return data
    if isinstance(data, BivDataset):
        column = getattr(args, "column", None) or "x"
        return data.x if column == "x" else data.y
    if getattr(args, "column", None) == "y":
        raise _InputError(f"{path} has a single column; --column y is unavailable")
    return data


def _load_biv(path: str) -> BivDataset:
    data = read_dataset(path, mode="auto")
    if not isinstance(data, BivDataset):
        raise _InputError(f"{path} is univariate; this command needs x,y pairs")
    return data


def _make_cfg(args, cfg: EmConfig) -> EmConfig:
    """``cfg`` with the ``--max-iter`` and ``--tol`` options of ``args`` applied."""
    if getattr(args, "max_iter", None) is not None:
        if args.max_iter < 1:
            raise _InputError("--max-iter must be >= 1")
        cfg = replace(cfg, max_iter=args.max_iter)
    if getattr(args, "tol", None) is not None:
        if not args.tol > 0:
            raise _InputError("--tol must be positive")
        cfg = replace(cfg, ll_rel_tol=args.tol)
    return cfg


def _check_gof_flags(args) -> None:
    """Reject a ``--df`` below 1 or without ``--biv``, a non-finite ``--pool-min`` and a ``--tail`` with ``--biv``."""
    if args.df is not None and args.df < 1:
        raise _InputError("--df must be >= 1")
    if not math.isfinite(args.pool_min):
        raise _InputError("--pool-min must be finite")
    if args.df is not None and not args.biv:
        raise _InputError("--df only applies to --biv")
    if args.tail != "cell" and args.biv:
        raise _InputError("--tail only applies to --uni")


def _emit(pairs, out):
    text = write_report(pairs, out)
    if out is None:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# report blocks


def _fit_pairs(rep: FitReport):
    pairs = [
        ("method", rep.method),
        ("iterations", rep.iters),
        ("converged", rep.converged),
        ("stop_reason", rep.stop_reason),
        ("loglik", rep.loglik),
    ]
    for i, name in enumerate(rep.param_names):
        pairs.append((f"est_{name}", rep.estimates[i]))
        pairs.append((f"se_{name}", rep.std_errors[i]))
        pairs.append((f"ci95_{name}_lo", rep.ci95[i][0]))
        pairs.append((f"ci95_{name}_hi", rep.ci95[i][1]))
    if rep.notes:
        pairs.append(("notes", "; ".join(rep.notes)))
    return pairs


def _test_pairs(result, prefix: str = ""):
    pairs = [
        (f"{prefix}statistic", result.statistic),
        (f"{prefix}reference", result.reference),
        (f"{prefix}p_value", result.p_value),
        (f"{prefix}ll_full", result.ll_full),
        (f"{prefix}ll_null", result.ll_null),
    ]
    for role, values in (("full", result.full_params), ("null", result.null_params)):
        pairs.extend((f"{prefix}{role}_{name}", value) for name, value in zip(BgdgeParams.names, values))
    return pairs


def _gof(args, data, params):
    """The report block of `gof_chisq_biv` or `gof_chisq_uni` of ``data`` at ``params``, with the GOF options."""
    if args.biv:
        gof = gof_chisq_biv(data, params, pool_min=args.pool_min, df_override=args.df)
    else:
        gof = gof_chisq_uni(data, params, pool_min=args.pool_min, tail=args.tail)
    pairs = [
        ("gof_statistic", gof.statistic),
        ("gof_df", gof.df),
        ("gof_p_value", gof.p_value),
        ("gof_cells", len(gof.cells)),
    ]
    for i, ((obs, exp, pooled), label) in enumerate(zip(gof.cells, gof.labels), start=1):
        pairs.append((f"gof_cell_{i}_label", label))
        pairs.append((f"gof_cell_{i}_observed", obs))
        pairs.append((f"gof_cell_{i}_expected", exp))
        if pooled:
            pairs.append((f"gof_cell_{i}_pooled", True))
    return pairs


# ---------------------------------------------------------------------------
# subcommands


def _head(command: str, args, data):
    """The first lines of a ``fit`` or ``gof`` report."""
    return [("command", command), ("mode", "biv" if args.biv else "uni"), ("data", args.data), ("m", len(data))]


def _cmd_fit(args) -> int:
    cfg = _make_cfg(args, EmConfig())
    _check_gof_flags(args)
    if args.no_polish and args.init is None:
        raise _InputError("--no-polish needs --init to supply the starting point")
    if args.tol is not None and not args.no_polish:
        raise _InputError("--tol applies only to EM with --no-polish (ML fits stop on the gradient test)")
    data = _load(args.data, args)
    init = _params(args.init, _law(args), "--init") if args.init else None
    if args.no_polish:
        rep = (em_fit_biv if args.biv else em_fit_uni)(data, init, cfg)
    else:
        rep = (fit_biv_mle if args.biv else fit_uni_mle)(data, cfg, init=init)
    pairs = _head("fit", args, data) + _fit_pairs(rep)
    if args.gof:
        pairs.extend(_gof(args, data, rep.params))
    _emit(pairs, args.out)
    return 0 if rep.converged else 4


def _cmd_test(args) -> int:
    cfg = _make_cfg(args, EmConfig())
    data = _load_biv(args.data)
    pairs = [("command", "test"), ("data", args.data), ("m", len(data))]
    if args.test == "both":
        equal, indep = _test_both(data, cfg)
        pairs.append(("test_1", "equal_marginals"))
        pairs.extend(_test_pairs(equal, "equal_"))
        pairs.append(("test_2", "independence"))
        pairs.extend(_test_pairs(indep, "indep_"))
    elif args.test == "equal":
        pairs.append(("test", "equal_marginals"))
        pairs.extend(_test_pairs(test_equal_marginals(data, cfg)))
    else:
        pairs.append(("test", "independence"))
        pairs.extend(_test_pairs(test_independence(data, cfg)))
    _emit(pairs, args.out)
    return 0


def _cmd_gof(args) -> int:
    _check_gof_flags(args)
    data = _load(args.data, args)
    _emit(_head("gof", args, data) + _gof(args, data, _params(args.params, _law(args))), args.out)
    return 0


def _cmd_table(args) -> int:
    if args.horizon < 0:
        raise _InputError("--horizon must be >= 0")
    law = _law(args)
    params = _params(args.params, law)
    axes = "xy" if args.biv else "x"
    grid = range(args.horizon + 1)
    mesh = np.ix_(*(np.array(grid) for _ in axes))
    pm = (bgdge_pmf if args.biv else ugdge_pmf)(params, *mesh)
    cd = (bgdge_cdf if args.biv else ugdge_cdf)(params, *mesh)
    lines = [f"# params: {_order(law)} = {args.params}", f"{','.join(axes)},pmf,cdf"]
    lines += [f"{','.join(map(str, cell))},{pm[cell]:.10g},{cd[cell]:.10g}"
              for cell in itertools.product(grid, repeat=len(axes))]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_sample(args) -> int:
    if args.count < 0:
        raise _InputError("--count must be >= 0")
    if args.seed < 0:
        raise _InputError("--seed must be >= 0")
    law = _law(args)
    params = _params(args.params, law)
    drawn = (bgdge_sample if args.biv else ugdge_sample)(params, np.random.default_rng(args.seed), size=args.count)
    comments = (f"params: {_order(law)} = {args.params}", f"seed: {args.seed}", f"count: {args.count}")
    write_dataset(args.out, drawn, comments=comments)
    return 0


def _cmd_simulate(args) -> int:
    truth = _params(args.truth, BgdgeParams, "--truth")
    sizes = []
    for part in args.sizes.split(","):
        part = part.strip()
        try:
            sizes.append(int(part))
        except ValueError:
            raise _InputError(f"--sizes has a non-integer entry {part!r}") from None
    cfg = _make_cfg(args, fast_sim_config())
    try:
        spec = SimSpec(
            true_params=truth,
            sample_sizes=tuple(sizes),
            replications=args.reps,
            seed=args.seed,
            cfg=cfg,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    table = run_simulation(spec, progress=args.progress)
    pairs = [("command", "simulate")] + table.report_pairs()
    _emit(pairs, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_mode_flags(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--uni", action="store_true", help="univariate model")
    group.add_argument("--biv", action="store_true", help="bivariate model")


def _add_gof_flags(sp):
    sp.add_argument("--pool-min", type=float, default=1.0, metavar="E",
                    help="pool tail cells until the last expected count reaches E (default 1.0)")
    sp.add_argument("--tail", choices=("cell", "none"), default="cell",
                    help="univariate: add a tail cell for the unobserved upper range (default cell)")
    sp.add_argument("--df", type=int, default=None,
                    help="bivariate: override the chi-square degrees of freedom")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdge",
        description="Geometric-compounded discrete generalized exponential models: "
        "fitting, testing, tables, sampling, simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    orders = f"{_order(UgdgeParams)} or {_order(BgdgeParams)}"

    sp = sub.add_parser("fit", help="maximum-likelihood fit of a dataset")
    _add_mode_flags(sp)
    sp.add_argument("data", help="CSV dataset (header 'x' or 'x,y')")
    sp.add_argument("--column", choices=("x", "y"), default=None,
                    help="which column of a paired file to fit (--uni only)")
    sp.add_argument("--init", metavar="VALS", default=None,
                    help=f"starting point, comma-separated ({orders})")
    sp.add_argument("--no-polish", action="store_true",
                    help="plain EM from --init, without the multi-start gradient search")
    sp.add_argument("--max-iter", type=int, default=None, help=_MAX_ITER_HELP)
    sp.add_argument("--tol", type=float, default=None, help=_TOL_HELP)
    sp.add_argument("--gof", action="store_true", help="append a chi-square goodness-of-fit block")
    _add_gof_flags(sp)
    sp.add_argument("--out", default=None, help="write the report here instead of stdout")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("test", help="likelihood-ratio tests on paired data")
    sp.add_argument("data", help="CSV dataset with header 'x,y'")
    sp.add_argument("--test", choices=("equal", "indep", "both"), default="both",
                    help="equal marginal laws, independence, or both (default)")
    sp.add_argument("--max-iter", type=int, default=None, help=_MAX_ITER_HELP)
    sp.add_argument("--out", default=None, help="write the report here instead of stdout")
    sp.set_defaults(func=_cmd_test)

    sp = sub.add_parser("gof", help="chi-square goodness of fit at given parameters")
    _add_mode_flags(sp)
    sp.add_argument("data", help="CSV dataset")
    sp.add_argument("--column", choices=("x", "y"), default=None,
                    help="which column of a paired file to use (--uni only)")
    sp.add_argument("--params", required=True, metavar="VALS",
                    help=f"model parameters, comma-separated ({orders})")
    _add_gof_flags(sp)
    sp.add_argument("--out", default=None, help="write the report here instead of stdout")
    sp.set_defaults(func=_cmd_gof)

    sp = sub.add_parser("table", help="pmf/cdf table for plotting")
    _add_mode_flags(sp)
    sp.add_argument("--params", required=True, metavar="VALS",
                    help=f"model parameters, comma-separated ({orders})")
    sp.add_argument("--horizon", type=int, default=20,
                    help="largest value tabulated (default 20)")
    sp.add_argument("--out", default=None, help="write the table here instead of stdout")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("sample", help="draw a seeded dataset")
    _add_mode_flags(sp)
    sp.add_argument("--params", required=True, metavar="VALS",
                    help=f"model parameters, comma-separated ({orders})")
    sp.add_argument("--count", type=int, required=True, help="number of rows to draw")
    sp.add_argument("--seed", type=int, required=True, help="generator seed (recorded in the file)")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("simulate", help="replicated bias/MSE study of the bivariate fitter")
    sp.add_argument("--truth", default="2.0,0.25,2.0,0.25,0.25", metavar="VALS",
                    help=f"true parameters ({_order(BgdgeParams)})")
    sp.add_argument("--sizes", default="25,100", help="comma-separated sample sizes")
    sp.add_argument("--reps", type=int, default=200, help="replications per size (default 200)")
    sp.add_argument("--seed", type=int, default=20260822, help="master seed")
    sp.add_argument("--max-iter", type=int, default=None, help=_MAX_ITER_HELP)
    sp.add_argument("--progress", action="store_true", help="print progress to stdout")
    sp.add_argument("--out", default=None, help="write the report here instead of stdout")
    sp.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except (_InputError, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SeriesCapError, ArithmeticError, np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
