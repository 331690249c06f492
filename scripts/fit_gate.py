#!/usr/bin/env python3
"""Fit-by-fit record of the maximum-likelihood fitter and of EM, and a comparison of two records.

Without ``--compare``, fits the datasets of the replicated study and of the
boundary likelihood-ratio test and prints one JSON line per fit:

* ``study``: `fit_biv_mle` at the paper's truth, n = 25 and 100, data from
  ``default_rng([20260822, n, r])`` (as `run_simulation` draws them);
* ``margin_x``, ``margin_y``: `fit_uni_mle` on each coordinate of those data;
* ``em``: `em_fit_biv` with the default ``argmax`` E-step, from the truth on
  those data; its line also holds the estimates;
* ``equal``: the fits of `test_equal_marginals` on those data, the full fit
  with ``ll_null`` the equal-margins null's log-likelihood;
* ``boundary``: the full fit behind `test_independence` at the theta = 1 truth,
  n = 100, data from ``default_rng([99, 100, r])`` (as
  ``scripts/boundary_study.py`` draws them); ``ll_null`` is its theta = 1 fit.

Each line holds kind, n, r, loglik, converged, the search's iterations and
stop reason, the calls of the fit's likelihoods, `fitting._ll` and the
base-law `fitting._base_ll` (`_ll` alone in a tree without it), and the
parameter rows (points) those calls evaluated.

``--compare A B`` matches the fits of two records and prints how many end more
than 1e-12 lower or higher in B than in A, in ``loglik`` or, where both hold
it, ``ll_null``, which ones, how many lose (or gain) convergence, how many EM
endpoints move (any change of log-likelihood, iterations, stop reason or
estimates), and the total likelihood calls, parameter rows and iterations of
each, per kind (rows only where both records hold them).  It exits 1 when a
fit or a null ends more than 1e-12 lower in B or loses
convergence there.  ``--compare B`` takes the committed record
``scripts/fit_gate.jsonl`` as A, and ``--compare`` alone also takes the fits
of the source tree on the path, at ``--reps``, as B, so a change is checked
without a copy of its parent.  The committed record holds the default 200
replications; a change that moves it lists the moves and commits the new one.

    PYTHONPATH=src python scripts/fit_gate.py --compare
    PYTHONPATH=src python scripts/fit_gate.py > scripts/fit_gate.jsonl
    PYTHONPATH=src python scripts/fit_gate.py --compare parent.jsonl change.jsonl
"""

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from gdge import (BgdgeParams, BivDataset, bgdge_sample, em_fit_biv, fast_sim_config, fit_biv_mle, fit_uni_mle, fitting,
                  inference)

STUDY_TRUTH = (2.0, 0.25, 2.0, 0.25, 0.25)
BOUNDARY_TRUTH = (2.0, 0.25, 2.0, 0.25, 1.0)
STUDY_SEED, BOUNDARY_SEED = 20260822, 99
#: A fit "ends lower" or "higher" when its log-likelihoods differ by more than this.
LL_TOL = 1e-12
#: The committed record, at the default replications.
RECORD = Path(__file__).with_name("fit_gate.jsonl")


@contextlib.contextmanager
def counted():
    """Within the block, the likelihoods of a fit, `fitting._ll` and the base-law `fitting._base_ll`, are
    wrappers that count their calls and parameter rows into the box of two counts it yields; a tree without
    `_base_ll` has its `_ll` alone counted."""
    box, kernels = [0, 0], {name: getattr(fitting, name) for name in ("_ll", "_base_ll") if hasattr(fitting, name)}

    def wrap(kernel):
        def wrapper(cells, q):
            box[0] += 1
            box[1] += 1 if np.ndim(q) == 1 else len(q)
            return kernel(cells, q)

        return wrapper

    try:
        for name, kernel in kernels.items():
            setattr(fitting, name, wrap(kernel))
        yield box
    finally:
        for name, kernel in kernels.items():
            setattr(fitting, name, kernel)


def record(reps):
    """Yield one dict per fit."""
    with counted() as calls:
        yield from _records(reps, calls)


def _records(reps, calls):
    cfg = fast_sim_config()

    def run(kind, n, r, fit):
        calls[:] = 0, 0
        loglik, converged, iters, stop, extra = fit()
        return {"kind": kind, "n": n, "r": r, "loglik": loglik, "converged": converged, "iters": iters,
                "stop": stop, "calls": calls[0], "rows": calls[1], **extra}

    truth = BgdgeParams.from_values(*STUDY_TRUTH)
    for n in (25, 100):
        for r in range(reps):
            data = BivDataset(*bgdge_sample(truth, np.random.default_rng([STUDY_SEED, n, r]), size=n))

            def biv():
                rep = fit_biv_mle(data, cfg, compute_se=False)
                return rep.loglik, rep.converged, rep.iters, rep.stop_reason, {}

            yield run("study", n, r, biv)
            for kind, x in (("margin_x", data.x), ("margin_y", data.y)):

                def uni(x=x):
                    rep = fit_uni_mle(x, cfg, compute_se=False)
                    return rep.loglik, rep.converged, rep.iters, rep.stop_reason, {}

                yield run(kind, n, r, uni)

            def em():
                rep = em_fit_biv(data, truth, cfg, compute_se=False)
                return rep.loglik, rep.converged, rep.iters, rep.stop_reason, {"estimates": list(rep.estimates)}

            yield run("em", n, r, em)

            def equal():
                null, full = inference._equal_fits(data, cfg)
                return full.loglik, full.stop == "converged", full.iters, full.stop, {"ll_null": null.loglik}

            yield run("equal", n, r, equal)
    null = BgdgeParams.from_values(*BOUNDARY_TRUTH)
    for r in range(reps):
        data = BivDataset(*bgdge_sample(null, np.random.default_rng([BOUNDARY_SEED, 100, r]), size=100))

        def boundary():
            f = fitting._fit(data, cfg)
            return f.loglik, f.stop == "converged", f.iters, f.stop, {"ll_null": f.ll_base}

        yield run("boundary", 100, r, boundary)


def keyed(lines):
    """Fit records by (kind, n, r), as they read back from JSON."""
    return {(d["kind"], d["n"], d["r"]): d for d in map(json.loads, lines)}


def load(path):
    with open(path) as fh:
        return keyed(fh)


def compare(a, b):
    """Compare two keyed records; returns the exit code."""
    common = sorted(a.keys() & b.keys())
    # each fit's log-likelihood: the fit's own and, where both records hold it, its null's
    ends = [(k, f) for k in common for f in ("loglik", "ll_null") if f in a[k] and f in b[k]]
    lower = [(k, f) for k, f in ends if b[k][f] < a[k][f] - LL_TOL]
    higher = [(k, f) for k, f in ends if b[k][f] > a[k][f] + LL_TOL]
    lost = [k for k in common if a[k]["converged"] and not b[k]["converged"]]
    gained = [k for k in common if b[k]["converged"] and not a[k]["converged"]]
    print(f"fits compared: {len(common)} (only in A: {len(a.keys() - b.keys())}, only in B: {len(b.keys() - a.keys())})")
    for name, keys in (("lower", lower), ("higher", higher)):
        print(f"ending more than {LL_TOL:g} {name} in B: {len(keys)}")
        for k, f in keys:
            print(f"  {k} {f}: {a[k][f]!r} -> {b[k][f]!r}")
    print(f"losing convergence: {len(lost)} {lost}")
    print(f"gaining convergence: {len(gained)} {gained}")
    em = [k for k in common if k[0] == "em"]
    moved = [k for k in em if any(a[k][f] != b[k][f] for f in ("loglik", "iters", "stop", "estimates"))]
    print(f"EM endpoints moved: {len(moved)} of {len(em)} {moved}")
    for field, label in (("calls", "likelihood calls"), ("rows", "parameter rows"), ("iters", "iterations")):
        if not all(field in rec[k] for rec in (a, b) for k in common):
            print(f"{label}: not in both records")
            continue
        for kind in sorted({k[0] for k in common}):
            keys = [k for k in common if k[0] == kind]
            print(f"{label}, {kind}: A {sum(a[k][field] for k in keys)}, B {sum(b[k][field] for k in keys)}")
        print(f"{label}, total: A {sum(a[k][field] for k in common)}, B {sum(b[k][field] for k in common)}")
    return 1 if lower or lost else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=200, help="replications per sample size and boundary LRTs")
    ap.add_argument("--compare", nargs="*", metavar="RECORD",
                    help="compare records instead of printing one: A B, the committed record and B, or with no "
                         "record named the committed record and this tree's fits")
    args = ap.parse_args()
    if args.compare is not None:
        if len(args.compare) > 2:
            ap.error("--compare takes at most two records")
        records = [load(path) for path in [RECORD, *args.compare][-2:]]
        if len(records) == 1:
            records.append(keyed(json.dumps(line) for line in record(args.reps)))
        return compare(*records)
    for line in record(args.reps):
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    sys.exit(main())
