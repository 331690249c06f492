"""The four workloads: their inputs, their operations, and the checks on them.

A workload builds its inputs from the seed (`__init__`, part of set-up),
computes the oracle references that do not depend on results (`prepare`,
untimed), and hands out rounds.  A round is the workload's fixed list of
operations; an operation is what ``op_cpu_p50_s`` takes the median of (one
Serie A analysis, one fit or test of the study, one large-sample pass, one
evaluator pass); an operation is a list of steps.  Each step is timed, then its output is
checked outside the timed region.  Steps are what ``attempted`` and
``failed`` count.

A check returns None when the output is right and a message otherwise.  A
failed check is a wrong output and makes the run incorrect, except for the
steps in `KNOWN_FAULTS`: they probe a known defect of the program, fail on
every run, and count as failed steps.
"""

from __future__ import annotations

import contextlib
import io as _io
import math
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

import gdge
import gdge.cli  # the package does not import its CLI; the `gdge` script does
from gdge import BgdgeParams, BivDataset, UgdgeParams, fast_sim_config

#: Steps that fail on every run because of a known fault, with the fault.
KNOWN_FAULTS = {
    "dge_pmf_deep_tail": "dge_pmf subtracts two base CDFs that are both near 1",
    "bgdge_pmf_deep_tail": "prob_eq_le subtracts u - u_ directly, and bgdge_pmf differences it in y",
}

#: The paper's simulation truth, and the boundary (independence) truth.
PAPER_TRUTH = (2.0, 0.25, 2.0, 0.25, 0.25)
BOUNDARY_TRUTH = (2.0, 0.25, 2.0, 0.25, 1.0)

#: Published Serie A estimates (margins and joint fit).
PUBLISHED_X = (4.6587, 0.2618, 0.9987)
PUBLISHED_Y = (6.8029, 0.1683, 0.3288)
PUBLISHED_BIV = (4.5519, 0.2570, 8.3892, 0.2250, 0.9211)

#: Relative accuracy every exact evaluator is held to, where the pmf is
#: above `PMF_RESOLVED` (below it the value is allowed to underflow).
EXACT_REL = 1e-12
PMF_RESOLVED = 1e-280
#: The joint pmf over a rectangle of cells is a throughput step: it is held
#: to ``EXACT_REL`` relative or this absolute error, a few roundoffs of the
#: total mass 1.  Relative accuracy in the joint tail is the deep-tail probe.
BODY_ABS = 1e-15
#: Series evaluators stop at a relative term size of 1e-12; their tails may
#: add a few times that.
SERIES_REL = 1e-9
#: A sampler fails its chi-square test below this p-value.
CHI2_P_MIN = 1e-6


class Step(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def print_tol(value: float) -> float:
    """One unit in the last digit of the 10 significant digits a report prints."""
    if value == 0.0 or not math.isfinite(value):
        return 1e-12
    return 10.0 ** (math.floor(math.log10(abs(value))) - 9)


def close(got: float, want: float) -> bool:
    return abs(got - want) <= print_tol(want) + print_tol(got)


def rel_errors(got, want) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) / want


def exact_check(got, want) -> str | None:
    """Relative error at most `EXACT_REL` wherever the reference is resolved."""
    want = np.asarray(want, dtype=float)
    m = want > PMF_RESOLVED
    err = rel_errors(np.asarray(got, dtype=float)[m], want[m])
    worst = int(np.argmax(err))
    if err[worst] > EXACT_REL:
        return f"relative error {err[worst]:.3g} at reference value {want[m][worst]:.3g}"
    return None


def series_check(got, want) -> str | None:
    err = rel_errors(got, want)
    if np.max(err) > SERIES_REL:
        return f"relative error {np.max(err):.3g} against the oracle"
    return None


def chi2_check(observed: np.ndarray, probs: np.ndarray, n: int, oracle) -> str | None:
    """Chi-square goodness of fit on the cells of expected count >= 5, plus a rest cell."""
    expected = n * probs
    keep = expected >= 5.0
    obs = np.append(observed[keep], n - observed[keep].sum())
    exp = np.append(expected[keep], n - expected[keep].sum())
    stat = float(((obs - exp) ** 2 / exp).sum())
    df = obs.size - 1
    p = oracle.chi2_upper(stat, df)
    if p < CHI2_P_MIN:
        return f"chi-square {stat:.2f} on {df} df, p = {p:.3g}"
    return None


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def floats(report: dict, keys) -> tuple:
    return tuple(float(report[k]) for k in keys)


class LikelihoodRefs:
    """Oracle log-likelihoods of fixed datasets at any parameter point, cached."""

    def __init__(self, oracle):
        self.oracle = oracle
        self._cache = {}

    def uni(self, x: np.ndarray, params) -> float:
        key = ("uni", id(x), tuple(float(v) for v in params))
        if key not in self._cache:
            counts = Counter(x.tolist())
            self._cache[key] = float(self.oracle.UniLaw(*key[2]).loglik(counts))
        return self._cache[key]

    def biv(self, data, params) -> float:
        key = ("biv", id(data), tuple(float(v) for v in params))
        if key not in self._cache:
            counts = Counter(zip(data.x.tolist(), data.y.tolist()))
            self._cache[key] = float(self.oracle.BivLaw(*key[2]).loglik(counts))
        return self._cache[key]


def fit_check(loglik: float, oracle_ll: float, reference_ll: float, what: str) -> str | None:
    """The reported log-likelihood is the oracle's, and beats a reference point."""
    if not close(loglik, oracle_ll):
        return f"reported loglik {loglik!r} but the oracle gives {oracle_ll!r} at the estimates"
    if oracle_ll < reference_ll - print_tol(reference_ll):
        return f"fit loglik {oracle_ll!r} is below the {what} {reference_ll!r}"
    return None


def lrt_check(stat, p_value, ll_full, ll_null, oracle_full, oracle_null, reference) -> str | None:
    """Statistic >= 0, equal to 2*(full - null) by the oracle, with a closed-form p-value."""
    if not close(ll_full, oracle_full) or not close(ll_null, oracle_null):
        return f"ll_full/ll_null {ll_full!r}/{ll_null!r} vs oracle {oracle_full!r}/{oracle_null!r}"
    want = max(0.0, 2.0 * (oracle_full - oracle_null))
    if stat < 0.0 or abs(stat - want) > 4.0 * print_tol(oracle_full) + print_tol(want):
        return f"statistic {stat!r} but 2*(ll_full - ll_null) = {want!r}"
    if reference == "chi2(2)":
        p_want = math.exp(-stat / 2.0)
    else:
        p_want = 1.0 if stat <= 0.0 else 0.5 * math.erfc(math.sqrt(stat / 2.0))
    if abs(p_value - p_want) > 1e-9 * p_want + print_tol(p_value):
        return f"p-value {p_value!r} but the closed form gives {p_want!r}"
    return None


class Workload:
    """Built from the seed (set-up); `prepare` adds the oracle (untimed)."""

    name = ""
    min_rounds = 1

    def prepare(self, oracle) -> None:
        self.oracle = oracle
        self.refs = LikelihoodRefs(oracle)

    def round(self, k: int) -> list[list[Step]]:
        """The operations of round k, each a list of steps."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# seriea: the paper's analysis of the bundled data, through the CLI


class SerieA(Workload):
    """`gdge fit` and `gdge test` on the bundled 26-pair Serie A data, in-process.

    The data are the paper's, so the seed changes nothing here.
    """

    name = "seriea"
    min_rounds = 2  # the byte-identity check compares every round with round 0
    COMMANDS = {
        "fit_uni_x": ["fit", "{data}", "--uni", "--column", "x"],
        "fit_uni_y": ["fit", "{data}", "--uni", "--column", "y"],
        "fit_biv_gof": ["fit", "{data}", "--biv", "--gof"],
        "test_both": ["test", "{data}", "--test", "both"],
    }

    def __init__(self, seed: int):
        self.path = gdge.io.bundled_data_path()
        self.argv = {k: [a.format(data=self.path) for a in v] for k, v in self.COMMANDS.items()}
        self.first = {}

    def prepare(self, oracle) -> None:
        super().prepare(oracle)
        self.data = gdge.io.read_dataset(self.path, mode="biv")

    def _run(self, argv):
        buf = _io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = gdge.cli.main(argv)
        return rc, buf.getvalue()

    def round(self, k: int):
        analysis = [
            Step(name, (lambda argv=argv: self._run(argv)),
                 (lambda out, k=k, name=name: self._check(k, name, out)))
            for name, argv in self.argv.items()
        ]
        return [analysis]

    def _check(self, k: int, name: str, output) -> str | None:
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        if k == 0:
            self.first[name] = text
        elif text != self.first[name]:
            return "report bytes differ from the first invocation"
        return getattr(self, f"check_{name}")(parse_report(text))

    def _check_uni(self, rep, x, published):
        est = floats(rep, ("est_alpha", "est_p", "est_theta"))
        return fit_check(float(rep["loglik"]), self.refs.uni(x, est), self.refs.uni(x, published),
                         "published estimate")

    def check_fit_uni_x(self, rep):
        return self._check_uni(rep, self.data.x, PUBLISHED_X)

    def check_fit_uni_y(self, rep):
        return self._check_uni(rep, self.data.y, PUBLISHED_Y)

    def check_fit_biv_gof(self, rep):
        est = floats(rep, ("est_alpha1", "est_p1", "est_alpha2", "est_p2", "est_theta"))
        msg = fit_check(float(rep["loglik"]), self.refs.biv(self.data, est),
                        self.refs.biv(self.data, PUBLISHED_BIV), "published estimate")
        if msg:
            return msg
        expected = [float(rep[f"gof_cell_{i}_expected"]) for i in range(1, int(rep["gof_cells"]) + 1)]
        m = len(self.data)
        if abs(sum(expected) - m) > sum(print_tol(e) for e in expected) + 1e-9:
            return f"folded GOF expected counts sum to {sum(expected)!r}, not m = {m}"
        return None

    def check_test_both(self, rep):
        names = ("alpha1", "p1", "alpha2", "p2", "theta")
        for prefix in ("equal_", "indep_"):
            full = floats(rep, [f"{prefix}full_{n}" for n in names])
            null = floats(rep, [f"{prefix}null_{n}" for n in names])
            msg = lrt_check(
                float(rep[f"{prefix}statistic"]), float(rep[f"{prefix}p_value"]),
                float(rep[f"{prefix}ll_full"]), float(rep[f"{prefix}ll_null"]),
                self.refs.biv(self.data, full), self.refs.biv(self.data, null),
                rep[f"{prefix}reference"],
            )
            if msg:
                return prefix + msg
        return None


# ---------------------------------------------------------------------------
# simstudy: replications of the paper's simulation experiment


class SimStudy(Workload):
    """The first replications of the study that the acceptance gate replays.

    Replication index r is three operations: fits at n = 25 and n = 100 of
    data drawn at the paper's truth with ``default_rng([20260822, n, r])``,
    the seeding ``run_simulation`` uses with the gate's master seed, and the
    independence LRT on n = 100 pairs drawn at the boundary truth theta = 1
    with ``default_rng([99, 100, r])``, as the gate's boundary check and
    ``scripts/boundary_study.py`` draw them.  A round is indices 0..REPS-1.

    The seed changes nothing here.  About one index in three holds a ridge
    fit several times slower than the rest, so with seed-drawn data the
    ~5 indices a run has time for made the median swing by a sixth between
    seeds; a fixed list makes every run time the same work.  The operation
    is one fit or test rather than a whole index because the median of five
    indices of unequal cost jumps between them as the machine's speed drifts
    within a run, while the median of fifteen fits sits among close values.
    """

    name = "simstudy"
    REPS = 5
    STUDY_SEED = 20260822
    BOUNDARY_SEED = 99

    def __init__(self, seed: int):
        draw = gdge.bivariate.bgdge_sample
        truth = BgdgeParams.from_values(*PAPER_TRUTH)
        null_truth = BgdgeParams.from_values(*BOUNDARY_TRUTH)
        self.data = []
        for r in range(self.REPS):
            fits = {n: BivDataset(*draw(truth, np.random.default_rng([self.STUDY_SEED, n, r]), size=n))
                    for n in (25, 100)}
            null = BivDataset(*draw(null_truth, np.random.default_rng([self.BOUNDARY_SEED, 100, r]), size=100))
            self.data.append((fits[25], fits[100], null))
        self.cfg = fast_sim_config()

    def round(self, k: int):
        return [[step] for datasets in self.data for step in self._replication(*datasets)]

    def _replication(self, d25, d100, dnull):
        def fit(data):
            return lambda: gdge.fitting.fit_biv_mle(data, self.cfg, compute_se=False)

        return [
            Step("fit_n25", fit(d25), lambda rep: self._check_fit(d25, rep)),
            Step("fit_n100", fit(d100), lambda rep: self._check_fit(d100, rep)),
            Step("lrt_boundary_n100", lambda: gdge.inference.test_independence(dnull, self.cfg),
                 lambda res: self._check_lrt(dnull, res)),
        ]

    def _check_fit(self, data, rep):
        return fit_check(rep.loglik, self.refs.biv(data, rep.estimates),
                         self.refs.biv(data, PAPER_TRUTH), "data-generating truth")

    def _check_lrt(self, data, res):
        oracle_null = self.refs.biv(data, res.null_params)
        truth_ll = self.refs.biv(data, BOUNDARY_TRUTH)
        if oracle_null < truth_ll - print_tol(truth_ll):
            return f"null fit loglik {oracle_null!r} is below the data-generating truth {truth_ll!r}"
        return lrt_check(res.statistic, res.p_value, res.ll_full, res.ll_null,
                         self.refs.biv(data, res.full_params), oracle_null, res.reference)


# ---------------------------------------------------------------------------
# large-sample: fits at n = 10^4


class LargeSample(Workload):
    """One pass: two univariate fits and one bivariate fit at n = 10^4."""

    name = "large-sample"
    N = 10_000
    ZERO_HEAVY = (0.3, 0.5, 0.9)
    HEAVY_TAIL = (1.0, 0.8, 0.02)

    def __init__(self, seed: int):
        U, B = gdge.univariate, gdge.bivariate
        self.x_zero = U.ugdge_sample(UgdgeParams.from_values(*self.ZERO_HEAVY),
                                     np.random.default_rng([seed, self.N, 0]), size=self.N)
        self.x_tail = U.ugdge_sample(UgdgeParams.from_values(*self.HEAVY_TAIL),
                                     np.random.default_rng([seed, self.N, 1]), size=self.N)
        self.biv = BivDataset(*B.bgdge_sample(BgdgeParams.from_values(*PAPER_TRUTH),
                                              np.random.default_rng([seed, self.N, 2]), size=self.N))
        self.cfg = fast_sim_config()

    def round(self, k: int):
        def uni(name, x, truth):
            return Step(name, lambda: gdge.fitting.fit_uni_mle(x, self.cfg, compute_se=False),
                        lambda rep: fit_check(rep.loglik, self.refs.uni(x, rep.estimates),
                                              self.refs.uni(x, truth), "data-generating truth"))

        biv = Step("fit_biv", lambda: gdge.fitting.fit_biv_mle(self.biv, self.cfg, compute_se=False),
                   lambda rep: fit_check(rep.loglik, self.refs.biv(self.biv, rep.estimates),
                                         self.refs.biv(self.biv, PAPER_TRUTH), "data-generating truth"))
        return [[uni("fit_uni_zero_heavy", self.x_zero, self.ZERO_HEAVY),
                 uni("fit_uni_heavy_tail", self.x_tail, self.HEAVY_TAIL), biv]]


# ---------------------------------------------------------------------------
# evaluate: exact evaluators and samplers, no fitting


class Evaluate(Workload):
    """One pass over the evaluators, the samplers and the deep-tail probes."""

    name = "evaluate"
    N = 1_000_000
    X_RANGE = 400       # univariate points are drawn from 0..X_RANGE-1
    CELL_RANGE = 40     # bivariate cells from [0, CELL_RANGE)^2
    QUANTILE_LEVELS = (0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
    # The laws are the paper's truth and its margin, fixed because the cost
    # of the series evaluators depends on theta (bgdge_pgf takes 0.02-0.3 s a
    # call over theta in [0.1, 1]).  The seed draws the points, cells and
    # arguments they are evaluated at.
    LAW_UNI = (2.0, 0.25, 0.25)
    LAW_BIV = PAPER_TRUTH
    # samplers draw from fixed generator seeds, so the chi-square verdict is
    # the same in every run
    SAMPLE_SEEDS = (20180219, 20180220)
    # deep-tail probes: fixed laws and grids, independent of the seed
    DEEP_UNI = (((0.4, 0.3), range(0, 120)), ((2.0, 0.9), range(0, 600)))
    DEEP_THETA = 0.5
    DEEP_BIV = ((PAPER_TRUTH, range(20, 41)), ((1.5, 0.6, 0.8, 0.5, 0.5), range(25, 41)))

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 7])
        self.uni = UgdgeParams.from_values(*self.LAW_UNI)
        self.biv = BgdgeParams.from_values(*self.LAW_BIV)
        self.xs = rng.integers(0, self.X_RANGE, size=self.N)
        self.cx = rng.integers(0, self.CELL_RANGE, size=self.N)
        self.cy = rng.integers(0, self.CELL_RANGE, size=self.N)
        self.pgf_args = [tuple(z) for z in rng.uniform(0.1, 0.6, size=(3, 2))]
        cx, cy = gdge.bivariate.bgdge_sample(self.biv, rng, size=4)
        self.cond_cells = list(zip(cx.tolist(), cy.tolist()))
        self.deep_x = [np.asarray(grid, dtype=np.int64) for _, grid in self.DEEP_UNI]
        self.deep_cells = [np.meshgrid(np.asarray(g), np.asarray(g), indexing="ij") for _, g in self.DEEP_BIV]

    def prepare(self, oracle) -> None:
        super().prepare(oracle)
        law = oracle.UniLaw(*self.LAW_UNI)
        self.uni_law = law
        self.ref_pmf = np.array([float(law.pmf(x)) for x in range(self.X_RANGE)])
        self.ref_cdf = np.array([float(law.cdf(x)) for x in range(self.X_RANGE)])
        blaw = oracle.BivLaw(*self.LAW_BIV)
        r = range(self.CELL_RANGE)
        self.ref_bpmf = np.array([[float(blaw.pmf(x, y)) for y in r] for x in r])
        self.ref_moments = [float(law.moment(k)) for k in (1, 2)]
        self.ref_pgf = [float(blaw.pgf(z1, z2)) for z1, z2 in self.pgf_args]
        self.ref_cond = [float(blaw.cond_n_mean(x, y)) for x, y in self.cond_cells]
        self.ref_deep_dge = [np.array([float(oracle.UniLaw(a, p, 1.0).pmf(x)) for x in xs.tolist()])
                             for ((a, p), _), xs in zip(self.DEEP_UNI, self.deep_x)]
        self.ref_deep_ugdge = [np.array([float(oracle.UniLaw(a, p, self.DEEP_THETA).pmf(x)) for x in xs.tolist()])
                               for ((a, p), _), xs in zip(self.DEEP_UNI, self.deep_x)]
        self.ref_deep_bgdge = [
            np.array([float(oracle.BivLaw(*params).pmf(x, y)) for x, y in zip(gx.ravel().tolist(), gy.ravel().tolist())])
            for (params, _), (gx, gy) in zip(self.DEEP_BIV, self.deep_cells)]

    def round(self, k: int):
        U, B, D = gdge.univariate, gdge.bivariate, gdge.dge

        def deep(outs, refs):
            return next(filter(None, (exact_check(np.ravel(o), r) for o, r in zip(outs, refs))), None)

        return [[
            Step("ugdge_pmf", lambda: U.ugdge_pmf(self.uni, self.xs),
                 lambda out: exact_check(out, self.ref_pmf[self.xs])),
            Step("ugdge_cdf", lambda: U.ugdge_cdf(self.uni, self.xs),
                 lambda out: exact_check(out, self.ref_cdf[self.xs])),
            Step("bgdge_pmf", lambda: B.bgdge_pmf(self.biv, self.cx, self.cy), self._check_bgdge_pmf),
            Step("ugdge_sample",
                 lambda: U.ugdge_sample(self.uni, np.random.default_rng(self.SAMPLE_SEEDS[0]), size=self.N),
                 self._check_ugdge_sample),
            Step("bgdge_sample",
                 lambda: B.bgdge_sample(self.biv, np.random.default_rng(self.SAMPLE_SEEDS[1]), size=self.N),
                 self._check_bgdge_sample),
            Step("ugdge_moment", lambda: [U.ugdge_moment(self.uni, r) for r in (1, 2)],
                 lambda out: series_check(out, self.ref_moments)),
            Step("ugdge_quantile", lambda: [U.ugdge_quantile(self.uni, g) for g in self.QUANTILE_LEVELS],
                 self._check_quantiles),
            Step("bgdge_pgf", lambda: [B.bgdge_pgf(self.biv, z1, z2) for z1, z2 in self.pgf_args],
                 lambda out: series_check(out, self.ref_pgf)),
            Step("biv_cond_n_mean", lambda: [B.biv_cond_n_mean(self.biv, x, y) for x, y in self.cond_cells],
                 lambda out: series_check(out, self.ref_cond)),
            Step("ugdge_pmf_deep_tail",
                 lambda: [U.ugdge_pmf(UgdgeParams.from_values(a, p, self.DEEP_THETA), xs)
                          for ((a, p), _), xs in zip(self.DEEP_UNI, self.deep_x)],
                 lambda outs: deep(outs, self.ref_deep_ugdge)),
            Step("dge_pmf_deep_tail",
                 lambda: [D.dge_pmf(D.DgeParams(a, p), xs) for ((a, p), _), xs in zip(self.DEEP_UNI, self.deep_x)],
                 lambda outs: deep(outs, self.ref_deep_dge)),
            Step("bgdge_pmf_deep_tail",
                 lambda: [B.bgdge_pmf(BgdgeParams.from_values(*params), gx, gy)
                          for (params, _), (gx, gy) in zip(self.DEEP_BIV, self.deep_cells)],
                 lambda outs: deep(outs, self.ref_deep_bgdge)),
        ]]

    def _check_bgdge_pmf(self, out):
        want = self.ref_bpmf[self.cx, self.cy]
        excess = np.abs(out - want) - (EXACT_REL * want + BODY_ABS)
        worst = int(np.argmax(excess))
        if excess[worst] > 0.0:
            return f"error {abs(out[worst] - want[worst]):.3g} at reference value {want[worst]:.3g}"
        return None

    def _check_ugdge_sample(self, draws):
        probs = self.ref_pmf
        observed = np.bincount(np.minimum(draws, probs.size), minlength=probs.size + 1)[:-1]
        return chi2_check(observed.astype(float), probs, self.N, self.oracle)

    def _check_bgdge_sample(self, draws):
        x, y = draws
        n = self.CELL_RANGE
        inside = (x < n) & (y < n)
        observed = np.bincount(x[inside] * n + y[inside], minlength=n * n).astype(float)
        return chi2_check(observed, self.ref_bpmf.ravel(), self.N, self.oracle)

    def _check_quantiles(self, qs):
        for g, q in zip(self.QUANTILE_LEVELS, qs):
            below = float(self.uni_law.cdf(q - 1)) if q > 0 else 0.0
            if not below < g <= float(self.uni_law.cdf(q)):
                return f"quantile {q} does not bracket level {g}"
        return None


WORKLOADS = {w.name: w for w in (SerieA, SimStudy, LargeSample, Evaluate)}
