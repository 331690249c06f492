"""Spans and counts around the public functions of every gdge module.

`Tracer.install` replaces each public function of the gdge modules by a
wrapper, in every gdge namespace that holds it (the package imports names
with ``from .x import y``, so ``gdge.fitting.pow1m`` and
``gdge.inference.pow1m`` are separate references to one function).  Each
call records one span: name, parent span, start, end, and a work count
(elements, draws) where the function has one.  Spans live in flat arrays in
memory and are written out once, when the run ends.

Nothing is recorded for private helpers, so their time shows as self time
of the public caller: the Nelder-Mead polish is self time of
``fit_uni_mle``/``fit_biv_mle``, and the latent-count scan is self time of
``e_step``/``e_step_uni``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

from gdge.fitting import EmConfig

#: Modules whose public functions are wrapped, in dependency order.
MODULES = ("dge", "univariate", "bivariate", "fitting", "inference", "io", "simulate", "cli")

#: An E-step iterate with theta below this sits on the alpha/theta ridge.
RIDGE_THETA = 0.05

UNI_SERIES = ("ugdge_moment", "ugdge_quantile", "ugdge_pgf", "ugdge_mgf", "cond_n_mean",
              "cond_n_argmax", "mixture_cdf_approx")
BIV_SERIES = ("bgdge_pgf", "bgdge_mgf", "biv_cond_n_mean", "biv_cond_n_argmax")


def _size(*arrays) -> float:
    return float(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _draws(args, kwargs) -> float:
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1.0 if size is None else float(np.prod(size))


#: Work counted per call, by wrapped name.
UNITS = {
    "dge.pow1m": lambda a, k: _size(a[1], a[2]),
    "univariate.ugdge_pmf": lambda a, k: _size(a[1]),
    "bivariate.bgdge_pmf": lambda a, k: _size(a[1], a[2]),
    "univariate.ugdge_sample": _draws,
    "bivariate.bgdge_sample": _draws,
}


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Tracer:
    """Records spans in memory; `layer_metrics` turns them into per-op figures."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self._stack = [-1]
        # per-call facts read from arguments and results
        self.e_step_theta: dict[int, float] = {}
        self.e_step_scan: dict[int, int] = {}
        self.em_fits: dict[int, tuple] = {}
        self.datasets: dict[str, set] = {"fit_uni_mle": set(), "fit_biv_mle": set()}
        self.op = 0

    def next_op(self) -> None:
        """Start a new operation: distinct datasets are counted per operation."""
        self.op += 1

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn):
        code = self._code(name)
        units = UNITS.get(name)
        observe = self._observer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.name_id)
            self.name_id.append(code)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.units.append(units(args, kwargs) if units else 0.0)
            self._stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end[sid] = perf_counter()
                self.start[sid] = t0
                self._stack.pop()
                if observe:
                    observe(sid, args, kwargs, result)

        return wrapper

    def _observer(self, name: str):
        short = name.split(".", 1)[1]
        # observers run when the call ends; result is None if it raised
        if short in ("e_step", "e_step_uni"):
            def observe(sid, args, kwargs, result):
                self.e_step_theta[sid] = float(args[0].theta)
                if result is None:  # the scan ran to its cap and gave up
                    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                    self.e_step_scan[sid] = (cfg or EmConfig()).n_cap
                else:
                    self.e_step_scan[sid] = int(np.max(result))
            return observe
        if short in ("em_fit_uni", "em_fit_biv"):
            def observe(sid, args, kwargs, result):
                if result is not None:
                    self.em_fits[sid] = (result.iters, result.stop_reason)
            return observe
        if short == "fit_uni_mle":
            return lambda sid, args, kwargs, result: self.datasets[short].add((self.op, _digest(args[0])))
        if short == "fit_biv_mle":
            return lambda sid, args, kwargs, result: self.datasets[short].add(
                (self.op, _digest(args[0].x, args[0].y)))
        return None

    def install(self, package) -> int:
        """Wrap every public function of `MODULES` wherever gdge refers to it."""
        wrappers = {}
        for short in MODULES:
            module = getattr(package, short)
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    setattr(module, attr, wrappers[id(value)])
                    replaced += 1
        return replaced

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        units = np.frombuffer(self.units, dtype=np.float64)
        return name_id, parent, start, end, units

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer figures, per operation where the unit says ``/op``."""
        name_id, parent, start, end, units = self.arrays()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        parent_name = np.full(dur.size, -1)
        parent_name[has_parent] = name_id[parent[has_parent]]

        def ids(*names):
            return [self._codes[n] for n in names if n in self._codes]

        def mask(*names):
            return np.isin(name_id, ids(*names))

        def per_op(value):
            return float(value) / n_ops

        def ns_per(names, total):
            m = mask(*names)
            work = units[m].sum()
            return float(total[m].sum() / work * 1e9) if work > 0 else 0.0

        def calls_per_dataset(short):
            # distinct datasets are counted within each operation
            distinct = len(self.datasets[short])
            return float(mask(f"fitting.{short}").sum() / distinct) if distinct else 0.0

        pow1m = mask("dge.pow1m")
        e_steps = mask("fitting.e_step", "fitting.e_step_uni")
        e_ids = np.nonzero(e_steps)[0]
        ridge = np.array([self.e_step_theta.get(int(i), 1.0) < RIDGE_THETA for i in e_ids], dtype=bool)
        em = mask("fitting.em_fit_uni", "fitting.em_fit_biv")
        fit_mle = mask("fitting.fit_uni_mle", "fitting.fit_biv_mle")
        stops = [stop for _, stop in self.em_fits.values()]

        return {
            "dge.pow1m.calls": (per_op(pow1m.sum()), "count/op"),
            "dge.pow1m.elems": (per_op(units[pow1m].sum()), "count/op"),
            "dge.pow1m.ns_per_elem": (ns_per(["dge.pow1m"], self_t), "ns"),
            "dge.pow1m.self_s": (per_op(self_t[pow1m].sum()), "s/op"),
            "fitting.m_step_pair.calls": (per_op(mask("fitting.m_step_pair").sum()), "count/op"),
            "fitting.m_step_pair.total_s": (per_op(dur[mask("fitting.m_step_pair")].sum()), "s/op"),
            "fitting.profile_alpha_max.calls": (per_op(mask("fitting.profile_alpha_max").sum()), "count/op"),
            "fitting.latent_weighted_loglik.calls": (
                per_op(mask("fitting.latent_weighted_loglik").sum()), "count/op"),
            "fitting.e_step.calls": (per_op(e_steps.sum()), "count/op"),
            "fitting.e_step.self_s": (per_op(self_t[e_steps].sum()), "s/op"),
            "fitting.e_step.ridge_self_s": (per_op(self_t[e_ids[ridge]].sum()), "s/op"),
            "fitting.e_step.scan_len": (per_op(sum(self.e_step_scan.values())), "count/op"),
            "fitting.em_fit.calls": (per_op(em.sum()), "count/op"),
            "fitting.em_fit.total_s": (per_op(dur[em].sum()), "s/op"),
            "fitting.em_fit.iters": (per_op(sum(it for it, _ in self.em_fits.values())), "count/op"),
            "fitting.em_fit.ll_decrease_stops": (per_op(stops.count("ll_decrease")), "count/op"),
            "fitting.em_fit.series_cap_stops": (per_op(em.sum() - len(self.em_fits)), "count/op"),
            "fitting.fit_mle.self_s": (per_op(self_t[fit_mle].sum()), "s/op"),
            "fitting.fit_mle.kernel_calls": (
                per_op((pow1m & np.isin(parent_name, ids("fitting.fit_uni_mle", "fitting.fit_biv_mle"))).sum()),
                "count/op"),
            "fitting.fit_uni_mle.calls": (per_op(mask("fitting.fit_uni_mle").sum()), "count/op"),
            "fitting.fit_uni_mle.calls_per_dataset": (calls_per_dataset("fit_uni_mle"), "ratio"),
            "fitting.fit_biv_mle.calls": (per_op(mask("fitting.fit_biv_mle").sum()), "count/op"),
            "fitting.fit_biv_mle.calls_per_dataset": (calls_per_dataset("fit_biv_mle"), "ratio"),
            "fitting.std_errors.self_s": (per_op(self_t[mask("fitting.std_errors")].sum()), "s/op"),
            "inference.test_equal_marginals.self_s": (
                per_op(self_t[mask("inference.test_equal_marginals")].sum()), "s/op"),
            "inference.test_independence.self_s": (
                per_op(self_t[mask("inference.test_independence")].sum()), "s/op"),
            "inference.gof.self_s": (
                per_op(self_t[mask("inference.gof_chisq_uni", "inference.gof_chisq_biv")].sum()), "s/op"),
            "univariate.ugdge_pmf.ns_per_elem": (ns_per(["univariate.ugdge_pmf"], dur), "ns"),
            "bivariate.bgdge_pmf.ns_per_elem": (ns_per(["bivariate.bgdge_pmf"], dur), "ns"),
            "univariate.ugdge_sample.ns_per_draw": (ns_per(["univariate.ugdge_sample"], dur), "ns"),
            "bivariate.bgdge_sample.ns_per_draw": (ns_per(["bivariate.bgdge_sample"], dur), "ns"),
            "univariate.series.self_s": (
                per_op(self_t[mask(*(f"univariate.{n}" for n in UNI_SERIES))].sum()), "s/op"),
            "bivariate.series.self_s": (
                per_op(self_t[mask(*(f"bivariate.{n}" for n in BIV_SERIES))].sum()), "s/op"),
            "io.read_dataset.self_s": (per_op(self_t[mask("io.read_dataset")].sum()), "s/op"),
            "io.write_report.self_s": (per_op(self_t[mask("io.write_report")].sum()), "s/op"),
            "cli.main.self_s": (per_op(self_t[mask("cli.main")].sum()), "s/op"),
            "trace.spans": (per_op(dur.size), "count/op"),
        }

    def write(self, path) -> None:
        """Write every span as one .npz file.

        Arrays, one entry per span: ``name_id`` (index into the JSON list
        ``names``), ``parent`` (span index, -1 for none), ``start``
        (perf_counter seconds), ``duration`` (seconds) and ``units`` (work count).
        """
        name_id, parent, start, end, units = self.arrays()
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=name_id.astype(np.uint16),
            parent=parent,
            start=start,
            duration=(end - start).astype(np.float32),
            units=units.astype(np.float32),
        )
