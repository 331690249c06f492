"""Monte Carlo study of the bivariate estimator: bias and MSE by sample size.

Each replication draws a dataset at the true parameters, fits it with the
full multi-start pipeline (default initialization rule: the theta = 1 fit
moved to a grid of theta values), and records the estimates.  Replications
that fail numerically or do not converge are excluded and counted, by reason.
Seed streams are derived from (master seed, sample size, replication index),
so results are independent of execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bivariate import BgdgeParams, bgdge_sample
from .dge import SeriesCapError
from .fitting import BivDataset, EmConfig, fit_biv_mle

__all__ = ["SimSpec", "SimTable", "run_simulation", "fast_sim_config"]


def fast_sim_config() -> EmConfig:
    """The configuration of replicated fitting, which is the single-fit default.

    Every fit, and EM's M-step, runs the one gradient search with its
    convergence test, so there is no coarser budget left to trade; the
    function stays as the one place a study's configuration is chosen.
    """
    return EmConfig()


@dataclass(frozen=True)
class SimSpec:
    """What to simulate: truth, sizes, replication count, seed, fit budget."""

    true_params: BgdgeParams
    sample_sizes: tuple
    replications: int
    seed: int
    cfg: EmConfig = field(default_factory=fast_sim_config)

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        sizes = tuple(int(n) for n in self.sample_sizes)
        if not sizes or any(n < 2 for n in sizes):
            raise ValueError("sample sizes must all be >= 2")
        object.__setattr__(self, "sample_sizes", sizes)


@dataclass(frozen=True)
class SimTable:
    """Average estimates and mean squared errors per sample size."""

    param_names: tuple
    sample_sizes: tuple
    truth: tuple
    ae: dict  # n -> tuple of averages
    mse: dict  # n -> tuple of mean squared errors
    excluded: dict  # n -> count of dropped replications
    excluded_by: dict  # n -> {"error": numerical failures, "nonconverged": failed convergence tests}
    metadata: dict

    def report_pairs(self):
        """Flatten into ordered (key, value) pairs for the report format."""
        pairs = [("replications", self.metadata["replications"]), ("seed", self.metadata["seed"])]
        if "init_rule" in self.metadata:
            pairs.append(("init_rule", self.metadata["init_rule"]))
        for i, name in enumerate(self.param_names):
            pairs.append((f"truth_{name}", self.truth[i]))
        for n in self.sample_sizes:
            for i, name in enumerate(self.param_names):
                pairs.append((f"ae_n{n}_{name}", self.ae[n][i]))
            for i, name in enumerate(self.param_names):
                pairs.append((f"mse_n{n}_{name}", self.mse[n][i]))
            pairs.append((f"excluded_n{n}", self.excluded[n]))
            pairs.extend((f"excluded_{why}_n{n}", count) for why, count in self.excluded_by[n].items())
        return pairs


def run_simulation(spec: SimSpec, progress: bool = False) -> SimTable:
    """Run the study sequentially and aggregate per-size AE and MSE."""
    truth = spec.true_params.as_tuple()
    ae = {}
    mse = {}
    excluded_by = {}
    t0 = time.monotonic()
    for n in spec.sample_sizes:
        kept = []
        dropped = excluded_by[n] = {"error": 0, "nonconverged": 0}
        for r in range(spec.replications):
            rng = np.random.default_rng([spec.seed, n, r])
            x, y = bgdge_sample(spec.true_params, rng, size=n)
            data = BivDataset(x, y)
            try:
                rep = fit_biv_mle(data, spec.cfg, compute_se=False)
            except (SeriesCapError, FloatingPointError, ValueError, RuntimeError):
                dropped["error"] += 1
                continue
            if not rep.converged:
                dropped["nonconverged"] += 1
                continue
            kept.append(rep.estimates)
            if progress and (r + 1) % 25 == 0:
                done = time.monotonic() - t0
                print(f"  n={n}: {r + 1}/{spec.replications} replications ({done:.0f}s)", flush=True)
        if not kept:
            raise RuntimeError(f"all replications failed at n={n}")
        est = np.array(kept)
        ae[n] = tuple(float(v) for v in est.mean(axis=0))
        mse[n] = tuple(float(v) for v in ((est - np.array(truth)) ** 2).mean(axis=0))
    if progress:
        print(f"  total elapsed: {time.monotonic() - t0:.0f}s", flush=True)
    metadata = {
        "replications": spec.replications,
        "seed": spec.seed,
        "init_rule": "theta-one-fit+theta-grid",
    }
    return SimTable(
        param_names=spec.true_params.names,
        sample_sizes=spec.sample_sizes,
        truth=tuple(float(v) for v in truth),
        ae=ae,
        mse=mse,
        excluded={n: sum(by.values()) for n, by in excluded_by.items()},
        excluded_by=excluded_by,
        metadata=metadata,
    )
