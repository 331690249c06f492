#!/usr/bin/env python3
"""Benchmark of gdge: one workload per run, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload seriea --seed 1 --seconds 20 --trace 0

Run from the root of a gdge checkout; the package is imported from ``src/``.
The run:

1. measures set-up -- importing gdge (numpy and scipy with it) and building
   the workload's inputs -- in two fresh probe processes and in its own
   process, and keeps the median of the three;
2. computes the oracle references that do not depend on results (untimed);
3. repeats rounds -- the workload's fixed list of operations -- until
   ``--seconds`` of step wall time have passed (at least the workload's minimum
   number of rounds), checking every step's output outside the timed region;
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   metrics -- end-to-end with ``--trace 0``, per-layer with ``--trace 1``.

Every reported time is CPU time of the process (``time.process_time``).  The
workload is one thread, so that is its wall time less the time the core was
given to other work -- by the host (steal time) or by the guest -- which on a
shared host swings whole runs by a factor of two.  Run length is counted in
wall time, so that a slow stretch does not lengthen a run.

With ``--trace 1`` every public gdge function is wrapped (see spans.py) and
the spans are written to ``.perfbench/trace-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: One process, one thread: no BLAS thread pool next to the workload.
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60
WALL_CAP_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("seriea", "simstudy", "large-sample", "evaluate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="step time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload: str, seed: int):
    """Import gdge and build the workload's inputs; returns (CPU seconds, workload)."""
    t0 = time.process_time()
    sys.path.insert(0, str(SRC))
    import gdge  # noqa: F401  (numpy and scipy come with it)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    elapsed = time.process_time() - t0
    if Path(gdge.__file__).resolve().parent != SRC / "gdge":
        raise SystemExit(f"imported gdge from {gdge.__file__}, not from {SRC}")
    return elapsed, wl


def probe_setup(args) -> float:
    """Set-up time of a fresh process (it inherits THREAD_ENV from this one)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_rounds(wl, seconds: float, tracer):
    """Whole rounds until `seconds` of step wall time have passed.

    Returns the round and operation CPU times, the step wall time, the steps
    attempted, the steps failed, and the wrong outputs.
    """
    from workloads import KNOWN_FAULTS

    round_times, op_times, attempted, failed, wrong = [], [], 0, 0, []
    reported = set()

    def report(step, k, msg):
        if step not in reported:
            reported.add(step)
            print(f"{wl.name} round {k} {step}: {msg}", file=sys.stderr)

    # checks fall outside the step clocks; the wall-clock cap makes every run end
    deadline = time.perf_counter() + 4 * seconds + WALL_CAP_S
    k, step_wall = 0, 0.0
    while (k < wl.min_rounds or step_wall < seconds) and time.perf_counter() < deadline:
        round_time = 0.0
        for op in wl.round(k):
            if tracer:
                tracer.next_op()
            op_time = 0.0
            for step in op:
                attempted += 1
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    out, raised = step.run(), None
                except Exception as exc:  # a step that raises is a failed step
                    out, raised = None, exc
                op_time += time.process_time() - c0
                step_wall += time.perf_counter() - w0
                if raised is not None:
                    failed += 1
                    report(step.name, k, f"raised {type(raised).__name__}: {raised}")
                    continue
                msg = step.check(out)
                if msg is None:
                    continue
                if step.name in KNOWN_FAULTS:
                    failed += 1
                else:
                    wrong.append(f"round {k} {step.name}: {msg}")
                report(step.name, k, msg)
            op_times.append(op_time)
            round_time += op_time
        round_times.append(round_time)
        k += 1
    return round_times, op_times, step_wall, attempted, failed, wrong


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gdge" / "__init__.py").is_file():
        print(f"error: no gdge sources under {SRC}; run from the root of a gdge checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    warnings.simplefilter("ignore")  # the fitter's RuntimeWarnings, as the test suite silences them

    if args.setup_probe:
        print(setup(args.workload, args.seed)[0])
        return 0

    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    own_setup, wl = setup(args.workload, args.seed)

    import oracle
    wl.prepare(oracle)

    tracer = None
    if args.trace:
        import gdge
        from spans import Tracer

        tracer = Tracer()
        tracer.install(gdge)

    t0 = time.perf_counter()
    round_times, op_times, step_wall, attempted, failed, wrong = run_rounds(wl, args.seconds, tracer)
    elapsed = time.perf_counter() - t0
    for line in wrong[:10]:
        print(f"WRONG {wl.name} {line}", file=sys.stderr)

    round_cpu_s = statistics.median(round_times)
    if tracer:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.layer_metrics(len(op_times)).items()}
        metrics["trace.round_cpu_s"] = {"value": round_cpu_s, "unit": "s"}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}.npz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(probes + [own_setup]), "unit": "s"},
            "round_cpu_s": {"value": round_cpu_s, "unit": "s"},
            "op_cpu_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(f"{wl.name}: {len(round_times)} rounds in {elapsed:.1f} s; steps took {step_wall:.1f} s wall, "
          f"{sum(round_times):.1f} s CPU; set-up CPU {['%.3f' % v for v in probes + [own_setup]]}",
          file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
