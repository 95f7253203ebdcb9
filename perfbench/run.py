#!/usr/bin/env python3
"""Time to a correct certificate, one workload per process.

    python3 perfbench/run.py --workload shm-power --seed 1 --seconds 30 --trace 0

A single closed loop with no worker threads and BLAS pinned to one thread
runs the workload's seeded list of top-level calls back to back, in whole
rounds, as many as fit in ``--seconds`` but at least one, and checks every
output independently.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced round, then one round with spans recorded
at every layer boundary, and reports the per-layer metrics.  The last line
of standard output is the JSON result.  Run from the repository root: the
package is imported from ``src/`` next to this directory, and nothing is
installed.  See README.md in this directory.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # must precede the first numpy import

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, spectrahull; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median time for a fresh interpreter to import numpy and the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def env_header(np, spectrahull) -> str:
    threads = "?"
    try:
        with open("/proc/self/status") as fh:
            threads = next(ln.split()[1] for ln in fh if ln.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return (
        f"# env python={platform.python_version()} numpy={np.__version__}"
        f" numba={spectrahull.eigen.HAVE_NUMBA} blas_threads={BLAS_THREADS}"
        f" process_threads={threads} nproc={os.cpu_count()}"
    )


def layer_metrics(tracer, traced, base) -> dict:
    s = tracer.summary()
    c = tracer.counts

    def g(name, key):
        return s.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "eigen.jacobi_calls": (g("eigen.jacobi", "calls"), "count"),
        "eigen.jacobi_s": (g("eigen.jacobi", "s"), "s"),
        "eigen.jacobi_ops_computed": (c["eigen.jacobi_ops_computed"], "count"),
        "eigen.power_calls": (g("eigen.power", "calls"), "count"),
        "eigen.power_s": (g("eigen.power", "s"), "s"),
        "eigen.power_matvecs": (c["eigen.power_matvecs"], "count"),
        "eigen.power_exit_ratio": (ratio(c["eigen.power_early"], g("eigen.power", "calls")),
                                   "ratio"),
        "shm.pivot_steps": (c["shm.pivot_steps"], "count"),
        "shm.driver_self_s": (g("shm.driver", "self_s"), "s"),
        "shm.prune_calls": (g("shm.prune", "calls"), "count"),
        "shm.prune_s": (g("shm.prune", "s"), "s"),
        "shm.oracle_calls": (g("shm.oracle", "calls"), "count"),
        "shm.oracle_self_s": (g("shm.oracle", "self_s"), "s"),
        "shm.oracle_cache_ratio": (ratio(c["shm.oracle_cache"], g("shm.oracle", "calls")),
                                   "ratio"),
        "shm.oracle_jacobi_ratio": (ratio(c["shm.oracle_jacobi"], g("shm.oracle", "calls")),
                                    "ratio"),
        "shm.verify_s": (g("shm.verify", "s"), "s"),
        "chm.scan_calls": (g("chm.scan", "calls"), "count"),
        "chm.scan_s": (g("chm.scan", "s"), "s"),
        "chm.scan_hit_ratio": (ratio(c["chm.scan_hits"], g("chm.scan", "calls")), "ratio"),
        "chm.solve_s": (g("chm.solve", "s"), "s"),
        "symcore.kernel_calls": (g("symcore.kernel", "calls"), "count"),
        "symcore.kernel_s": (g("symcore.kernel", "s"), "s"),
        "reductions.probes": (g("reductions.probe", "calls"), "count"),
        "reductions.probe_s": (g("reductions.probe", "s"), "s"),
        "reductions.bisection_self_s": (g("reductions.bisection", "self_s"), "s"),
        "reductions.widened": (c["reductions.widened"], "count"),
        "reductions.sdp_reduce_s": (g("reductions.sdp_reduce", "s"), "s"),
        "svmsep.solves": (g("svmsep.solve", "calls"), "count"),
        "svmsep.solve_s": (g("svmsep.solve", "s"), "s"),
        "svmsep.pivot_steps": (c["svmsep.pivot_steps"], "count"),
        "cli.parse_s": (g("cli.parse", "s"), "s"),
        "cli.report_bytes": (traced.report_bytes, "bytes"),
    }
    for layer, own in tracer.layer_self().items():
        m[f"{layer}.self_s"] = (own, "s")
    uncovered = traced.busy - s["<roots>"]["s"]
    m["trace.wall_s"] = (traced.busy, "s")
    m["trace.uncovered_s"] = (uncovered, "s")
    m["trace.uncovered_share"] = (ratio(uncovered, traced.busy), "ratio")
    m["trace.overhead_ratio"] = (ratio(traced.busy, base.busy) - 1.0, "ratio")
    m["trace.spans"] = (float(len(tracer.start)), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import spectrahull
    except ImportError as err:
        print(f"error: cannot import spectrahull from {SRC}: {err}", file=sys.stderr)
        return 2
    if Path(spectrahull.__file__).resolve().parent != SRC / "spectrahull":
        print(f"error: spectrahull resolved to {spectrahull.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import selfcheck
    import spans
    import workloads

    if args.workload not in workloads.BUILDERS:
        ap.error(f"--workload must be one of {', '.join(workloads.BUILDERS)}")
    print(env_header(np, spectrahull))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        build = workloads.BUILDERS[args.workload]
        setup_times = []
        for _ in range(SETUP_REPS):
            wl = None  # peak memory should hold one copy of the inputs, not two
            t = perf_counter()
            wl = build(args.seed, workdir)
            built = perf_counter() - t
            # problem files are the benchmark's own I/O, whose time on the
            # reference file system varied tenfold, so they are written
            # outside set-up
            workloads.write_files(wl.warm_files)
            t = perf_counter()
            warm = workloads.Tally()
            workloads.run_round(wl.warmup, warm)
            setup_times.append(built + perf_counter() - t)
        setup_s = import_seconds() + statistics.median(setup_times)
        workloads.write_files(wl.files)
        problems = selfcheck.run(workdir)
        problems += warm.rejected
        if warm.failed:
            problems.append(f"{warm.failed} warm-up calls failed")

        if args.trace:
            base, traced = workloads.Tally(), workloads.Tally()
            workloads.run_round(wl.ops, base)
            with spans.Tracer() as tracer:
                workloads.run_round(wl.ops, traced)
            span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.dump(span_file)
            metrics = layer_metrics(tracer, traced, base)
            tallies = (base, traced)
            print(f"# spans {len(tracer.start)} written to {span_file}")
        else:
            # as many whole rounds as fit in --seconds, judged by the last
            # round's length, and always at least one
            tally = workloads.Tally()
            start = perf_counter()
            rounds = 0
            while True:
                t = perf_counter()
                workloads.run_round(wl.ops, tally)
                rounds += 1
                now = perf_counter()
                if now - start + (now - t) > args.seconds:
                    break
            times = tally.times or [float("nan")]
            metrics = {
                "setup_s": (setup_s, "s"),
                "solves_per_s": (len(tally.times) / tally.busy, "1/s"),
                "solve_s_p50": (statistics.median(times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            tallies = (tally,)
            print(f"# rounds {rounds} of {len(wl.ops)} calls in {now - start:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for tally in tallies:
        problems += tally.rejected
    for p in problems[:10]:
        print(f"# check: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
