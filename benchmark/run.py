"""hybridfem benchmark: one workload, end-to-end or traced.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload converge-mixed-k2 --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh Python process (``worker.py``) that imports
hybridfem from this checkout's ``src`` with BLAS pinned to one thread;
processes run one at a time, so the load is one single-threaded process.

--trace 0  prints the end-to-end metrics.  Times are in reference
           seconds, scaled by a probe timed during the work (see
           calibrate.py).  ``setup_s`` is the median over SETUP_RUNS
           fresh processes: the measuring process and set-up-only
           processes started before and after it.
--trace 1  prints the per-layer metrics of a traced run and writes its
           span tree to benchmark/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, and the load average and a CPU speed probe
before and after the workload.  The
exit code is nonzero, with no result line, if the checkout has no
hybridfem sources or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("converge-mixed-k2", "hybrid-pc-rhs", "converge-cg-k1")
SETUP_RUNS = 3
DEADLINE_S = 170.0   # every run must end within 180 s
HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def speed_probe():
    """Median seconds of a fixed pure-Python loop.  Recorded around each
    workload because the load average misses contention from outside
    this machine; a slow probe marks a noisy run."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_worker(args, env, deadline):
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark: out of time before starting a worker")
    # subprocess.run kills and reaps the worker if it overruns.
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(main, runs):
    """End-to-end metrics from the measuring run and all set-up runs.
    Times are in reference seconds (see calibrate.py)."""
    return {
        "setup_s": metric(statistics.median(r["setup_s"] for r in runs), "s"),
        "solve_s": metric(main["solve_s"], "s"),
        "dofs_per_s": metric(statistics.fmean(main["dofs"]) / main["solve_s"], "dofs/s"),
        "peak_rss_mb": metric(main["peak_rss_mb"], "MB"),
        "err_p": metric(main["values"]["err_p"], "L2"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hybridfem", "__init__.py")):
        sys.stderr.write("benchmark: no src/hybridfem in the current directory; "
                         "run from the root of a hybridfem checkout\n")
        return 2
    env = dict(os.environ, PYTHONPATH=src, **BLAS_PIN)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    load_before, probe_before = loadavg(), speed_probe()
    if args.trace:
        trace_out = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        out = run_worker(common + ["--mode", "trace", "--seconds", str(args.seconds),
                                   "--trace-out", trace_out], env, deadline)
        metrics = out["metrics"]
    else:
        # Set-up runs on both sides of the measuring run sample more of the
        # machine's load over time than back-to-back ones.
        def setup():
            return run_worker(common + ["--mode", "setup"], env, deadline)

        before = [setup() for _ in range(SETUP_RUNS // 2)]
        out = run_worker(common + ["--mode", "measure", "--seconds", str(args.seconds)],
                         env, deadline)
        after = [setup() for _ in range(SETUP_RUNS - 1 - len(before))]
        metrics = end_to_end(out, before + [out] + after)
    load_after, probe_after = loadavg(), speed_probe()

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": out["env"], "loadavg_before": load_before, "loadavg_after": load_after,
            "speed_probe_s": [probe_before, probe_after], "failures": out["failures"]}
    if not args.trace:
        # The wall times the reference seconds were scaled from.
        info.update(samples=len(out["unit_s"]),
                    solve_wall_mean_s=statistics.fmean(out["unit_s"]),
                    solve_wall_median_s=statistics.median(out["unit_s"]),
                    probe_median_s=out["probe_s"],
                    setup_wall_s=[r["setup_wall_s"] for r in before + [out] + after],
                    **out["values"])
    print(json.dumps(info))
    print(json.dumps({"correct": not out["failures"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
