"""Run one benchmark workload in a fresh process and print its raw result.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``
and BLAS pinned to one thread.  ``setup_s`` is measured from the first
line of this file, before numpy and hybridfem are imported, until the
first timed unit is ready.  In the setup and measure modes a probe runs
inside the work and times are reported in reference seconds as well as
wall seconds (see calibrate.py).

Modes:
  setup    set up and report setup_s only;
  measure  set up, then run timed units for --seconds and check each;
  trace    set up traced, run the tracer self-check, then alternate an
           untraced and a traced run of the same unit for --seconds and
           report per-layer numbers and the span tree.

The last line of standard output is one JSON object.  Library functions
are reached through their module (``condensation.hybridization_apply``),
never bound to a local name, so the tracer's wrappers see the calls.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import hybridfem  # noqa: E402
from hybridfem import condensation, expressions, mesh, problems, solvers, spaces, study  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RATE_BAND = 0.2      # |rate - expected| allowed on the finest mesh pair
ERR_RTOL = 1e-6      # relative tolerance of errors against reference.json
RESIDUAL_MAX = 1e-8  # bound on the true relative residual of every unit


class ConvergeWorkload:
    """Each unit is one ``run_convergence`` call on a fixed spec; the
    seed does not change the inputs.  Set-up ends with a warm-up unit on
    meshes 2 and 4, which builds the reference elements."""

    def __init__(self, spec, rates, reference):
        self.spec, self.rates, self.reference = spec, rates, reference

    def setup(self, seed):
        study.run_convergence(dataclasses.replace(self.spec, sizes=(2, 4)))

    def prepare_checks(self):
        pass

    def run(self, i, clock):
        """One unit timed by ``clock``: (result, dofs solved, seconds)."""
        t = clock()
        rows = study.run_convergence(self.spec)
        dt = clock() - t
        dofs = sum(r[k] or 0 for r in rows for k in ("dofs_flux", "dofs_scalar", "dofs_trace"))
        return rows, dofs, dt

    def outcome(self, rows):
        """The values that must be bit-identical with tracing on and off."""
        return [(r["err_p"], r["err_u"], r["err_pstar"], r["iterations"], r["residual"])
                for r in rows]

    def check(self, rows):
        """(failures, reported values) of one unit."""
        bad = [f"n={r['n']}: not converged" for r in rows if r["converged"] != 1]
        for key, want in self.rates.items():
            got = rows[-1][key]
            if abs(got - want) > RATE_BAND:
                bad.append(f"{key}={got:.4f}, expected {want}+-{RATE_BAND}")
        for r in rows:
            for key, want in self.reference[str(r["n"])].items():
                if abs(r[key] - want) > ERR_RTOL * abs(want):
                    bad.append(f"n={r['n']}: {key}={r[key]!r}, reference {want!r}")
        values = {"err_p": rows[-1]["err_p"], "err_pstar": rows[-1]["err_pstar"],
                  "residual_max": max(float(r["residual"]) for r in rows)}
        return bad, values

    def final_check(self):
        return {}, []


class HybridRhsWorkload:
    """One hybridization set-up with an exact inner solve; each unit is
    one ``hybridization_apply`` on a residual drawn from the seed."""

    def __init__(self, reference):
        self.reference = reference

    def setup(self, seed):
        self.seed = seed
        self.prob = problems.manufactured("sinsin")
        self.ms = problems.conforming_mixed_system(mesh.build_unit_square(64), self.prob, 1)
        self.hm = condensation.hybridization_setup(self.ms.a)
        self.inner = solvers.KrylovConfig(
            method="cg", rtol=1e-12, maxiter=1000,
            preconditioner=solvers.make_preconditioner(self.hm.cs.S, "exact"))

    def prepare_checks(self):
        # The conforming operator the residuals are checked against.
        self.A = expressions.assemble_global(expressions.Tensor(self.ms.a))

    def run(self, i, clock):
        r = np.random.default_rng([self.seed, i]).standard_normal(self.A.shape[0])
        t = clock()
        x, report, _ = condensation.hybridization_apply(self.hm, r, self.inner)
        dt = clock() - t
        return (x, report, r), len(r), dt

    def outcome(self, result):
        x, report, _ = result
        return (x.tobytes(), report.iterations, report.residual)

    def check(self, result):
        x, report, r = result
        rel = float(np.linalg.norm(self.A @ x - r) / np.linalg.norm(r))
        bad = [] if report.converged else ["inner solve not converged"]
        if not rel <= RESIDUAL_MAX:
            bad.append(f"||Ax - r||/||r|| = {rel:.3e} > {RESIDUAL_MAX}")
        return bad, {"residual_max": rel}

    def final_check(self):
        """Full solve from the problem's right-hand side; its err_p must
        match the reference value."""
        b = expressions.assemble_global(expressions.Tensor(self.ms.rhs))
        x, _, _ = condensation.hybridization_apply(self.hm, b, self.inner,
                                                   include_boundary_data=True)
        _, p = self.hm.conforming.split(x)
        err_p = study.l2_error(spaces.Function(self.ms.space.fields[1], p), self.prob.p)
        want = self.reference["err_p"]
        bad = [] if abs(err_p - want) <= ERR_RTOL * abs(want) else [
            f"err_p={err_p!r}, reference {want!r}"]
        return {"err_p": err_p}, bad


def make_workload(name):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[name]
    if name == "converge-mixed-k2":
        return ConvergeWorkload(
            study.StudySpec(method="mixed-hybrid", degree=2, sizes=(32, 64), inner_pc="jacobi"),
            {"rate_p": 2.0, "rate_pstar": 3.0}, reference)
    if name == "converge-cg-k1":
        return ConvergeWorkload(study.StudySpec(method="cg-primal", degree=1, sizes=(128, 256)),
                                {"rate_p": 2.0}, reference)
    if name == "hybrid-pc-rhs":
        return HybridRhsWorkload(reference)
    raise SystemExit(f"unknown workload {name!r}")


def tiny_cases():
    """Self-check cases on meshes of 2 and 4 cells a side that together
    call every covered function."""
    study.run_convergence(study.StudySpec(method="mixed-hybrid", degree=1, sizes=(2, 4)))
    study.run_convergence(study.StudySpec(method="cg-primal", degree=1, sizes=(2, 4)))
    ms = problems.conforming_mixed_system(mesh.build_unit_square(2),
                                          problems.manufactured("sinsin"), 1)
    hm = condensation.hybridization_setup(ms.a)
    inner = solvers.KrylovConfig(preconditioner=solvers.make_preconditioner(hm.cs.S, "exact"))
    condensation.hybridization_apply(hm, np.ones(hm.conforming.ndof_global), inner)


def environment():
    import scipy
    import sympy
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_pin": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "hybridfem": os.path.relpath(os.path.dirname(hybridfem.__file__)),
    }


def unit_loop(seconds, step, min_units=1):
    """Call ``step(i)`` while the next call is expected to end within
    ``seconds`` of the first, and at least ``min_units`` times; return
    the number of calls."""
    start, durations = time.perf_counter(), []
    while (len(durations) < min_units
           or time.perf_counter() - start + statistics.median(durations) <= seconds):
        t = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t)
    return len(durations)


def timed_setup(wl, seed, sampler, probe_build_s):
    """Set up with ``sampler`` running; return the set-up times.

    ``setup_wall_s`` runs from the first line of this file.  ``setup_s``
    is the same time without the probe's own build and passes, in
    reference seconds (see calibrate.py)."""
    wl.setup(seed)
    wall_s = time.perf_counter() - T0
    probe_s = statistics.median(sampler.passes or [sampler.probe.run()])
    net_s = wall_s - probe_build_s - sampler.probe_total_s
    return {"setup_wall_s": wall_s, "setup_probe_s": probe_s,
            "setup_s": calibrate.reference_s(net_s, probe_s)}


def measure(wl, seed, seconds, sampler, probe_build_s):
    out = timed_setup(wl, seed, sampler, probe_build_s)
    wl.prepare_checks()
    first_pass = len(sampler.passes)
    times, unit_passes, dofs, failures = [], [], [], []
    values = {"residual_max": 0.0}
    failed = 0

    def step(i):
        nonlocal failed
        try:
            first = len(sampler.passes)
            result, n, dt = wl.run(i, sampler.net_clock)
            times.append(dt)
            unit_passes.append(sampler.passes[first:])
            dofs.append(n)
            bad, vals = wl.check(result)
        except Exception as exc:  # a unit that raises is counted as failed
            bad, vals = [repr(exc)], {}
        failed += bool(bad)
        failures.extend(f"unit {i}: {b}" for b in bad)
        values["residual_max"] = max(values["residual_max"], vals.pop("residual_max", 0.0))
        values.update(vals)

    attempted = unit_loop(seconds, step)
    probe_s = statistics.median(sampler.passes[first_pass:] or [sampler.probe.run()])
    # Each unit is scaled by the passes that ran inside it, which follows
    # the host's drift within a run; a unit too short to hold a pass is
    # scaled by the run's median pass.
    unit_ref_s = [calibrate.reference_s(dt, statistics.median(passes) if passes else probe_s)
                  for dt, passes in zip(times, unit_passes)]
    final, bad = wl.final_check()
    values.update(final)
    failures.extend(bad)
    out.update(solve_s=statistics.fmean(unit_ref_s),
               unit_s=times, probe_s=probe_s, dofs=dofs, attempted=attempted,
               failed=failed, failures=failures, values=values)
    return out


def trace(wl, seed, seconds, trace_out):
    tr = tracing.Tracer()
    tr.unit = "setup"
    tr.install()
    try:
        wl.setup(seed)
    finally:
        tr.uninstall()
    failures = [f"self-check: {m}" for m in tracing.self_check(tiny_cases)]
    wl.prepare_checks()
    plain_s, traced_s, counts = [], [], []
    failed = set()

    def step(i):
        plain, _, dt = wl.run(i, time.perf_counter)
        plain_s.append(dt)
        tr.unit = i
        tr.install()
        try:
            traced, _, dt = wl.run(i, time.perf_counter)
        finally:
            tr.uninstall()
        traced_s.append(dt)
        counts.append(tr.unit_counts(i))
        bad = wl.check(traced)[0]
        if wl.outcome(plain) != wl.outcome(traced):
            bad.append("results differ with tracing on and off")
        if bad:
            failed.add(i)
        failures.extend(f"unit {i}: {b}" for b in bad)

    start = time.perf_counter()
    n = unit_loop(seconds, step, min_units=2)  # the repeat check needs two
    for i, c in enumerate(counts[1:], 1):
        if c != counts[0]:
            diff = sorted(k for k in c if c[k] != counts[0][k])
            failures.append(f"unit {i}: exact counts differ from unit 0 in {diff}")
    failures.extend(wl.final_check()[1])

    selfs = tr.self_times()
    metrics = {f"{name}.self_s": (sum(selfs[u, name] for u in range(n)) / n, "s")
               for name in tracing.FUNCTIONS}
    metrics.update((f"{name}.setup_self_s", (selfs["setup", name], "s"))
                   for name in tracing.FUNCTIONS)
    metrics.update((k, (v, "ratio" if k.endswith("distinct_ratio") else "count"))
                   for k, v in counts[0].items())
    traced_mean, plain_mean = statistics.fmean(traced_s), statistics.fmean(plain_s)
    metrics["trace.solve_s"] = (traced_mean, "s")
    metrics["trace.untraced_solve_s"] = (plain_mean, "s")
    metrics["trace.overhead_s"] = (traced_mean - plain_mean, "s")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "unit"],
                   "spans": [[n, a - T0, b - T0, p, u] for n, a, b, p, u in tr.spans],
                   "metrics": metrics,
                   "measured_s": time.perf_counter() - start}, fh)
    return {"attempted": 2 * n, "failed": len(failed), "failures": failures,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    if args.mode == "trace":
        out = trace(make_workload(args.workload), args.seed, args.seconds, args.trace_out)
    else:
        t = time.perf_counter()
        probe = calibrate.Probe()
        probe.run()  # warm-up
        probe_build_s = time.perf_counter() - t
        with calibrate.Sampler(probe) as sampler:
            wl = make_workload(args.workload)
            if args.mode == "setup":
                out = timed_setup(wl, args.seed, sampler, probe_build_s)
            else:
                out = measure(wl, args.seed, args.seconds, sampler, probe_build_s)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
