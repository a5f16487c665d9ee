"""Time and memory as the mesh grows.

Each solve runs in a fresh Python process, started with BLAS on one
thread, which caps its own address space at 3 GiB with ``RLIMIT_AS``
before it imports numpy, so its ``ru_maxrss`` is that one solve's
high-water mark and a solve that outgrows the cap fails with
``MemoryError``.  For each method and mesh size the table gives the
solve's wall seconds (``t_total``: condensation or assembly, trace
solve, back-substitution and post-processing; the mesh build and the
error pass are left out), the same in microseconds per cell, the Krylov
iterations, the child's ``ru_maxrss`` and the bytes a cell kept by the
mesh and by its geometry.

    PYTHONPATH=src python demos/07_scale.py
    PYTHONPATH=src python demos/07_scale.py --sizes 128,256,512 \\
        --methods cg-primal:1,mixed-hybrid:1
"""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields

METHODS = "cg-primal:1,mixed-hybrid:1,mixed-hybrid:2,ldgh:1"
LIMIT = 3 * 2**30  # RLIMIT_AS of each solve, in bytes


def bytes_per_cell(mesh) -> tuple[float, float]:
    """Bytes a cell held by the mesh's arrays and by its geometry's own,
    before edge data is read (the geometry shares the mesh's vertex arrays)."""
    geo = mesh.geometry()
    held = (sum(getattr(mesh, f.name).nbytes for f in fields(mesh)),
            sum(a.nbytes for a in (geo.origins, geo.jacobians, geo.det_j)))
    return held[0] / mesh.n_cells, held[1] / mesh.n_cells


def child(method: str, degree: int, n: int) -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))
    from hybridfem import build_unit_square
    from hybridfem.problems import manufactured
    from hybridfem.study import StudySpec, solve_hybridizable, solve_primal

    mesh = build_unit_square(n)
    mesh_b, geo_b = bytes_per_cell(mesh)
    solve = solve_primal if method == "cg-primal" else solve_hybridizable
    res = solve(mesh, manufactured("sinsin"), StudySpec(method=method, degree=degree))
    print(json.dumps({"cells": mesh.n_cells, "total_s": res.stages.total(),
                      "iterations": res.report.iterations, "mesh_b": mesh_b, "geo_b": geo_b,
                      "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="16,32,64", help="comma-separated mesh sizes n")
    ap.add_argument("--methods", default=METHODS, help="comma-separated method:degree pairs")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        method, degree, n = args.child.split(":")
        child(method, int(degree), int(n))
        return
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    print(f"{'method':<16} {'n':>5} {'cells':>9} {'total s':>8} {'us/cell':>8} {'its':>4} "
          f"{'maxrss MB':>10} {'mesh B/cell':>12} {'geometry B/cell':>16}")
    for pair in args.methods.split(","):
        method, degree = pair.split(":")
        for n in args.sizes.split(","):
            proc = subprocess.run([sys.executable, __file__, "--child", f"{pair}:{n}"],
                                  env=env, stdout=subprocess.PIPE, text=True, check=True)
            r = json.loads(proc.stdout.splitlines()[-1])
            print(f"{method + ' k=' + degree:<16} {n:>5} {r['cells']:>9,} {r['total_s']:>8.3f} "
                  f"{1e6 * r['total_s'] / r['cells']:>8.2f} {r['iterations']:>4} "
                  f"{r['rss_mb']:>10.1f} {r['mesh_b']:>12.1f} {r['geo_b']:>16.1f}")


if __name__ == "__main__":
    main()
