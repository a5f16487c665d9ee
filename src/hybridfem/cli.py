"""Command-line driver: convergence studies, solver comparison, export.

Subcommands:

* ``converge`` — manufactured-solution convergence study; CSV output.
* ``compare``  — direct solve vs. the condensation-preconditioned paths.
* ``export``   — solve once on a given mesh and write fields as VTK.
"""

from __future__ import annotations

import argparse
import sys

from .io_vtk import export_fields
from .mesh import build_unit_square
from .problems import manufactured
from .solvers import INNER_PCS
from .study import (
    COMPARE_COLUMNS,
    CONVERGE_COLUMNS,
    StudySpec,
    csv_lines,
    run_convergence,
    run_solver_compare,
    solve_hybridizable,
    solve_primal,
    write_csv,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", default="mixed-hybrid",
                   choices=["mixed-hybrid", "ldgh", "cg-primal"])
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--tau", type=float, default=1.0,
                   help="LDG-H stabilization parameter")
    p.add_argument("--problem", default="sinsin", choices=["sinsin", "expsin"])
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--inner-pc", default=StudySpec.inner_pc,
                   choices=INNER_PCS,
                   help="preconditioner of the inner CG (trace or primal) solve")
    p.add_argument("--serial", action="store_true",
                   help="bit-reproducible output (zeroes timing columns)")
    p.add_argument("--csv", default=None, help="write results to this CSV file")


def _sizes(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size list {value!r}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridfem",
        description="Hybridized finite element solvers on the unit square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("converge", help="convergence-rate study")
    _add_common(conv)
    conv.add_argument("--sizes", type=_sizes, default=(4, 8, 16),
                      help="comma-separated mesh subdivisions, e.g. 8,16,32")

    comp = sub.add_parser("compare", help="solver path comparison")
    _add_common(comp)
    comp.add_argument("--sizes", type=_sizes, default=(4, 8),
                      help="comma-separated mesh subdivisions")

    exp = sub.add_parser("export", help="solve once and write VTK fields")
    _add_common(exp)
    exp.add_argument("--size", type=int, default=8, help="mesh subdivision")
    exp.add_argument("--vtk", required=True, help="output VTK path")
    return parser


def _spec_from_args(args, sizes) -> StudySpec:
    return StudySpec(
        method=args.method,
        degree=args.degree,
        tau=args.tau,
        sizes=sizes,
        problem=args.problem,
        rtol=args.rtol,
        inner_pc=args.inner_pc,
        serial=args.serial,
    )


def _emit(rows, columns, csv_path):
    if csv_path:
        write_csv(csv_path, rows, columns)
        print(f"wrote {len(rows)} rows to {csv_path}")
    else:
        print("\n".join(csv_lines(rows, columns)))


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "converge":
        spec = _spec_from_args(args, args.sizes)
        rows = run_convergence(spec)
        _emit(rows, CONVERGE_COLUMNS, args.csv)
        return 0
    if args.command == "compare":
        spec = _spec_from_args(args, args.sizes)
        rows = run_solver_compare(spec)
        _emit(rows, COMPARE_COLUMNS, args.csv)
        return 0
    if args.command == "export":
        spec = _spec_from_args(args, (args.size, args.size + 1))
        mesh = build_unit_square(args.size)
        prob = manufactured(spec.problem)
        if spec.method == "cg-primal":
            res = solve_primal(mesh, prob, spec)
            fields = [("p", res.p)]
        else:
            res = solve_hybridizable(mesh, prob, spec)
            fields = [("p", res.p), ("p_star", res.p_star), ("u", res.u)]
            if res.u_star is not None:
                fields.append(("u_star", res.u_star))
        export_fields(args.vtk, fields)
        print(f"wrote {len(fields)} fields to {args.vtk}")
        return 0
    raise AssertionError


if __name__ == "__main__":
    sys.exit(main())
