"""Convergence studies and solver comparisons with CSV reporting.

The drivers solve the manufactured model problem with the hybridized
mixed method, the LDG-H method, or a primal continuous Galerkin
reference, record L2 errors with empirical rates between consecutive
meshes, and break solver time into the condensation, forward
elimination, trace solve, back substitution, and post-processing
stages.  Rows are written as UTF-8 CSV with a fixed column order and
``%.12e`` numeric formatting; in serial (bit-reproducible) mode the
timing columns are zeroed since wall clocks are not deterministic.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

import numpy as np

from . import reference
from .condensation import (
    Stages,
    condensed_solve,
    hybridization_apply,
    hybridized,
    scpc_apply,
    scpc_setup,
)
from .expressions import Tensor, assemble_global
from .mesh import Mesh, build_unit_square
from .postprocess import flux_pp, scalar_pp
from .problems import (
    ManufacturedProblem,
    conforming_mixed_system,
    hybridize,
    hybridized_mixed_system,
    ldgh_system,
    manufactured,
    primal_cg_system,
)
from .solvers import (
    INNER_PCS,
    KrylovConfig,
    SolveReport,
    apply_bcs,
    krylov_solve,
    make_preconditioner,
    sparse_direct_solve,
)
from .spaces import Function, cell_blocks, contract, p1_hierarchy, project_div, ref_basis

METHODS = ("mixed-hybrid", "ldgh", "cg-primal")
MAXITER = 5000  # iteration cap of every Krylov solve of a study

CONVERGE_COLUMNS = [
    "method", "problem", "degree", "tau", "n", "h", "cells",
    "dofs_flux", "dofs_scalar", "dofs_trace",
    "err_p", "rate_p", "err_u", "rate_u", "err_pstar", "rate_pstar",
    "err_ustar", "rate_ustar", "err_div_ustar", "rate_div_ustar",
    "iterations", "converged", "residual",
    "t_condense", "t_forward", "t_trace", "t_backsub", "t_post", "t_total",
]

COMPARE_COLUMNS = [
    "method", "problem", "degree", "n", "path", "dofs",
    "iterations", "converged", "residual", "max_diff_vs_direct",
    "t_condense", "t_forward", "t_trace", "t_backsub", "t_post", "t_total",
]


@dataclass
class StudySpec:
    method: str = "mixed-hybrid"
    degree: int = 1
    tau: float = 1.0
    sizes: tuple[int, ...] = (4, 8, 16)
    problem: str = "sinsin"
    rtol: float = 1e-8
    inner_pc: str = "multigrid"  # one of INNER_PCS
    serial: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.inner_pc not in INNER_PCS:
            raise ValueError(f"unknown preconditioner {self.inner_pc!r}")
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 2:
            raise ValueError("a convergence study needs at least two mesh sizes")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("mesh sizes must be strictly increasing")
        self.sizes = sizes


# ---------------------------------------------------------------------------
# error norms


def l2_error(fn: Function, exact, exactness: int = 10) -> float:
    """L2 norm of (fn - exact); ``exact`` maps coordinates to values."""
    return _l2_norms([(fn, "value", exact)], exactness)[0]


def l2_error_div(fn: Function, exact_div, exactness: int = 10) -> float:
    return _l2_norms([(fn, "div", exact_div)], exactness)[0]


def _l2_norms(terms, exactness: int = 10) -> list[float]:
    """L2 norms of the ``deriv`` values of ``fn`` minus ``exact`` for each
    ``(fn, deriv, exact)`` of ``terms``, all on one mesh, summed over cell
    blocks.  A block's points are mapped once, and consecutive terms with
    the same ``exact`` share its values there, so ordering the terms by
    exact solution evaluates each once per block and holds one at a time.
    Each norm is bit for bit that of a one-term call."""
    mesh = terms[0][0].space.mesh
    if any(fn.space.mesh is not mesh for fn, _, _ in terms):
        raise ValueError("the functions of one error pass must share a mesh")
    geo = mesh.geometry()
    rule = reference.triangle_quadrature(exactness)
    totals = [0.0] * len(terms)
    for blk in cell_blocks(slice(0, mesh.n_cells), len(rule.weights)):
        pts = geo.physical_points(rule.points, blk)
        last = want = None
        for i, (fn, deriv, exact) in enumerate(terms):
            if exact is not last:
                want = None  # freed before the next exact solution is evaluated
                want = np.asarray(exact(pts[..., 0], pts[..., 1]), dtype=float)
                last = exact
            totals[i] += _squared_error(fn, deriv, want, rule, geo, blk)
    return [float(np.sqrt(t)) for t in totals]


def _squared_error(fn: Function, deriv: str, want: np.ndarray, rule, geo, blk) -> float:
    """The squared L2 error of ``fn``'s ``deriv`` values against ``want``
    on the cells ``blk``, reduced over the points by the weights, then
    over the cells by ``|det J|``; its temporaries are freed on return,
    before the next term's."""
    space = fn.space
    got = contract(ref_basis(space, deriv, rule.points, geo, blk),
                   fn.coeffs[space.cell_dofs[blk]])  # (ncs, nq, ncomp)
    d = got[..., 0] - want if got.shape[-1] == 1 else got - want
    d *= d
    diff2 = d if d.ndim == 2 else d.sum(axis=-1)
    return (diff2 @ rule.weights) @ np.abs(geo.det_j[blk])


# ---------------------------------------------------------------------------
# solve drivers


@dataclass
class HybridSolveResult:
    u: Function
    p: Function
    lam: Function
    p_star: Function
    u_star: Function | None
    report: SolveReport
    stages: Stages


def _inner_config(spec: StudySpec, S, space) -> KrylovConfig:
    """The inner CG configuration for ``S``, which acts on ``space``'s dofs;
    callers time the call, a trace-solve cost, under ``trace_solve``."""
    maps = p1_hierarchy(space) if spec.inner_pc == "multigrid" else None
    pc = make_preconditioner(S, spec.inner_pc, maps)
    return KrylovConfig(method="cg", rtol=spec.rtol, maxiter=MAXITER, preconditioner=pc)


def solve_hybridizable(mesh: Mesh, prob: ManufacturedProblem,
                       spec: StudySpec) -> HybridSolveResult:
    """Solve via static condensation and post-process the scalar (and,
    for LDG-H, the flux)."""
    if spec.method == "mixed-hybrid":
        hs = hybridized_mixed_system(mesh, prob, spec.degree)
    else:
        hs = ldgh_system(mesh, prob, spec.degree, spec.tau)
    # the condensed system is released on return, before post-processing
    x, report, stages = condensed_solve(
        hs.a, hs.rhs, hs.trace_bcs,
        lambda S: _inner_config(spec, S, hs.trace_space))
    u_vec, p_vec, lam_vec = hs.space.split(x)
    u = Function(hs.flux_space, u_vec)
    p = Function(hs.scalar_space, p_vec)
    lam = Function(hs.trace_space, lam_vec)
    with stages.timing("postprocess"):
        p_star = scalar_pp(u, p, prob.mu)
        u_star = flux_pp(u, p, lam, spec.tau) if spec.method == "ldgh" else None
    return HybridSolveResult(u, p, lam, p_star, u_star, report, stages)


@dataclass
class PrimalSolveResult:
    p: Function
    report: SolveReport
    stages: Stages


def solve_primal(mesh: Mesh, prob: ManufacturedProblem,
                 spec: StudySpec) -> PrimalSolveResult:
    ps = primal_cg_system(mesh, prob, spec.degree)
    stages = Stages()
    with stages.timing("condensation"):
        # the unconstrained A and b are released before the coarse set-up
        Ab, bb = apply_bcs(assemble_global(Tensor(ps.a)), assemble_global(Tensor(ps.rhs)),
                           ps.dirichlet_bcs)
    with stages.timing("trace_solve"):
        x, report = krylov_solve(Ab, bb, _inner_config(spec, Ab, ps.space),
                                 x0=ps.dirichlet_bcs.vector(len(bb)))
    return PrimalSolveResult(Function(ps.space, x), report, stages)


# ---------------------------------------------------------------------------
# convergence study


def _rate(prev: float | None, cur: float | None, ratio: float | None) -> float | None:
    if prev is None or cur is None or prev <= 0.0 or cur <= 0.0:
        return None
    return float(np.log(prev / cur) / np.log(ratio))


def run_convergence(spec: StudySpec) -> list[dict]:
    """Errors, rates, iteration counts, and stage timings per mesh size."""
    prob = manufactured(spec.problem)
    rows: list[dict] = []
    prev: dict[str, float | None] = {}
    prev_n = None
    for n in spec.sizes:
        mesh = build_unit_square(n)
        row: dict = {
            "method": spec.method, "problem": spec.problem,
            "degree": spec.degree,
            "tau": spec.tau if spec.method == "ldgh" else None,
            "n": n, "h": 1.0 / n, "cells": mesh.n_cells,
        }
        if spec.method == "cg-primal":
            res = solve_primal(mesh, prob, spec)
            row.update(dict.fromkeys(("dofs_flux", "dofs_trace", "err_u", "err_pstar",
                                      "err_ustar", "err_div_ustar")),
                       dofs_scalar=res.p.space.ndof_global, err_p=l2_error(res.p, prob.p))
        else:
            res = solve_hybridizable(mesh, prob, spec)
            row.update(dofs_flux=res.u.space.ndof_global, dofs_scalar=res.p.space.ndof_global,
                       dofs_trace=res.lam.space.ndof_global, **_hybrid_errors(res, prob))
        for name in ("p", "u", "pstar", "ustar", "div_ustar"):
            err = row[f"err_{name}"]
            row[f"rate_{name}"] = _rate(prev.get(name), err, prev_n and n / prev_n)
            prev[name] = err
        prev_n = n
        row.update(iterations=res.report.iterations, converged=int(res.report.converged),
                   residual=res.report.residual, **_stage_columns(res.stages, spec.serial))
        rows.append(row)
        del res, mesh  # freed before the next mesh is built
    return rows


def _hybrid_errors(res: HybridSolveResult, prob: ManufacturedProblem) -> dict:
    """A hybridizable row's error columns from one :func:`_l2_norms` pass,
    its terms ordered by exact solution.  The terms are local here so that
    the row's functions, and with them its mesh, are freed before the next
    mesh is solved."""
    terms = [(res.p, "value", prob.p), (res.p_star, "value", prob.p), (res.u, "value", prob.u)]
    if res.u_star is not None:
        terms += [(res.u_star, "value", prob.u), (res.u_star, "div", prob.div_u)]
    return dict(zip(("err_p", "err_pstar", "err_u", "err_ustar", "err_div_ustar"),
                    _l2_norms(terms) + [None] * (5 - len(terms))))


def _stage_columns(stages: Stages, serial: bool) -> dict:
    seconds = (*astuple(stages), stages.total())
    return dict(zip(("t_condense", "t_forward", "t_trace", "t_backsub", "t_post", "t_total"),
                    (0.0,) * 6 if serial else seconds))


# ---------------------------------------------------------------------------
# solver comparison


def run_solver_compare(spec: StudySpec) -> list[dict]:
    """Compare the direct solve against preconditioner-driven paths.

    For the mixed methods the baseline is the sparse direct solve; the
    hybridization and static condensation paths run one outer flexible
    GMRES preconditioned by the respective factorization, and the
    resulting coefficient vectors are compared entrywise.
    """
    if spec.method == "cg-primal":
        raise ValueError("solver comparison applies to the mixed methods")
    prob = manufactured(spec.problem)
    rows: list[dict] = []
    for n in spec.sizes:
        mesh = build_unit_square(n)
        base = {"method": spec.method, "problem": spec.problem,
                "degree": spec.degree, "n": n}
        rows.extend(_compare(mesh, prob, spec, base))
    return rows


def _direct_row(A, b, spec, base) -> tuple[np.ndarray, dict]:
    """The sparse direct solve of a constrained system and its row."""
    stages = Stages()
    with stages.timing("trace_solve"):
        x = sparse_direct_solve(A, b)
    return x, dict(base, path="direct", dofs=len(b), iterations=0, converged=1,
                   residual=0.0, max_diff_vs_direct=0.0,
                   **_stage_columns(stages, spec.serial))


def _fgmres_row(A, b, x0, apply, acc: Stages, spec, base, path) -> tuple[np.ndarray, dict]:
    """Outer flexible GMRES on ``A x = b`` preconditioned by ``apply(r) ->
    (y, report, stages)``, whose stage times are added to ``acc``; returns
    the solution and its row, whose ``max_diff_vs_direct`` the caller
    fills in."""
    def pc(r):
        y, _, st = apply(r)
        acc.add(st)
        return y

    cfg = KrylovConfig(method="fgmres", rtol=spec.rtol, maxiter=MAXITER, preconditioner=pc)
    x, rep = krylov_solve(A, b, cfg, x0=x0)
    return x, dict(base, path=path, dofs=len(b), iterations=rep.iterations,
                   converged=int(rep.converged), residual=rep.residual,
                   **_stage_columns(acc, spec.serial))


def _compare(mesh, prob, spec, base) -> list[dict]:
    """The rows of one mesh.  Outer FGMRES on the three-field system with
    its trace BCs applied, lifted into the initial guess and
    preconditioned by static condensation, is the ``scpc-pc`` row.  For
    LDG-H the direct solve of that system is the baseline; for the
    mixed-hybrid method it is the direct solve of the conforming system,
    which outer FGMRES also solves preconditioned by its hybridization,
    the ``hybridization-pc`` row, applying the same condensed system."""
    if spec.method == "mixed-hybrid":
        ms = conforming_mixed_system(mesh, prob, spec.degree)
        hs = hybridize(ms.a, ms.rhs, prob.u)
    else:
        hs = ldgh_system(mesh, prob, spec.degree, spec.tau)
    operator = Tensor(hs.a)
    # assembling memoizes the element tensors that set-up reads
    A, b = apply_bcs(assemble_global(operator), assemble_global(Tensor(hs.rhs)), hs.trace_bcs)
    setup = Stages()
    with setup.timing("condensation"):
        cs = scpc_setup(operator, hs.trace_bcs)
    with setup.timing("trace_solve"):
        inner = _inner_config(spec, cs.S, hs.trace_space)
    x, scpc = _fgmres_row(A, b, hs.trace_bcs.vector(len(b)),
                          lambda r: scpc_apply(cs, r, inner, homogeneous_bcs=True),
                          replace(setup), spec, base, "scpc-pc")
    if spec.method == "ldgh":
        x_direct, direct = _direct_row(A, b, spec, base)
        scpc["max_diff_vs_direct"] = float(np.abs(x - x_direct).max())
        return [direct, scpc]

    A, b = apply_bcs(assemble_global(Tensor(ms.a)), assemble_global(Tensor(ms.rhs)),
                     ms.flux_bcs)
    x_direct, direct = _direct_row(A, b, spec, base)
    hm = hybridized(ms.a, hs, cs)
    xh, hybrid = _fgmres_row(A, b, ms.flux_bcs.vector(len(b)),
                             lambda r: hybridization_apply(hm, r, inner),
                             replace(setup), spec, base, "hybridization-pc")
    hybrid["max_diff_vs_direct"] = float(np.abs(xh - x_direct).max())
    u, p, _ = hs.space.split(x)
    u = project_div(hm.transfer, Function(hs.flux_space, u))
    scpc["max_diff_vs_direct"] = float(np.abs(np.concatenate([u.coeffs, p]) - x_direct).max())
    return [direct, hybrid, scpc]


# ---------------------------------------------------------------------------
# CSV output


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12e}"
    return str(v)


def csv_lines(rows: list[dict], columns: list[str]) -> list[str]:
    """The header and one line per row, values formatted by :func:`format_value`."""
    return [",".join(columns)] + [",".join(format_value(row.get(c)) for c in columns)
                                  for row in rows]


def write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(csv_lines(rows, columns)) + "\n")
