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

import time
from dataclasses import dataclass

import numpy as np

from . import reference
from .condensation import (
    FieldSplit,
    Stages,
    hybridization_apply,
    hybridization_setup,
    scpc_apply,
    scpc_setup,
)
from .expressions import Tensor, assemble_global
from .mesh import Mesh, build_unit_square
from .postprocess import flux_pp, scalar_pp
from .problems import (
    HybridizableSystem,
    ManufacturedProblem,
    conforming_mixed_system,
    hybridized_mixed_system,
    ldgh_system,
    manufactured,
    primal_cg_system,
)
from .solvers import (
    KrylovConfig,
    SolveReport,
    apply_bcs,
    bc_lift_vector,
    krylov_solve,
    make_preconditioner,
    sparse_direct_solve,
)
from .spaces import Function, eval_function, eval_function_div, project_div

METHODS = ("mixed-hybrid", "ldgh", "cg-primal")

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
    maxiter: int = 5000
    inner_pc: str = "jacobi"    # none | jacobi | exact
    serial: bool = False
    multiplier_degree: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
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
    mesh = fn.space.mesh
    rule = reference.triangle_quadrature(min(exactness, reference.MAX_EXACTNESS))
    geo = mesh.geometry()
    pts = geo.physical_points(rule.points)
    want = np.asarray(exact(pts[..., 0], pts[..., 1]), dtype=float)
    got = eval_function(fn, rule.points)
    diff2 = (got - want) ** 2
    if diff2.ndim == 3:
        diff2 = diff2.sum(axis=-1)
    return float(np.sqrt(np.sum(rule.weights * diff2 * geo.det_j[:, None])))


def l2_error_div(fn: Function, exact_div, exactness: int = 10) -> float:
    mesh = fn.space.mesh
    rule = reference.triangle_quadrature(min(exactness, reference.MAX_EXACTNESS))
    geo = mesh.geometry()
    pts = geo.physical_points(rule.points)
    want = np.asarray(exact_div(pts[..., 0], pts[..., 1]), dtype=float)
    got = eval_function_div(fn, rule.points)
    return float(np.sqrt(np.sum(rule.weights * (got - want) ** 2
                                * geo.det_j[:, None])))


# ---------------------------------------------------------------------------
# solve drivers


@dataclass
class HybridSolveResult:
    system: HybridizableSystem
    u: Function
    p: Function
    lam: Function
    p_star: Function
    u_star: Function | None
    report: SolveReport
    stages: Stages


def _inner_config(spec: StudySpec, S) -> KrylovConfig:
    return KrylovConfig(
        method="cg",
        rtol=spec.rtol,
        maxiter=spec.maxiter,
        preconditioner=make_preconditioner(S, spec.inner_pc),
    )


def solve_hybridizable(mesh: Mesh, prob: ManufacturedProblem,
                       spec: StudySpec) -> HybridSolveResult:
    """Solve via static condensation and post-process the scalar (and,
    for LDG-H, the flux)."""
    if spec.method == "mixed-hybrid":
        hs = hybridized_mixed_system(mesh, prob, spec.degree)
    else:
        hs = ldgh_system(mesh, prob, spec.degree, spec.tau)
    cs = scpc_setup(hs.a, FieldSplit((0, 1), (2,)), hs.trace_bcs)
    rhs = assemble_global(Tensor(hs.rhs))
    x, report, stages = scpc_apply(cs, rhs, _inner_config(spec, cs.S))
    u_vec, p_vec, lam_vec = hs.space.split(x)
    u = Function(hs.flux_space, u_vec)
    p = Function(hs.scalar_space, p_vec)
    lam = Function(hs.trace_space, lam_vec)
    t0 = time.perf_counter()
    p_star = scalar_pp(u, p, prob.mu, spec.multiplier_degree)
    u_star = None
    if spec.method == "ldgh":
        u_star = flux_pp(u, p, lam, spec.tau)
    stages.postprocess = time.perf_counter() - t0
    return HybridSolveResult(hs, u, p, lam, p_star, u_star, report, stages)


@dataclass
class PrimalSolveResult:
    p: Function
    report: SolveReport
    stages: Stages


def solve_primal(mesh: Mesh, prob: ManufacturedProblem,
                 spec: StudySpec) -> PrimalSolveResult:
    ps = primal_cg_system(mesh, prob, spec.degree)
    t0 = time.perf_counter()
    A = assemble_global(Tensor(ps.a))
    b = assemble_global(Tensor(ps.rhs))
    Ab, bb = apply_bcs(A, b, ps.dirichlet_bcs)
    assembly = time.perf_counter() - t0
    cfg = _inner_config(spec, Ab)
    x0 = bc_lift_vector(len(bb), ps.dirichlet_bcs)
    t0 = time.perf_counter()
    x, report = krylov_solve(Ab, bb, cfg, x0=x0)
    solve = time.perf_counter() - t0
    stages = Stages(condensation=assembly, trace_solve=solve)
    return PrimalSolveResult(Function(ps.space, x), report, stages)


# ---------------------------------------------------------------------------
# convergence study


def _rate(prev: float | None, cur: float, ratio: float) -> float | None:
    if prev is None or prev <= 0.0 or cur <= 0.0:
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
            row.update({
                "dofs_flux": None, "dofs_trace": None,
                "dofs_scalar": res.p.space.ndof_global,
                "err_p": l2_error(res.p, prob.p),
                "err_u": None, "err_pstar": None, "err_ustar": None,
                "err_div_ustar": None,
            })
            report, stages = res.report, res.stages
        else:
            res = solve_hybridizable(mesh, prob, spec)
            row.update({
                "dofs_flux": res.u.space.ndof_global,
                "dofs_scalar": res.p.space.ndof_global,
                "dofs_trace": res.lam.space.ndof_global,
                "err_p": l2_error(res.p, prob.p),
                "err_u": l2_error(res.u, prob.u),
                "err_pstar": l2_error(res.p_star, prob.p),
                "err_ustar": (l2_error(res.u_star, prob.u)
                              if res.u_star is not None else None),
                "err_div_ustar": (l2_error_div(res.u_star, prob.div_u)
                                  if res.u_star is not None else None),
            })
            report, stages = res.report, res.stages
        ratio = None if prev_n is None else n / prev_n
        for name in ("p", "u", "pstar", "ustar", "div_ustar"):
            err = row.get(f"err_{name}")
            row[f"rate_{name}"] = (
                _rate(prev.get(name), err, ratio)
                if ratio is not None and err is not None else None
            )
            prev[name] = err
        prev_n = n
        row.update({
            "iterations": report.iterations,
            "converged": int(report.converged),
            "residual": report.residual,
        })
        row.update(_stage_columns(stages, spec.serial))
        rows.append(row)
    return rows


def _stage_columns(stages: Stages, serial: bool) -> dict:
    if serial:
        return {k: 0.0 for k in
                ("t_condense", "t_forward", "t_trace", "t_backsub", "t_post",
                 "t_total")}
    return {
        "t_condense": stages.condensation,
        "t_forward": stages.forward,
        "t_trace": stages.trace_solve,
        "t_backsub": stages.backsub,
        "t_post": stages.postprocess,
        "t_total": stages.total(),
    }


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
        if spec.method == "mixed-hybrid":
            rows.extend(_compare_mixed(mesh, prob, spec, base))
        else:
            rows.extend(_compare_ldgh(mesh, prob, spec, base))
    return rows


def _staged_preconditioner(apply, acc: Stages):
    """Wrap ``apply(r) -> (y, report, stages)`` as a preconditioner that
    adds each application's stage times to ``acc``."""
    def pc(r):
        y, _, st = apply(r)
        acc.forward += st.forward
        acc.trace_solve += st.trace_solve
        acc.backsub += st.backsub
        return y
    return pc


def _compare_mixed(mesh, prob, spec, base) -> list[dict]:
    ms = conforming_mixed_system(mesh, prob, spec.degree)
    A = assemble_global(Tensor(ms.a))
    b = assemble_global(Tensor(ms.rhs))
    Ab, bb = apply_bcs(A, b, ms.flux_bcs)
    x0 = bc_lift_vector(len(bb), ms.flux_bcs)

    t0 = time.perf_counter()
    x_direct = sparse_direct_solve(Ab, bb)
    t_direct = time.perf_counter() - t0
    rows = [dict(base, path="direct", dofs=len(bb), iterations=0, converged=1,
                 residual=0.0, max_diff_vs_direct=0.0,
                 **_stage_columns(Stages(trace_solve=t_direct), spec.serial))]

    # outer FGMRES preconditioned by the hybridization factorization
    hm = hybridization_setup(ms.a, ms.rhs, neumann_flux=prob.u)
    inner = _inner_config(spec, hm.cs.S)
    acc = Stages(condensation=hm.cs.setup_time)
    pc_h = _staged_preconditioner(
        lambda r: hybridization_apply(hm, r, inner), acc)
    cfg = KrylovConfig(method="fgmres", rtol=spec.rtol, maxiter=spec.maxiter,
                       preconditioner=pc_h)
    xh, rep = krylov_solve(Ab, bb, cfg, x0=x0)
    rows.append(dict(base, path="hybridization-pc", dofs=len(bb),
                     iterations=rep.iterations, converged=int(rep.converged),
                     residual=rep.residual,
                     max_diff_vs_direct=float(np.abs(xh - x_direct).max()),
                     **_stage_columns(acc, spec.serial)))

    # outer FGMRES on the same hybridized three-field system with SCPC
    hs = hm.system
    off = int(hs.space.offsets[2])
    gbcs = [(d + off, v) for d, v in hs.trace_bcs]
    A3 = assemble_global(hm.cs.operator)
    b3 = assemble_global(Tensor(hs.rhs))
    A3b, b3b = apply_bcs(A3, b3, gbcs)
    acc3 = Stages(condensation=hm.cs.setup_time)
    pc_s = _staged_preconditioner(
        lambda r: scpc_apply(hm.cs, r, inner, homogeneous_bcs=True), acc3)
    cfg3 = KrylovConfig(method="fgmres", rtol=spec.rtol, maxiter=spec.maxiter,
                        preconditioner=pc_s)
    x3, rep3 = krylov_solve(A3b, b3b, cfg3)
    u3, p3, _ = hs.space.split(x3)
    u_conf = project_div(hm.transfer, Function(hs.flux_space, u3))
    x3_mixed = np.concatenate([u_conf.coeffs, p3])
    rows.append(dict(base, path="scpc-pc", dofs=len(b3b),
                     iterations=rep3.iterations, converged=int(rep3.converged),
                     residual=rep3.residual,
                     max_diff_vs_direct=float(np.abs(x3_mixed - x_direct).max()),
                     **_stage_columns(acc3, spec.serial)))
    return rows


def _compare_ldgh(mesh, prob, spec, base) -> list[dict]:
    ls = ldgh_system(mesh, prob, spec.degree, spec.tau)
    cs = scpc_setup(ls.a, FieldSplit((0, 1), (2,)), ls.trace_bcs)
    off = int(ls.space.offsets[2])
    gbcs = [(d + off, v) for d, v in ls.trace_bcs]
    A = assemble_global(cs.operator)
    b = assemble_global(Tensor(ls.rhs))
    Ab, bb = apply_bcs(A, b, gbcs)
    x0 = bc_lift_vector(len(bb), gbcs)

    t0 = time.perf_counter()
    x_direct = sparse_direct_solve(Ab, bb)
    t_direct = time.perf_counter() - t0
    rows = [dict(base, path="direct", dofs=len(bb), iterations=0, converged=1,
                 residual=0.0, max_diff_vs_direct=0.0,
                 **_stage_columns(Stages(trace_solve=t_direct), spec.serial))]

    inner = _inner_config(spec, cs.S)
    acc = Stages(condensation=cs.setup_time)
    pc = _staged_preconditioner(
        lambda r: scpc_apply(cs, r, inner, homogeneous_bcs=True), acc)
    cfg = KrylovConfig(method="fgmres", rtol=spec.rtol, maxiter=spec.maxiter,
                       preconditioner=pc)
    x, rep = krylov_solve(Ab, bb, cfg, x0=x0)
    rows.append(dict(base, path="scpc-pc", dofs=len(bb),
                     iterations=rep.iterations, converged=int(rep.converged),
                     residual=rep.residual,
                     max_diff_vs_direct=float(np.abs(x - x_direct).max()),
                     **_stage_columns(acc, spec.serial)))
    return rows


# ---------------------------------------------------------------------------
# CSV output


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12e}"
    return str(v)


def write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row.get(c)) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
