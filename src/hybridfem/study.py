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
from .spaces import Function, cell_blocks, coarse_p1_map, contract, project_div, ref_basis

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
    inner_pc: str = "twolevel"  # none | jacobi | twolevel | exact
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
    return _l2_norm(fn, "value", exact, exactness)


def l2_error_div(fn: Function, exact_div, exactness: int = 10) -> float:
    return _l2_norm(fn, "div", exact_div, exactness)


def _l2_norm(fn: Function, deriv: str, exact, exactness: int) -> float:
    """L2 norm of the ``deriv`` values of ``fn`` minus ``exact``, summed
    over cell blocks."""
    space = fn.space
    geo = space.mesh.geometry()
    rule = reference.triangle_quadrature(min(exactness, reference.MAX_EXACTNESS))
    total = 0.0
    for blk in cell_blocks(slice(0, space.mesh.n_cells), len(rule.weights)):
        pts = geo.physical_points(rule.points, blk)
        want = np.asarray(exact(pts[..., 0], pts[..., 1]), dtype=float)
        got = contract(ref_basis(space, deriv, rule.points, geo, blk),
                       fn.coeffs[space.cell_dofs[blk]])  # (ncs, nq, ncomp)
        if got.shape[-1] == 1:
            want = want[..., None]
        diff2 = ((got - want) ** 2).sum(axis=-1)
        total += np.sum(rule.weights * diff2 * geo.det_j[blk, None])
    return float(np.sqrt(total))


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


def _inner_config(spec: StudySpec, S, space) -> tuple[KrylovConfig, float]:
    """The inner CG configuration for ``S``, which acts on ``space``'s dofs,
    and the seconds its preconditioner's set-up took (a trace-solve cost)."""
    t0 = time.perf_counter()
    P = coarse_p1_map(space) if spec.inner_pc == "twolevel" else None
    pc = make_preconditioner(S, spec.inner_pc, P)
    return (KrylovConfig(method="cg", rtol=spec.rtol, maxiter=spec.maxiter, preconditioner=pc),
            time.perf_counter() - t0)


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
    inner, t_inner = _inner_config(spec, cs.S, hs.trace_space)
    x, report, stages = scpc_apply(cs, rhs, inner)
    stages.trace_solve += t_inner
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
    # the unconstrained A and b are released before the coarse set-up
    Ab, bb = apply_bcs(assemble_global(Tensor(ps.a)), assemble_global(Tensor(ps.rhs)),
                       ps.dirichlet_bcs)
    assembly = time.perf_counter() - t0
    cfg, t_inner = _inner_config(spec, Ab, ps.space)
    x0 = bc_lift_vector(len(bb), ps.dirichlet_bcs)
    t0 = time.perf_counter()
    x, report = krylov_solve(Ab, bb, cfg, x0=x0)
    solve = time.perf_counter() - t0
    stages = Stages(condensation=assembly, trace_solve=t_inner + solve)
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


def _direct_row(A, b, spec, base) -> tuple[np.ndarray, dict]:
    """The sparse direct solve of a constrained system and its row."""
    t0 = time.perf_counter()
    x = sparse_direct_solve(A, b)
    stages = Stages(trace_solve=time.perf_counter() - t0)
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
        acc.forward += st.forward
        acc.trace_solve += st.trace_solve
        acc.backsub += st.backsub
        return y

    cfg = KrylovConfig(method="fgmres", rtol=spec.rtol, maxiter=spec.maxiter, preconditioner=pc)
    x, rep = krylov_solve(A, b, cfg, x0=x0)
    return x, dict(base, path=path, dofs=len(b), iterations=rep.iterations,
                   converged=int(rep.converged), residual=rep.residual,
                   **_stage_columns(acc, spec.serial))


def _scpc_pc(cs, system: HybridizableSystem, operator: Tensor, inner: KrylovConfig,
             t_inner: float, spec, base):
    """Outer FGMRES on the three-field ``system`` condensed by ``cs``, its
    trace BCs shifted to global dofs and lifted into the initial guess,
    preconditioned by static condensation, whose set-up evaluated
    ``operator``, the frozen ``Tensor`` of ``system.a``; ``t_inner`` is
    the set-up time of ``inner``'s preconditioner.  Returns the
    constrained operator and right-hand side, the solution and its row."""
    off = int(system.space.offsets[2])
    gbcs = [(d + off, v) for d, v in system.trace_bcs]
    A, b = apply_bcs(assemble_global(operator), assemble_global(Tensor(system.rhs)), gbcs)
    x, row = _fgmres_row(A, b, bc_lift_vector(len(b), gbcs),
                         lambda r: scpc_apply(cs, r, inner, homogeneous_bcs=True),
                         Stages(condensation=cs.setup_time, trace_solve=t_inner),
                         spec, base, "scpc-pc")
    return A, b, x, row


def _compare_mixed(mesh, prob, spec, base) -> list[dict]:
    ms = conforming_mixed_system(mesh, prob, spec.degree)
    A = assemble_global(Tensor(ms.a))
    b = assemble_global(Tensor(ms.rhs))
    Ab, bb = apply_bcs(A, b, ms.flux_bcs)
    x_direct, direct = _direct_row(Ab, bb, spec, base)

    # outer FGMRES preconditioned by the hybridization factorization
    hm = hybridization_setup(ms.a, ms.rhs, neumann_flux=prob.u)
    inner, t_inner = _inner_config(spec, hm.cs.S, hm.system.trace_space)
    xh, hybrid = _fgmres_row(Ab, bb, bc_lift_vector(len(bb), ms.flux_bcs),
                             lambda r: hybridization_apply(hm, r, inner),
                             Stages(condensation=hm.cs.setup_time, trace_solve=t_inner),
                             spec, base, "hybridization-pc")
    hybrid["max_diff_vs_direct"] = float(np.abs(xh - x_direct).max())

    # outer FGMRES on the same hybridized three-field system with SCPC
    hs = hm.system
    _, _, x3, scpc = _scpc_pc(hm.cs, hs, hm.operator, inner, t_inner, spec, base)
    u3, p3, _ = hs.space.split(x3)
    u_conf = project_div(hm.transfer, Function(hs.flux_space, u3))
    scpc["max_diff_vs_direct"] = float(np.abs(np.concatenate([u_conf.coeffs, p3])
                                              - x_direct).max())
    return [direct, hybrid, scpc]


def _compare_ldgh(mesh, prob, spec, base) -> list[dict]:
    ls = ldgh_system(mesh, prob, spec.degree, spec.tau)
    operator = Tensor(ls.a, frozen=True)
    cs = scpc_setup(operator, FieldSplit((0, 1), (2,)), ls.trace_bcs)
    inner, t_inner = _inner_config(spec, cs.S, ls.trace_space)
    A, b, x, scpc = _scpc_pc(cs, ls, operator, inner, t_inner, spec, base)
    x_direct, direct = _direct_row(A, b, spec, base)
    scpc["max_diff_vs_direct"] = float(np.abs(x - x_direct).max())
    return [direct, scpc]


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
