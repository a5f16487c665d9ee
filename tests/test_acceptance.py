"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import time

import numpy as np

from hybridfem import DIRICHLET, NEUMANN, Function, build_unit_square, mark_boundary
from hybridfem.condensation import (
    hybridization_apply,
    hybridization_setup,
    scpc_apply,
    scpc_setup,
)
from hybridfem.expressions import (
    AssembledVector,
    Tensor,
    assemble_global,
    compile_expr,
    evaluate_all,
    naive_evaluate,
)
from hybridfem.postprocess import flux_pp
from hybridfem.problems import (
    conforming_mixed_system,
    hybridized_mixed_system,
    ldgh_system,
    manufactured,
)
from hybridfem.reference import edge_points
from hybridfem.solvers import (
    KrylovConfig,
    apply_bcs,
    exact_preconditioner,
    krylov_solve,
    sparse_direct_solve,
)
from hybridfem.spaces import (
    broken_transfer,
    eval_function,
    transfer_residual,
)
from hybridfem.study import StudySpec, run_convergence
from support import inject_broken

PROB = manufactured("sinsin")


def _verdict(num: int, ok: bool, message: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, message


def exact_inner(S):
    return KrylovConfig(method="cg", rtol=1e-12, maxiter=1000,
                        preconditioner=exact_preconditioner(S))


def test_criterion_1_mixed_hybrid_rates():
    """p, u rates k and post-processed rate k+1 on the finest pair."""
    t0 = time.perf_counter()
    ok, parts = True, []
    for k in (1, 2):
        spec = StudySpec(method="mixed-hybrid", degree=k, sizes=(8, 16, 32),
                         inner_pc="exact")
        last = run_convergence(spec)[-1]
        ok &= abs(last["rate_p"] - k) <= 0.2
        ok &= abs(last["rate_u"] - k) <= 0.2
        ok &= abs(last["rate_pstar"] - (k + 1)) <= 0.2
        parts.append(f"k={k}: p {last['rate_p']:.2f} u {last['rate_u']:.2f} "
                     f"p* {last['rate_pstar']:.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _verdict(1, ok, "mixed-hybrid rates (k, k, k+1); "
             + "; ".join(parts) + f"; {elapsed:.1f}s")


def test_criterion_2_ldgh_rates():
    """LDG-H (tau=1) rates k+1 for p, u and k+2 for the processed scalar."""
    t0 = time.perf_counter()
    ok, parts = True, []
    for k in (1, 2):
        spec = StudySpec(method="ldgh", degree=k, tau=1.0, sizes=(8, 16, 32),
                         inner_pc="exact")
        last = run_convergence(spec)[-1]
        ok &= abs(last["rate_p"] - (k + 1)) <= 0.2
        ok &= abs(last["rate_u"] - (k + 1)) <= 0.2
        ok &= abs(last["rate_pstar"] - (k + 2)) <= 0.25
        parts.append(f"k={k}: p {last['rate_p']:.2f} u {last['rate_u']:.2f} "
                     f"p* {last['rate_pstar']:.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _verdict(2, ok, "LDG-H rates (k+1, k+1, k+2); "
             + "; ".join(parts) + f"; {elapsed:.1f}s")


def test_criterion_3_hybridization_equivalence():
    """Hybridized-then-projected equals the direct conforming mixed solve."""
    worst = 0.0
    labelings = [None, lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET]
    for k in (1, 2):
        for n in (2, 4, 8):
            for mark in labelings:
                mesh = build_unit_square(n)
                if mark is not None:
                    mesh = mark_boundary(mesh, mark)
                ms = conforming_mixed_system(mesh, PROB, k)
                hm = hybridization_setup(ms.a, neumann_flux=PROB.u)
                b = assemble_global(Tensor(ms.rhs))
                x, _, _ = hybridization_apply(hm, b, exact_inner(hm.cs.S),
                                              include_boundary_data=True)
                A = assemble_global(Tensor(ms.a))
                Ab, bb = apply_bcs(A, b, ms.flux_bcs)
                xd = sparse_direct_solve(Ab, bb)
                worst = max(worst, float(np.abs(x - xd).max()))
    _verdict(3, worst < 1e-8,
             f"hybridized vs direct mixed, max coefficient diff {worst:.2e}")


def test_criterion_4_one_iteration_exactness():
    """Direct inner solves give one outer FGMRES iteration, both paths."""
    mesh = mark_boundary(build_unit_square(4),
                         lambda x, y: NEUMANN if y > 1 - 1e-12 else DIRICHLET)
    ok = True

    # hybridization preconditioner on the conforming mixed system
    ms = conforming_mixed_system(mesh, PROB, 1)
    hm = hybridization_setup(ms.a, neumann_flux=PROB.u)
    A = assemble_global(Tensor(ms.a))
    b = assemble_global(Tensor(ms.rhs))
    Ab, bb = apply_bcs(A, b, ms.flux_bcs)
    pc = lambda r: hybridization_apply(hm, r, exact_inner(hm.cs.S))[0]
    x, rep = krylov_solve(Ab, bb,
                          KrylovConfig(method="fgmres", rtol=1e-8,
                                       preconditioner=pc),
                          x0=ms.flux_bcs.vector(len(bb)))
    ok &= rep.converged and rep.iterations == 1
    hyb_iters = rep.iterations

    # static condensation preconditioner on the three-field system
    hs = hybridized_mixed_system(mesh, PROB, 1)
    cs = scpc_setup(hs.a, hs.trace_bcs)
    A3 = assemble_global(Tensor(hs.a))
    b3 = assemble_global(Tensor(hs.rhs))
    A3b, b3b = apply_bcs(A3, b3, hs.trace_bcs)
    pc3 = lambda r: scpc_apply(cs, r, exact_inner(cs.S), homogeneous_bcs=True)[0]
    x3, rep3 = krylov_solve(A3b, b3b,
                            KrylovConfig(method="fgmres", rtol=1e-8,
                                         preconditioner=pc3))
    ok &= rep3.converged and rep3.iterations == 1
    _verdict(4, ok, f"one-iteration exactness: hybridization {hyb_iters} it, "
             f"scpc {rep3.iterations} it at rtol 1e-8")


def test_criterion_5_trace_operator_structure():
    """Condensed trace operator: symmetric and Cholesky-factorizable."""
    ok, parts = True, []
    for n in (2, 4, 8):
        mesh = build_unit_square(n)
        hs = hybridized_mixed_system(mesh, PROB, 1)
        cs = scpc_setup(hs.a, hs.trace_bcs)
        S = cs.S.toarray()
        asym = np.abs(S - S.T).max() / np.abs(S).max()
        ok &= asym <= 1e-10
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            ok = False
        parts.append(f"n={n} asym {asym:.1e}")
    _verdict(5, ok, "trace operator symmetric positive definite; "
             + ", ".join(parts))


def test_criterion_6_residual_transfer_identity():
    """Split residuals pair identically with every conforming function."""
    mesh = build_unit_square(4)
    ms = conforming_mixed_system(mesh, PROB, 2)
    U = ms.space.fields[0]
    from hybridfem.spaces import break_space

    bt = broken_transfer(U, break_space(U))
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        r = rng.standard_normal(U.ndof_global)
        w = rng.standard_normal(U.ndof_global)
        rb = transfer_residual(bt, r)
        wb = inject_broken(bt, Function(U, w))
        worst = max(worst, abs(rb @ wb.coeffs - r @ w))
    _verdict(6, worst < 1e-12,
             f"residual transfer identity, max |Rhat(w) - R(w)| = {worst:.2e}")


def test_criterion_7_flux_postprocessing():
    """Reconstructed flux: zero normal jumps and divergence rate k+1."""
    ok, parts = True, []
    for k in (1, 2):
        spec = StudySpec(method="ldgh", degree=k, tau=1.0, sizes=(8, 16, 32),
                         inner_pc="exact", rtol=1e-12)
        rows = run_convergence(spec)
        rate = rows[-1]["rate_div_ustar"]
        ok &= abs(rate - (k + 1)) <= 0.25
        parts.append(f"k={k} div-rate {rate:.2f}")

        # jump check on the coarsest study mesh
        mesh = build_unit_square(8)
        ls = ldgh_system(mesh, PROB, k, 1.0)
        cs = scpc_setup(ls.a, ls.trace_bcs)
        rhs = assemble_global(Tensor(ls.rhs))
        x, _, _ = scpc_apply(cs, rhs, exact_inner(cs.S))
        u, p, lam = ls.space.split(x)
        u_star = flux_pp(Function(ls.flux_space, u), Function(ls.scalar_space, p),
                         Function(ls.trace_space, lam), 1.0)
        geo = mesh.geometry()
        t = np.linspace(0.1, 0.9, 4)
        jump_max = 0.0
        for f in mesh.interior_facets:
            (c0, c1), (l0, l1) = mesh.facet_cells[f], mesh.facet_local_index[f]
            sides = []
            for c, loc in ((c0, l0), (c1, l1)):  # both run along the facet the same way
                v = eval_function(u_star, edge_points(loc, t))[c]
                sides.append(np.einsum("qi,i->q", v, geo.edge_normals[c, loc]))
            jump_max = max(jump_max, float(np.abs(sides[0] + sides[1]).max()))
        ok &= jump_max < 1e-10
        parts.append(f"k={k} jump {jump_max:.1e}")
    _verdict(7, ok, "flux reconstruction conformity; " + ", ".join(parts))


def _expression_set(system, rhs_vec):
    """The condensation and recovery expressions of one hybridizable system."""
    W = system.space
    A = Tensor(system.a)
    F = AssembledVector((W, rhs_vec))
    S = A.blocks[2, 2] - A.blocks[2, :2] * A.blocks[:2, :2].inv * A.blocks[:2, 2]
    E = F.blocks[2] - A.blocks[2, :2] * A.blocks[:2, :2].inv * F.blocks[:2]
    A00, A01, A02 = A.blocks[0, 0], A.blocks[0, 1], A.blocks[0, 2]
    A10, A11, A12 = A.blocks[1, 0], A.blocks[1, 1], A.blocks[1, 2]
    Sd = A11 - A10 * A00.inv * A01
    Sl = A12 - A10 * A00.inv * A02
    rng = np.random.default_rng(7)
    lam = AssembledVector(Function(W.fields[2],
                                   rng.standard_normal(W.fields[2].ndof_global)))
    pfn = AssembledVector(Function(W.fields[1],
                                   rng.standard_normal(W.fields[1].ndof_global)))
    p_sys = Sd.solve(F.blocks[1] - A10 * A00.inv * F.blocks[0] - Sl * lam)
    u_sys = A00.solve(F.blocks[0] - A01 * pfn - A02 * lam)
    return {"S": S, "E": E, "Sd": Sd, "Sl": Sl, "p_sys": p_sys, "u_sys": u_sys}


def test_criterion_8_plan_oracle_equivalence():
    """Batched plan evaluation matches naive recursion for the full
    expression set."""
    mesh = build_unit_square(3)
    rng = np.random.default_rng(99)
    worst = 0.0
    n_checked = 0
    for system in (hybridized_mixed_system(mesh, PROB, 1),
                   ldgh_system(mesh, PROB, 1, tau=1.0)):
        rhs_vec = assemble_global(Tensor(system.rhs))
        for name, expr in _expression_set(system, rhs_vec).items():
            vals = evaluate_all(compile_expr(expr))
            cells = rng.integers(0, mesh.n_cells, 20)
            for c in cells:
                want = naive_evaluate(expr, int(c))
                scale = max(np.abs(want).max(), 1e-30)
                worst = max(worst, float(np.abs(vals[c] - want).max() / scale))
                n_checked += 1
    _verdict(8, worst < 1e-12,
             f"plan vs naive evaluator on {n_checked} cell evaluations, "
             f"max relative diff {worst:.2e}")


def test_criterion_9_serial_determinism(tmp_path):
    """Two serial converge invocations produce identical CSV bytes."""
    from hybridfem.cli import main

    args = ["converge", "--method", "mixed-hybrid", "--degree", "1",
            "--sizes", "4,8", "--inner-pc", "jacobi", "--serial"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--csv", str(a)])
    main(args + ["--csv", str(b)])
    same = a.read_bytes() == b.read_bytes()
    _verdict(9, same, "serial converge runs are bit-identical")
