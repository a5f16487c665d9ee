import dataclasses
import gc
import weakref

import numpy as np
import pytest

from hybridfem import condensation, expressions
from hybridfem import (
    DG,
    DIRICHLET,
    NEUMANN,
    Function,
    Trace,
    build_jittered_square,
    build_unit_square,
    create_space,
    mark_boundary,
)
from hybridfem.condensation import (
    CondensedSystem,
    condensed_solve,
    hybridization_apply,
    hybridization_setup,
    hybridized,
    scpc_apply,
    scpc_setup,
)
from hybridfem.expressions import Tensor, assemble_global
from hybridfem.forms import ScalarField
from hybridfem.mesh import Mesh
from hybridfem.problems import (
    conforming_mixed_system,
    hybridize,
    hybridized_mixed_system,
    ldgh_system,
    manufactured,
)
from hybridfem.solvers import (
    KrylovConfig,
    Constraints,
    apply_bcs,
    exact_preconditioner,
    jacobi_preconditioner,
    krylov_solve,
    sparse_direct_solve,
)

PROB = manufactured("sinsin")


def exact_inner(S):
    return KrylovConfig(method="cg", rtol=1e-12, maxiter=500,
                        preconditioner=exact_preconditioner(S))


def test_conforming_field_elimination_rejected():
    mesh = build_unit_square(2)
    ms = conforming_mixed_system(mesh, PROB, 1)
    with pytest.raises(ValueError, match=r"field 0 \(RT\(1\)\) is not cell-local"):
        scpc_setup(ms.a)


def _mass_form(*families):
    """The block-diagonal mass form of the mixed space of ``families`` on
    ``build_unit_square(2)``: cell terms for cell fields, facet terms for
    traces, no coupling between fields."""
    from hybridfem import MixedSpace
    from hybridfem.forms import CELL, EXTERIOR, INTERIOR, FormIR, IntegralTerm, dot
    from hybridfem.forms import test as tfn, trial

    mesh = build_unit_square(2)
    W = MixedSpace(tuple(create_space(mesh, f) for f in families))
    terms = []
    for i, f in enumerate(families):
        domains = (INTERIOR, EXTERIOR) if f.kind == "Trace" else (CELL,)
        terms += [IntegralTerm(d, dot(tfn(i), trial(i))) for d in domains]
    return FormIR(W, W, terms)


def test_all_cell_local_fields_rejected():
    """With every field cell-local nothing is left to condense onto."""
    a = _mass_form(DG(0), DG(0))
    rhs = dataclasses.replace(a, trial=None, terms=[])
    with pytest.raises(ValueError, match="every field is cell-local"):
        scpc_setup(a)
    with pytest.raises(ValueError, match="every field is cell-local"):
        condensed_solve(a, rhs, None, exact_inner)


def test_schur_matches_dense_global_oracle():
    """S equals condensing the dense global 3-field matrix block-wise."""
    mesh = build_unit_square(2)
    hs = hybridized_mixed_system(mesh, PROB, 1)
    cs = scpc_setup(hs.a)
    A = assemble_global(Tensor(hs.a)).toarray()
    W = hs.space
    ne = int(W.offsets[2])
    Aee, Aec = A[:ne, :ne], A[:ne, ne:]
    Ace, Acc = A[ne:, :ne], A[ne:, ne:]
    S_oracle = Acc - Ace @ np.linalg.solve(Aee, Aec)
    S = cs.S.toarray()
    scale = np.abs(S_oracle).max()
    assert np.abs(S - S_oracle).max() < 1e-12 * scale


@pytest.mark.parametrize("n", [2, 4, 8])
def test_trace_operator_spd(n):
    mesh = build_unit_square(n)
    hs = hybridized_mixed_system(mesh, PROB, 1)
    cs = scpc_setup(hs.a, hs.trace_bcs)
    S = cs.S.toarray()
    assert np.abs(S - S.T).max() <= 1e-10 * np.abs(S).max()
    np.linalg.cholesky(S)  # raises if not positive definite


def test_trivial_block_diagonal_schur():
    """With zero couplings the condensed operator is just A_cc.  Only the
    leading cell-local fields are eliminated: a cell-local field after the
    first one that is not stays in A_cc."""
    for families in [(DG(0), Trace(0)), (DG(0), Trace(0), DG(0))]:
        a = _mass_form(*families)
        cs = scpc_setup(a)
        Acc = assemble_global(Tensor(a).blocks[1:, 1:])
        np.testing.assert_allclose(cs.S.toarray(), Acc.toarray(), atol=1e-14,
                                   err_msg=f"{len(families)} fields")


@pytest.mark.parametrize("method,degree", [("mixed-hybrid", 1), ("mixed-hybrid", 2),
                                           ("ldgh", 1), ("ldgh", 2)])
def test_condensed_solve_matches_direct(method, degree):
    mesh = build_unit_square(3)
    if method == "mixed-hybrid":
        hs = hybridized_mixed_system(mesh, PROB, degree)
    else:
        hs = ldgh_system(mesh, PROB, degree, tau=1.0)
    cs = scpc_setup(hs.a, hs.trace_bcs)
    rhs = assemble_global(Tensor(hs.rhs))
    x, rep, stages = scpc_apply(cs, rhs, exact_inner(cs.S))
    A = assemble_global(Tensor(hs.a))
    Ab, bb = apply_bcs(A, rhs, hs.trace_bcs)
    xd = sparse_direct_solve(Ab, bb)
    scale = np.abs(xd).max()
    assert np.abs(x - xd).max() < 1e-9 * scale
    assert rep.converged
    assert stages.total() > 0.0


@pytest.mark.parametrize("method", ["mixed-hybrid", "ldgh"])
def test_one_constraints_value_serves_direct_and_condensed_solves(method):
    """The system's trace constraints, unshifted, constrain both the
    three-field matrix and the condensation; LDG-H's are nonzero."""
    mesh = mark_boundary(build_jittered_square(4, 0.2, 3), neumann_left)
    prob = manufactured("expsin")
    hs = (hybridized_mixed_system(mesh, prob, 2) if method == "mixed-hybrid"
          else ldgh_system(mesh, prob, 1))
    x, rep, _ = condensed_solve(hs.a, hs.rhs, hs.trace_bcs, exact_inner)
    Ab, bb = apply_bcs(assemble_global(Tensor(hs.a)), assemble_global(Tensor(hs.rhs)),
                       hs.trace_bcs)
    xd = sparse_direct_solve(Ab, bb)
    assert rep.converged
    assert np.linalg.norm(x - xd) <= 1e-10 * np.linalg.norm(xd)
    cs = scpc_setup(hs.a, hs.trace_bcs)
    np.testing.assert_array_equal(cs.constraints.dofs + hs.space.offsets[2], hs.trace_bcs.dofs)
    np.testing.assert_array_equal(cs.constraints.values, hs.trace_bcs.values)


def test_constraint_on_an_eliminated_field_is_named():
    hs = hybridized_mixed_system(build_unit_square(2), PROB, 1)
    dofs = np.concatenate([[5], hs.trace_bcs.dofs])
    bcs = Constraints(dofs, np.zeros(len(dofs)))
    with pytest.raises(ValueError, match="dof 5 lies on an eliminated field"):
        scpc_setup(hs.a, bcs)
    with pytest.raises(ValueError, match="dof 5 lies on an eliminated field"):
        condensed_solve(hs.a, hs.rhs, bcs, exact_inner)
    beyond = Constraints(np.array([hs.space.ndof_global]), np.zeros(1))
    with pytest.raises(ValueError, match=f"dof {hs.space.ndof_global - hs.space.offsets[2]} "
                                         "is out of range"):
        scpc_setup(hs.a, beyond)


def test_zero_residual_zero_correction():
    mesh = build_unit_square(2)
    hs = hybridized_mixed_system(mesh, PROB, 1)
    cs = scpc_setup(hs.a, hs.trace_bcs)
    x, rep, _ = scpc_apply(cs, np.zeros(hs.space.ndof_global),
                           exact_inner(cs.S), homogeneous_bcs=True)
    assert np.abs(x).max() == 0.0
    assert rep.iterations == 0


def test_backsubstitution_satisfies_eliminated_rows():
    """Recovered fields solve the eliminated block equations."""
    mesh = build_unit_square(2)
    hs = hybridized_mixed_system(mesh, PROB, 1)
    cs = scpc_setup(hs.a, hs.trace_bcs)
    rng = np.random.default_rng(6)
    r = rng.standard_normal(hs.space.ndof_global)
    x, _, _ = scpc_apply(cs, r, exact_inner(cs.S), homogeneous_bcs=True)
    A = assemble_global(Tensor(hs.a)).toarray()
    ne = int(hs.space.offsets[2])
    resid = r[:ne] - A[:ne] @ x
    assert np.abs(resid).max() < 1e-9 * max(np.abs(r).max(), 1.0)


@pytest.mark.parametrize("method", ["mixed-hybrid", "ldgh"])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("mesh_kind", ["structured", "jittered"])
def test_scpc_apply_inverts_constrained_system_for_any_residual(method, degree, mesh_kind):
    """With an exact inner solve, an application inverts the constrained
    three-field operator for a residual with interior trace entries:
    each condensed-field residual entry enters the condensed right-hand
    side once, not once per adjacent cell."""
    if mesh_kind == "jittered":
        mesh = build_jittered_square(4, 0.2, 3)
    else:
        mesh = build_unit_square(4)
    if method == "mixed-hybrid":
        hs = hybridized_mixed_system(mesh, PROB, degree)
    else:
        hs = ldgh_system(mesh, PROB, degree, tau=1.0)
    cs = scpc_setup(hs.a, hs.trace_bcs)
    homogeneous = Constraints(hs.trace_bcs.dofs, np.zeros(len(hs.trace_bcs)))
    r = np.random.default_rng(12).standard_normal(hs.space.ndof_global)
    r[homogeneous.dofs] = 0.0
    x, rep, _ = scpc_apply(cs, r, exact_inner(cs.S), homogeneous_bcs=True)
    Ab, bb = apply_bcs(assemble_global(Tensor(hs.a)), r, homogeneous)
    xd = sparse_direct_solve(Ab, bb)
    assert rep.converged
    assert np.linalg.norm(x - xd) <= 1e-12 * np.linalg.norm(xd)


def test_scpc_one_iteration_outer():
    """Exact inner solves make SCPC an exact inverse: one outer iteration."""
    mesh = build_unit_square(3)
    hs = hybridized_mixed_system(mesh, PROB, 1)
    cs = scpc_setup(hs.a, hs.trace_bcs)
    A = assemble_global(Tensor(hs.a))
    b = assemble_global(Tensor(hs.rhs))
    Ab, bb = apply_bcs(A, b, hs.trace_bcs)

    def pc(r):
        return scpc_apply(cs, r, exact_inner(cs.S), homogeneous_bcs=True)[0]

    cfg = KrylovConfig(method="fgmres", rtol=1e-8, preconditioner=pc)
    x, rep = krylov_solve(Ab, bb, cfg)
    assert rep.converged
    assert rep.iterations == 1


# ---------------------------------------------------------------------------
# hybridization


def neumann_left(x, y):
    return NEUMANN if x < 1e-12 else DIRICHLET


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("labeling", [None, neumann_left])
def test_hybridized_equals_direct_mixed(degree, n, labeling):
    check_hybridized_equals_direct(build_unit_square(n), degree, labeling)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("labeling", [None, neumann_left])
def test_hybridized_equals_direct_mixed_jittered(degree, n, labeling):
    check_hybridized_equals_direct(build_jittered_square(n, 0.2, 3), degree, labeling)


def check_hybridized_equals_direct(mesh, degree, labeling):
    if labeling is not None:
        mesh = mark_boundary(mesh, labeling)
    ms = conforming_mixed_system(mesh, PROB, degree)
    hm = hybridization_setup(ms.a, neumann_flux=PROB.u)
    b = assemble_global(Tensor(ms.rhs))
    x, rep, _ = hybridization_apply(hm, b, exact_inner(hm.cs.S),
                                    include_boundary_data=True)
    A = assemble_global(Tensor(ms.a))
    Ab, bb = apply_bcs(A, b, ms.flux_bcs)
    xd = sparse_direct_solve(Ab, bb)
    assert np.abs(x - xd).max() < 1e-8


def test_hybridization_one_iteration_outer():
    mesh = mark_boundary(build_unit_square(4), neumann_left)
    ms = conforming_mixed_system(mesh, PROB, 1)
    hm = hybridization_setup(ms.a, neumann_flux=PROB.u)
    A = assemble_global(Tensor(ms.a))
    b = assemble_global(Tensor(ms.rhs))
    Ab, bb = apply_bcs(A, b, ms.flux_bcs)
    x0 = ms.flux_bcs.vector(len(bb))

    def pc(r):
        return hybridization_apply(hm, r, exact_inner(hm.cs.S))[0]

    cfg = KrylovConfig(method="fgmres", rtol=1e-8, preconditioner=pc)
    x, rep = krylov_solve(Ab, bb, cfg, x0=x0)
    assert rep.converged
    assert rep.iterations == 1
    xd = sparse_direct_solve(Ab, bb)
    assert np.abs(x - xd).max() < 1e-8


def test_hybridization_zero_residual():
    mesh = build_unit_square(2)
    ms = conforming_mixed_system(mesh, PROB, 1)
    hm = hybridization_setup(ms.a)
    x, rep, _ = hybridization_apply(
        hm, np.zeros(ms.space.ndof_global), exact_inner(hm.cs.S)
    )
    assert np.abs(x).max() == 0.0


def test_applications_report_no_condensation_time():
    """Set-up is not an application's stage: an apply times its forward
    elimination, trace solve and back substitution only."""
    ms = conforming_mixed_system(build_unit_square(2), PROB, 1)
    hm = hybridization_setup(ms.a)
    inner = exact_inner(hm.cs.S)
    r = np.ones(hm.cs.local_inverse.shape[0] + hm.cs.S.shape[0])
    for _, _, stages in (scpc_apply(hm.cs, r, inner),
                         hybridization_apply(hm, np.ones(ms.space.ndof_global), inner)):
        assert stages.condensation == 0.0
        assert min(stages.forward, stages.trace_solve, stages.backsub) > 0.0


def test_hybridization_keeps_no_three_field_system():
    """A hybridization holds its condensed system and transfer, not the
    three-field system it was built from: once the caller drops that
    system, its forms and spaces are freed."""
    ms = conforming_mixed_system(build_unit_square(2), PROB, 1)
    hs = hybridize(ms.a)
    hm = hybridized(ms.a, hs, scpc_setup(hs.a, hs.trace_bcs))
    ref = weakref.ref(hs)
    del hs
    gc.collect()
    assert ref() is None
    x, rep, _ = hybridization_apply(hm, np.ones(ms.space.ndof_global), exact_inner(hm.cs.S))
    assert rep.converged and np.isfinite(x).all()


def test_hybridization_rejects_wrong_system():
    mesh = build_unit_square(1)
    hs = hybridized_mixed_system(mesh, PROB, 1)
    with pytest.raises(ValueError):
        hybridization_setup(hs.a)


def test_ldgh_trace_block_sign_convention():
    """Transmission rows are assembled sign-flipped: the trace-trace
    block on an interior facet carries +tau |e| per side (the flip keeps
    the condensed operator positive definite)."""
    from hybridfem.expressions import Tensor, assemble_global

    mesh = build_unit_square(1)
    ls = ldgh_system(mesh, PROB, 0, tau=1.0)
    A22 = assemble_global(Tensor(ls.a).blocks[2, 2]).toarray()
    f = mesh.interior_facets[0]
    d = ls.trace_space.facet_dofs[f, 0]
    length = np.sqrt(2.0)
    assert abs(A22[d, d] - 2.0 * length) < 1e-12  # both sides contribute +tau|e|


def test_hybridization_zero_neumann_data():
    """With g = 0 the Neumann surface terms leave the trace rhs at zero."""
    mesh = mark_boundary(build_unit_square(2), lambda x, y: NEUMANN)
    ms = conforming_mixed_system(mesh, PROB, 1)
    zero_flux = lambda x, y: np.zeros(np.shape(x) + (2,))
    hm = hybridization_setup(ms.a, neumann_flux=zero_flux)
    assert np.abs(hm.trace_data).max() == 0.0
    hm2 = hybridization_setup(ms.a, neumann_flux=PROB.u)
    assert np.abs(hm2.trace_data).max() > 0.0


def test_manufactured_solution_accuracy():
    """The hybridized-mixed solution tracks the exact fields on refinement."""
    from hybridfem.forms import CELL, FormIR, IntegralTerm
    mesh = build_unit_square(8)
    hs = hybridized_mixed_system(mesh, PROB, 1)
    cs = scpc_setup(hs.a, hs.trace_bcs)
    rhs = assemble_global(Tensor(hs.rhs))
    x, _, _ = scpc_apply(cs, rhs, exact_inner(cs.S))
    _, p, _ = hs.space.split(x)
    # cellwise-constant pressure vs exact solution at centroids
    geo = mesh.geometry()
    cent = geo.origins + np.einsum("cij,j->ci", geo.jacobians,
                                   np.array([1 / 3, 1 / 3]))
    err = np.abs(p - PROB.p(cent[:, 0], cent[:, 1]))
    assert err.max() < 0.05


def test_hybridization_apply_reuses_setup_tensors(monkeypatch):
    """Set-up assembles the operator once; an application assembles no
    form and compiles, evaluates and globally assembles no expression."""
    ms = conforming_mixed_system(build_unit_square(4), PROB, 2)
    hm = hybridization_setup(ms.a)
    inner = exact_inner(hm.cs.S)
    calls = []

    def record(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.append(name) or real(*args))

    record(expressions, "assemble_form")
    for module in (expressions, condensation):
        for name in ("compile_expr", "evaluate_all", "assemble_global"):
            record(module, name)
    r = np.random.default_rng(11).standard_normal(hm.conforming.ndof_global)
    x, rep, _ = hybridization_apply(hm, r, inner)
    assert calls == []
    assert rep.converged
    A = assemble_global(Tensor(ms.a))
    assert np.linalg.norm(A @ x - r) <= 1e-9 * np.linalg.norm(r)


def test_ldgh_singular_local_solver_raises_at_setup():
    """Without a reaction term, LDG-H at tau = 1e-15 leaves the top scalar
    modes of each cell uncontrolled: the local solver is singular up to
    round-off, and set-up names the first such cell instead of
    returning a meaningless solution.  At tau = 1 set-up succeeds."""
    prob = dataclasses.replace(PROB, c=ScalarField.constant(0.0))
    mesh = build_unit_square(8)
    ls = ldgh_system(mesh, prob, 1, 1e-15)
    with pytest.raises(RuntimeError, match="ill-conditioned local tensor in cell 0 "):
        scpc_setup(ls.a, ls.trace_bcs)
    ls = ldgh_system(mesh, prob, 1, 1.0)
    cs = scpc_setup(ls.a, ls.trace_bcs)
    rhs = assemble_global(Tensor(ls.rhs))
    _, rep, _ = scpc_apply(cs, rhs, exact_inner(cs.S))
    assert rep.converged


def test_scpc_setup_evaluates_coefficient_form_once(monkeypatch):
    """A form with coefficient data is evaluated once per set-up, and S
    and an application equal those computed from separately evaluated
    element tensors (each expression assembling the form again)."""
    from hybridfem import DG, Function, MixedSpace, Trace, create_space
    from hybridfem.expressions import compile_expr, evaluate_all
    from hybridfem.forms import CELL, EXTERIOR, INTERIOR, FormIR, IntegralTerm, coef, dot
    from hybridfem.forms import test as tfn, trial

    mesh = build_unit_square(4)
    U = create_space(mesh, DG(0))
    M = create_space(mesh, Trace(0))
    W = MixedSpace((U, M))
    w = Function(U, 1.0 + np.arange(U.ndof_global) / U.ndof_global)
    terms = [IntegralTerm(CELL, dot(coef(w), dot(tfn(0), trial(0))))]
    for dom in (INTERIOR, EXTERIOR):
        terms += [IntegralTerm(dom, dot(tfn(0), trial(0))),
                  IntegralTerm(dom, -dot(tfn(0), trial(1))),
                  IntegralTerm(dom, -dot(tfn(1), trial(0))),
                  IntegralTerm(dom, dot(tfn(1), trial(1)))]
    a = FormIR(W, W, terms)
    calls = []
    real = expressions.assemble_form
    monkeypatch.setattr(expressions, "assemble_form",
                        lambda form, cells=None: calls.append(form) or real(form, cells))
    cs = scpc_setup(a)
    assert len(calls) == 1
    monkeypatch.undo()

    A = Tensor(a)
    inv = A.blocks[0, 0].inv
    S = assemble_global(A.blocks[1, 1] - A.blocks[1, 0] * inv * A.blocks[0, 1])
    scale = np.abs(S).max()
    assert np.abs((cs.S - S).toarray()).max() <= 1e-14 * scale

    r = np.random.default_rng(41).standard_normal(W.ndof_global)
    x, rep, _ = scpc_apply(cs, r, exact_inner(cs.S))
    local_inverse, coupling, elimination = (
        evaluate_all(compile_expr(e))
        for e in (inv, A.blocks[0, 1], A.blocks[1, 0] * inv))
    cell_dofs = W.cell_dofs_global()
    e_dofs, c_dofs = cell_dofs[:, :1], cell_dofs[:, 1:] - W.offsets[1]
    r_c = r[W.offsets[1]:] - np.bincount(
        c_dofs.ravel(), np.einsum("cij,cj->ci", elimination, r[e_dofs]).ravel(),
        minlength=M.ndof_global)
    lam = exact_preconditioner(cs.S)(r_c)
    ref = np.empty(W.ndof_global)
    ref[e_dofs] = np.einsum("cij,cj->ci", local_inverse,
                            r[e_dofs] - np.einsum("cij,cj->ci", coupling, lam[c_dofs]))
    ref[W.offsets[1]:] = lam
    assert rep.converged
    assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)


def _condensed_arrays(cs):
    return {"S": cs.S, "local_inverse": cs.local_inverse, "A_ce": cs.A_ce, "X": cs.X}


@pytest.mark.parametrize("method,degree", [("mixed-hybrid", 1), ("mixed-hybrid", 2),
                                           ("ldgh", 1)])
def test_blocked_setup_equals_one_block(monkeypatch, method, degree):
    """Set-up in blocks of five cells (the last one shorter) gives the
    condensed system of one block.  From the form, each block assembles
    its own element tensors, so values agree to round-off: the reference
    product is one BLAS product per block, whose summation order for a
    cell may depend on the block's size.  From a Tensor memoized whole,
    each block reads a slice of the one evaluation, so values are
    bit-identical and the form is not assembled again."""
    mesh = build_jittered_square(6, 0.2, seed=7)
    hs = (hybridized_mixed_system(mesh, PROB, degree) if method == "mixed-hybrid"
          else ldgh_system(mesh, PROB, degree))
    whole = _condensed_arrays(scpc_setup(hs.a, hs.trace_bcs))
    A = Tensor(hs.a)
    expressions.evaluate_all(expressions.compile_expr(A))
    monkeypatch.setattr(expressions, "BLOCK_ENTRIES", 5 * hs.space.local_dim ** 2)
    assert mesh.n_cells % 5
    calls = []
    real = expressions.assemble_form
    monkeypatch.setattr(expressions, "assemble_form",
                        lambda form, cells=None: calls.append(form) or real(form, cells))
    blocked = _condensed_arrays(scpc_setup(hs.a, hs.trace_bcs))
    assert len(calls) == -(-mesh.n_cells // 5)
    calls.clear()
    sliced = _condensed_arrays(scpc_setup(A, hs.trace_bcs))
    assert not calls
    for name, want in whole.items():
        for got in (blocked[name], sliced[name]):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.indices, want.indices, err_msg=name)
            np.testing.assert_array_equal(got.indptr, want.indptr, err_msg=name)
        np.testing.assert_allclose(blocked[name].data, want.data, rtol=0,
                                   atol=1e-13 * np.abs(want.data).max(), err_msg=name)
        np.testing.assert_array_equal(sliced[name].data, want.data, err_msg=name)


@pytest.mark.parametrize("method", ["mixed-hybrid", "ldgh"])
def test_facet_selection_reads_only_each_blocks_cells(monkeypatch, method):
    """A block of cells selects the cells of a facet term from its own
    facets: a one-shot condensed solve and a set-up in blocks of eight
    cells call the whole-mesh facet helpers as often as in one block."""
    mesh = build_unit_square(8)
    hs = (hybridized_mixed_system(mesh, PROB, 1) if method == "mixed-hybrid"
          else ldgh_system(mesh, PROB, 1))
    calls = []

    def counted(helper):
        return lambda self, *args: calls.append(helper) or helper(self, *args)

    monkeypatch.setattr(Mesh, "facets_with_label", counted(Mesh.facets_with_label))
    for name in ("interior_facets", "exterior_facets"):
        monkeypatch.setattr(Mesh, name, property(counted(getattr(Mesh, name).fget)))
    mesh.interior_facets, mesh.exterior_facets, mesh.facets_with_label(DIRICHLET)
    assert len(calls) == 3

    def count(block_cells):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(expressions, "BLOCK_CELLS", block_cells)
            condensed_solve(hs.a, hs.rhs, hs.trace_bcs, exact_inner)
            scpc_setup(hs.a, hs.trace_bcs)
        return len(calls)

    one_block = count(expressions.BLOCK_CELLS)
    assert mesh.n_cells == 16 * 8
    assert count(8) == one_block


def _dg0_trace_form(w):
    from hybridfem import MixedSpace
    from hybridfem.forms import CELL, EXTERIOR, INTERIOR, FormIR, IntegralTerm, coef, dot
    from hybridfem.forms import test as tfn, trial

    M = create_space(w.space.mesh, Trace(0))
    W = MixedSpace((w.space, M))
    terms = [IntegralTerm(CELL, dot(coef(w), dot(tfn(0), trial(0))))]
    for dom in (INTERIOR, EXTERIOR):
        terms += [IntegralTerm(dom, -dot(tfn(0), trial(1))),
                  IntegralTerm(dom, -dot(tfn(1), trial(0))),
                  IntegralTerm(dom, dot(tfn(1), trial(1)))]
    return FormIR(W, W, terms)


def test_blocked_setup_guard_names_global_cell(monkeypatch):
    """A singular local tensor in a later block is named by its global
    cell index, the block's first cell plus its index in the block."""
    mesh = build_unit_square(4)
    w = Function(create_space(mesh, DG(0)), np.ones(mesh.n_cells))
    w.coeffs[[17, 23]] = 0.0
    monkeypatch.setattr(expressions, "BLOCK_ENTRIES", 5 * 4 ** 2)  # DG(0) x Trace(0)
    with pytest.raises(RuntimeError, match=r"singular local tensor in cell 17$"):
        scpc_setup(_dg0_trace_form(w))


def test_setup_peak_is_bounded_by_what_it_keeps():
    """Mixed-hybrid k=2 at n=64 (four blocks): the traced peak of set-up
    is at most 1.25 times the memory it keeps, so no element tensor or
    local product of the whole mesh exists at once."""
    import tracemalloc

    hs = hybridized_mixed_system(build_unit_square(64), PROB, 2)
    hs.space.mesh.geometry()
    tracemalloc.start()
    try:
        cs = scpc_setup(hs.a, hs.trace_bcs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cs.S.shape[0] > 0
    assert peak <= 1.25 * kept, (peak / 1e6, kept / 1e6)


def test_setup_compiles_one_plan(monkeypatch):
    """Set-up compiles one plan whatever the number of blocks, and the
    data of the three local operators it keeps are C-contiguous
    (products with strided data copy it on every application)."""
    hs = hybridized_mixed_system(build_jittered_square(6, 0.2, seed=7), PROB, 2)
    calls = []
    real = condensation.compile_expr
    monkeypatch.setattr(condensation, "compile_expr",
                        lambda *exprs: calls.append(exprs) or real(*exprs))
    for block_cells in (hs.space.mesh.n_cells, 5):
        monkeypatch.setattr(expressions, "BLOCK_ENTRIES", block_cells * hs.space.local_dim ** 2)
        calls.clear()
        cs = scpc_setup(hs.a, hs.trace_bcs)
        assert len(calls) == 1
        for m in (cs.local_inverse, cs.A_ce, cs.X):
            assert m.data.flags.c_contiguous


def _placed(blocks, rows, cols, shape):
    """Per-cell blocks added into a dense matrix at global rows and columns."""
    out = np.zeros(shape)
    for blk, r, c in zip(blocks, rows, cols):
        out[np.ix_(r, c)] += blk
    return out


@pytest.mark.parametrize("method,degree", [("mixed-hybrid", 1), ("mixed-hybrid", 2),
                                           ("ldgh", 1)])
def test_one_shot_solve_equals_setup_and_apply(method, degree):
    """On a jittered mesh with Neumann facets on the left, the one-shot
    solve equals ``scpc_setup`` + ``scpc_apply`` on the assembled
    right-hand side with the same exact inner solve, and each CSR
    operator a set-up keeps is the per-cell values of an independent
    evaluation placed at their global dofs."""
    mesh = mark_boundary(build_jittered_square(6, 0.2, 7), neumann_left)
    hs = (hybridized_mixed_system(mesh, PROB, degree) if method == "mixed-hybrid"
          else ldgh_system(mesh, PROB, degree))
    cs = scpc_setup(hs.a, hs.trace_bcs)
    inner = exact_inner(cs.S)
    x, rep, _ = scpc_apply(cs, assemble_global(Tensor(hs.rhs)), inner)
    x1, rep1, _ = condensed_solve(hs.a, hs.rhs, hs.trace_bcs, lambda S: inner)
    assert rep.converged and rep1.converged
    assert np.linalg.norm(x1 - x) <= 1e-12 * np.linalg.norm(x)

    W, A = hs.space, Tensor(hs.a)
    inv = A.blocks[:2, :2].inv
    n_e, n_c = int(W.offsets[2]), hs.trace_space.ndof_global
    cell_dofs = W.cell_dofs_global()
    n_local = cell_dofs.shape[1] - hs.trace_space.local_dim
    e_dofs, c_dofs = cell_dofs[:, :n_local], cell_dofs[:, n_local:] - n_e
    for got, expr, rows, cols, shape in (
            (cs.local_inverse, inv, e_dofs, e_dofs, (n_e, n_e)),
            (cs.A_ce, A.blocks[2:, :2], c_dofs, e_dofs, (n_c, n_e)),
            (cs.X, inv * A.blocks[:2, 2:], e_dofs, c_dofs, (n_e, n_c))):
        blocks = expressions.evaluate_all(expressions.compile_expr(expr))
        np.testing.assert_array_equal(got.toarray(), _placed(blocks, rows, cols, shape))
    assert np.all(cs.A_ce.data != 0.0)


def test_one_shot_solve_keeps_no_local_inverse():
    """Mixed-hybrid k=2 at n=64: when the one-shot solve configures its
    trace solver it holds at most 12 MB (traced), its per-cell ``X`` and
    ``y``, the condensed operator and int32 dof maps; a set-up keeps
    29 MB."""
    import tracemalloc

    hs = hybridized_mixed_system(build_unit_square(64), PROB, 2)
    hs.space.mesh.geometry()
    held = []

    def inner(S):
        held.append(tracemalloc.get_traced_memory()[0])
        return KrylovConfig(method="cg", rtol=1e-8, maxiter=2000,
                            preconditioner=jacobi_preconditioner(S))

    tracemalloc.start()
    try:
        _, rep, _ = condensed_solve(hs.a, hs.rhs, hs.trace_bcs, inner)
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert held[0] <= 12e6, held[0] / 1e6


def test_hybridization_setup_peak_is_bounded_by_what_it_keeps():
    """Mixed-hybrid k=1 at n=64: the traced peak of a hybridization's
    set-up is at most 1.25 times the memory it keeps, so the block and
    global forms of the local operators never coexist whole; what it
    keeps holds no per-cell block operator and no flat index map."""
    import tracemalloc

    import scipy.sparse as sp

    ms = conforming_mixed_system(build_unit_square(64), PROB, 1)
    ms.space.fields[0].mesh.geometry()
    tracemalloc.start()
    try:
        hm = hybridization_setup(ms.a)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hm.cs.S.shape[0] > 0
    assert peak <= 1.25 * kept, (peak / 1e6, kept / 1e6)
    for obj in (hm, *vars(hm).values()):
        fields = vars(obj) if hasattr(obj, "__dict__") else {}
        assert not fields.keys() & {"e_dofs", "c_dofs"}, type(obj)
        assert not any(isinstance(v, sp.bsr_matrix) for v in fields.values()), type(obj)


def test_compare_mixed_shares_its_condensed_system(monkeypatch):
    """The ``hybridization-pc`` and ``scpc-pc`` rows of the mixed solver
    comparison apply one condensed system, set up once per mesh."""
    from hybridfem import study

    made, hybrid, scpc = [], [], []
    real_setup, real_hybridized, real_apply = study.scpc_setup, study.hybridized, study.scpc_apply
    monkeypatch.setattr(study, "scpc_setup",
                        lambda *args: made.append(real_setup(*args)) or made[-1])
    monkeypatch.setattr(study, "hybridized",
                        lambda a, hs, cs: hybrid.append(cs) or real_hybridized(a, hs, cs))
    monkeypatch.setattr(study, "scpc_apply",
                        lambda cs, *args, **kw: scpc.append(cs) or real_apply(cs, *args, **kw))
    rows = study.run_solver_compare(study.StudySpec(method="mixed-hybrid", degree=1,
                                                    sizes=(2, 4)))
    assert [r["path"] for r in rows] == ["direct", "hybridization-pc", "scpc-pc"] * 2
    assert len(made) == 2 and len(hybrid) == 2
    assert all(isinstance(cs, CondensedSystem) for cs in made)
    assert scpc and {id(cs) for cs in scpc} == {id(cs) for cs in made}
    for cs, hybrid_cs in zip(made, hybrid):
        assert hybrid_cs is cs


@pytest.mark.parametrize("method,degree", [("mixed-hybrid", 1), ("mixed-hybrid", 2),
                                           ("ldgh", 1)])
def test_setup_and_one_shot_solve_condense_alike(monkeypatch, method, degree):
    """``scpc_setup`` keeps, bit for bit, the condensed operator
    ``S = A_cc - A_ce X`` that the one-shot solve hands to its trace
    solver, and its plan inverts ``A_ee`` once."""
    mesh = build_jittered_square(6, 0.2, 7)
    hs = (hybridized_mixed_system(mesh, PROB, degree) if method == "mixed-hybrid"
          else ldgh_system(mesh, PROB, degree))
    plans = []
    real = condensation.compile_expr
    monkeypatch.setattr(condensation, "compile_expr",
                        lambda *exprs: plans.append(real(*exprs)) or plans[-1])
    cs = scpc_setup(hs.a, hs.trace_bcs)
    assert len(plans) == 1
    assert plans[0].describe().count("= inverse(") == 1
    seen = []
    condensed_solve(hs.a, hs.rhs, hs.trace_bcs, lambda S: seen.append(S) or exact_inner(S))
    (S,) = seen
    assert S.shape == cs.S.shape
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(S, name), getattr(cs.S, name), err_msg=name)
