import gc
import weakref

import numpy as np
import pytest

from hybridfem import expressions
from hybridfem import (
    DG,
    RT,
    Trace,
    Function,
    MixedSpace,
    break_space,
    build_unit_square,
    create_space,
)
from hybridfem.expressions import (
    AssembledVector,
    Tensor,
    assemble_global,
    compile_expr,
    constrain_matrix,
    evaluate_all,
    naive_evaluate,
)
from hybridfem.forms import (
    CELL,
    INTERIOR,
    FormIR,
    IntegralTerm,
    ScalarField,
    coef,
    div,
    dot,
    fld,
    grad,
    jump,
    test as tfn,
    trial,
)
from hybridfem.spaces import local_offsets


def mass(V):
    return FormIR(V, V, [IntegralTerm(CELL, dot(tfn(), trial()))])


def three_field_system(n=2, k=1):
    """Hybridized-mixed style 3-field operator and right-hand side."""
    mesh = build_unit_square(n)
    U = break_space(create_space(mesh, RT(k)))
    P = create_space(mesh, DG(k - 1))
    M = create_space(mesh, Trace(k - 1))
    W = MixedSpace((U, P, M))
    one = ScalarField.constant(1.0)
    a = FormIR(W, W, [
        IntegralTerm(CELL, dot(tfn(0), trial(0))),
        IntegralTerm(CELL, -dot(div(tfn(0)), trial(1))),
        IntegralTerm(CELL, dot(tfn(1), div(trial(0)))),
        IntegralTerm(CELL, dot(tfn(1), trial(1))),
        IntegralTerm(INTERIOR, dot(jump(tfn(0)), trial(2))),
        IntegralTerm(INTERIOR, -dot(tfn(2), jump(trial(0)))),
    ])
    f = FormIR(W, None, [IntegralTerm(CELL, dot(tfn(1), fld(one)))])
    return mesh, W, a, f


def test_inverse_of_dg0_mass():
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(0))
    expr = Tensor(mass(V)).inv
    plan = compile_expr(expr)
    assert len(plan.kernels) == 2
    np.testing.assert_allclose(evaluate_all(plan)[0], [[2.0]], atol=1e-13)


def test_cse_shared_subtree():
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(1))
    A = Tensor(mass(V))
    plan = compile_expr(A * A)
    ops = [k.op for k in plan.kernels]
    assert ops == ["assemble", "mul"]
    np.testing.assert_allclose(
        evaluate_all(plan)[1], naive_evaluate(A * A, 1), atol=1e-14
    )


def test_inverse_times_self_is_identity():
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(2))
    A = Tensor(mass(V))
    vals = evaluate_all(compile_expr(A.inv * A))
    for c in range(mesh.n_cells):
        np.testing.assert_allclose(vals[c], np.eye(6), atol=1e-13)


def test_transpose_of_product():
    mesh, W, a, _ = three_field_system()
    A = Tensor(a)
    B = A.blocks[0, 1]
    C = A.blocks[1, 2]
    left = (B * C).T
    right = C.T * B.T
    got, want = evaluate_all(compile_expr(left)), evaluate_all(compile_expr(right))
    rng = np.random.default_rng(2)
    for c in rng.integers(0, mesh.n_cells, 4):
        np.testing.assert_allclose(got[c], want[c], atol=1e-13)


def test_blocks_match_submatrix():
    mesh, W, a, _ = three_field_system()
    A = Tensor(a)
    full = evaluate_all(compile_expr(A))
    off = local_offsets(W.fields)
    rng = np.random.default_rng(0)
    cells = rng.integers(0, mesh.n_cells, 3)
    for i in range(3):
        for j in range(3):
            block = evaluate_all(compile_expr(A.blocks[i, j]))
            for c in cells:
                np.testing.assert_allclose(
                    block[c], full[c, off[i]:off[i + 1], off[j]:off[j + 1]],
                    atol=1e-14)


def test_schur_expression_matches_naive_oracle():
    """Compiled evaluation equals naive recursion on random cells."""
    mesh, W, a, f = three_field_system(n=2, k=1)
    A = Tensor(a)
    F = Tensor(f)
    S = A.blocks[2, 2] - A.blocks[2, :2] * A.blocks[:2, :2].inv * A.blocks[:2, 2]
    E = F.blocks[2] - A.blocks[2, :2] * A.blocks[:2, :2].inv * F.blocks[:2]
    rng = np.random.default_rng(42)
    for expr in (S, E):
        vals = evaluate_all(compile_expr(expr))
        for c in rng.integers(0, mesh.n_cells, 20):
            want = naive_evaluate(expr, int(c))
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(vals[c] - want).max() < 1e-12 * scale


def test_solve_matches_inverse_multiply():
    mesh, W, a, f = three_field_system()
    A = Tensor(a)
    F = Tensor(f)
    Aee = A.blocks[:2, :2]
    rhs = F.blocks[:2]
    s1 = Aee.solve(rhs, decomposition="lu")
    s2 = Aee.inv * rhs
    v1 = evaluate_all(compile_expr(s1))
    v2 = evaluate_all(compile_expr(s2))
    for c in (0, 3, 5):
        np.testing.assert_allclose(v1[c], v2[c], atol=1e-10)


def test_cholesky_solve_and_symmetry_guard():
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(1))
    A = Tensor(mass(V))
    b = Function(V, np.arange(V.ndof_global, dtype=float))
    good = A.solve(AssembledVector(b), decomposition="cholesky")
    np.testing.assert_allclose(
        evaluate_all(compile_expr(good))[0], naive_evaluate(good, 0), atol=1e-12
    )
    # asymmetric operand rejected
    mesh2, W, a, _ = three_field_system()
    Aee = Tensor(a).blocks[:2, :2]
    bad = Aee.solve(Tensor(a).blocks[:2, 2], decomposition="cholesky")
    with pytest.raises(ValueError):
        evaluate_all(compile_expr(bad))


def test_assembled_vector_contraction():
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    rng = np.random.default_rng(8)
    u = Function(V, rng.standard_normal(V.ndof_global))
    expr = Tensor(mass(V)) * AssembledVector(u)
    vals = evaluate_all(compile_expr(expr))
    for c in (0, 5):
        np.testing.assert_allclose(vals[c], naive_evaluate(expr, c), atol=1e-14)


def test_shape_errors():
    mesh, W, a, f = three_field_system()
    A = Tensor(a)
    with pytest.raises(ValueError):
        A.blocks[0, 0] + A.blocks[0, 1]
    with pytest.raises(ValueError):
        A.blocks[0, 1] * A.blocks[0, 1]
    with pytest.raises(ValueError):
        A.blocks[0, 1].inv
    with pytest.raises(ValueError):
        A.blocks[0, 1].T.blocks[5, 0]


def test_singular_local_solve_reports_cell():
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(0))
    zero = ScalarField.constant(0.0)
    degenerate = FormIR(V, V, [
        IntegralTerm(CELL, dot(fld(zero), dot(tfn(), trial())))
    ])
    expr = Tensor(degenerate).inv
    with pytest.raises(RuntimeError, match="cell 0"):
        evaluate_all(compile_expr(expr))


def test_global_dg0_mass_diagonal():
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(0))
    A = assemble_global(Tensor(mass(V)))
    np.testing.assert_allclose(A.toarray(), np.diag([0.5, 0.5]), atol=1e-15)


def test_global_trace_operator_symmetric():
    mesh, W, a, f = three_field_system(n=1, k=1)
    A = Tensor(a)
    S = A.blocks[2, 2] - A.blocks[2, :2] * A.blocks[:2, :2].inv * A.blocks[:2, 2]
    Smat = assemble_global(S)
    assert Smat.shape == (5, 5)
    dense = Smat.toarray()
    assert np.abs(dense - dense.T).max() < 1e-11


def test_global_assembly_matches_reference_scatter():
    """assemble_global equals a direct python-loop global assembly."""
    mesh, W, a, f = three_field_system(n=2, k=1)
    A = assemble_global(Tensor(a)).toarray()
    from hybridfem.forms import assemble_local

    n = W.ndof_global
    ref = np.zeros((n, n))
    gdofs = W.cell_dofs_global()
    for c in range(mesh.n_cells):
        loc = assemble_local(a, c)
        for i, gi in enumerate(gdofs[c]):
            for j, gj in enumerate(gdofs[c]):
                ref[gi, gj] += loc[i, j]
    np.testing.assert_allclose(A, ref, atol=1e-12)

    b = assemble_global(Tensor(f))
    refb = np.zeros(n)
    for c in range(mesh.n_cells):
        loc = assemble_local(f, c)
        for i, gi in enumerate(gdofs[c]):
            refb[gi] += loc[i]
    np.testing.assert_allclose(b, refb, atol=1e-13)


def test_rank1_scatter_additivity():
    mesh = build_unit_square(1)
    M = create_space(mesh, Trace(0))
    one = ScalarField.constant(1.0)
    form = FormIR(M, None, [IntegralTerm(INTERIOR, dot(tfn(), fld(one)))])
    vec = assemble_global(Tensor(form))
    f = mesh.interior_facets[0]
    dof = M.facet_dofs[f, 0]
    # both incident cells contribute length * 1
    assert abs(vec[dof] - 2.0 * np.sqrt(2.0)) < 1e-13
    assert abs(vec.sum() - vec[dof]) < 1e-14


def test_plan_describe_golden():
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(0))
    A = Tensor(mass(V))
    plan = compile_expr(A.inv * A)
    expected = (
        "r0 = assemble(T0)  # 1x1\n"
        "r1 = inverse(r0)  # 1x1\n"
        "r2 = mul(r1, r0)  # 1x1\n"
        "return r2"
    )
    assert plan.describe() == expected


def test_constrained_global_matrix():
    mesh, W, a, f = three_field_system(n=1, k=1)
    A = Tensor(a)
    S = A.blocks[2, 2] - A.blocks[2, :2] * A.blocks[:2, :2].inv * A.blocks[:2, 2]
    M = W.fields[2]
    bc_dofs = sorted(M.facet_dofs[mesh.exterior_facets].ravel())
    Smat = constrain_matrix(assemble_global(S), bc_dofs)
    dense = Smat.toarray()
    for d in bc_dofs:
        row = np.zeros(5)
        row[d] = 1.0
        np.testing.assert_allclose(dense[d], row, atol=1e-15)
        np.testing.assert_allclose(dense[:, d], row, atol=1e-15)


def count_assembly(monkeypatch) -> list:
    """Record every batched form assembly made by the expressions module."""
    calls = []
    real = expressions.assemble_form

    def counting(form):
        calls.append(form)
        return real(form)

    monkeypatch.setattr(expressions, "assemble_form", counting)
    return calls


def test_memoized_plan_matches_naive_oracle(monkeypatch):
    """A plan re-evaluated from memoized local values equals the oracle."""
    calls = count_assembly(monkeypatch)
    mesh, W, a, f = three_field_system(n=4, k=2)
    A = Tensor(a)
    Aee_inv = A.blocks[:2, :2].inv
    S = A.blocks[2, 2] - A.blocks[2, :2] * Aee_inv * A.blocks[:2, 2]
    first = evaluate_all(compile_expr(S))
    assert len(calls) == 1
    rng = np.random.default_rng(5)
    r = Function(W.fields[2], rng.standard_normal(W.fields[2].ndof_global))
    x = Aee_inv * (Tensor(f).blocks[:2] - A.blocks[:2, 2] * AssembledVector(r))
    again = evaluate_all(compile_expr(S))
    xs = evaluate_all(compile_expr(x))
    assert len(calls) == 2  # only the right-hand side form is new
    assert again is first
    for c in rng.integers(0, mesh.n_cells, 12):
        for expr, vals in ((S, again), (x, xs)):
            want = naive_evaluate(expr, int(c))
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(vals[c] - want).max() < 1e-12 * scale


def test_memoized_values_are_read_only():
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    vals = evaluate_all(compile_expr(Tensor(mass(V)).inv))
    with pytest.raises(ValueError):
        vals[0, 0, 0] = 1.0


def test_compiled_plan_is_freed_without_cycle_collection():
    """A dropped plan and the memoized values its expression nodes hold
    are released by reference counting, not at the next cyclic GC run."""
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        expr = Tensor(mass(V)).inv
        plan = compile_expr(expr)
        evaluate_all(plan)
        kernel = weakref.ref(plan.kernels[0])
        node = weakref.ref(expr)
        del plan, expr
        assert kernel() is None
        assert node() is None
    finally:
        if was_enabled:
            gc.enable()


def test_coefficient_forms_are_reassembled(monkeypatch):
    """A form with a coefficient function is not memoized: a changed
    coefficient gives new element tensors and new global values."""
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    w = Function(V, np.ones(V.ndof_global))
    weighted = Tensor(FormIR(V, V, [
        IntegralTerm(CELL, dot(coef(w), dot(tfn(), trial())))
    ]))
    M = Tensor(mass(V))
    expr = M.inv * weighted
    calls = count_assembly(monkeypatch)
    before = assemble_global(expr).toarray()
    np.testing.assert_allclose(before, np.eye(V.ndof_global), atol=1e-12)
    w.coeffs[:] = 3.0
    after = assemble_global(expr).toarray()
    np.testing.assert_allclose(after, 3.0 * np.eye(V.ndof_global), atol=1e-12)
    # the mass matrix and its inverse were kept, the weighted form was not
    assert [form is weighted.form for form in calls] == [False, True, True]


def test_batched_inverse_names_first_ill_conditioned_cell():
    """A local tensor that is singular in exact arithmetic but not in
    floating point is rejected by the batched kernels, naming its cell."""
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(2))
    # the DG(2) stiffness matrix is singular (constants); the mass term
    # makes it invertible on the cells left of x = 1/2 only
    left = ScalarField(lambda x, y: np.where(x < 0.5, 1.0, 0.0), degree=0)
    a = FormIR(V, V, [
        IntegralTerm(CELL, dot(grad(tfn()), grad(trial()))),
        IntegralTerm(CELL, dot(fld(left), dot(tfn(), trial()))),
    ])
    centroids = mesh.vertex_coords[mesh.cell_vertices].mean(axis=1)
    first_bad = int(np.flatnonzero(centroids[:, 0] > 0.5)[0])
    assert first_bad > 0
    with pytest.raises(RuntimeError, match=f"ill-conditioned local tensor in cell {first_bad} "):
        evaluate_all(compile_expr(Tensor(a).inv))
    b = AssembledVector(Function(V, np.ones(V.ndof_global)))
    with pytest.raises(RuntimeError, match=f"ill-conditioned local system in cell {first_bad} "):
        evaluate_all(compile_expr(Tensor(a).solve(b)))


def split_at_half(left, right):
    """A piecewise-constant field: ``left`` for x < 1/2, ``right`` beyond."""
    return ScalarField(lambda x, y: np.where(x < 0.5, left, right), degree=0)


def test_cholesky_breakdown_names_first_indefinite_cell():
    """A mass matrix negated right of x = 1/2 is symmetric but indefinite
    there; the first cell that Cholesky rejects is named."""
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    a = FormIR(V, V, [IntegralTerm(CELL, dot(fld(split_at_half(1.0, -1.0)),
                                             dot(tfn(), trial())))])
    b = AssembledVector(Function(V, np.ones(V.ndof_global)))
    with pytest.raises(RuntimeError,
                       match=r"^cholesky breakdown in local solve \(cell 2\)$"):
        evaluate_all(compile_expr(Tensor(a).solve(b, "cholesky")))


def test_cholesky_pivot_guard_names_first_small_pivot_cell():
    """The DG(2) stiffness matrix plus a mass term of weight 1e-14 right of
    x = 1/2 factors there, but with a pivot below PIVOT_RTOL."""
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(2))
    a = FormIR(V, V, [
        IntegralTerm(CELL, dot(grad(tfn()), grad(trial()))),
        IntegralTerm(CELL, dot(fld(split_at_half(1.0, 1e-14)), dot(tfn(), trial()))),
    ])
    b = AssembledVector(Function(V, np.ones(V.ndof_global)))
    with pytest.raises(RuntimeError,
                       match=r"^cholesky pivot breakdown in local solve \(cell 2\)$"):
        evaluate_all(compile_expr(Tensor(a).solve(b, "cholesky")))
