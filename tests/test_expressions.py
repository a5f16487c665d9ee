import gc
import warnings
import weakref

import numpy as np
import pytest

from hybridfem import expressions
from hybridfem import (
    CG,
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
    """``Aee.solve(rhs)`` compiles to the plan of ``Aee.inv * rhs``, and
    its values are LAPACK's solve of each cell's system."""
    mesh, W, a, f = three_field_system()
    A = Tensor(a)
    F = Tensor(f)
    Aee = A.blocks[:2, :2]
    rhs = F.blocks[:2]
    s1 = Aee.solve(rhs)
    assert compile_expr(s1).describe() == compile_expr(Aee.inv * rhs).describe()
    v1 = evaluate_all(compile_expr(s1))
    for c in (0, 3, 5):
        want = np.linalg.solve(naive_evaluate(Aee, c), naive_evaluate(rhs, c))
        np.testing.assert_allclose(v1[c], want, atol=1e-10)


def test_assembled_vector_contraction():
    """Matrix times vector, vector times matrix and a transpose, the last
    two on a DG(1)-test, CG(2)-trial block, equal the oracle."""
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    rng = np.random.default_rng(8)
    u = AssembledVector(Function(V, rng.standard_normal(V.ndof_global)))
    T = Tensor(FormIR(V, create_space(mesh, CG(2)), [IntegralTerm(CELL, dot(tfn(), trial()))]))
    for expr in (Tensor(mass(V)) * u, u * T, T.T, T.T * u):
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


def test_plan_solve_applies_the_shared_inverse():
    """``A.solve(b)`` is ``A.inv * b``: a plan that also holds ``A.inv``
    inverts ``A`` once, and the solve's ``mul`` reads that register."""
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(0))
    A = Tensor(mass(V))
    b, c = (AssembledVector(Function(V, np.full(V.ndof_global, x))) for x in (1.0, 2.0))
    plan = compile_expr(A.solve(b), A.inv * c)
    expected = (
        "r0 = assemble(T0)  # 1x1\n"
        "r1 = inverse(r0)  # 1x1\n"
        "r2 = gather(V0)  # 1\n"
        "r3 = mul(r1, r2)  # 1\n"
        "r4 = gather(V1)  # 1\n"
        "r5 = mul(r1, r4)  # 1\n"
        "return r3, r5"
    )
    assert plan.describe() == expected
    twice = compile_expr(A.solve(b), A.solve(b))
    assert [k.op for k in twice.kernels] == ["assemble", "inverse", "gather", "mul"]
    assert twice.outputs[0] == twice.outputs[1]
    np.testing.assert_allclose(evaluate_all(plan)[0], np.full((mesh.n_cells, 1), 2.0))


def test_inverse_swaps_the_axes_of_its_operand():
    """The inverse of a block from a CG(1) trial space to a DG(1) test
    space maps DG(1) back to CG(1): ``T.inv * T`` is the identity on
    each cell's CG(1) dofs, and assembles to the number of cells that
    share each CG(1) dof."""
    mesh = build_unit_square(2)
    D, C = create_space(mesh, DG(1)), create_space(mesh, CG(1))
    T = Tensor(FormIR(D, C, [IntegralTerm(CELL, dot(tfn(), trial()))]))
    assert T.inv.axes == ((C,), (D,))
    assert (T.inv * T).axes == ((C,), (C,))
    got = assemble_global(T.inv * T).toarray()
    np.testing.assert_allclose(got, np.diag(np.bincount(C.cell_dofs.ravel()).astype(float)),
                               atol=1e-12)


def test_plan_describe_lists_every_output():
    """A plan of two outputs computes their shared subtree once and
    returns both registers, in the order given."""
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(0))
    A = Tensor(mass(V))
    inv = A.inv
    plan = compile_expr(inv * A, inv)
    expected = (
        "r0 = assemble(T0)  # 1x1\n"
        "r1 = inverse(r0)  # 1x1\n"
        "r2 = mul(r1, r0)  # 1x1\n"
        "return r2, r1"
    )
    assert plan.describe() == expected


def test_blocked_global_assembly_equals_one_block(monkeypatch):
    """Global assembly in blocks of seven cells (the last one shorter)
    equals the one-block value to round-off, for a rank-2 and a rank-1
    form with interior facet and labelled exterior facet terms on a
    jittered mesh."""
    from hybridfem import NEUMANN, DIRICHLET, build_jittered_square, mark_boundary
    from hybridfem.problems import hybridized_mixed_system, manufactured

    mesh = mark_boundary(build_jittered_square(5, 0.2, seed=3),
                         lambda x, y: NEUMANN if x < 1e-9 else DIRICHLET)
    hs = hybridized_mixed_system(mesh, manufactured("sinsin"), 2)
    assert mesh.n_cells % 7
    for form in (hs.a, hs.rhs):
        want = assemble_global(Tensor(form))
        calls = count_assembly(monkeypatch)
        monkeypatch.setattr(expressions, "BLOCK_ENTRIES", 7 * int(np.prod(Tensor(form).shape)))
        got = assemble_global(Tensor(form))
        monkeypatch.undo()
        assert len(calls) == -(-mesh.n_cells // 7)
        if form.rank == 2:
            got, want = got.toarray(), want.toarray()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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


def test_constrained_row_without_a_stored_diagonal_gets_one():
    """A constrained row whose diagonal is not stored gets a unit one."""
    import scipy.sparse as sp

    A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 3.0], [0.0, 3.0, 4.0]]))
    assert A[1, 1] == 0.0 and A.nnz == 6
    got = constrain_matrix(A, np.array([1]))
    np.testing.assert_array_equal(got.toarray(), np.diag([2.0, 1.0, 4.0]))
    assert got.nnz == 3 and got.has_sorted_indices


def count_assembly(monkeypatch) -> list:
    """Record every batched form assembly made by the expressions module."""
    calls = []
    real = expressions.assemble_form

    def counting(form, cells=None):
        calls.append(form)
        return real(form, cells)

    monkeypatch.setattr(expressions, "assemble_form", counting)
    return calls


def test_memoized_plan_matches_naive_oracle(monkeypatch):
    """A plan of three outputs computes their shared subtrees once.  Its
    Tensor output is memoized and read again as is; a later plan reads
    the memoized element tensors instead of assembling, and equals the
    oracle.  The non-terminal output ``S`` is evaluated again."""
    calls = count_assembly(monkeypatch)
    mesh, W, a, f = three_field_system(n=4, k=2)
    A = Tensor(a)
    Aee_inv = A.blocks[:2, :2].inv
    S = A.blocks[2, 2] - A.blocks[2, :2] * Aee_inv * A.blocks[:2, 2]
    rng = np.random.default_rng(5)
    r = Function(W.fields[2], rng.standard_normal(W.fields[2].ndof_global))
    x = Aee_inv * (Tensor(f).blocks[:2] - A.blocks[:2, 2] * AssembledVector(r))
    plan = compile_expr(A, S, x)
    assert sum(k.op == "inverse" for k in plan.kernels) == 1
    tensors, first, xs = evaluate_all(plan)
    assert len(calls) == 2  # A and the right-hand side form, once each
    assert evaluate_all(compile_expr(A)) is tensors
    again = evaluate_all(compile_expr(S))
    assert len(calls) == 2
    assert again is not first
    np.testing.assert_array_equal(again, first)
    for c in rng.integers(0, mesh.n_cells, 12):
        for expr, vals in ((S, again), (x, xs)):
            want = naive_evaluate(expr, int(c))
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(vals[c] - want).max() < 1e-12 * scale


def test_memoized_values_are_read_only():
    """A Tensor output's memoized element tensors are read-only; a
    non-terminal output is writable and not stored."""
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    M = Tensor(mass(V))
    vals = evaluate_all(compile_expr(M))
    with pytest.raises(ValueError, match="read-only"):
        vals[0, 0, 0] = 1.0
    inv = evaluate_all(compile_expr(M.inv))
    inv[0, 0, 0] = 1.0
    assert evaluate_all(compile_expr(M.inv))[0, 0, 0] != 1.0


def test_compiled_plan_is_freed_without_cycle_collection():
    """A dropped plan, its expression nodes and the element tensors its
    Tensor memoizes are released by reference counting, not at the next
    cyclic GC run."""
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tensor = Tensor(mass(V))
        expr = tensor.inv
        plan = compile_expr(expr, tensor)
        memo = weakref.ref(evaluate_all(plan)[1])
        kernel = weakref.ref(plan.kernels[0])
        node = weakref.ref(expr)
        del plan, expr, tensor
        assert kernel() is None
        assert node() is None
        assert memo() is None
    finally:
        if was_enabled:
            gc.enable()


def test_coefficient_forms_are_reassembled(monkeypatch):
    """A form with a coefficient function is not memoized, not even as a
    plan output: a changed coefficient gives new element tensors and new
    global values, while the memoized mass Tensor ``M`` is read again."""
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    w = Function(V, np.ones(V.ndof_global))
    weighted = Tensor(FormIR(V, V, [
        IntegralTerm(CELL, dot(coef(w), dot(tfn(), trial())))
    ]))
    M = Tensor(mass(V))
    calls = count_assembly(monkeypatch)
    evaluate_all(compile_expr(M))  # memoized as an output of its own
    assert evaluate_all(compile_expr(weighted)).flags.writeable
    expr = M.inv * weighted
    before = assemble_global(expr).toarray()
    np.testing.assert_allclose(before, np.eye(V.ndof_global), atol=1e-12)
    w.coeffs[:] = 3.0
    after = assemble_global(expr).toarray()
    np.testing.assert_allclose(after, 3.0 * np.eye(V.ndof_global), atol=1e-12)
    # the mass matrix was kept, the weighted form was not
    assert [form is weighted.form for form in calls] == [False, True, True, True]


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
    with pytest.raises(RuntimeError, match=f"ill-conditioned local tensor in cell {first_bad} "):
        evaluate_all(compile_expr(Tensor(a).solve(b)))


def _pivoting_batch(seed, cells=48, n=7):
    """Local matrices of four kinds, in turn: diagonally dominant ones,
    which keep their diagonal; saddle blocks ``[[K, c], [c^T, 0]]`` with
    ``K`` a weighted graph Laplacian (singular on constants, like the
    stiffness block of ``scalar_pp``'s systems) and ``c > 0``; scaled
    permuted identities; and random nonsymmetric matrices.  Every saddle
    block and permuted identity has a zero on its diagonal, so none can
    be inverted without row swaps."""
    rng = np.random.default_rng(seed)
    a = np.empty((cells, n, n))
    for i in range(cells):
        kind = i % 4
        if kind == 0:
            a[i] = n * np.eye(n) + rng.uniform(-1, 1, (n, n))
        elif kind == 1:
            w = rng.uniform(0.5, 2.0, (n - 1, n - 1))
            w = np.triu(w, 1) + np.triu(w, 1).T
            a[i] = 0.0
            a[i, :-1, :-1] = np.diag(w.sum(axis=1)) - w
            a[i, :-1, -1] = a[i, -1, :-1] = rng.uniform(0.5, 2.0, n - 1)
        elif kind == 2:
            shift = 1 + i % (n - 1)  # a cyclic shift moves every row
            a[i] = np.roll(np.eye(n), shift, axis=0) * rng.uniform(0.5, 2.0, n)
        else:
            a[i] = rng.standard_normal((n, n))
    return a


def _solve_by_plan(a, b, first_cell=0):
    """The kernels of a compiled ``a.solve(b)`` plan, run on the per-cell
    matrices ``a`` and right-hand sides ``b`` in place of its terminals;
    the plan's first cell is named ``first_cell``."""
    V = create_space(build_unit_square(1), DG(0))
    plan = compile_expr(Tensor(mass(V)).solve(AssembledVector(Function(V, np.ones(2)))))
    assert [k.op for k in plan.kernels] == ["assemble", "inverse", "gather", "mul"]
    regs = {}
    for k in plan.kernels:
        if k.op in ("assemble", "gather"):
            regs[k.out] = a if k.op == "assemble" else b
        else:
            regs[k.out] = expressions._run_kernel(k, regs, first_cell, first_cell + len(a))
    return regs[plan.outputs[0]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_inverse_pivots_where_the_diagonal_is_small(seed):
    """Cells that need row swaps, at the first step or only at the last,
    are inverted as by LAPACK, and a plan's solve, ``inverse`` then ``mul``,
    solves as LAPACK does."""
    a = _pivoting_batch(seed)
    diagonal = np.diagonal(a, axis1=1, axis2=2)
    assert (diagonal[1::4, -1] == 0.0).all() and (diagonal[2::4] == 0.0).all()
    want = np.linalg.inv(a)
    got = expressions._batched_inverse(a, 0)
    assert got.flags.c_contiguous
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert err.max() < 1e-12
    b = np.random.default_rng(seed).standard_normal(a.shape[:2])
    x = _solve_by_plan(a, b)
    xs = np.linalg.solve(a, b[:, :, None])[:, :, 0]
    assert (np.abs(x - xs).max(axis=1) < 1e-12 * np.abs(xs).max(axis=1)).all()


def test_batched_inverse_of_a_cell_depends_on_its_matrix_only():
    """Swapping rows in some cells of a batch leaves the others alone: a
    cell's inverse in the batch has the bytes of its inverse alone, also
    when the one-cell input is a read-only view, which is not changed."""
    a = _pivoting_batch(3)
    a.flags.writeable = False
    whole = expressions._batched_inverse(a, 0)
    for i in range(a.shape[0]):
        alone = expressions._batched_inverse(a[i:i + 1], i)
        assert alone.flags.writeable and alone.tobytes() == whole[i].tobytes()
    np.testing.assert_array_equal(a, _pivoting_batch(3))


def test_batched_inverse_names_first_singular_cell_by_global_index():
    """Exactly singular cells (a zero row, a column that is zero from the
    fourth step on, a zero matrix, two equal rows) in a block whose first
    cell is 4096: the first of them is named by its index in the mesh, as
    singular, ahead of an ill-conditioned cell before it, and no warning
    is raised.  LAPACK zeroes the second of the equal rows exactly (its
    multiplier 38 * (1/38) rounds to 1), while the elimination leaves it
    a rounding error from zero, so only the guard's redo names it."""
    a = _pivoting_batch(4, cells=12)
    a[3] = np.diag([1.0, 1.0, 1e-14, 1.0, 1.0, 1.0, 1.0])  # ill-conditioned
    a[6, 4] = 0.0
    a[8, :, 3] = 0.0
    a[10] = 0.0
    a[11] = np.eye(7)
    a[11, :2, :2] = [[38.0, 21.0], [38.0, 21.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"^singular local tensor in cell 4102$"):
            expressions._batched_inverse(a, 4096)
        a[6] = a[0]
        with pytest.raises(RuntimeError, match=r"^singular local tensor in cell 4104$"):
            _solve_by_plan(a, a[:, 0], 4096)
        a[8] = a[10] = a[0]
        with pytest.raises(RuntimeError, match=r"^singular local tensor in cell 4107$"):
            expressions._batched_inverse(a, 4096)
        a[11] = a[0]
        with pytest.raises(RuntimeError, match=r"^ill-conditioned local tensor in cell 4099 "):
            expressions._batched_inverse(a, 4096)


@pytest.mark.parametrize("m", [4, 7, 11, 17])
def test_reciprocal_condition_equals_two_pass_formula(m):
    """The one-pass column sums give the reciprocal condition number of
    ``abs(a).sum(axis=1)`` bit for bit, NaN and infinite cells included."""
    rng = np.random.default_rng(m)
    a, inv = rng.standard_normal((2, 64, m, m)) * 10.0 ** rng.uniform(-6, 6, (2, 64, 1, 1))
    a[3, 1, 2], a[5, 0, 0], a[6, m - 1, 1], a[7] = np.nan, np.inf, -np.inf, 0.0
    a[8, :, 0], inv[9, 2, 2], inv[10, 0] = 1e308, np.nan, -np.inf  # overflow; NaN, inf inverse
    with np.errstate(all="ignore"):
        want = 1.0 / (np.abs(a).sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1))
    got = expressions._reciprocal_condition(a, inv)
    assert np.isnan(want[[3, 9]]).all() and want[7] == np.inf and (want[[5, 6, 8, 10]] == 0.0).all()
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _coo_path(vals, rows, cols, shape):
    """scipy's COO path: one (row, column) pair per local entry."""
    import scipy.sparse as sp

    nc, r, c = vals.shape
    i, j = np.repeat(rows, c, axis=1).ravel(), np.tile(cols, (1, r)).ravel()
    A = sp.coo_matrix((vals.ravel(), (i, j)), shape=shape).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def _assert_same_csr(got, want, what):
    assert got.shape == want.shape, what
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, (what, name)
        np.testing.assert_array_equal(a, b, err_msg=f"{what} {name}")


def test_scatter_equals_coo_path_bit_for_bit():
    """On a jittered mesh with Neumann facets on the left, ``scatter_csr``
    gives the arrays of scipy's COO path bit for bit for the CG(2)
    stiffness, the mixed-hybrid k=2 operator (interior facet terms) and
    its condensed trace operator, which ``scpc_setup`` keeps; without
    summation it places the set-up's operators as a dense placement of
    their blocks does."""
    from hybridfem import CG, DIRICHLET, NEUMANN, build_jittered_square, mark_boundary
    from hybridfem.condensation import scpc_setup
    from hybridfem.expressions import scatter_csr
    from hybridfem.problems import hybridized_mixed_system, manufactured

    mesh = mark_boundary(build_jittered_square(6, 0.2, 7),
                         lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET)
    V = create_space(mesh, CG(2))
    stiffness = FormIR(V, V, [IntegralTerm(CELL, dot(grad(tfn()), grad(trial())))])
    hs = hybridized_mixed_system(mesh, manufactured("sinsin"), 2)
    W, A = hs.space, Tensor(hs.a)
    inv = A.blocks[:2, :2].inv
    A_ce, X = A.blocks[2:, :2], inv * A.blocks[:2, 2:]
    S = A.blocks[2:, 2:] - A_ce * X
    dofs = W.cell_dofs_global()
    n_e, width = int(W.offsets[2]), dofs.shape[1] - hs.trace_space.local_dim
    e_dofs, c_dofs = dofs[:, :width], dofs[:, width:] - n_e
    n_c = W.ndof_global - n_e

    for what, expr, rows, cols, n in (("CG(2)", Tensor(stiffness), V.cell_dofs, V.cell_dofs,
                                       V.ndof_global),
                                      ("mixed-hybrid", A, dofs, dofs, W.ndof_global),
                                      ("trace", S, c_dofs, c_dofs, n_c)):
        vals = evaluate_all(compile_expr(expr))
        got = scatter_csr(vals, rows, cols, (n, n))
        assert got.nnz < vals.size  # duplicates were summed
        _assert_same_csr(got, _coo_path(vals, rows, cols, (n, n)), what)

    cs = scpc_setup(A)
    _assert_same_csr(cs.S, _coo_path(evaluate_all(compile_expr(S)), c_dofs, c_dofs, (n_c, n_c)),
                     "scpc_setup S")
    for what, got, expr, rows, cols, shape in (
            ("local_inverse", cs.local_inverse, inv, e_dofs, e_dofs, (n_e, n_e)),
            ("A_ce", cs.A_ce, A_ce, c_dofs, e_dofs, (n_c, n_e)),
            ("X", cs.X, X, e_dofs, c_dofs, (n_e, n_c))):
        blocks = evaluate_all(compile_expr(expr))
        placed = scatter_csr(blocks, rows, cols, shape, sum_duplicates=False)
        dense = np.zeros(shape)
        dense[rows[:, :, None], cols[:, None, :]] = blocks  # no two blocks share an entry
        np.testing.assert_array_equal(placed.toarray(), dense, err_msg=what)
        np.testing.assert_array_equal(got.toarray(), dense, err_msg=what)


def test_global_assembly_peak_is_bounded_by_its_element_tensors():
    """Assembling the CG(1) primal operator at n=128 peaks at most 3.0
    times its element tensors (2.4 MB): no row or column index is made per
    local entry, and the one-field dof map is the mesh's own int32 array,
    not a widened copy."""
    import tracemalloc

    from hybridfem.problems import manufactured, primal_cg_system

    mesh = build_unit_square(128)
    ps = primal_cg_system(mesh, manufactured("sinsin"), 1)
    tracemalloc.start()
    try:
        A = assemble_global(Tensor(ps.a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == (mesh.n_vertices,) * 2
    local = mesh.n_cells * 3 * 3 * 8
    assert peak <= 3.0 * local, (peak / 1e6, local / 1e6)


def test_square_operator_builds_one_dof_map(monkeypatch):
    """A square operator (the same spaces on both axes) builds its global
    dof map once, and its CSR arrays equal those from two separately built
    maps bit for bit; an off-diagonal block builds one map per axis."""
    from hybridfem import CG
    from hybridfem.expressions import scatter_csr

    _, W, a, _ = three_field_system(n=4, k=2)
    V = create_space(W.fields[0].mesh, CG(1))
    A = Tensor(a)
    calls = []
    real = MixedSpace.cell_dofs_global
    monkeypatch.setattr(MixedSpace, "cell_dofs_global",
                        lambda self: calls.append(self) or real(self))
    for expr, maps in ((A, 1), (Tensor(mass(V)), 1), (A.blocks[:2, 2:], 2)):
        calls.clear()
        got = assemble_global(expr)
        assert len(calls) == maps
        if maps == 1:
            rows = real(MixedSpace(expr.axes[0]))
            want = scatter_csr(evaluate_all(compile_expr(expr)), rows, rows.copy(), got.shape)
            _assert_same_csr(got, want, "square")
