import numpy as np
import pytest

from hybridfem import (
    DG,
    RT,
    Trace,
    VectorDG,
    CG,
    DIRICHLET,
    NEUMANN,
    Function,
    MixedSpace,
    break_space,
    build_jittered_square,
    build_unit_square,
    create_space,
    mark_boundary,
)
from hybridfem import forms
from hybridfem.forms import (
    CELL,
    EXTERIOR,
    INTERIOR,
    Const,
    Fld,
    FormIR,
    IntegralTerm,
    ScalarField,
    _is_reference_form,
    assemble_form,
    assemble_local,
    coef,
    div,
    dot,
    estimate_degree,
    fld,
    grad,
    jump,
    test as tfn,
    trial,
)
from hybridfem.problems import (
    conforming_mixed_system,
    hybridized_mixed_system,
    ldgh_system,
    manufactured,
    primal_cg_system,
)

ONE = ScalarField.constant(1.0)


def mass_form(V):
    return FormIR(V, V, [IntegralTerm(CELL, dot(tfn(), trial()))])


def test_dg0_mass_is_cell_area():
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(0))
    local = assemble_local(mass_form(V), 0)
    np.testing.assert_allclose(local, [[0.5]], atol=1e-15)


def test_p1_mass_matrix_closed_form():
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(1))
    local = assemble_local(mass_form(V), 0)
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    np.testing.assert_allclose(local, expected, atol=1e-14)


def test_mixed_divergence_row_matches_divergence_theorem():
    """<1, div psi> equals the sum of edge fluxes of each RT basis fn."""
    mesh = build_unit_square(2)
    U = create_space(mesh, RT(1))
    Q = create_space(mesh, DG(0))
    form = FormIR(Q, U, [IntegralTerm(CELL, dot(tfn(), div(trial())))])
    geo = mesh.geometry()
    from hybridfem.reference import edge_quadrature, edge_points

    rule = edge_quadrature(4)
    el = U.element()
    for c in (0, 3, 5):
        local = assemble_local(form, c)
        # oracle: integrate the normal component along each edge
        fluxes = np.zeros(3)
        for loc in range(3):
            pts = edge_points(loc, rule.points)
            ref = el.tabulate(pts)
            piola = np.einsum("ij,qnj->qni", geo.jacobians[c], ref) / geo.det_j[c]
            signed = piola * U.cell_signs[c][None, :, None]
            flux = np.einsum("qni,i->qn", signed, geo.edge_normals[c, loc])
            fluxes += geo.edge_lengths[c, loc] * np.einsum("q,qn->n", rule.weights, flux)
        np.testing.assert_allclose(local[0], fluxes, atol=1e-13)


def test_symmetric_forms_symmetric_tensors():
    mesh = build_unit_square(2)
    for fam in (DG(2), CG(2)):
        V = create_space(mesh, fam)
        stiff = FormIR(V, V, [IntegralTerm(CELL, dot(grad(tfn()), grad(trial())))])
        for form in (mass_form(V), stiff):
            A = assemble_form(form)
            np.testing.assert_allclose(A, np.swapaxes(A, 1, 2), atol=1e-13)


def test_jump_of_conforming_rt_coefficient_vanishes():
    mesh = build_unit_square(3)
    U = create_space(mesh, RT(2))
    M = create_space(mesh, Trace(1))
    rng = np.random.default_rng(9)
    u = Function(U, rng.standard_normal(U.ndof_global))
    form = FormIR(M, None, [IntegralTerm(INTERIOR, dot(tfn(), jump(coef(u))))])
    vec = assemble_form(form)
    # sum the per-cell contributions onto global trace dofs
    out = np.zeros(M.ndof_global)
    np.add.at(out, M.cell_dofs.ravel(), vec.ravel())
    assert np.abs(out).max() < 1e-11


def test_linearity_in_coefficients():
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    rng = np.random.default_rng(4)
    a = Function(V, rng.standard_normal(V.ndof_global))
    b = Function(V, rng.standard_normal(V.ndof_global))
    ab = Function(V, 2.0 * a.coeffs + 3.0 * b.coeffs)

    def rhs(c):
        return FormIR(V, None, [IntegralTerm(CELL, dot(tfn(), coef(c)))])

    va, vb, vab = (assemble_form(rhs(c)) for c in (a, b, ab))
    np.testing.assert_allclose(vab, 2.0 * va + 3.0 * vb, atol=1e-13)


def test_estimate_degree_examples():
    mesh = build_unit_square(1)
    V0 = create_space(mesh, DG(0))
    assert estimate_degree(mass_form(V0)) == 0
    V2 = create_space(mesh, CG(2))
    stiff = FormIR(V2, V2, [IntegralTerm(CELL, dot(grad(tfn()), grad(trial())))])
    assert estimate_degree(stiff) == 2
    U = create_space(mesh, RT(1))
    kappa = ScalarField(lambda x, y: 1.0 + x, degree=1)
    wmass = FormIR(U, U, [ IntegralTerm(CELL, dot(fld(kappa), dot(tfn(), trial())))])
    assert estimate_degree(wmass) == 3


def test_exactness_cap_rejected():
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(3))
    heavy = ScalarField(lambda x, y: np.exp(x * y), degree=8)
    form = FormIR(V, V, [
        IntegralTerm(CELL, dot(fld(heavy), dot(tfn(), trial())))
    ])
    with pytest.raises(ValueError):
        assemble_form(form)


def test_batched_matches_single_cell_oracle():
    """The vectorized assembler agrees with the per-cell reference."""
    mesh = build_unit_square(2)
    U = break_space(create_space(mesh, RT(2)))
    P = create_space(mesh, DG(1))
    M = create_space(mesh, Trace(1))
    W = MixedSpace((U, P, M))
    rng = np.random.default_rng(12)
    u_h = Function(U, rng.standard_normal(U.ndof_global))
    mu = ScalarField(lambda x, y: 1.0 + 0.25 * x * y, degree=2)
    terms = [
        IntegralTerm(CELL, dot(fld(mu), dot(tfn(0), trial(0)))),
        IntegralTerm(CELL, -dot(div(tfn(0)), trial(1))),
        IntegralTerm(CELL, dot(tfn(1), div(trial(0)))),
        IntegralTerm(INTERIOR, dot(jump(tfn(0)), trial(2))),
        IntegralTerm(INTERIOR, -dot(tfn(2), jump(trial(0)))),
        IntegralTerm(EXTERIOR, dot(tfn(1), dot(fld(mu), trial(1)))),
    ]
    form = FormIR(W, W, terms)
    batched = assemble_form(form)
    for c in (0, 1, 4, 7):
        np.testing.assert_allclose(batched[c], assemble_local(form, c), atol=1e-13)

    rhs = FormIR(W, None, [
        IntegralTerm(CELL, dot(tfn(1), fld(mu))),
        IntegralTerm(INTERIOR, dot(tfn(2), jump(coef(u_h)))),
    ])
    b = assemble_form(rhs)
    for c in (0, 3, 6):
        np.testing.assert_allclose(b[c], assemble_local(rhs, c), atol=1e-13)


def test_vectordg_facet_terms_match_oracle():
    mesh = build_unit_square(2)
    U = create_space(mesh, VectorDG(1))
    P = create_space(mesh, DG(1))
    M = create_space(mesh, Trace(1))
    W = MixedSpace((U, P, M))
    tau = ScalarField.constant(1.5)
    terms = [
        IntegralTerm(CELL, -dot(grad(tfn(1)), trial(0))),
        IntegralTerm(INTERIOR, dot(tfn(1), jump(trial(0)))),
        IntegralTerm(INTERIOR, dot(fld(tau), dot(tfn(1), trial(1)))),
        IntegralTerm(INTERIOR, -dot(fld(tau), dot(tfn(1), trial(2)))),
        IntegralTerm(EXTERIOR, dot(tfn(2), trial(2))),
    ]
    form = FormIR(W, W, terms)
    batched = assemble_form(form)
    for c in range(mesh.n_cells):
        np.testing.assert_allclose(batched[c], assemble_local(form, c), atol=1e-13)


def test_term_validation():
    mesh = build_unit_square(1)
    V = create_space(mesh, DG(1))
    M = create_space(mesh, Trace(0))
    with pytest.raises(ValueError):
        FormIR(V, V, [IntegralTerm(CELL, dot(tfn(), jump(trial())))])
    with pytest.raises(ValueError):
        FormIR(M, None, [IntegralTerm(CELL, tfn())])
    with pytest.raises(ValueError):
        IntegralTerm(CELL, tfn(), label="dirichlet")
    with pytest.raises(ValueError):
        FormIR(V, V, [IntegralTerm(CELL, dot(div(tfn()), trial()))])


def _general_meshes():
    jittered = build_jittered_square(4, 0.2, seed=5)
    left_neumann = mark_boundary(
        jittered, lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET)
    return {"structured": build_unit_square(4), "jittered": jittered,
            "jittered-neumann-left": left_neumann}


def _operators(mesh):
    prob = manufactured("sinsin")
    for k in (1, 2, 3):
        yield f"mixed-hybrid-{k}", hybridized_mixed_system(mesh, prob, k).a
        yield f"mixed-{k}", conforming_mixed_system(mesh, prob, k).a
        yield f"cg-{k}", primal_cg_system(mesh, prob, k).a
    for k in (1, 2):
        yield f"ldgh-{k}", ldgh_system(mesh, prob, k).a
    W = MixedSpace((create_space(mesh, DG(2)), create_space(mesh, DG(0))))
    yield "scalar-pp", FormIR(W, W, [
        IntegralTerm(CELL, dot(grad(tfn(0)), grad(trial(0)))),
        IntegralTerm(CELL, dot(tfn(0), trial(1))),
        IntegralTerm(CELL, dot(tfn(1), trial(0))),
    ])


@pytest.mark.parametrize("mesh_name", ["structured", "jittered", "jittered-neumann-left"])
def test_reference_tensors_match_oracle_on_general_meshes(mesh_name):
    """Every constant-coefficient operator takes the reference-tensor path
    and agrees with the single-cell quadrature oracle on every cell."""
    mesh = _general_meshes()[mesh_name]
    if mesh_name == "jittered-neumann-left":
        assert len(mesh.facets_with_label(NEUMANN)) == 4
    for name, form in _operators(mesh):
        assert all(_is_reference_form(t, form) for t in form.terms), name
        batched = assemble_form(form)
        for c in range(mesh.n_cells):
            local = assemble_local(form, c)
            err = np.abs(batched[c] - local).max() / np.abs(local).max()
            assert err <= 1e-12, (name, c, err)


def _quadrature_forms(mesh):
    prob = manufactured("sinsin")
    for k in (1, 2, 3):
        yield f"mixed-hybrid-{k}", hybridized_mixed_system(mesh, prob, k).rhs
        yield f"mixed-{k}", conforming_mixed_system(mesh, prob, k).rhs
        yield f"cg-{k}", primal_cg_system(mesh, prob, k).rhs
    for k in (1, 2):
        yield f"ldgh-{k}", ldgh_system(mesh, prob, k).rhs
    rng = np.random.default_rng(21)
    U, P = create_space(mesh, RT(2)), create_space(mesh, DG(2))
    Q, M = create_space(mesh, VectorDG(1)), create_space(mesh, Trace(1))
    u_rt, p, u_dg, lam = (Function(S, rng.standard_normal(S.ndof_global))
                          for S in (U, P, Q, M))
    w = fld(ScalarField(lambda x, y: 1.0 + 0.5 * x * y - 0.25 * y * y, degree=2))
    W = MixedSpace((U, P, Q, M))
    yield "coef", FormIR(W, None, [
        IntegralTerm(CELL, dot(w, dot(tfn(0), coef(u_dg)))),
        IntegralTerm(CELL, dot(div(tfn(0)), dot(w, coef(p)))),
        IntegralTerm(CELL, dot(w, dot(grad(tfn(1)), coef(u_rt)))),
        IntegralTerm(CELL, dot(tfn(1), dot(w, coef(p)))),
        IntegralTerm(CELL, dot(div(tfn(2)), dot(w, coef(p)))),
        IntegralTerm(CELL, dot(w, dot(tfn(2), coef(u_rt)))),
        IntegralTerm(INTERIOR, dot(tfn(3), jump(coef(u_rt)))),
        IntegralTerm(INTERIOR, dot(jump(tfn(0)), dot(w, coef(lam)))),
        IntegralTerm(INTERIOR, dot(div(tfn(2)), coef(lam))),
        IntegralTerm(INTERIOR, dot(w, dot(jump(grad(tfn(1))), coef(p)))),
        IntegralTerm(EXTERIOR, dot(tfn(1), dot(w, coef(lam)))),
        IntegralTerm(EXTERIOR, dot(tfn(3), jump(coef(u_dg))), NEUMANN),
    ])
    yield "weighted-operator", FormIR(W, W, [
        IntegralTerm(CELL, dot(w, dot(tfn(0), trial(0)))),
        IntegralTerm(CELL, dot(w, dot(grad(tfn(1)), grad(trial(1))))),
        IntegralTerm(CELL, dot(w, dot(div(tfn(2)), trial(1)))),
        IntegralTerm(INTERIOR, dot(w, dot(tfn(3), jump(trial(0))))),
        IntegralTerm(EXTERIOR, dot(w, dot(tfn(3), trial(3)))),
    ])


@pytest.mark.parametrize("mesh_name", ["structured", "jittered", "jittered-neumann-left"])
def test_quadrature_path_matches_oracle_on_general_meshes(mesh_name):
    """Every right-hand side and every coefficient or weighted form takes
    the quadrature path (bases and coefficients through ``ref_basis``)
    and agrees with the single-cell oracle on every cell."""
    mesh = _general_meshes()[mesh_name]
    for name, form in _quadrature_forms(mesh):
        assert not any(_is_reference_form(t, form) for t in form.terms), name
        batched = assemble_form(form)
        for c in range(mesh.n_cells):
            local = assemble_local(form, c)
            err = np.abs(batched[c] - local).max() / np.abs(local).max()
            assert err <= 1e-12, (name, c, err)


def test_full_cell_scatter_is_bit_identical_to_indexed_scatter(monkeypatch):
    """Terms over every cell add their blocks through a basic slice; the
    element tensors equal those of a fancy-indexed gather and scatter."""
    mesh = mark_boundary(build_jittered_square(4, 0.2, seed=5),
                         lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET)
    prob = manufactured("expsin")
    systems = [hybridized_mixed_system(mesh, prob, 2), ldgh_system(mesh, prob, 1),
               primal_cg_system(mesh, prob, 2)]
    forms_ = [f for s in systems for f in (s.a, s.rhs)]
    sliced = [assemble_form(f) for f in forms_]

    def indexed_scatter(out, local, cells, ti, tj, t_off, u_off):
        r0, r1 = (t_off[ti], t_off[ti + 1]) if ti >= 0 else (0, 1)
        c0, c1 = (u_off[tj], u_off[tj + 1]) if tj >= 0 else (0, 1)
        out[cells, r0:r1, c0:c1] += local

    monkeypatch.setattr(forms, "_scatter_block", indexed_scatter)
    for f, expected in zip(forms_, sliced):
        np.testing.assert_array_equal(assemble_form(f), expected)


def test_nonconstant_degree_zero_field_takes_quadrature_path():
    """Constancy is a node type, not a degree: a piecewise field with
    degree 0 stays a point-evaluated field."""
    mesh = build_jittered_square(4, 0.2, seed=6)
    V = create_space(mesh, DG(1))
    left = ScalarField(lambda x, y: np.where(x < 0.5, 1.0, 0.0), degree=0)
    assert isinstance(fld(left), Fld)
    assert fld(ScalarField.constant(2.5)) == Const(2.5)
    weighted = FormIR(V, V, [IntegralTerm(CELL, dot(fld(left), dot(tfn(), trial())))])
    assert not _is_reference_form(weighted.terms[0], weighted)
    batched = assemble_form(weighted)
    for c in range(mesh.n_cells):
        np.testing.assert_allclose(batched[c], assemble_local(weighted, c), atol=1e-15)
    xs = mesh.vertex_coords[mesh.cell_vertices][:, :, 0]
    right, left_cells = xs.min(axis=1) > 0.5, xs.max(axis=1) < 0.5
    assert right.any() and left_cells.any()
    assert np.abs(batched[right]).max() == 0.0
    assert batched[left_cells].min() > 0.0
    # linear forms stay on the quadrature path even with constant data
    rhs = FormIR(V, None, [IntegralTerm(CELL, dot(tfn(), fld(ScalarField.constant(2.0))))])
    assert not _is_reference_form(rhs.terms[0], rhs)
