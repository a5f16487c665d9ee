import dataclasses
import tracemalloc

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
from hybridfem import forms, reference, spaces
from hybridfem.forms import (
    CELL,
    EXTERIOR,
    INTERIOR,
    Const,
    Fld,
    FormIR,
    IntegralTerm,
    QUADRATURE_MARGIN,
    ScalarField,
    _term_exactness,
    assemble_form,
    assemble_local,
    coef,
    div,
    dot,
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
from support import point_dependent

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
            flux = np.einsum("qni,i->qn", piola, geo.edge_normals[c, loc])
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
    """A term's quadrature exactness is the degree bound of its
    integrand plus the margin."""
    mesh = build_unit_square(1)
    V0 = create_space(mesh, DG(0))
    V2 = create_space(mesh, CG(2))
    stiff = FormIR(V2, V2, [IntegralTerm(CELL, dot(grad(tfn()), grad(trial())))])
    U = create_space(mesh, RT(1))
    kappa = ScalarField(lambda x, y: 1.0 + x, degree=1)
    wmass = FormIR(U, U, [ IntegralTerm(CELL, dot(fld(kappa), dot(tfn(), trial())))])
    for form, degree in [(mass_form(V0), 0), (stiff, 2), (wmass, 3)]:
        (term,) = form.terms
        assert _term_exactness(term, form) == degree + QUADRATURE_MARGIN


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
    """Every constant-coefficient operator is point-independent, so it is
    contracted from reference tensors, and agrees with the single-cell
    quadrature oracle on every cell."""
    mesh = _general_meshes()[mesh_name]
    if mesh_name == "jittered-neumann-left":
        assert len(mesh.facets_with_label(NEUMANN)) == 4
    for name, form in _operators(mesh):
        assert not any(point_dependent(form)), name
        batched = assemble_form(form)
        for c in range(mesh.n_cells):
            local = assemble_local(form, c)
            err = np.abs(batched[c] - local).max() / np.abs(local).max()
            assert err <= 1e-12, (name, c, err)


@pytest.mark.parametrize("mesh_name", ["structured", "jittered", "jittered-neumann-left"])
def test_one_product_assembly_matches_oracle(mesh_name):
    """All point-independent terms of a form are contracted in one product:
    two terms sharing a block, a non-constant term added to that block
    point by point afterwards, interior and Neumann facet terms over
    signed RT, DG and trace fields; every cell matches the oracle."""
    mesh = _general_meshes()[mesh_name]
    W = MixedSpace((create_space(mesh, RT(2)), create_space(mesh, DG(1)),
                    create_space(mesh, Trace(1))))
    w = fld(ScalarField(lambda x, y: 1.0 + 0.5 * x * y - 0.25 * y * y, degree=2))
    form = FormIR(W, W, [
        IntegralTerm(CELL, dot(tfn(0), trial(0))),
        IntegralTerm(CELL, 0.5 * dot(div(tfn(0)), div(trial(0)))),
        IntegralTerm(CELL, dot(w, dot(tfn(0), trial(0)))),
        IntegralTerm(CELL, -dot(div(tfn(0)), trial(1))),
        IntegralTerm(CELL, dot(grad(tfn(1)), trial(0))),
        IntegralTerm(INTERIOR, dot(jump(tfn(0)), trial(2))),
        IntegralTerm(INTERIOR, dot(tfn(2), jump(trial(0)))),
        IntegralTerm(EXTERIOR, dot(tfn(2), dot(Const(2.0), trial(2))), NEUMANN),
        IntegralTerm(EXTERIOR, dot(jump(tfn(0)), jump(trial(0)))),
    ])
    assert point_dependent(form) == [False, False, True] + [False] * 6
    batched = assemble_form(form)
    for c in range(mesh.n_cells):
        local = assemble_local(form, c)
        err = np.abs(batched[c] - local).max() / np.abs(local).max()
        assert err <= 1e-12, (c, err)


def _peak_over_output(form, cells=None) -> float:
    """The traced peak of one warm assembly over the size of its output."""
    out = assemble_form(form, cells)  # geometry and tabulation caches fill here
    tracemalloc.start()
    try:
        assemble_form(form, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.nbytes


def test_reference_product_allocates_little_beyond_its_output():
    """The CG(1) operator (stiffness plus mass) at n=128 holds no sign
    arrays for its unsigned space and no per-term element tensors: the
    assembly peaks at under 2.5 times the size of its output."""
    form = primal_cg_system(build_unit_square(128), manufactured("sinsin"), 1).a
    assert _peak_over_output(form) <= 2.5


@pytest.mark.parametrize("method", ["mixed-hybrid-2", "ldgh-1"])
def test_facet_terms_allocate_little_beyond_their_output(method):
    """A 2048-cell block of a hybridized operator, whose facet terms each
    read one cells-last map layout per context and form their dot
    products one component at a time, and which frees the maps of
    contexts without point-dependent terms before the reference product,
    peaks at under ``bound`` times the size of its output (1.15 and 1.33
    measured; 1.22 and 1.41 when every context lives through the
    product)."""
    mesh, prob = build_unit_square(64), manufactured("sinsin")
    form = (ldgh_system(mesh, prob, 1) if method == "ldgh-1"
            else hybridized_mixed_system(mesh, prob, 2)).a
    bound = {"mixed-hybrid-2": 1.2, "ldgh-1": 1.38}[method]
    assert _peak_over_output(form, slice(2048, 4096)) <= bound


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
    """Every right-hand side and every coefficient or weighted form is
    point-dependent (bases and coefficients through ``ref_basis``) and
    agrees with the single-cell oracle on every cell."""
    mesh = _general_meshes()[mesh_name]
    for name, form in _quadrature_forms(mesh):
        assert all(point_dependent(form)), name
        batched = assemble_form(form)
        for c in range(mesh.n_cells):
            local = assemble_local(form, c)
            err = np.abs(batched[c] - local).max() / np.abs(local).max()
            assert err <= 1e-12, (name, c, err)


def _sum_forms(mesh):
    V, U = create_space(mesh, CG(2)), create_space(mesh, RT(2))
    w = fld(ScalarField(lambda x, y: 1.0 + 0.5 * x * y - 0.25 * y * y, degree=2))
    mass, stiffness = dot(tfn(), trial()), dot(grad(tfn()), grad(trial()))
    yield "values-plus-gradients", FormIR(V, V, [IntegralTerm(CELL, mass + stiffness)])
    yield "weighted-mass-minus-stiffness", FormIR(V, V, [
        IntegralTerm(CELL, dot(w, mass) - 0.5 * stiffness)])
    yield "field-plus-constant-data", FormIR(V, None, [
        IntegralTerm(CELL, dot(tfn(), w + Const(2.0)))])
    yield "rt-jump-sum", FormIR(U, U, [
        IntegralTerm(INTERIOR, dot(jump(tfn()), jump(trial())) - 0.5 * dot(tfn(), trial()))])
    W = MixedSpace((U, create_space(mesh, DG(1))))
    yield "constant-linear", FormIR(W, None, [
        IntegralTerm(CELL, dot(tfn(1), Const(3.0) - Const(1.0))),
        IntegralTerm(EXTERIOR, dot(jump(tfn(0)), Const(1.5)) + dot(div(tfn(0)), Const(0.5))),
    ])


@pytest.mark.parametrize("mesh_name", ["structured", "jittered", "jittered-neumann-left"])
def test_sum_integrands_match_oracle_on_general_meshes(mesh_name):
    """Sums are walked into monomials: point-independent ones join the
    one product, point-dependent ones the cell blocks, and a term may
    hold both; every cell matches the single-cell oracle."""
    mesh = _general_meshes()[mesh_name]
    for name, form in _sum_forms(mesh):
        batched = assemble_form(form)
        for c in range(mesh.n_cells):
            local = assemble_local(form, c)
            err = np.abs(batched[c] - local).max() / np.abs(local).max()
            assert err <= 1e-12, (name, c, err)


def test_full_cell_scatter_is_bit_identical_to_indexed_scatter(monkeypatch):
    """Cell terms add their blocks through a basic slice; the element
    tensors equal those of a fancy-indexed gather and scatter."""
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
        out[np.arange(len(out))[cells], r0:r1, c0:c1] += local

    monkeypatch.setattr(forms, "_scatter_block", indexed_scatter)
    for f, expected in zip(forms_, sliced):
        np.testing.assert_array_equal(assemble_form(f), expected)


@pytest.mark.parametrize("mesh_name", ["structured", "jittered", "jittered-neumann-left"])
def test_facet_selections_match_string_labels(mesh_name):
    """Facets chosen from a range of cells are those whose incidence in
    ``facet_cells`` and label string the term names; a sub-range chooses
    the whole range's cells that lie in it."""
    mesh = _general_meshes()[mesh_name]
    exterior = mesh.facet_cells[:, 1] < 0
    n_neumann = 0
    for domain, label in [(INTERIOR, None), (EXTERIOR, None),
                          (EXTERIOR, DIRICHLET), (EXTERIOR, NEUMANN)]:
        term = IntegralTerm(domain, Const(1.0), label)
        got = forms._facet_selections(mesh, term, slice(0, mesh.n_cells))
        part = forms._facet_selections(mesh, term, slice(5, 17))
        for loc in range(3):
            facets = mesh.cell_facets[:, loc]
            want = exterior[facets] == (domain == EXTERIOR)
            if label is not None:
                want &= mesh.exterior_label[facets] == label
            np.testing.assert_array_equal(got[loc], np.flatnonzero(want))
            np.testing.assert_array_equal(part[loc], got[loc][(got[loc] >= 5) & (got[loc] < 17)])
            n_neumann += len(got[loc]) if label == NEUMANN else 0
    assert (n_neumann > 0) == (mesh_name == "jittered-neumann-left")


@pytest.mark.parametrize("method", ["ldgh-1", "mixed-hybrid-2"])
def test_one_context_per_facet_set(method, monkeypatch):
    """One assembly of a hybridized operator builds one context per
    (domain, label, rule, local edge) that has cells, shared by the terms
    on it, and each context maps a space's basis once per derivative."""
    mesh = _general_meshes()["jittered-neumann-left"]
    prob = manufactured("sinsin")
    form = (ldgh_system(mesh, prob, 1) if method == "ldgh-1"
            else hybridized_mixed_system(mesh, prob, 2)).a
    expected = assemble_form(form)  # compiles the form
    exterior = mesh.facet_cells[:, 1] < 0
    facet_sets = set()
    for t in form.terms:
        exact = _term_exactness(t, form)
        if t.domain == CELL:
            facet_sets.add((CELL, None, exact, None))
            continue
        for loc in range(3):
            facets = mesh.cell_facets[:, loc]
            on = exterior[facets] == (t.domain == EXTERIOR)
            if t.label is not None:
                on &= mesh.exterior_label[facets] == t.label
            if on.any():
                facet_sets.add((t.domain, t.label, exact, loc))
    assert len(facet_sets) < len(form.terms)

    built, maps = [], []
    context, ref_map = forms._context, forms.ref_map

    def counting_context(mesh_, rule, kind, cells):
        built.append(context(mesh_, rule, kind, cells))
        return built[-1]

    def counting_ref_map(space, deriv, geo, cells):
        maps.append((id(cells), id(space), deriv))
        return ref_map(space, deriv, geo, cells)

    monkeypatch.setattr(forms, "_context", counting_context)
    monkeypatch.setattr(forms, "ref_map", counting_ref_map)
    np.testing.assert_array_equal(assemble_form(form), expected)
    assert len(built) == len(facet_sets), (len(built), sorted(facet_sets, key=str))
    cells = [np.arange(mesh.n_cells)[c.cells] for c in built]
    assert len({(c.rule.exactness, getattr(c, "local_edge", None), tuple(cl))
                for c, cl in zip(built, cells)}) == len(built)
    # cell contexts of different rules share their cells; facet selections are their own
    for key in set(maps):
        assert maps.count(key) <= sum(id(c.cells) == key[0] for c in built), key


def _pp_rhs(mesh, k):
    """The right-hand side of ``postprocess.scalar_pp`` for random data."""
    rng = np.random.default_rng(8)
    U, P = create_space(mesh, RT(k)), create_space(mesh, DG(k - 1))
    u_h, p_h = (Function(S, rng.standard_normal(S.ndof_global)) for S in (U, P))
    W = MixedSpace((create_space(mesh, DG(k + 1)), create_space(mesh, DG(0))))
    return FormIR(W, None, [
        IntegralTerm(CELL, -dot(fld(ONE), dot(grad(tfn(0)), coef(u_h)))),
        IntegralTerm(CELL, dot(tfn(1), coef(p_h))),
    ])


@pytest.mark.parametrize("mesh_name", ["structured", "jittered", "jittered-neumann-left"])
def test_cell_block_ends_match_oracle(mesh_name, monkeypatch):
    """Quadrature-path terms are evaluated one cell block at a time; the
    first and last cell of every block agree with the single-cell oracle."""
    jittered = build_jittered_square(64, 0.2, seed=5)
    mesh = {"structured": build_unit_square(64), "jittered": jittered,
            "jittered-neumann-left": mark_boundary(
                jittered, lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET)}[mesh_name]
    prob = manufactured("sinsin")
    blocks, is_cell_block = [], []
    scatter = forms._scatter_block

    def recording_scatter(out, local, cells, *rest):
        blocks.append(np.arange(len(out))[cells])
        is_cell_block.append(isinstance(cells, slice))
        scatter(out, local, cells, *rest)

    monkeypatch.setattr(forms, "_scatter_block", recording_scatter)
    for name, form in [("cg-1", primal_cg_system(mesh, prob, 1).rhs),
                       ("mixed-hybrid-1", hybridized_mixed_system(mesh, prob, 1).rhs),
                       ("scalar-pp-2", _pp_rhs(mesh, 2))]:
        blocks.clear()
        is_cell_block.clear()
        batched = assemble_form(form)
        # some cell term spans two blocks or more, and each cell term's
        # blocks cover every cell once
        n_cell_terms = sum(t.domain == CELL for t in form.terms)
        assert sum(is_cell_block) > n_cell_terms, name
        covered = np.concatenate([b for b, cell in zip(blocks, is_cell_block) if cell])
        assert (np.bincount(covered, minlength=mesh.n_cells) == n_cell_terms).all(), name
        for c in sorted({int(b[i]) for b in blocks for i in (0, -1)}):
            local = assemble_local(form, c)
            err = np.abs(batched[c] - local).max() / np.abs(local).max()
            assert err <= 1e-12, (name, c, err)


@pytest.mark.parametrize("mesh_name", ["structured", "jittered", "jittered-neumann-left"])
def test_element_tensors_do_not_depend_on_block_size(mesh_name, monkeypatch):
    """Blocking changes no cell's arithmetic: with blocks of a cell or
    two, and facet selections cut into several chunks, every
    point-dependent tensor is bit-identical to one block per term."""
    mesh = _general_meshes()[mesh_name]
    named = list(_quadrature_forms(mesh))
    whole = [assemble_form(form) for _, form in named]
    monkeypatch.setattr(spaces, "BLOCK_POINTS", 64)
    for (name, form), expected in zip(named, whole):
        np.testing.assert_array_equal(assemble_form(form), expected, err_msg=name)


@pytest.mark.parametrize("mesh_name", ["structured", "jittered", "jittered-neumann-left"])
def test_form_on_cells_is_a_slice_of_the_whole(mesh_name):
    """A form assembled on a range of cells gives the rows of those
    cells, facet terms included, for operators and quadrature-path
    forms; the whole range is the default.  The rows agree to round-off,
    not bits: the reference product ``G @ A0`` is one BLAS product over
    the range, whose summation order for a row may depend on the number
    of rows."""
    mesh = _general_meshes()[mesh_name]
    for name, form in [*_operators(mesh), *_quadrature_forms(mesh)]:
        whole = assemble_form(form)
        np.testing.assert_array_equal(assemble_form(form, slice(0, mesh.n_cells)), whole)
        for lo, hi in [(0, 5), (5, 17), (17, mesh.n_cells)]:
            np.testing.assert_allclose(assemble_form(form, slice(lo, hi)), whole[lo:hi],
                                       rtol=0, atol=1e-13 * np.abs(whole).max(),
                                       err_msg=f"{name} {lo}:{hi}")


def test_nonconstant_degree_zero_field_takes_quadrature_path():
    """Constancy is a node type, not a degree: a piecewise field with
    degree 0 stays a point-evaluated field."""
    mesh = build_jittered_square(4, 0.2, seed=6)
    V = create_space(mesh, DG(1))
    left = ScalarField(lambda x, y: np.where(x < 0.5, 1.0, 0.0), degree=0)
    assert isinstance(fld(left), Fld)
    assert fld(ScalarField.constant(2.5)) == Const(2.5)
    weighted = FormIR(V, V, [IntegralTerm(CELL, dot(fld(left), dot(tfn(), trial())))])
    assert point_dependent(weighted) == [True]
    batched = assemble_form(weighted)
    for c in range(mesh.n_cells):
        np.testing.assert_allclose(batched[c], assemble_local(weighted, c), atol=1e-15)
    xs = mesh.vertex_coords[mesh.cell_vertices][:, :, 0]
    right, left_cells = xs.min(axis=1) > 0.5, xs.max(axis=1) < 0.5
    assert right.any() and left_cells.any()
    assert np.abs(batched[right]).max() == 0.0
    assert batched[left_cells].min() > 0.0
    # a linear form with constant data joins the one product
    rhs = FormIR(V, None, [IntegralTerm(CELL, dot(tfn(), fld(ScalarField.constant(2.0))))])
    assert point_dependent(rhs) == [False]


def _clear_table_memos():
    for el in (reference.rt_element(2), reference.scalar_element(1), reference.line_element(1)):
        vars(el).pop("_tables", None)
    reference._edge_points.cache_clear()
    forms._trace_table.cache_clear()


def test_element_tensors_match_from_cold_and_warm_caches(monkeypatch):
    """The mixed-hybrid k=2 operator and right-hand side (cell, interior
    and exterior facet terms, point-dependent ones among them) give
    bit-identical element tensors on their first assembly, with every
    table memo empty, and on a later one, whole or in ten-cell ranges
    with small point blocks."""
    mesh = _general_meshes()["jittered-neumann-left"]
    prob = manufactured("sinsin")
    hs = hybridized_mixed_system(mesh, prob, 2)
    terms = [(t.domain, p) for f in (hs.a, hs.rhs) for t, p in zip(f.terms, point_dependent(f))]
    assert {d for d, _ in terms} == {CELL, INTERIOR, EXTERIOR}
    assert {d for d, p in terms if p} == {CELL, EXTERIOR}

    def tensors(form, ranges):
        return [assemble_form(form, r) for r in ranges]

    for ranges in ([None], [slice(lo, min(lo + 10, mesh.n_cells))
                            for lo in range(0, mesh.n_cells, 10)]):
        with monkeypatch.context() as m:
            if len(ranges) > 1:
                m.setattr(spaces, "BLOCK_POINTS", 64)
            for name in ("a", "rhs"):
                _clear_table_memos()
                form = getattr(hybridized_mixed_system(mesh, prob, 2), name)
                assert "compiled" not in vars(form)
                cold = tensors(form, ranges)
                warm = tensors(form, ranges)
                fresh = tensors(getattr(hybridized_mixed_system(mesh, prob, 2), name), ranges)
                for c, w, f in zip(cold, warm, fresh):
                    assert c.tobytes() == w.tobytes() == f.tobytes(), name


def test_compiled_tables_are_shared_and_read_only():
    """A tabulation at equal points is one read-only array, and so are the
    trace tables and the edge parametrizations; a form is immutable, so
    its compiled description holds."""
    mesh = build_unit_square(2)
    form = hybridized_mixed_system(mesh, manufactured("sinsin"), 2).a
    cell = reference.triangle_quadrature(4).points
    t = reference.edge_quadrature(4).points
    rt, p1, line = reference.rt_element(2), reference.scalar_element(1), reference.line_element(1)
    assert rt.tabulate(cell) is rt.tabulate(cell.copy())
    assert reference.edge_points(1, t) is reference.edge_points(1, t.copy())
    assert forms._trace_table(1, 4, 2) is forms._trace_table(1, 4, 2)
    tables = [rt.tabulate(cell), rt.tabulate_div(cell), p1.tabulate(cell), p1.tabulate_grad(cell),
              line.tabulate(t), reference.edge_points(0, t), forms._trace_table(1, 4, 0)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        form.terms = ()
