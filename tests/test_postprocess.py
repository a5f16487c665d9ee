import numpy as np
import pytest

from hybridfem import (
    DG,
    RT,
    Trace,
    VectorDG,
    Function,
    MixedSpace,
    build_jittered_square,
    build_unit_square,
    create_space,
    interpolate,
)
from hybridfem.condensation import scpc_apply, scpc_setup
from hybridfem.expressions import (Tensor, assemble_global, compile_expr, evaluate_all,
                                  naive_evaluate)
from hybridfem.forms import (
    CELL,
    FormIR,
    IntegralTerm,
    ScalarField,
    assemble_form,
    coef,
    dot,
    fld,
    grad,
    test as tfn,
    trial,
)
from hybridfem.postprocess import _data_action, flux_pp, scalar_pp
from hybridfem.problems import ldgh_system, manufactured
from hybridfem.reference import edge_points, edge_quadrature, triangle_quadrature
from hybridfem.solvers import KrylovConfig, exact_preconditioner
from hybridfem.spaces import eval_function
from hybridfem.study import l2_error_div
from support import point_dependent, zero_function

ONE = ScalarField.constant(1.0)


def dg_l2_projection(space, field_fn, degree_hint=6):
    """Cellwise L2 projection through the local solve machinery."""
    sf = ScalarField(field_fn, degree=degree_hint)
    mass = FormIR(space, space, [IntegralTerm(CELL, dot(tfn(), trial()))])
    rhs = FormIR(space, None, [IntegralTerm(CELL, dot(tfn(), fld(sf)))])
    vec = assemble_global(Tensor(mass).solve(Tensor(rhs)))
    return Function(space, vec)


def solve_ldgh(mesh, prob, k, tau=1.0):
    ls = ldgh_system(mesh, prob, k, tau)
    cs = scpc_setup(ls.a, ls.trace_bcs)
    rhs = assemble_global(Tensor(ls.rhs))
    cfg = KrylovConfig(method="cg", rtol=1e-12, maxiter=500,
                       preconditioner=exact_preconditioner(cs.S))
    x, _, _ = scpc_apply(cs, rhs, cfg)
    u, p, lam = ls.space.split(x)
    return ls, Function(ls.flux_space, u), Function(ls.scalar_space, p), \
        Function(ls.trace_space, lam)


def test_scalar_pp_constant_fixed_point():
    mesh = build_unit_square(2)
    for k in (0, 1):
        P = create_space(mesh, DG(k))
        U = create_space(mesh, VectorDG(max(k, 0)))
        p_h = interpolate(P, lambda x, y: np.full(np.shape(x), 3.25))
        u_h = zero_function(U)
        p_star = scalar_pp(u_h, p_h, ONE)
        np.testing.assert_allclose(p_star.coeffs, 3.25, atol=1e-12)


@pytest.mark.parametrize("l", [0, 1])
def test_scalar_pp_polynomial_reproduction(l):
    """Exact degree-(k+1) data is reproduced by the local solves."""
    mesh = build_unit_square(2)
    k = 1

    def p_exact(x, y):
        return 1.0 + x + 2.0 * y + 0.5 * x * y - x**2 + 0.25 * y**2

    def u_exact(x, y):  # -grad p
        out = np.empty(np.shape(x) + (2,))
        out[..., 0] = -(1.0 + 0.5 * y - 2.0 * x)
        out[..., 1] = -(2.0 + 0.5 * x + 0.5 * y)
        return out

    P = create_space(mesh, DG(k))
    U = create_space(mesh, VectorDG(k))
    p_h = dg_l2_projection(P, p_exact, degree_hint=2)
    u_h = interpolate(U, u_exact)
    p_star = scalar_pp(u_h, p_h, ONE, multiplier_degree=l)
    exact = interpolate(p_star.space, p_exact)
    assert np.abs(p_star.coeffs - exact.coeffs).max() < 1e-10


def test_scalar_pp_mean_preservation():
    mesh = build_unit_square(3)
    prob = manufactured("sinsin")
    _, u_h, p_h, _ = solve_ldgh(mesh, prob, 1)
    p_star = scalar_pp(u_h, p_h, ONE)
    V0 = create_space(mesh, DG(0))
    means = FormIR(V0, None, [IntegralTerm(CELL, dot(tfn(), coef(p_h)))])
    means_star = FormIR(V0, None, [IntegralTerm(CELL, dot(tfn(), coef(p_star)))])
    a = assemble_global(Tensor(means))
    b = assemble_global(Tensor(means_star))
    assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("flux", ["RT", "VectorDG"])
@pytest.mark.parametrize("k", [1, 2])
def test_scalar_pp_data_action_equals_coefficient_form(mesh_name, flux, k):
    """The post-processing right-hand side, a bilinear data form acting on
    the gathered coefficients of (u_h, p_h), equals the linear form with
    ``coef(u_h)`` and ``coef(p_h)`` it replaces, and the single-cell
    oracle, for constant (point-independent) and non-constant
    (point-dependent) ``mu``."""
    mesh = build_unit_square(8) if mesh_name == "structured" else \
        build_jittered_square(8, 0.2, seed=7)
    U = create_space(mesh, RT(k) if flux == "RT" else VectorDG(k))
    P = create_space(mesh, DG(k - 1 if flux == "RT" else k))
    rng = np.random.default_rng(k)
    u_h, p_h = (Function(S, rng.standard_normal(S.ndof_global)) for S in (U, P))
    W = MixedSpace((create_space(mesh, DG(P.family.degree + 1)), create_space(mesh, DG(0))))
    for mu, constant in [(ScalarField.constant(1.0), True),
                         (ScalarField(lambda x, y: 1.0 + 0.5 * x * y, degree=2), False)]:
        action = _data_action(W, u_h, p_h, mu)
        assert point_dependent(action.a.form) == [not constant, False]
        got = evaluate_all(compile_expr(action))
        want = assemble_form(FormIR(W, None, [
            IntegralTerm(CELL, -dot(fld(mu), dot(grad(tfn(0)), coef(u_h)))),
            IntegralTerm(CELL, dot(tfn(1), coef(p_h))),
        ]))
        err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert err.max() <= 1e-12, (constant, err.max())
        for c in (0, mesh.n_cells - 1):  # the single-cell oracle as well
            oracle = naive_evaluate(action, c)
            assert np.abs(got[c] - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_scalar_pp_multiplier_degree_validation():
    mesh = build_unit_square(1)
    P = create_space(mesh, DG(1))
    U = create_space(mesh, VectorDG(1))
    with pytest.raises(ValueError):
        scalar_pp(zero_function(U), zero_function(P), ONE, multiplier_degree=2)


def test_flux_pp_zero_data():
    mesh = build_unit_square(2)
    k = 1
    U = create_space(mesh, VectorDG(k))
    P = create_space(mesh, DG(k))
    M = create_space(mesh, Trace(k))
    const = lambda x, y: np.full(np.shape(x), 2.0)
    p_h = interpolate(P, const)
    lam_h = interpolate(M, const)
    u_star = flux_pp(zero_function(U), p_h, lam_h, tau=1.0)
    np.testing.assert_allclose(u_star.coeffs, 0.0, atol=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_flux_pp_conformity_and_moments(k):
    mesh = build_unit_square(4)
    prob = manufactured("sinsin")
    ls, u_h, p_h, lam_h = solve_ldgh(mesh, prob, k)
    u_star = flux_pp(u_h, p_h, lam_h, tau=1.0)

    # normal component single-valued across interior facets
    geo = mesh.geometry()
    t = np.linspace(0.08, 0.92, 5)
    worst = 0.0
    for f in mesh.interior_facets:
        (c0, c1), (l0, l1) = mesh.facet_cells[f], mesh.facet_local_index[f]
        vals = []
        for c, loc in ((c0, l0), (c1, l1)):
            v = eval_function(u_star, edge_points(loc, t))[c]
            vals.append(np.einsum("qi,i->q", v, geo.edge_normals[c, loc]))
        worst = max(worst, np.abs(vals[0] + vals[1]).max())
    assert worst < 1e-10

    # interior moments match u_h against [P_{k-1}]^2
    if k >= 1:
        rule = triangle_quadrature(8)
        vs = eval_function(u_star, rule.points)
        vh = eval_function(u_h, rule.points)
        x, y = rule.points[:, 0], rule.points[:, 1]
        from hybridfem.reference import monomial_exponents

        for i, j in monomial_exponents(k - 1):
            mono = rule.weights * x**i * y**j
            for comp in (0, 1):
                ms = np.einsum("q,cq->c", mono, vs[..., comp]) * np.abs(geo.det_j)
                mh = np.einsum("q,cq->c", mono, vh[..., comp]) * np.abs(geo.det_j)
                assert np.abs(ms - mh).max() < 1e-11

    # facet normal moments match the numerical flux on exterior facets
    rule_e = edge_quadrature(8)
    from hybridfem.reference import shifted_legendre

    leg = shifted_legendre(k, rule_e.points)
    for f in mesh.exterior_facets[:6]:
        c, loc = mesh.facet_cells[f, 0], mesh.facet_local_index[f, 0]
        pts = edge_points(loc, rule_e.points)
        n = geo.edge_normals[c, loc]
        ustar_n = np.einsum("qi,i->q", eval_function(u_star, pts)[c], n)
        uh_n = np.einsum("qi,i->q", eval_function(u_h, pts)[c], n)
        ph = eval_function(p_h, pts)[c]
        lam = lam_h.space.element().tabulate(rule_e.points) @ \
            lam_h.coeffs[lam_h.space.facet_dofs[f]]
        flux = uh_n + 1.0 * (ph - lam)
        L = geo.edge_lengths[c, loc]
        m_star = L * np.einsum("q,q,qj->j", rule_e.weights, ustar_n, leg)
        m_flux = L * np.einsum("q,q,qj->j", rule_e.weights, flux, leg)
        np.testing.assert_allclose(m_star, m_flux, atol=1e-11)


def test_flux_pp_divergence_accuracy():
    """div u* approximates div u = f - c p with the expected accuracy."""
    mesh = build_unit_square(8)
    prob = manufactured("sinsin")
    _, u_h, p_h, lam_h = solve_ldgh(mesh, prob, 1)
    u_star = flux_pp(u_h, p_h, lam_h, tau=1.0)
    err = l2_error_div(u_star, prob.div_u, exactness=8)
    # the acceptance suite measures the k+1 rate; here a coarse bound suffices
    assert err < 0.15


def test_scalar_pp_blocked_equals_one_block(monkeypatch):
    """Post-processing in blocks of seven cells (the last one shorter)
    equals the one-block result to round-off on a jittered mesh, with a
    point-dependent ``mu``."""
    from hybridfem import expressions

    mesh = build_jittered_square(5, 0.2, seed=3)
    assert mesh.n_cells % 7
    rng = np.random.default_rng(2)
    u_h, p_h = (Function(S, rng.standard_normal(S.ndof_global))
                for S in (create_space(mesh, RT(2)), create_space(mesh, DG(1))))
    mu = ScalarField(lambda x, y: 1.0 + 0.5 * x * y, degree=2)
    want = scalar_pp(u_h, p_h, mu).coeffs
    # the largest register is the 7 x 11 data form: DG(2) x DG(0) by RT(2) x DG(1)
    monkeypatch.setattr(expressions, "BLOCK_ENTRIES", 7 * 7 * 11)
    got = scalar_pp(u_h, p_h, mu).coeffs
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_scalar_pp_peak_is_bounded_by_one_block(monkeypatch):
    """Mixed-hybrid k=2 data at n=64 in blocks of an eighth of the mesh:
    the traced peak of ``scalar_pp`` above what it keeps is at most a
    quarter of that of one block, so no local tensor of the whole mesh
    exists at once."""
    import tracemalloc

    from hybridfem import expressions

    mesh = build_unit_square(64)
    mesh.geometry()
    rng = np.random.default_rng(3)
    u_h, p_h = (Function(S, rng.standard_normal(S.ndof_global))
                for S in (create_space(mesh, RT(2)), create_space(mesh, DG(1))))

    def transient(block_cells):
        # the largest register is the 7 x 11 data form
        monkeypatch.setattr(expressions, "BLOCK_ENTRIES", block_cells * 7 * 11)
        tracemalloc.start()
        try:
            p_star = scalar_pp(u_h, p_h, ONE)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p_star.coeffs.shape == (6 * mesh.n_cells,)
        return peak - kept

    whole, blocked = transient(mesh.n_cells), transient(mesh.n_cells // 8)
    assert blocked <= whole / 4, (blocked / 1e6, whole / 1e6)


def _ldgh_data(mesh, k, seed):
    rng = np.random.default_rng(seed)
    return tuple(Function(S, rng.standard_normal(S.ndof_global))
                 for S in (create_space(mesh, VectorDG(k)), create_space(mesh, DG(k)),
                           create_space(mesh, Trace(k))))


@pytest.mark.parametrize("k", [1, 2])
def test_flux_pp_blocked_equals_whole(monkeypatch, k):
    """Flux reconstruction in blocks of seven cells (the last one shorter)
    equals the one-block result to round-off on a jittered mesh.  Blocks
    run inside the local-edge loop, so every facet's moments are summed in
    the same order; what may differ is a cell's contraction with the
    reference basis, one BLAS product per block."""
    from hybridfem import spaces

    mesh = build_jittered_square(5, 0.2, seed=3)
    assert mesh.n_cells % 7
    u_h, p_h, lam_h = _ldgh_data(mesh, k, seed=k)
    want = flux_pp(u_h, p_h, lam_h, tau=2.0).coeffs
    nq = len(edge_quadrature(2 * k + 6).points)
    monkeypatch.setattr(spaces, "BLOCK_POINTS", 7 * nq)
    got = flux_pp(u_h, p_h, lam_h, tau=2.0).coeffs
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_flux_pp_peak_is_bounded_by_one_block(monkeypatch):
    """LDG-H k=1 data at n=64 in blocks of at most a fifth of the mesh:
    the traced peak of ``flux_pp`` above what it keeps is at most a
    quarter of that of one block, so no per-point array of the whole mesh
    exists at once."""
    import tracemalloc

    from hybridfem import spaces

    mesh = build_unit_square(64)
    mesh.geometry()
    u_h, p_h, lam_h = _ldgh_data(mesh, 1, seed=3)

    def transient(block_points):
        monkeypatch.setattr(spaces, "BLOCK_POINTS", block_points)
        tracemalloc.start()
        try:
            u_star = flux_pp(u_h, p_h, lam_h, tau=1.0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert u_star.coeffs.shape == (8 * mesh.n_cells,)
        return peak - kept

    # at least five points per cell in every evaluation
    whole, blocked = transient(2**40), transient(mesh.n_cells)
    assert blocked <= whole / 4, (blocked / 1e6, whole / 1e6)
