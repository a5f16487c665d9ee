from dataclasses import replace

import numpy as np
import pytest

import exact_oracle
from hybridfem import DIRICHLET, NEUMANN, build_jittered_square, build_unit_square, mark_boundary
from hybridfem.expressions import Tensor, assemble_global
from hybridfem.forms import (
    CELL,
    EXTERIOR,
    INTERIOR,
    FormIR,
    IntegralTerm,
    ScalarField,
    div,
    dot,
    fld,
    jump,
    test as tfn,
    trial,
)
from hybridfem.problems import (
    cg_boundary_dofs,
    conforming_mixed_system,
    hybridized_mixed_system,
    ldgh_system,
    manufactured,
    primal_cg_system,
)
from hybridfem.spaces import DG, RT, MixedSpace, Trace, break_space, create_space, interpolate


@pytest.mark.parametrize("name", ["sinsin", "expsin"])
def test_forcing_consistent_with_solution(name):
    """f must equal -div(kappa grad p) + c p; checked by finite differences."""
    prob = manufactured(name)
    rng = np.random.default_rng(1)
    pts = 0.1 + 0.8 * rng.random((50, 2))
    # step balances truncation against cancellation in the second difference
    h = 2e-4
    x, y = pts[:, 0], pts[:, 1]
    lap = (
        prob.p(x + h, y) + prob.p(x - h, y) + prob.p(x, y + h) + prob.p(x, y - h)
        - 4.0 * prob.p(x, y)
    ) / h**2
    f_fd = -lap + prob.p(x, y)
    np.testing.assert_allclose(prob.f(x, y), f_fd, atol=1e-5)


@pytest.mark.parametrize("name", ["sinsin", "expsin"])
def test_closed_form_fields_match_symbolic_derivation(name):
    prob = manufactured(name)
    exact = exact_oracle.manufactured_fields(name)
    rng = np.random.default_rng(4)
    x, y = rng.random(1000), rng.random(1000)
    fields = {"p": prob.p, "u": prob.u, "div_u": prob.div_u, "f": prob.f, "p0": prob.p0}
    for key, fn in fields.items():
        got, want = fn(x, y), exact[key](x, y)
        assert got.shape == want.shape, key
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), key


def test_sinsin_forcing_closed_form():
    prob = manufactured("sinsin")
    rng = np.random.default_rng(2)
    x, y = rng.random(20), rng.random(20)
    expected = (2.0 * np.pi**2 + 1.0) * np.sin(np.pi * x) * np.sin(np.pi * y)
    np.testing.assert_allclose(prob.f(x, y), expected, atol=1e-12)


def test_flux_consistent_with_gradient():
    prob = manufactured("expsin")
    rng = np.random.default_rng(3)
    x, y = 0.2 + 0.6 * rng.random(20), 0.2 + 0.6 * rng.random(20)
    h = 1e-6
    gx = (prob.p(x + h, y) - prob.p(x - h, y)) / (2 * h)
    gy = (prob.p(x, y + h) - prob.p(x, y - h)) / (2 * h)
    u = prob.u(x, y)
    np.testing.assert_allclose(u[..., 0], -gx, atol=1e-6)
    np.testing.assert_allclose(u[..., 1], -gy, atol=1e-6)


def test_unknown_problem_rejected():
    with pytest.raises(ValueError):
        manufactured("cubic")


def test_system_shapes():
    mesh = build_unit_square(2)
    prob = manufactured("sinsin")
    hs = hybridized_mixed_system(mesh, prob, 1)
    assert hs.flux_space.ndof_global == 8 * 3
    assert hs.scalar_space.ndof_global == 8
    assert hs.trace_space.ndof_global == 16
    ls = ldgh_system(mesh, prob, 1, tau=1.0)
    assert ls.flux_space.ndof_global == 8 * 6
    assert ls.trace_space.ndof_global == 32
    with pytest.raises(ValueError):
        ldgh_system(mesh, prob, 1, tau=-1.0)


def test_trace_bcs_cover_dirichlet_facets():
    mesh = mark_boundary(
        build_unit_square(2), lambda x, y: NEUMANN if y < 1e-12 else DIRICHLET
    )
    prob = manufactured("sinsin")
    hs = hybridized_mixed_system(mesh, prob, 2)
    n_dir = len(mesh.facets_with_label(DIRICHLET))
    assert len(hs.trace_bcs) == 2 * n_dir
    np.testing.assert_array_equal(hs.trace_bcs.values, np.zeros(2 * n_dir))
    ls = ldgh_system(mesh, prob, 1)
    # LDG-H constrains traces to the facet projection of p0 (nonzero in general)
    assert len(ls.trace_bcs) == 2 * n_dir
    # both number the traces in the three-field space
    for system in (hs, ls):
        lo, hi = system.space.offsets[2:]
        assert lo <= system.trace_bcs.dofs.min() and system.trace_bcs.dofs.max() < hi


def test_neumann_flux_bcs_match_exact_flux():
    mesh = mark_boundary(
        build_unit_square(2), lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET
    )
    prob = manufactured("expsin")
    ms = conforming_mixed_system(mesh, prob, 2)
    from hybridfem.spaces import interpolate

    exact = interpolate(ms.space.fields[0], prob.u)
    assert len(ms.flux_bcs) == 2 * len(mesh.facets_with_label(NEUMANN))
    assert np.abs(ms.flux_bcs.values - exact.coeffs[ms.flux_bcs.dofs]).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_hybridized_mixed_system_matches_three_field_form(k):
    """hybridize(conforming system) assembles bit for bit to the
    hand-written hybridized RT(k) x DG(k-1) x Trace(k-1) form."""
    mesh = mark_boundary(
        build_unit_square(4), lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET
    )
    prob = manufactured("sinsin")
    U = break_space(create_space(mesh, RT(k)))
    P = create_space(mesh, DG(k - 1))
    M = create_space(mesh, Trace(k - 1))
    W = MixedSpace((U, P, M))
    a = FormIR(W, W, [
        IntegralTerm(CELL, dot(fld(prob.mu), dot(tfn(0), trial(0)))),
        IntegralTerm(CELL, -dot(div(tfn(0)), trial(1))),
        IntegralTerm(CELL, dot(tfn(1), div(trial(0)))),
        IntegralTerm(CELL, dot(fld(prob.c), dot(tfn(1), trial(1)))),
        IntegralTerm(INTERIOR, dot(jump(tfn(0)), trial(2))),
        IntegralTerm(INTERIOR, -dot(tfn(2), jump(trial(0)))),
        IntegralTerm(EXTERIOR, dot(jump(tfn(0)), trial(2)), NEUMANN),
        IntegralTerm(EXTERIOR, -dot(tfn(2), jump(trial(0))), NEUMANN),
    ])
    rhs = FormIR(W, None, [
        IntegralTerm(CELL, dot(tfn(1), fld(prob.f))),
        IntegralTerm(EXTERIOR, -dot(jump(tfn(0)), fld(prob.p0)), DIRICHLET),
        IntegralTerm(EXTERIOR, -dot(tfn(2), prob.flux_expr()), NEUMANN),
    ])
    dirichlet = M.facet_dofs[mesh.facets_with_label(DIRICHLET)].ravel()

    hs = hybridized_mixed_system(mesh, prob, k)
    want, got = assemble_global(Tensor(a)), assemble_global(Tensor(hs.a))
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    np.testing.assert_array_equal(assemble_global(Tensor(hs.rhs)),
                                  assemble_global(Tensor(rhs)))
    np.testing.assert_array_equal(hs.trace_bcs.dofs, np.sort(dirichlet) + W.offsets[2])
    np.testing.assert_array_equal(hs.trace_bcs.values, np.zeros(len(dirichlet)))
    assert len(mesh.facets_with_label(NEUMANN)) == 4


def test_cg_boundary_dofs():
    mesh = build_unit_square(2)
    prob = manufactured("sinsin")
    ps = primal_cg_system(mesh, prob, 3)
    boundary = cg_boundary_dofs(ps.space, mesh.exterior_facets)
    # 8 boundary vertices + 2 dofs per boundary facet
    assert len(boundary) == 8 + 2 * len(mesh.exterior_facets)
    assert len(ps.dirichlet_bcs) == len(boundary)


def _left_neumann(x, y):
    return NEUMANN if x < 1e-12 else DIRICHLET


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("mesh", [
    build_unit_square(5),
    build_jittered_square(5, 0.2, seed=2),
    mark_boundary(build_jittered_square(5, 0.2, seed=4), _left_neumann),
], ids=["structured", "jittered", "jittered-left-neumann"])
def test_cg_dirichlet_values_match_full_interpolation(mesh, degree):
    # boundary data bounded away from zero, so a relative check is meaningful
    prob = replace(manufactured("expsin"),
                   p0=ScalarField(lambda x, y: np.exp(x) * (2.0 + np.cos(3.0 * y))))
    ps = primal_cg_system(mesh, prob, degree)
    facets = mesh.facets_with_label(DIRICHLET)
    k, nv = degree, mesh.n_vertices
    want = sorted({int(v) for f in facets for v in mesh.facet_vertices[f]}
                  | {nv + int(f) * (k - 1) + j for f in facets for j in range(k - 1)})
    np.testing.assert_array_equal(cg_boundary_dofs(ps.space, facets), want)
    full = interpolate(ps.space, prob.p0.fn).coeffs
    np.testing.assert_array_equal(ps.dirichlet_bcs.dofs, want)
    np.testing.assert_allclose(ps.dirichlet_bcs.values, full[want], rtol=1e-14, atol=0.0)
