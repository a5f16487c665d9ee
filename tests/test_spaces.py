import numpy as np
import pytest

from hybridfem import (
    CG,
    DG,
    RT,
    Trace,
    VectorDG,
    Function,
    break_space,
    broken_transfer,
    build_jittered_square,
    build_unit_square,
    create_space,
    inject_broken,
    interpolate,
    project_div,
    transfer_residual,
)
from hybridfem.spaces import eval_function, global_edge_moments, project_onto_facets


def facet_side_normal_values(fn, cells, local_edge, t_local):
    """Normal component of an RT function seen from given cell sides."""
    from hybridfem.reference import edge_points

    space = fn.space
    el = space.element()
    geo = space.mesh.geometry()
    pts = edge_points(local_edge, t_local)
    ref = el.tabulate(pts)  # (nq, nd, 2)
    jac = geo.jacobians[cells]
    det = geo.det_j[cells]
    phys = np.einsum("cij,qnj->cqni", jac, ref) / det[:, None, None, None]
    local = fn.coeffs[space.cell_dofs[cells]] * space.cell_signs[cells]
    vals = np.einsum("cqni,cn->cqi", phys, local)
    normals = geo.edge_normals[cells, local_edge]
    return np.einsum("cqi,ci->cq", vals, normals)


def test_dg0_counts():
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(0))
    assert V.ndof_global == 8


def test_trace_counts():
    mesh = build_unit_square(1)
    M = create_space(mesh, Trace(0))
    assert M.ndof_global == 5


def test_rt1_counts_and_breaking():
    mesh = build_unit_square(1)
    U = create_space(mesh, RT(1))
    assert U.ndof_global == 5
    Ud = break_space(U)
    assert Ud.ndof_global == 6
    with pytest.raises(ValueError):
        break_space(Ud)
    with pytest.raises(ValueError):
        break_space(create_space(mesh, DG(1)))


def test_rt2_broken_count():
    mesh = build_unit_square(2)
    U = break_space(create_space(mesh, RT(2)))
    assert U.ndof_global == 8 * 8


def test_rt_conforming_sharing():
    mesh = build_unit_square(3)
    U = create_space(mesh, RT(2))
    counts = np.zeros(U.ndof_global, dtype=int)
    for c in range(mesh.n_cells):
        counts[U.cell_dofs[c]] += 1
    n_interior = len(mesh.interior_facets)
    assert (counts == 2).sum() == 2 * n_interior  # 2 moments per interior facet
    assert (counts >= 1).all()


def test_cg_sharing_and_count():
    mesh = build_unit_square(2)
    V = create_space(mesh, CG(3))
    # vertices + 2 per facet + 1 interior per cell
    assert V.ndof_global == 9 + 2 * 16 + 8
    # shared facet dofs appear in both incident cells
    for f in mesh.interior_facets:
        c0, c1 = mesh.facet_cells[f]
        shared = set(V.cell_dofs[c0]) & set(V.cell_dofs[c1])
        assert len(shared) == 4  # 2 vertices + 2 edge dofs


def test_cg_interpolation_continuity():
    """A smooth interpolant agrees when evaluated from both facet sides."""
    mesh = build_unit_square(3)
    for k in (1, 2, 3, 4):
        V = create_space(mesh, CG(k))
        f = interpolate(V, lambda x, y: x**2 + 0.5 * y + 0.25 * x * y)
        el = V.element()
        from hybridfem.reference import edge_points

        t = np.linspace(0.05, 0.95, 5)
        for fct in mesh.interior_facets:
            (c0, c1), (l0, l1) = mesh.facet_cells[fct], mesh.facet_local_index[fct]
            geo = mesh.geometry()
            vals = []
            for c, loc in ((c0, l0), (c1, l1)):
                tt = t if geo.dir_match[c, loc] else 1.0 - t
                pts = edge_points(loc, tt)
                basis = el.tabulate(pts)
                local = f.coeffs[V.cell_dofs[c]]
                vals.append(basis @ local)
            np.testing.assert_allclose(vals[0], vals[1], atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rt_normal_trace_single_valued(k):
    mesh = build_unit_square(3)
    U = create_space(mesh, RT(k))
    rng = np.random.default_rng(11)
    fn = Function(U, rng.standard_normal(U.ndof_global))
    geo = mesh.geometry()
    t = np.linspace(0.1, 0.9, 4)
    for fct in mesh.interior_facets:
        (c0, c1), (l0, l1) = mesh.facet_cells[fct], mesh.facet_local_index[fct]
        t0 = t if geo.dir_match[c0, l0] else 1.0 - t
        t1 = t if geo.dir_match[c1, l1] else 1.0 - t
        v0 = facet_side_normal_values(fn, np.array([c0]), l0, t0)[0]
        v1 = facet_side_normal_values(fn, np.array([c1]), l1, t1)[0]
        # same physical points, opposite normals
        np.testing.assert_allclose(v0, -v1, atol=1e-11)


@pytest.mark.parametrize("k", [1, 2])
def test_trace_space_matches_rt_normal_trace(k):
    """RT(k) normal traces are representable in the Trace(k-1) basis."""
    mesh = build_unit_square(2)
    U = create_space(mesh, RT(k))
    el = U.element()
    from hybridfem.reference import edge_points, line_element

    line = line_element(k - 1)
    t = np.linspace(0.0, 1.0, 8)
    n_scaled = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    for loc in range(3):
        flux = el.tabulate(edge_points(loc, t)) @ n_scaled[loc]  # (nq, nd)
        basis = line.tabulate(t)  # (nq, k)
        coef, res, rank, _ = np.linalg.lstsq(basis, flux, rcond=None)
        resid = basis @ coef - flux
        assert np.abs(resid).max() < 1e-11


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rt_interpolation_reproduces_polynomials(k):
    mesh = build_unit_square(2)
    U = create_space(mesh, RT(k))

    def exact(x, y):
        # a field inside RT(k) for every k >= 1
        out = np.empty(x.shape + (2,))
        out[..., 0] = 1.0 + 0.5 * x
        out[..., 1] = -0.25 + 0.25 * y
        return out

    fn = interpolate(U, exact)
    geo = mesh.geometry()
    cells = np.arange(mesh.n_cells)
    t = np.linspace(0.15, 0.85, 3)
    vals = facet_side_normal_values(fn, cells, 0, t)
    from hybridfem.reference import edge_points

    pts = edge_points(0, t)
    phys = geo.origins[:, None, :] + np.einsum("cij,qj->cqi", geo.jacobians, pts)
    exact_n = np.einsum("cqi,ci->cq", exact(phys[..., 0], phys[..., 1]),
                        geo.edge_normals[:, 0])
    np.testing.assert_allclose(vals, exact_n, atol=1e-12)


def test_vectordg_interpolation():
    mesh = build_unit_square(2)
    W = create_space(mesh, VectorDG(2))

    def exact(x, y):
        out = np.empty(x.shape + (2,))
        out[..., 0] = x * y
        out[..., 1] = x - y**2
        return out

    fn = interpolate(W, exact)
    # evaluate at cell centroids
    pts = np.array([[1.0 / 3.0, 1.0 / 3.0]])
    geo = mesh.geometry()
    phys = geo.origins + geo.jacobians @ np.array([1.0 / 3.0, 1.0 / 3.0])
    vals = eval_function(fn, pts)[:, 0]
    np.testing.assert_allclose(vals, exact(phys[:, 0], phys[:, 1]), atol=1e-13)


def test_transfer_residual_identity():
    mesh = build_unit_square(1)
    U = create_space(mesh, RT(1))
    Ud = break_space(U)
    bt = broken_transfer(U, Ud)
    interior_dof = U.facet_dofs[mesh.interior_facets[0], 0]
    r = np.zeros(U.ndof_global)
    r[interior_dof] = 1.0
    rb = transfer_residual(bt, r)
    twins = np.flatnonzero(bt.conforming_of_broken == interior_dof)
    assert len(twins) == 2
    np.testing.assert_allclose(rb[twins], 0.5)
    # exterior dofs copied unchanged
    ext_dof = U.facet_dofs[mesh.exterior_facets[0], 0]
    r2 = np.zeros(U.ndof_global)
    r2[ext_dof] = 3.0
    rb2 = transfer_residual(bt, r2)
    assert rb2.sum() == 3.0


def test_transfer_residual_pairing_random():
    mesh = build_unit_square(3)
    U = create_space(mesh, RT(2))
    Ud = break_space(U)
    bt = broken_transfer(U, Ud)
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = rng.standard_normal(U.ndof_global)
        w = rng.standard_normal(U.ndof_global)
        rb = transfer_residual(bt, r)
        wb = inject_broken(bt, Function(U, w))
        assert abs(rb @ wb.coeffs - r @ w) < 1e-12


def test_project_div_roundtrip_and_average():
    mesh = build_unit_square(2)
    U = create_space(mesh, RT(2))
    Ud = break_space(U)
    bt = broken_transfer(U, Ud)
    rng = np.random.default_rng(5)
    w = Function(U, rng.standard_normal(U.ndof_global))
    np.testing.assert_allclose(
        project_div(bt, inject_broken(bt, w)).coeffs, w.coeffs, atol=1e-14
    )
    # twins (a, b) average to (a+b)/2
    b = Function(Ud, rng.standard_normal(Ud.ndof_global))
    proj = project_div(bt, b)
    f = mesh.interior_facets[0]
    dof = U.facet_dofs[f, 0]
    twins = np.flatnonzero(bt.conforming_of_broken == dof)
    assert abs(proj.coeffs[dof] - b.coeffs[twins].mean()) < 1e-14


def test_unsupported_family_degree():
    with pytest.raises(ValueError):
        RT(4)
    with pytest.raises(ValueError):
        DG(5)
    with pytest.raises(ValueError):
        CG(0)


def test_trace_projection_reproduces_polynomial():
    mesh = build_unit_square(2)
    M = create_space(mesh, Trace(2))
    facets = np.arange(mesh.n_facets)
    vals = project_onto_facets(M, facets, lambda x, y: x + 2 * y)
    fn = interpolate(M, lambda x, y: x + 2 * y)
    np.testing.assert_allclose(vals.ravel(), fn.coeffs[M.facet_dofs[facets]].ravel(),
                               atol=1e-12)


def test_global_edge_moments_match_interpolation():
    mesh = build_unit_square(2)
    U = create_space(mesh, RT(2))

    def exact(x, y):
        out = np.empty(x.shape + (2,))
        out[..., 0] = y
        out[..., 1] = x
        return out

    fn = interpolate(U, exact)
    facets = np.arange(mesh.n_facets)
    moments = global_edge_moments(U, facets, exact)
    np.testing.assert_allclose(fn.coeffs[U.facet_dofs], moments, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rt_point_values_on_jittered_mesh(k):
    """Piola-mapped values of an interpolated RT field reproduce it."""
    mesh = build_jittered_square(4, 0.2, seed=2)
    U = create_space(mesh, RT(k))

    def exact(x, y):
        out = np.empty(x.shape + (2,))
        out[..., 0] = 1.0 + 0.5 * x
        out[..., 1] = -0.25 + 0.5 * y  # a + b x lies in RT(1)
        return out

    fn = interpolate(U, exact)
    geo = mesh.geometry()
    pts = np.array([[0.2, 0.3], [0.6, 0.1], [1.0 / 3.0, 1.0 / 3.0]])
    phys = geo.origins[:, None, :] + np.einsum("cij,qj->cqi", geo.jacobians, pts)
    np.testing.assert_allclose(eval_function(fn, pts),
                               exact(phys[..., 0], phys[..., 1]), atol=1e-12)
