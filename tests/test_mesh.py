from dataclasses import replace

import numpy as np
import pytest

from hybridfem import (
    DIRICHLET,
    NEUMANN,
    build_jittered_square,
    build_unit_square,
    cell_geometry,
    mark_boundary,
)
from hybridfem.forms import CELL, FormIR, IntegralTerm, assemble_form, dot, grad, trial
from hybridfem.forms import test as tfn
from hybridfem.mesh import EDGE_VERTICES, _mesh_from_cells
from hybridfem.problems import hybridized_mixed_system, manufactured
from hybridfem.spaces import CG, create_space


def test_single_square_counts():
    mesh = build_unit_square(1)
    assert mesh.n_cells == 2
    assert mesh.n_vertices == 4
    assert mesh.n_facets == 5
    assert len(mesh.interior_facets) == 1
    assert len(mesh.exterior_facets) == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_euler_relation(n):
    mesh = build_unit_square(n)
    assert mesh.n_cells == 2 * n * n
    assert mesh.n_vertices == (n + 1) ** 2
    assert mesh.n_vertices - mesh.n_facets + mesh.n_cells == 1


def test_facet_incidence_counts():
    """Each facet lies on one or two cells: the first is a cell, the
    second is a later cell or -1, and each cell has three facets."""
    mesh = build_unit_square(4)
    first, second = mesh.facet_cells.T
    assert (first >= 0).all()
    interior = second >= 0
    assert (first[interior] < second[interior]).all()
    assert (second[~interior] == -1).all()
    assert interior.sum() == len(mesh.interior_facets) == 40
    assert (~interior).sum() == len(mesh.exterior_facets) == 16
    sides = np.bincount(mesh.facet_cells[mesh.facet_cells >= 0], minlength=mesh.n_cells)
    assert (sides == 3).all()


def test_facet_cells_agree_on_vertex_pair():
    mesh = build_unit_square(3)
    from hybridfem.mesh import EDGE_VERTICES

    for f in mesh.interior_facets:
        pair = set(mesh.facet_vertices[f])
        for side in range(2):
            c = mesh.facet_cells[f, side]
            loc = mesh.facet_local_index[f, side]
            a, b = EDGE_VERTICES[loc]
            assert {mesh.cell_vertices[c, a], mesh.cell_vertices[c, b]} == pair


def test_positive_orientation_and_area():
    """The counterclockwise input cells are stored in ascending vertex
    order: each lower cell (v00, v10, v11) keeps its orientation, each
    upper one (v00, v11, v01) becomes (v00, v01, v11), and ``det J``
    carries the sign; the measures ``|det J| / 2`` sum to the area."""
    for n in (1, 2, 5):
        mesh = build_unit_square(n)
        geo = mesh.geometry()
        assert (np.diff(mesh.cell_vertices, axis=1) > 0).all()
        assert (geo.det_j[0::2] > 0).all() and (geo.det_j[1::2] < 0).all()
        assert abs(np.abs(geo.det_j).sum() / 2.0 - 1.0) < 1e-12


def test_reference_shaped_cell_geometry():
    mesh = build_unit_square(1)
    # cell 1 has vertices (0,0), (0,1), (1,1); cell 0 is (0,0), (1,0), (1,1)
    g0 = cell_geometry(mesh, 0)
    np.testing.assert_allclose(g0.jacobian, [[1.0, 1.0], [0.0, 1.0]])
    assert abs(g0.det_j - 1.0) < 1e-14


def test_scaled_cell_detj():
    mesh = build_unit_square(4)
    g = cell_geometry(mesh, 0)
    assert abs(g.det_j - (1.0 / 4.0) ** 2) < 1e-14


def test_normals_outward_unit():
    """The normal of local edge l is a unit vector pointing away from
    local vertex l, on a structured mesh and on a jittered one, where
    the stored cells map the reference triangle both ways."""
    for mesh in (build_unit_square(4), build_jittered_square(7, 0.24, seed=9)):
        geo = mesh.geometry()
        assert 0 < (geo.det_j < 0).sum() < mesh.n_cells
        coords = mesh.vertex_coords[mesh.cell_vertices]  # (n_cells, 3, 2)
        for loc, (a, b) in enumerate(EDGE_VERTICES):
            inward = coords[:, loc] - 0.5 * (coords[:, a] + coords[:, b])
            assert (np.einsum("cd,cd->c", geo.edge_normals[:, loc], inward) < 0).all(), loc
            norms = np.hypot(geo.edge_normals[:, loc, 0], geo.edge_normals[:, loc, 1])
            np.testing.assert_allclose(norms, 1.0, atol=1e-14)


def test_interior_normals_opposite():
    mesh = build_unit_square(3)
    geo = mesh.geometry()
    for f in mesh.interior_facets:
        (c0, c1), (l0, l1) = mesh.facet_cells[f], mesh.facet_local_index[f]
        np.testing.assert_allclose(
            geo.edge_normals[c0, l0], -geo.edge_normals[c1, l1], atol=1e-14
        )


def test_facet_length_matches_vertex_distance():
    mesh = build_unit_square(3)
    geo = mesh.geometry()
    for c in range(mesh.n_cells):
        for loc in range(3):
            f = mesh.cell_facets[c, loc]
            va, vb = mesh.vertex_coords[mesh.facet_vertices[f]]
            assert abs(geo.edge_lengths[c, loc] - np.linalg.norm(vb - va)) < 1e-14


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        build_unit_square(0)


def test_cell_index_out_of_range():
    mesh = build_unit_square(1)
    with pytest.raises(IndexError):
        cell_geometry(mesh, 2)


def test_default_labels_all_dirichlet():
    mesh = build_unit_square(2)
    assert all(mesh.exterior_label[f] == DIRICHLET for f in mesh.exterior_facets)
    assert len(mesh.facets_with_label(NEUMANN)) == 0


def test_facet_labels_share_one_object_per_value():
    """A mesh holds at most two distinct label objects, not one string
    per facet; values and dtype are those of per-facet strings, set on
    the facets that ``facet_cells`` marks exterior."""
    mesh = build_jittered_square(8, 0.2, seed=4)
    assert mesh.exterior_label.dtype == object
    assert len({id(k) for k in mesh.exterior_label}) <= 2
    exterior = mesh.facet_cells[:, 1] < 0
    assert list(mesh.exterior_label) == [DIRICHLET if e else "" for e in exterior]


def test_mark_boundary_left_edge_neumann():
    mesh = build_unit_square(2)
    marked = mark_boundary(
        mesh, lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET
    )
    assert len(marked.facets_with_label(NEUMANN)) == 2
    assert marked.geometry() is mesh.geometry()  # the same cells and coordinates
    # original untouched, relabeling idempotent
    assert len(mesh.facets_with_label(NEUMANN)) == 0
    again = mark_boundary(
        marked, lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET
    )
    assert (again.exterior_label == marked.exterior_label).all()


def test_mark_boundary_invalid_label():
    mesh = build_unit_square(1)
    with pytest.raises(ValueError):
        mark_boundary(mesh, lambda x, y: "weird")


def _facet_numbering_loop(cell_vertices):
    """Per-cell, per-edge dictionary numbering: the reference for the
    vectorized facet topology."""
    index, verts, cells, local = {}, [], [], []
    cell_facets = np.empty((len(cell_vertices), 3), dtype=np.int64)
    for c, tri in enumerate(cell_vertices):
        for loc, (a, b) in enumerate(EDGE_VERTICES):
            key = tuple(sorted((int(tri[a]), int(tri[b]))))
            f = index.setdefault(key, len(verts))
            if f == len(verts):
                verts.append(key)
                cells.append([c, -1])
                local.append([loc, -1])
            elif cells[f][1] != -1:
                raise ValueError(f"facet {key} incident to more than two cells")
            else:
                cells[f][1], local[f][1] = c, loc
            cell_facets[c, loc] = f
    return np.array(verts), np.array(cells), np.array(local), cell_facets


def _counterclockwise(mesh):
    """The mesh's cells as counterclockwise vertex triples."""
    cells = mesh.cell_vertices.copy()
    cw = mesh.geometry().det_j < 0
    cells[cw] = cells[cw][:, [0, 2, 1]]
    return cells


def _rotated(cells, seed):
    """Each counterclockwise vertex triple rotated cyclically by a seeded
    random shift, so still counterclockwise."""
    shift = np.random.default_rng(seed).integers(0, 3, len(cells))[:, None]
    return np.take_along_axis(cells, (np.arange(3) + shift) % 3, 1)


def _shuffled(mesh, seed):
    """The same triangulation with its cells in random order and each
    vertex triple rotated cyclically."""
    cells = _counterclockwise(mesh)[np.random.default_rng(seed).permutation(mesh.n_cells)]
    return _mesh_from_cells(mesh.vertex_coords, _rotated(cells, seed))


@pytest.mark.parametrize("mesh", [build_unit_square(1), build_unit_square(5),
                                  build_jittered_square(6, 0.2, seed=1),
                                  _shuffled(build_jittered_square(7, 0.2, seed=2), seed=3)])
def test_facet_numbering_matches_loop_oracle(mesh):
    verts, cells, local, cell_facets = _facet_numbering_loop(mesh.cell_vertices)
    np.testing.assert_array_equal(mesh.facet_vertices, verts)
    np.testing.assert_array_equal(mesh.facet_cells, cells)
    np.testing.assert_array_equal(mesh.facet_local_index, local)
    np.testing.assert_array_equal(mesh.cell_facets, cell_facets)


def _geometry_loop(mesh):
    """Per-cell reference for every ``MeshGeometry`` field, in Python
    floats from the vertex coordinates; a zero normal component is +0.0.
    The outward normal of edge (a, b) is its tangent rotated by -90
    degrees, reversed where the edge runs clockwise around the cell."""
    coords = mesh.vertex_coords.tolist()
    fields = {k: [] for k in ("origins", "jacobians", "det_j", "inv_jt",
                              "edge_normals", "edge_lengths")}
    for tri in mesh.cell_vertices.tolist():
        xs, ys = zip(*(coords[v] for v in tri))
        (j00, j01), (j10, j11) = (xs[1] - xs[0], xs[2] - xs[0]), (ys[1] - ys[0], ys[2] - ys[0])
        det = j00 * j11 - j01 * j10
        fields["origins"].append([xs[0], ys[0]])
        fields["jacobians"].append([[j00, j01], [j10, j11]])
        fields["det_j"].append(det)
        fields["inv_jt"].append([[j11 / det, -j10 / det], [-j01 / det, j00 / det]])
        normals, lengths = [], []
        for a, b in EDGE_VERTICES:
            tx, ty = xs[b] - xs[a], ys[b] - ys[a]
            ccw = (b - a) % 3 == 1  # a -> b runs counterclockwise on the reference cell
            s = 1.0 if ccw == (det > 0) else -1.0
            lengths.append(float(np.hypot(tx, ty)))
            normals.append([s * ty / lengths[-1] + 0.0, -s * tx / lengths[-1] + 0.0])
        fields["edge_normals"].append(normals)
        fields["edge_lengths"].append(lengths)
    return fields


@pytest.mark.parametrize("mesh", [build_unit_square(1), build_unit_square(5), build_unit_square(64),
                                  build_jittered_square(9, 0.2, seed=4),
                                  _shuffled(build_jittered_square(9, 0.2, seed=4), seed=5)])
def test_geometry_matches_loop_oracle_bit_for_bit(mesh):
    """Bit patterns, so that -0.0 and +0.0 differ (``array_equal`` does not
    tell them apart); the structured meshes have zero normal components."""
    geo = mesh.geometry()
    for name, want in _geometry_loop(mesh).items():
        got = geo.inv_jt() if name == "inv_jt" else getattr(geo, name)
        want = np.array(want)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=name)


def test_non_manifold_facet_rejected():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.2, 0.8]])
    cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    for build in (_facet_numbering_loop, lambda cv: _mesh_from_cells(coords, cv)):
        with pytest.raises(ValueError, match=r"facet \(0, 1\) incident to more than two cells"):
            build(cells)


QUALITY_5E_11 = r"mesh cell 1 is degenerate \(det J / h\^2 = 5e-11\)"


@pytest.mark.parametrize("apex, second, message", [
    # clockwise second cell
    ((1.0, 1.0), [1, 2, 3], r"mesh cell 1 is not positively oriented"),
    # sliver: the apex lies 1e-12 off the shared edge, det J / h^2 = 1e-12
    ((0.5 + 1e-12, 0.5 + 1e-12), [1, 3, 2], r"mesh cell 1 is degenerate"),
    # det J / h^2 = 5e-11, just under the bound; measured by a shorter edge
    # it would pass (2e-10), so each case needs its longest edge: local
    # edge 1, 0 or 2, whose length is |J e2|, |J (e2 - e1)| or |J e1|
    pytest.param((0.5 + 5e-11, 0.5 + 5e-11), [1, 3, 2], QUALITY_5E_11, id="longest-edge-1"),
    pytest.param((0.5 + 5e-11, 0.5 + 5e-11), [3, 2, 1], QUALITY_5E_11, id="longest-edge-0"),
    pytest.param((0.5 + 5e-11, 0.5 + 5e-11), [2, 1, 3], QUALITY_5E_11, id="longest-edge-2"),
    # a repeated vertex is named as given, before the vertices are sorted
    pytest.param((1.0, 1.0), [3, 1, 3], r"mesh cell 1 repeats a vertex: \[3, 1, 3\]",
                 id="repeated-vertex"),
])
def test_bad_cell_rejected_by_index(apex, second, message):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], apex])
    cells = [[0, 1, 2], second]
    with pytest.raises(ValueError, match=message):
        _mesh_from_cells(coords, cells).geometry()


def test_jittered_square_moves_interior_vertices_only():
    base = build_unit_square(5)
    mesh = build_jittered_square(5, 0.24, seed=3)
    np.testing.assert_array_equal(mesh.cell_vertices, base.cell_vertices)
    moved = np.any(mesh.vertex_coords != base.vertex_coords, axis=1)
    on_boundary = np.any((base.vertex_coords == 0.0) | (base.vertex_coords == 1.0), axis=1)
    np.testing.assert_array_equal(moved, ~on_boundary)
    assert np.abs(mesh.vertex_coords - base.vertex_coords).max() <= 0.24 / 5
    np.testing.assert_array_equal(np.sign(mesh.geometry().det_j), np.sign(base.geometry().det_j))
    assert np.isclose(np.abs(mesh.geometry().det_j).sum() / 2.0, 1.0)
    np.testing.assert_array_equal(
        build_jittered_square(5, 0.24, seed=3).vertex_coords, mesh.vertex_coords)
    with pytest.raises(ValueError):
        build_jittered_square(5, 0.25, seed=3)


def test_build_peak_and_geometry_memory():
    """At n=128 the mesh and its geometry keep at most 135 bytes a cell
    (int32 indices, int8 local edges, no stored inverse Jacobians), their
    build peaks at most 290 bytes a cell, and reading the edge data brings
    what is kept to at most 205: ``origins`` is its own array, not a view
    pinning the (n_cells, 3, 2) vertex gather, and the edge fields are
    computed on demand."""
    import tracemalloc

    tracemalloc.start()
    try:
        mesh = build_unit_square(128)
        geo = mesh.geometry()
        kept, peak = tracemalloc.get_traced_memory()
        geo.edge_normals
        with_edges = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_cell = np.array([kept, peak, with_edges]) / mesh.n_cells
    assert (per_cell <= [135, 290, 205]).all(), per_cell
    assert geo.origins.base is None
    np.testing.assert_array_equal(geo.origins, mesh.vertex_coords[mesh.cell_vertices[:, 0]])


def test_topology_at_facet_keys_past_int32():
    """At n=256 the facet keys ``lo * n_vertices + hi`` pass 2^31, so
    they are int64 while the stored topology is int32 (int8 local edges);
    the facet count is 3 n^2 + 2 n, and both cells of each interior facet
    hold both its vertices."""
    n = 256
    mesh = build_unit_square(n)
    assert (mesh.n_vertices - 1) * mesh.n_vertices >= 2**31
    assert mesh.n_facets == 3 * n * n + 2 * n
    for name in ("cell_vertices", "facet_vertices", "facet_cells", "cell_facets"):
        assert getattr(mesh, name).dtype == np.int32, name
    assert mesh.facet_local_index.dtype == np.int8
    f = mesh.interior_facets
    for side in range(2):
        cells = mesh.cell_vertices[mesh.facet_cells[f, side]]
        for end in range(2):
            assert (cells == mesh.facet_vertices[f, end, None]).any(axis=1).all()


def test_cell_vertices_are_read_only_without_touching_the_input():
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = _mesh_from_cells(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), cells)
    assert not mesh.cell_vertices.flags.writeable
    assert cells.flags.writeable


def test_orientation_is_a_property_of_the_mesh():
    """Rotating each counterclockwise input triple by a seeded random
    shift changes no stored array and no bit of an element tensor (the
    hybridized RT(2) operator, a CG(3) stiffness): each cell's vertices
    are stored in ascending order, and with them every orientation."""
    jittered = build_jittered_square(6, 0.2, seed=7)
    cells = _counterclockwise(jittered)
    rotated = _rotated(cells, seed=8)
    assert (rotated != cells).any(axis=1).mean() > 0.5
    meshes = [_mesh_from_cells(jittered.vertex_coords, c) for c in (cells, rotated)]
    for name in ("cell_vertices", "facet_vertices", "facet_cells", "facet_local_index",
                 "cell_facets"):
        np.testing.assert_array_equal(getattr(meshes[0], name), getattr(meshes[1], name), name)

    def stiffness(mesh):
        V = create_space(mesh, CG(3))
        return FormIR(V, V, [IntegralTerm(CELL, dot(grad(tfn()), grad(trial())))])

    for build in (lambda m: hybridized_mixed_system(m, manufactured("sinsin"), 2).a, stiffness):
        a, b = (assemble_form(build(m)) for m in meshes)
        assert a.tobytes() == b.tobytes()


def test_unordered_cell_rejected_by_geometry():
    """A mesh built around ``_mesh_from_cells`` with a cell whose vertices
    are not ascending would let two cells disagree on a shared facet's
    dofs; its geometry names the first such cell."""
    mesh = build_unit_square(2)
    cells = mesh.cell_vertices.copy()
    cells[[3, 5]] = cells[[3, 5], ::-1]
    with pytest.raises(ValueError, match=r"mesh cell 3 has vertices \[5, 4, 1\], not in ascending"):
        replace(mesh, cell_vertices=cells).geometry()
