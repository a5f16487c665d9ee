"""Structured and jittered triangulations of the unit square with full
facet topology.

Each cell stores its vertices in ascending global order (the UFC
convention), so a cell may map the reference triangle with either
orientation and ``det J`` carries its sign.  Local edge ``l`` of a cell
is the edge opposite local vertex ``l``, running from its lower to its
higher local vertex, i.e. from its lower to its higher global vertex in
every cell: the two cells sharing a facet traverse it the same way, so
orientation-sensitive degrees of freedom (H(div) edge moments, facet
traces) agree between them with no sign or reversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

#: local edge l, opposite vertex l, runs from its lower to its higher local vertex
EDGE_VERTICES = ((1, 2), (0, 2), (0, 1))
#: per local edge, the sign taking the tangent rotated by -90 degrees to the
#: outward normal of the reference triangle; times sign(det J) on a cell
EDGE_OUTWARD = (1.0, -1.0, 1.0)


@dataclass
class Mesh:
    """Immutable 2D simplicial mesh of the unit square.

    Interior facets store both incident cells in increasing cell order
    (the first entry is the "+" side); exterior facets store one cell and
    ``-1``.  ``exterior_label`` is empty for interior facets.  Index
    arrays are int32, and ``facet_local_index`` is int8.
    """

    vertex_coords: np.ndarray      # (n_vertices, 2)
    cell_vertices: np.ndarray      # (n_cells, 3) int32, ascending; read-only (CG(1) dofs share it)
    facet_vertices: np.ndarray     # (n_facets, 2) int32, lower vertex index first
    facet_cells: np.ndarray        # (n_facets, 2) int32, -1 where absent
    facet_local_index: np.ndarray  # (n_facets, 2) int8, local edge in each cell
    cell_facets: np.ndarray        # (n_cells, 3) int32
    exterior_label: np.ndarray     # (n_facets,), DIRICHLET / NEUMANN / ""

    @property
    def n_cells(self) -> int:
        return len(self.cell_vertices)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_coords)

    @property
    def n_facets(self) -> int:
        return len(self.facet_vertices)

    @property
    def interior_facets(self) -> np.ndarray:
        return np.flatnonzero(self.facet_cells[:, 1] >= 0)

    @property
    def exterior_facets(self) -> np.ndarray:
        return np.flatnonzero(self.facet_cells[:, 1] < 0)

    @cached_property
    def exterior_sides(self) -> np.ndarray:
        """Rows (facet, cell, local edge) of the exterior facets by ascending cell."""
        f = np.flatnonzero(self.facet_cells[:, 1] < 0)
        f = f[np.argsort(self.facet_cells[f, 0], kind="stable")]
        return np.stack([f, self.facet_cells[f, 0], self.facet_local_index[f, 0]])

    def facets_with_label(self, label: str) -> np.ndarray:
        exterior = np.flatnonzero(self.facet_cells[:, 1] < 0)
        return exterior[self.exterior_label[exterior] == label]

    def facet_midpoints(self) -> np.ndarray:
        return self.vertex_coords[self.facet_vertices].mean(axis=1)

    def geometry(self) -> MeshGeometry:
        """Per-cell affine map data; computed once, as the mesh is built."""
        if not hasattr(self, "_geometry"):  # e.g. made by ``dataclasses.replace``
            self._geometry = _compute_geometry(self)
        return self._geometry


@dataclass
class CellGeometry:
    """Affine reference-to-physical map data for one cell."""

    jacobian: np.ndarray       # (2, 2)
    det_j: float               # negative where the cell maps the reference clockwise
    inv_jt: np.ndarray         # (2, 2)
    facet_normals: np.ndarray  # (3, 2), outward unit normals per local edge
    facet_lengths: np.ndarray  # (3,)


@dataclass
class MeshGeometry:
    """Batched affine map data for all cells of a mesh.

    The per-cell fields are computed with the geometry; ``det_j`` keeps
    its sign, as the Piola map needs it, and measures take its absolute
    value; :meth:`inv_jt` computes inverse transposes on each call.  The
    per-edge fields ``edge_normals`` and ``edge_lengths`` are computed
    together on first access and cached, so a solve that reads
    none of them (primal CG(1)) never pays for them; for this the
    geometry keeps the mesh's own vertex arrays, not the mesh.  No array
    pins a larger one: ``origins`` is a copy, not a view of the vertex
    gather.
    """

    origins: np.ndarray        # (n_cells, 2), coordinates of local vertex 0
    jacobians: np.ndarray      # (n_cells, 2, 2)
    det_j: np.ndarray          # (n_cells,), with its sign
    vertex_coords: np.ndarray = field(repr=False)  # the mesh's arrays, read by _edges
    cell_vertices: np.ndarray = field(repr=False)

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        return _edge_geometry(self.vertex_coords, self.cell_vertices, self.det_j)

    edge_normals = property(lambda self: self._edges[0])  # (n_cells, 3, 2), outward unit
    edge_lengths = property(lambda self: self._edges[1])  # (n_cells, 3)

    def inv_jt(self, cells=slice(None)) -> np.ndarray:
        """Inverse transposes (ncs, 2, 2) of the Jacobians of ``cells``
        ((2, 2) for one cell index): each cofactor divided by ``det J``."""
        cof = self.jacobians[cells][..., ::-1, ::-1] * [[1.0, -1.0], [-1.0, 1.0]]
        cof /= np.expand_dims(self.det_j[cells], (-2, -1))
        return cof

    def physical_points(self, ref_pts: np.ndarray, cells=slice(None)) -> np.ndarray:
        """Images (ncs, nq, 2) of reference points under the cells' affine maps."""
        return self.origins[cells, None, :] + np.einsum(
            "cij,qj->cqi", self.jacobians[cells], ref_pts, optimize=True)


def _compute_geometry(mesh: Mesh) -> MeshGeometry:
    """Reads per-corner coordinate rows ``x[k]``, ``y[k]`` (local vertex
    ``k`` of every cell) and computes each output component in place.
    A cell whose vertices are not in ascending order is rejected: its
    neighbours would disagree on their shared dofs.  Degenerate cells are
    found from the Jacobian's columns, whose lengths |J e1|, |J e2| and
    |J (e2 - e1)| are those of the edges."""
    n_cells, cv = mesh.n_cells, mesh.cell_vertices
    bad = np.flatnonzero((cv[:, :2] >= cv[:, 1:]).any(axis=1))
    if len(bad):
        raise ValueError(f"mesh cell {bad[0]} has vertices {cv[bad[0]].tolist()}, "
                         "not in ascending global order")
    jac = np.empty((n_cells, 2, 2))
    x, y = np.take(mesh.vertex_coords.T, cv.T, axis=1)  # (3, n_cells) each
    for i, c in enumerate((x, y)):
        np.subtract(c[1], c[0], out=jac[:, i, 0])
        np.subtract(c[2], c[0], out=jac[:, i, 1])
    (j00, j01), (j10, j11) = jac.transpose(1, 2, 0)
    det = j00 * j11 - j01 * j10
    longest = np.maximum(np.hypot(j00, j10), np.hypot(j01, j11))
    np.maximum(longest, np.hypot(j01 - j00, j11 - j10), out=longest)
    quality = np.abs(det) / longest ** 2  # sqrt(3)/2 for an equilateral cell
    bad = np.flatnonzero(quality < 1e-10)
    if len(bad):
        raise ValueError(f"mesh cell {bad[0]} is degenerate (det J / h^2 = {quality[bad[0]]:.3g})")
    return MeshGeometry(np.stack((x[0], y[0]), axis=1), jac, det, mesh.vertex_coords, cv)


def _edge_geometry(coords: np.ndarray, cv: np.ndarray, det: np.ndarray):
    """Outward unit normals and lengths of every cell's local edges, each
    component computed in place from the corner rows."""
    n_cells = len(cv)
    normals, lengths = np.empty((n_cells, 3, 2)), np.empty((n_cells, 3))
    x, y = np.take(coords.T, cv.T, axis=1)
    orientation = np.sign(det)  # nonzero: degenerate cells are rejected
    for loc, (a, b) in enumerate(EDGE_VERTICES):
        # outward normal (ty, -tx) / (s length) with s = EDGE_OUTWARD[loc] sign(det J),
        # +0.0 where zero; s length is exact, and so is the sign of each quotient
        n_x, n_y, length = normals[:, loc, 0], normals[:, loc, 1], lengths[:, loc]
        np.subtract(x[b], x[a], out=n_y)  # tx until negated below
        np.subtract(y[b], y[a], out=n_x)
        np.hypot(n_y, n_x, out=length)
        side = EDGE_OUTWARD[loc] * orientation * length
        np.add(np.divide(n_x, side, out=n_x), 0.0, out=n_x)
        np.subtract(0.0, np.divide(n_y, side, out=n_y), out=n_y)
    return normals, lengths


def build_unit_square(n: int) -> Mesh:
    """Triangulate [0,1]^2 into 2*n*n cells.

    Each grid square is split along its lower-left to upper-right
    diagonal.  Exterior facets are labelled Dirichlet.
    """
    return _mesh_from_cells(*_unit_square(n))


def _unit_square(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates and counterclockwise cells of :func:`build_unit_square`."""
    if n < 1:
        raise ValueError(f"mesh subdivision must be >= 1, got {n}")
    grid = np.linspace(0.0, 1.0, n + 1)
    coords = np.empty((n + 1, n + 1, 2))  # vertex j*(n+1)+i sits at (grid[i], grid[j])
    coords[:, :, 0], coords[:, :, 1] = grid, grid[:, None]
    v00 = np.arange(0, n * (n + 1), n + 1, dtype=np.int32)[:, None] + np.arange(n, dtype=np.int32)
    cells = np.empty((n, n, 2, 3), dtype=np.int32)  # square (j, i): lower, upper cell
    cells[:, :, :, 0] = v00[:, :, None]
    cells[:, :, 0, 1] = v00 + 1
    cells[:, :, 0, 2] = cells[:, :, 1, 1] = v00 + (n + 2)
    cells[:, :, 1, 2] = v00 + (n + 1)
    return coords.reshape(-1, 2), cells.reshape(-1, 3)


def build_jittered_square(n: int, amplitude: float, seed: int) -> Mesh:
    """The mesh of :func:`build_unit_square` with interior vertices moved.

    Each interior vertex moves by up to ``amplitude`` grid spacings in
    each coordinate, drawn uniformly from ``seed``; boundary vertices stay.
    An amplitude below 1/4 cannot move a vertex across the line through
    its opposite edge, so every cell keeps its orientation.
    """
    if not 0.0 <= amplitude < 0.25:
        raise ValueError(f"jitter amplitude must lie in [0, 0.25), got {amplitude}")
    coords, cells = _unit_square(n)
    j, i = np.divmod(np.arange(len(coords)), n + 1)
    interior = (i > 0) & (i < n) & (j > 0) & (j < n)
    coords[interior] += np.random.default_rng(seed).uniform(
        -amplitude / n, amplitude / n, size=(int(interior.sum()), 2))
    return _mesh_from_cells(coords, cells)  # the structured topology


def _mesh_from_cells(coords: np.ndarray, cell_vertices: np.ndarray) -> Mesh:
    """Facet topology of a triangulation of counterclockwise cells.

    A cell that repeats a vertex is rejected.  Each cell's vertices are
    stored in ascending order by three in-place compare-exchange passes,
    which record the cells they reverse, so the input orientation is read
    from the geometry, computed here: ``det J`` negated where reversed
    must be positive.  Facets are numbered in order of first appearance
    over (cell, local edge); the first cell to reach a facet is its "+"
    side.  One stable sort of the int64 edge keys (past 2^31 from
    n = 215) puts each facet's second occurrence right after its first;
    the remaining first occurrences, in order, number the facets.
    """
    coords = np.asarray(coords, dtype=float)
    cell_vertices = np.array(cell_vertices, dtype=np.int32)  # a copy, sorted in place
    n_cells = len(cell_vertices)
    bad = np.flatnonzero((cell_vertices == np.roll(cell_vertices, 1, axis=1)).any(axis=1))
    if len(bad):
        raise ValueError(f"mesh cell {bad[0]} repeats a vertex: {cell_vertices[bad[0]].tolist()}")
    low, reversed_by_sort = np.empty(n_cells, dtype=np.int32), np.zeros(n_cells, dtype=bool)
    for a, b in ((0, 1), (1, 2), (0, 1)):
        reversed_by_sort ^= cell_vertices[:, a] > cell_vertices[:, b]  # a transposition
        np.minimum(cell_vertices[:, a], cell_vertices[:, b], out=low)
        np.maximum(cell_vertices[:, a], cell_vertices[:, b], out=cell_vertices[:, b])
        cell_vertices[:, a] = low
    del low
    cell_vertices.flags.writeable = False
    lo, hi = np.empty((2, 3 * n_cells), dtype=np.int32)  # ends of occurrence 3 * cell + local edge
    for loc, (a, b) in enumerate(EDGE_VERTICES):
        np.minimum(cell_vertices[:, a], cell_vertices[:, b], out=lo[loc::3])
        np.maximum(cell_vertices[:, a], cell_vertices[:, b], out=hi[loc::3])
    key = lo * (np.int64(cell_vertices.max()) + 1)  # int32 * a Python int stays int32
    key += hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    triple = order[np.flatnonzero(key[2:] == key[:-2])]
    if len(triple):
        raise ValueError(f"facet {int(lo[triple[0]]), int(hi[triple[0]])} "
                         "incident to more than two cells")
    dup = np.flatnonzero(key[1:] == key[:-1]) + 1  # second occurrences, in key order
    second_occ, first_of_second = order[dup], order[dup - 1]
    del key, order, dup  # freed before the facet arrays are built
    is_first = np.ones(3 * n_cells, dtype=bool)
    is_first[second_occ] = False
    first_occ = np.flatnonzero(is_first)  # facet f first appears at first_occ[f]
    n_facets = len(first_occ)
    occ_facet = np.empty(3 * n_cells, dtype=np.int32)  # facet of each (cell, local edge)
    occ_facet[first_occ] = np.arange(n_facets, dtype=np.int32)
    f2 = occ_facet[second_occ] = occ_facet[first_of_second]

    facet_vertices = np.stack((lo[first_occ], hi[first_occ]), axis=1)
    facet_cells, facet_local = (np.full((n_facets, 2), -1, t) for t in (np.int32, np.int8))
    np.divmod(first_occ, 3, out=(facet_cells[:, 0], facet_local[:, 0]))
    facet_cells[f2, 1], facet_local[f2, 1] = np.divmod(second_occ, 3)
    label = np.empty(n_facets, dtype=object)
    label[:] = ""  # one str object per value, shared by every facet
    label[facet_cells[:, 1] < 0] = DIRICHLET
    mesh = Mesh(coords, cell_vertices, facet_vertices, facet_cells,
                facet_local, occ_facet.reshape(n_cells, 3), label)
    del lo, hi, first_occ, second_occ, first_of_second, f2, is_first
    geo = mesh._geometry = _compute_geometry(mesh)
    det = np.where(reversed_by_sort, -geo.det_j, geo.det_j)  # of the input cells
    bad = np.flatnonzero(det <= 0.0)
    if len(bad):
        raise ValueError(f"mesh cell {bad[0]} is not positively oriented (det J = {det[bad[0]]:.3g})")
    return mesh


def cell_geometry(mesh: Mesh, cell: int) -> CellGeometry:
    """Affine map data of one cell; raises on an out-of-range index."""
    if not 0 <= cell < mesh.n_cells:
        raise IndexError(f"cell index {cell} out of range for {mesh.n_cells} cells")
    geo = mesh.geometry()
    return CellGeometry(
        jacobian=geo.jacobians[cell].copy(),
        det_j=float(geo.det_j[cell]),
        inv_jt=geo.inv_jt(cell),
        facet_normals=geo.edge_normals[cell].copy(),
        facet_lengths=geo.edge_lengths[cell].copy(),
    )


def mark_boundary(mesh: Mesh, predicate: Callable[[float, float], str]) -> Mesh:
    """Relabel exterior facets from a midpoint predicate.

    The predicate receives the facet midpoint and must return
    ``DIRICHLET`` or ``NEUMANN`` for every exterior facet.
    """
    labels = mesh.exterior_label.copy()
    mids = mesh.facet_midpoints()
    for f in mesh.exterior_facets:
        lab = predicate(float(mids[f, 0]), float(mids[f, 1]))
        if lab not in (DIRICHLET, NEUMANN):
            raise ValueError(f"predicate returned invalid label {lab!r} for facet {f}")
        labels[f] = lab
    marked = replace(mesh, exterior_label=labels)
    marked._geometry = mesh.geometry()  # the same cells and coordinates
    return marked
