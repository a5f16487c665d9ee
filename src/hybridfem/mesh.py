"""Structured and jittered triangulations of the unit square with full
facet topology.

Cells are counterclockwise vertex triples.  Local edge ``l`` of a cell is
the edge opposite local vertex ``l``, traversed counterclockwise, i.e.
from vertex ``(l+1) % 3`` to vertex ``(l+2) % 3``.  Every facet also has a
global direction, running from its lower to its higher global vertex
index; orientation-sensitive degrees of freedom (H(div) edge moments,
facet traces) are defined with respect to that direction so that the two
cells sharing a facet agree on its dofs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

#: local edge l runs from vertex (l+1)%3 to vertex (l+2)%3 (counterclockwise)
EDGE_VERTICES = ((1, 2), (2, 0), (0, 1))

# rotation by -90 degrees: maps a ccw edge tangent to the outward normal
_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass
class Mesh:
    """Immutable 2D simplicial mesh of the unit square.

    Interior facets store both incident cells in increasing cell order
    (the first entry is the "+" side); exterior facets store one cell and
    ``-1``.  ``exterior_label`` is empty for interior facets.
    """

    vertex_coords: np.ndarray      # (n_vertices, 2)
    cell_vertices: np.ndarray      # (n_cells, 3), ccw; read-only (CG(1) dofs share it)
    facet_vertices: np.ndarray     # (n_facets, 2), lower vertex index first
    facet_cells: np.ndarray        # (n_facets, 2), -1 where absent
    facet_local_index: np.ndarray  # (n_facets, 2), local edge in each cell
    cell_facets: np.ndarray        # (n_cells, 3)
    facet_kind: np.ndarray         # (n_facets,), "interior" or "exterior"
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
        return np.flatnonzero(self.facet_kind == "interior")

    @property
    def exterior_facets(self) -> np.ndarray:
        return np.flatnonzero(self.facet_kind == "exterior")

    def facets_with_label(self, label: str) -> np.ndarray:
        exterior = np.flatnonzero(self.facet_cells[:, 1] < 0)
        return exterior[self.exterior_label[exterior] == label]

    def facet_midpoints(self) -> np.ndarray:
        coords = self.vertex_coords[self.facet_vertices]
        return coords.mean(axis=1)

    def geometry(self) -> MeshGeometry:
        """Per-cell affine map data; computed once and cached."""
        geo = getattr(self, "_geometry", None)
        if geo is None:
            geo = _compute_geometry(self)
            object.__setattr__(self, "_geometry", geo)
        return geo


@dataclass
class CellGeometry:
    """Affine reference-to-physical map data for one cell."""

    jacobian: np.ndarray       # (2, 2)
    det_j: float
    inv_jt: np.ndarray         # (2, 2)
    facet_normals: np.ndarray  # (3, 2), outward unit normals per local edge
    facet_lengths: np.ndarray  # (3,)


@dataclass
class MeshGeometry:
    """Batched affine map data for all cells of a mesh.  No array pins a
    larger one: ``origins`` is a copy, not a view of the vertex gather."""

    origins: np.ndarray        # (n_cells, 2), coordinates of local vertex 0
    jacobians: np.ndarray      # (n_cells, 2, 2)
    det_j: np.ndarray          # (n_cells,)
    inv_jt: np.ndarray         # (n_cells, 2, 2)
    edge_normals: np.ndarray   # (n_cells, 3, 2), outward unit
    edge_lengths: np.ndarray   # (n_cells, 3)
    dir_match: np.ndarray      # (n_cells, 3) bool: ccw traversal == global direction

    def physical_points(self, ref_pts: np.ndarray, cells=slice(None)) -> np.ndarray:
        """Images (ncs, nq, 2) of reference points under the cells' affine maps."""
        return self.origins[cells, None, :] + np.einsum(
            "cij,qj->cqi", self.jacobians[cells], ref_pts, optimize=True)


def _compute_geometry(mesh: Mesh) -> MeshGeometry:
    coords = mesh.vertex_coords[mesh.cell_vertices]  # (nc, 3, 2)
    origins = coords[:, 0].copy()
    jac = np.stack([coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]], axis=-1)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    bad = np.flatnonzero(det <= 0.0)
    if len(bad):
        raise ValueError(f"mesh cell {bad[0]} is not positively oriented (det J = {det[bad[0]]:.3g})")
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    inv_jt = np.swapaxes(inv, 1, 2)

    normals = np.empty((mesh.n_cells, 3, 2))
    lengths = np.empty((mesh.n_cells, 3))
    dir_match = np.empty((mesh.n_cells, 3), dtype=bool)
    for loc, (a, b) in enumerate(EDGE_VERTICES):
        tangent = coords[:, b] - coords[:, a]
        lengths[:, loc] = np.hypot(tangent[:, 0], tangent[:, 1])
        normals[:, loc] = tangent @ _ROT.T / lengths[:, loc, None]
        start = mesh.cell_vertices[:, a]
        end = mesh.cell_vertices[:, b]
        dir_match[:, loc] = start < end
    quality = det / lengths.max(axis=1) ** 2  # sqrt(3)/2 for an equilateral cell
    bad = np.flatnonzero(quality < 1e-10)
    if len(bad):
        raise ValueError(f"mesh cell {bad[0]} is degenerate (det J / h^2 = {quality[bad[0]]:.3g})")
    return MeshGeometry(origins, jac, det, inv_jt, normals, lengths, dir_match)


def build_unit_square(n: int) -> Mesh:
    """Triangulate [0,1]^2 into 2*n*n cells.

    Each grid square is split along its lower-left to upper-right
    diagonal.  Exterior facets are labelled Dirichlet.
    """
    if n < 1:
        raise ValueError(f"mesh subdivision must be >= 1, got {n}")
    grid = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(grid, grid, indexing="xy")
    coords = np.column_stack([xv.ravel(), yv.ravel()])
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    cell_vertices = np.stack([lower, upper], axis=1).reshape(-1, 3)
    return _mesh_from_cells(coords, cell_vertices)


def build_jittered_square(n: int, amplitude: float, seed: int) -> Mesh:
    """The mesh of :func:`build_unit_square` with interior vertices moved.

    Each interior vertex moves by up to ``amplitude`` grid spacings in
    each coordinate, drawn uniformly from ``seed``; boundary vertices stay.
    An amplitude below 1/4 cannot move a vertex across the line through
    its opposite edge, so every cell keeps its positive orientation.
    """
    if not 0.0 <= amplitude < 0.25:
        raise ValueError(f"jitter amplitude must lie in [0, 0.25), got {amplitude}")
    mesh = build_unit_square(n)
    j, i = np.divmod(np.arange(mesh.n_vertices), n + 1)
    interior = (i > 0) & (i < n) & (j > 0) & (j < n)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-amplitude / n, amplitude / n, size=(int(interior.sum()), 2))
    coords = mesh.vertex_coords.copy()
    coords[interior] += shift
    return _mesh_from_cells(coords, mesh.cell_vertices)


def _mesh_from_cells(coords: np.ndarray, cell_vertices: np.ndarray) -> Mesh:
    """Facet topology of a triangulation.

    Facets are numbered in order of first appearance over (cell, local
    edge); the first cell to reach a facet is its "+" side.  One stable
    sort of the edge keys groups each facet's occurrences, the first one
    leading; a mask of first occurrences then numbers the facets.
    """
    cell_vertices = np.asarray(cell_vertices, dtype=np.int64).view()
    cell_vertices.flags.writeable = False
    n_cells = len(cell_vertices)
    ends = np.sort(cell_vertices[:, EDGE_VERTICES], axis=2).reshape(-1, 2)  # (lo, hi) per edge
    key = ends[:, 0] * (int(cell_vertices.max()) + 1) + ends[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    triple = np.flatnonzero(key[2:] == key[:-2])
    if len(triple):
        raise ValueError(f"facet {tuple(ends[order[triple[0]]].tolist())} "
                         "incident to more than two cells")
    head = np.r_[True, key[1:] != key[:-1]]  # a facet's first occurrence, in key order
    del key
    first = order[head]
    is_first = np.zeros(3 * n_cells, dtype=bool)
    is_first[first] = True
    occ_facet = np.empty_like(order)  # facet of each (cell, local edge)
    occ_facet[order] = (np.cumsum(is_first) - 1)[first][np.cumsum(head) - 1]
    del order, head, first  # freed before the facet arrays are built
    first_occ = np.flatnonzero(is_first)
    second_occ = np.flatnonzero(~is_first)

    n_facets = len(first_occ)
    facet_cells = np.full((n_facets, 2), -1, dtype=np.int64)
    facet_local = np.full((n_facets, 2), -1, dtype=np.int64)
    facet_cells[:, 0], facet_local[:, 0] = np.divmod(first_occ, 3)
    f2 = occ_facet[second_occ]
    facet_cells[f2, 1], facet_local[f2, 1] = np.divmod(second_occ, 3)
    # one str object per kind, shared by every facet of that kind
    exterior = (facet_cells[:, 1] < 0).astype(np.intp)
    return Mesh(
        vertex_coords=np.asarray(coords, dtype=float),
        cell_vertices=cell_vertices,
        facet_vertices=ends[first_occ],
        facet_cells=facet_cells,
        facet_local_index=facet_local,
        cell_facets=occ_facet.reshape(n_cells, 3),
        facet_kind=np.array(["interior", "exterior"], dtype=object)[exterior],
        exterior_label=np.array(["", DIRICHLET], dtype=object)[exterior],
    )


def cell_geometry(mesh: Mesh, cell: int) -> CellGeometry:
    """Affine map data of one cell; raises on an out-of-range index."""
    if not 0 <= cell < mesh.n_cells:
        raise IndexError(f"cell index {cell} out of range for {mesh.n_cells} cells")
    geo = mesh.geometry()
    return CellGeometry(
        jacobian=geo.jacobians[cell].copy(),
        det_j=float(geo.det_j[cell]),
        inv_jt=geo.inv_jt[cell].copy(),
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
    return replace(mesh, exterior_label=labels)
