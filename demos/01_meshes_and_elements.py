"""Meshes, reference elements, and function spaces.

Builds structured triangulations of the unit square, inspects their
topology and geometry, and shows how Raviart-Thomas edge moments make
the broken/conforming bookkeeping work.
"""

import os
import tempfile

import numpy as np

from hybridfem import (
    DG,
    RT,
    Trace,
    build_unit_square,
    break_space,
    cell_geometry,
    create_space,
    interpolate,
    mark_boundary,
    NEUMANN,
    DIRICHLET,
)
from hybridfem.io_vtk import write_mesh_vtk

for n in (1, 2, 4):
    mesh = build_unit_square(n)
    print(f"n={n:2d}: {mesh.n_cells:3d} cells, {mesh.n_vertices:3d} vertices, "
          f"{mesh.n_facets:3d} facets "
          f"({len(mesh.interior_facets)} interior / {len(mesh.exterior_facets)} exterior), "
          f"Euler V-E+F = {mesh.n_vertices - mesh.n_facets + mesh.n_cells}")

mesh = build_unit_square(4)
geo = mesh.geometry()
# each cell stores its vertices in ascending global order, so det J is
# signed: the upper cell of each grid square maps the reference clockwise
print(f"\nsum of cell areas |det J| / 2: {np.abs(geo.det_j).sum() / 2:.15f} (unit square)")
print(f"cells with det J < 0: {(geo.det_j < 0).sum()} of {mesh.n_cells}")
for c in (0, 1):
    g = cell_geometry(mesh, c)
    print(f"cell {c}: vertices {mesh.cell_vertices[c].tolist()}, "
          f"jacobian determinant {g.det_j:+.6f}, edge lengths {np.round(g.facet_lengths, 4)}")

marked = mark_boundary(mesh, lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET)
print(f"after marking x=0 as Neumann: {len(marked.facets_with_label(NEUMANN))} "
      f"Neumann facets, {len(marked.facets_with_label(DIRICHLET))} Dirichlet")

# function spaces and their degree-of-freedom counts
for fam in (DG(0), DG(1), RT(1), RT(2), Trace(0), Trace(1)):
    V = create_space(mesh, fam)
    print(f"{fam.kind}({fam.degree}): {V.ndof_global} global dofs, "
          f"{V.local_dim} per cell")

U = create_space(mesh, RT(1))
Ud = break_space(U)
print(f"\nbreaking RT(1): {U.ndof_global} conforming dofs -> "
      f"{Ud.ndof_global} cell-local dofs")

# a field in the lowest-order RT space is reproduced exactly by its
# edge-moment interpolant
fn = interpolate(U, lambda x, y: np.stack([1 + 0.5 * x, 0.5 * y - 2], axis=-1))
print(f"interpolated RT(1) coefficient range: "
      f"[{fn.coeffs.min():.4f}, {fn.coeffs.max():.4f}]")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "mesh.vtk")
    write_mesh_vtk(path, mesh)
    print(f"\nwrote the mesh as legacy VTK: {os.path.getsize(path)} bytes")
