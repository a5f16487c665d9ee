"""Legacy ASCII VTK export of meshes and fields.

Scalar continuous fields are written as point data at the mesh
vertices; discontinuous scalars as cell data at centroids; vector
fields as cell-data vectors at centroids.  Output bytes are
deterministic for fixed inputs.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh
from .spaces import Function, eval_function

_CENTROID = np.array([[1.0 / 3.0, 1.0 / 3.0]])


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _header(mesh: Mesh) -> list[str]:
    lines = [
        "# vtk DataFile Version 3.0",
        "hybridfem fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    for x, y in mesh.vertex_coords:
        lines.append(f"{_fmt(x)} {_fmt(y)} {_fmt(0.0)}")
    lines.append(f"CELLS {mesh.n_cells} {4 * mesh.n_cells}")
    for tri in mesh.cell_vertices:
        lines.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["5"] * mesh.n_cells)
    return lines


def write_mesh_vtk(path: str, mesh: Mesh) -> None:
    """Mesh-only dump: points and triangle cells."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(_header(mesh)) + "\n")


def export_fields(path: str, fields: list[tuple[str, Function]]) -> None:
    """Write named functions on a common mesh as legacy ASCII VTK.

    CG fields become POINT_DATA; everything else is sampled at cell
    centroids as CELL_DATA (vectors for vector-valued families).
    """
    if not fields:
        raise ValueError("export requires at least one field")
    meshes = {id(fn.space.mesh) for _, fn in fields}
    if len(meshes) != 1:
        raise ValueError("all exported fields must share one mesh")
    mesh = fields[0][1].space.mesh
    lines = _header(mesh)

    point_fields = [(n, f) for n, f in fields if f.space.family.kind == "CG"]
    cell_fields = [(n, f) for n, f in fields if f.space.family.kind != "CG"]
    if point_fields:
        lines.append(f"POINT_DATA {mesh.n_vertices}")
        for name, fn in point_fields:
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            # vertex dofs come first in the CG numbering
            for v in fn.coeffs[: mesh.n_vertices]:
                lines.append(_fmt(v))
    if cell_fields:
        lines.append(f"CELL_DATA {mesh.n_cells}")
        for name, fn in cell_fields:
            kind = fn.space.family.kind
            if kind == "Trace":
                raise ValueError("facet trace fields cannot be exported as cell data")
            vals = eval_function(fn, _CENTROID)
            if vals.ndim == 3:
                lines.append(f"VECTORS {name} double")
                for vx, vy in vals[:, 0, :]:
                    lines.append(f"{_fmt(vx)} {_fmt(vy)} {_fmt(0.0)}")
            else:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                for v in vals[:, 0]:
                    lines.append(_fmt(v))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
