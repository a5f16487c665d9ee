"""Finite element spaces, degree-of-freedom maps, and interpolation.

Supported families on triangles:

* ``RT(k)``, k in 1..3 — H(div)-conforming Raviart-Thomas, edge-moment dofs
* ``DG(k)`` / ``CG(k)`` — discontinuous / continuous Lagrange
* ``VectorDG(k)`` — componentwise discontinuous vector Lagrange
* ``Trace(k)`` — facet-supported polynomials (one block of k+1 dofs per facet)

Every cell traverses a shared edge from its lower to its higher global
vertex (:mod:`hybridfem.mesh`), so RT edge moments, CG edge dofs and
trace dofs need no orientation signs or reversals.  A conforming RT space
can be "broken" into its cell-wise discontinuous twin with
:func:`break_space`; a conforming function injects into the broken space
by plain index copying.

:func:`ref_basis` is the one batched statement of each family's
reference-to-physical map; :func:`contract` applies it to per-cell
coefficients, and :func:`eval_function` is that contraction at given
reference points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import reference
from .mesh import Mesh

SUPPORTED_DEGREES = {
    "RT": range(1, 4),
    "DG": range(0, 4),
    "VectorDG": range(0, 4),
    "CG": range(1, 5),
    "Trace": range(0, 4),
}


@dataclass(frozen=True)
class ElementFamily:
    kind: str
    degree: int

    def __post_init__(self):
        if self.kind not in SUPPORTED_DEGREES:
            raise ValueError(f"unknown element family {self.kind!r}")
        if self.degree not in SUPPORTED_DEGREES[self.kind]:
            raise ValueError(f"unsupported degree {self.degree} for family {self.kind}")

    @property
    def local_dim(self) -> int:
        k = self.degree
        if self.kind == "RT":
            return k * (k + 2)
        if self.kind in ("DG", "CG"):
            return (k + 1) * (k + 2) // 2
        if self.kind == "VectorDG":
            return (k + 1) * (k + 2)
        if self.kind == "Trace":
            return 3 * (k + 1)  # per cell: one block per edge
        raise AssertionError

    @property
    def is_vector(self) -> bool:
        return self.kind in ("RT", "VectorDG")


def RT(k: int) -> ElementFamily:
    return ElementFamily("RT", k)


def DG(k: int) -> ElementFamily:
    return ElementFamily("DG", k)


def VectorDG(k: int) -> ElementFamily:
    return ElementFamily("VectorDG", k)


def CG(k: int) -> ElementFamily:
    return ElementFamily("CG", k)


def Trace(k: int) -> ElementFamily:
    return ElementFamily("Trace", k)


@dataclass
class FunctionSpace:
    mesh: Mesh
    family: ElementFamily
    ndof_global: int
    cell_dofs: np.ndarray    # (n_cells, local_dim)
    broken: bool = False
    facet_dofs: np.ndarray | None = None  # Trace and conforming RT only

    @property
    def local_dim(self) -> int:
        return self.cell_dofs.shape[1]

    def element(self):
        k = self.family.degree
        if self.family.kind == "RT":
            return reference.rt_element(k)
        if self.family.kind in ("DG", "CG", "VectorDG"):
            return reference.scalar_element(k)
        if self.family.kind == "Trace":
            return reference.line_element(k)
        raise AssertionError


@dataclass
class MixedSpace:
    """Ordered product of function spaces sharing one mesh."""

    fields: tuple[FunctionSpace, ...]
    # start of each field's global dofs, then the total; set once
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.fields = tuple(self.fields)
        meshes = {id(s.mesh) for s in self.fields}
        if len(meshes) != 1:
            raise ValueError("mixed space fields must share a mesh")
        self.offsets = np.concatenate([[0], np.cumsum([s.ndof_global for s in self.fields])])
        self.offsets.flags.writeable = False

    @property
    def mesh(self) -> Mesh:
        return self.fields[0].mesh

    @property
    def ndof_global(self) -> int:
        return int(self.offsets[-1])

    @property
    def local_dim(self) -> int:
        return sum(s.local_dim for s in self.fields)

    def cell_dofs_global(self) -> np.ndarray:
        return np.concatenate([s.cell_dofs + o for s, o in zip(self.fields, self.offsets)],
                              axis=1)

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        return [vec[lo:hi] for lo, hi in zip(self.offsets[:-1], self.offsets[1:])]


@dataclass
class Function:
    """Coefficient vector attached to a function space."""

    space: FunctionSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.ndof_global,):
            raise ValueError("coefficient length does not match space dimension")


def local_offsets(fields) -> np.ndarray:
    """Start of each field's block in a cell's local dofs, then the total."""
    return np.concatenate([[0], np.cumsum([s.local_dim for s in fields])]).astype(int)


# ---------------------------------------------------------------------------
# space construction


def create_space(mesh: Mesh, family: ElementFamily) -> FunctionSpace:
    """Build a function space with its dof maps on ``mesh``.

    Conforming families number their vertex dofs (CG), then their facet
    dofs facet by facet, then their interior dofs cell by cell.  Every
    cell runs along a facet in its global direction, as the facet's dofs
    do, so a cell's facet dofs are those of its facets in order.
    """
    kind, k = family.kind, family.degree
    nc, nd = mesh.n_cells, family.local_dim
    if kind in ("DG", "VectorDG"):
        dofs = np.arange(nc * nd, dtype=np.int64).reshape(nc, nd)
        return FunctionSpace(mesh, family, nc * nd, dofs, broken=True)
    if kind == "CG" and k == 1:  # the vertex dofs are the mesh's own read-only array
        return FunctionSpace(mesh, family, mesh.n_vertices, mesh.cell_vertices)
    vertex = [mesh.cell_vertices] if kind == "CG" else []
    start = mesh.n_vertices if vertex else 0
    per = {"CG": k - 1, "RT": k, "Trace": k + 1}[kind]  # dofs per facet
    facet_dofs = start + np.arange(mesh.n_facets * per, dtype=np.int64).reshape(-1, per)
    start += facet_dofs.size
    n_int = nd - 3 * len(vertex) - 3 * per
    dofs = np.concatenate(vertex + [facet_dofs[mesh.cell_facets].reshape(nc, 3 * per),
                                    start + np.arange(nc * n_int).reshape(nc, n_int)], axis=1)
    return FunctionSpace(mesh, family, start + nc * n_int, dofs,
                         facet_dofs=None if vertex else facet_dofs)


def break_space(space: FunctionSpace) -> FunctionSpace:
    """Cell-wise discontinuous twin of a conforming RT space; twin dofs
    of a shared facet represent the same global moment."""
    if space.family.kind != "RT":
        raise ValueError("only Raviart-Thomas spaces can be broken")
    if space.broken:
        raise ValueError("space is already broken")
    nc, nd = space.cell_dofs.shape
    dofs = np.arange(nc * nd, dtype=np.int64).reshape(nc, nd)
    return FunctionSpace(space.mesh, space.family, nc * nd, dofs, broken=True)


# ---------------------------------------------------------------------------
# interpolation and facet projections


def interpolate(space: FunctionSpace, fn: Callable) -> Function:
    """Interpolate a callable by evaluating the dof functionals.

    Scalar families expect ``fn(x, y) -> float`` (arrays broadcast);
    vector families expect ``fn(x, y) -> (2,)`` per point (or arrays
    shaped (..., 2)).
    """
    kind = space.family.kind
    mesh = space.mesh
    if kind in ("DG", "CG"):
        el = reference.scalar_element(space.family.degree)
        pts = mesh.geometry().physical_points(el.nodes)  # (nc, nd, 2)
        vals = _eval_scalar(fn, pts)
        coeffs = np.zeros(space.ndof_global)
        coeffs[space.cell_dofs] = vals
        return Function(space, coeffs)
    if kind == "VectorDG":
        el = reference.scalar_element(space.family.degree)
        pts = mesh.geometry().physical_points(el.nodes)
        vals = _eval_vector(fn, pts)  # (nc, ns, 2)
        coeffs = np.zeros(space.ndof_global)
        ns = el.n_dofs
        coeffs[space.cell_dofs[:, :ns]] = vals[:, :, 0]
        coeffs[space.cell_dofs[:, ns:]] = vals[:, :, 1]
        return Function(space, coeffs)
    if kind == "Trace":
        el = reference.line_element(space.family.degree)
        vals = _eval_scalar(fn, _facet_points(mesh, slice(None), el.nodes)[0])
        coeffs = np.zeros(space.ndof_global)
        coeffs[space.facet_dofs] = vals
        return Function(space, coeffs)
    if kind == "RT":
        return _interpolate_rt(space, fn)
    raise AssertionError


def _facet_points(mesh, facets, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points ``v0 + t (v1 - v0)`` at parameters ``t`` along ``facets``
    from their first vertex ``v0`` to their second ``v1`` (the global
    direction), shaped (nf, nt, 2), and the tangents ``v1 - v0``."""
    fv = mesh.vertex_coords[mesh.facet_vertices[facets]]  # (nf, 2, 2)
    tang = fv[:, 1] - fv[:, 0]
    return fv[:, 0, None, :] + t[None, :, None] * tang[:, None, :], tang


def _eval_scalar(fn, pts: np.ndarray) -> np.ndarray:
    return np.asarray(fn(pts[..., 0], pts[..., 1]), dtype=float)


def _eval_vector(fn, pts: np.ndarray) -> np.ndarray:
    out = np.asarray(fn(pts[..., 0], pts[..., 1]), dtype=float)
    if out.shape != pts.shape:
        raise ValueError("vector callable must return shape (..., 2)")
    return out


def global_edge_moments(space: FunctionSpace, facets: np.ndarray, fn: Callable,
                        exactness: int = 10) -> np.ndarray:
    """Moments of ``fn . n_glob`` against shifted Legendre on given facets.

    ``n_glob`` is the rotated global facet direction; results align with
    the RT facet dofs of ``space``.
    """
    k = space.family.degree
    rule = reference.edge_quadrature(exactness)
    mesh = space.mesh
    pts, tang = _facet_points(mesh, facets, rule.points)
    n_scaled = tang @ np.array([[0.0, -1.0], [1.0, 0.0]])  # rotate -90
    vals = _eval_vector(fn, pts)  # (nf, nq, 2)
    flux = np.einsum("fqd,fd->fq", vals, n_scaled)
    leg = reference.shifted_legendre(k - 1, rule.points)  # (nq, k)
    return np.einsum("q,fq,qj->fj", rule.weights, flux, leg)


def _interpolate_rt(space: FunctionSpace, fn: Callable) -> Function:
    mesh, geo = space.mesh, space.mesh.geometry()
    k = space.family.degree
    coeffs = np.zeros(space.ndof_global)

    facets = np.arange(mesh.n_facets)
    moments = global_edge_moments(space, facets, fn)
    if space.broken:
        for loc in range(3):
            f = mesh.cell_facets[:, loc]
            coeffs[space.cell_dofs[:, loc * k:(loc + 1) * k]] = moments[f]
    else:
        coeffs[space.facet_dofs] = moments

    if k > 1:  # interior dofs
        rule = reference.triangle_quadrature(min(2 * k + 6, reference.MAX_EXACTNESS))
        vals = _eval_vector(fn, geo.physical_points(rule.points))  # (nc, nq, 2)
        coeffs[space.cell_dofs[:, 3 * k:]] = rt_interior_moments(geo, rule, vals, k)
    return Function(space, coeffs)


def rt_interior_moments(geo, rule, vals: np.ndarray, k: int, cells=slice(None)) -> np.ndarray:
    """Interior dofs of RT(k) in ``cells`` (default every cell) from
    vector values (ncs, nq, 2) at the points of ``rule``: reference
    moments of the Piola pull-back against ``[P_{k-2}]^2``, in dof order,
    shaped (ncs, k (k - 1))."""
    jinv = np.linalg.inv(geo.jacobians[cells])
    pulled = geo.det_j[cells, None, None] * np.einsum("cij,cqj->cqi", jinv, vals)
    x, y = rule.points[:, 0], rule.points[:, 1]
    moments = []
    for i, j in reference.monomial_exponents(k - 2):
        mono = x**i * y**j
        for comp in (0, 1):
            moments.append(np.einsum("q,cq->c", rule.weights * mono, pulled[:, :, comp]))
    return np.stack(moments, axis=1)


def project_onto_facets(space: FunctionSpace, facets: np.ndarray, fn: Callable,
                        exactness: int = 10) -> np.ndarray:
    """Per-facet L2 projection of a scalar callable onto a Trace space.

    Returns coefficients shaped (len(facets), k+1).
    """
    if space.family.kind != "Trace":
        raise ValueError("facet projection requires a Trace space")
    el = reference.line_element(space.family.degree)
    rule = reference.edge_quadrature(exactness)
    mesh = space.mesh
    vals = _eval_scalar(fn, _facet_points(mesh, facets, rule.points)[0])  # (nf, nq)
    basis = el.tabulate(rule.points)  # (nq, m)
    mass = np.einsum("q,qi,qj->ij", rule.weights, basis, basis)
    rhs = np.einsum("q,fq,qi->fi", rule.weights, vals, basis)
    return np.linalg.solve(mass, rhs.T).T


COARSEST_VERTICES = 3000  # p1_hierarchy stops at a level with at most this many vertices


def coarse_p1_map(space: FunctionSpace):
    """The first coarse map of the multilevel preconditioner, a CSR matrix
    from continuous P1 vertex values to the dofs of a Trace(k) space (P1
    on its mesh, read at each facet's ``line_element(k)`` nodes from the
    lower vertex) or a CG(k) space (P1 on the ``n // 2`` grid read at the
    fine nodes by :func:`_grid_p1_map`, so odd ``n`` and jittered meshes
    need no coarse mesh)."""
    mesh, k = space.mesh, space.family.degree
    if space.family.kind == "CG":
        pts = np.empty((space.ndof_global, 2))
        pts[:mesh.n_vertices] = mesh.vertex_coords  # vertex dofs carry vertex numbers
        pts[space.cell_dofs[:, 3:]] = mesh.geometry().physical_points(
            reference.scalar_element(k).nodes[3:])
        return _grid_p1_map(pts, max(int(round(np.sqrt(mesh.n_cells / 2))) // 2, 1))
    if space.family.kind != "Trace":
        raise ValueError(f"no coarse P1 map for {space.family.kind} spaces")
    t = reference.line_element(k).nodes[None, :, None]  # dofs run facet by facet
    cols = np.broadcast_to(mesh.facet_vertices[:, None, :], (mesh.n_facets, k + 1, 2))
    vals = np.broadcast_to(np.concatenate([1.0 - t, t], axis=2), cols.shape)
    return _rows_csr(cols, vals, mesh.n_vertices)


def p1_hierarchy(space: FunctionSpace) -> list:
    """The maps of the multilevel preconditioner, finest first:
    :func:`coarse_p1_map`, then P1 on each grid ``g`` to P1 on ``g // 2``
    until a level has at most ``COARSEST_VERTICES`` vertices.  A Trace
    space's first grid is its mesh, read at the mesh's own vertices, so
    jittered meshes work; no coarse mesh or space is built."""
    maps = [coarse_p1_map(space)]
    g = math.isqrt(maps[0].shape[1]) - 1  # a level has (g + 1)^2 vertices
    pts = space.mesh.vertex_coords if space.family.kind == "Trace" else _grid_points(g)
    while maps[-1].shape[1] > COARSEST_VERTICES and g > 1:
        g //= 2
        maps.append(_grid_p1_map(pts, g))
        pts = _grid_points(g)
    return maps


def _grid_points(m: int) -> np.ndarray:  # the m grid's vertices, numbered as build_unit_square
    return np.column_stack(np.divmod(np.arange((m + 1) ** 2), m + 1)[::-1]) / m


def _grid_p1_map(pts: np.ndarray, m: int):
    """P1 on the ``m`` grid split as by ``build_unit_square``, read at
    ``pts`` located by grid arithmetic: a CSR matrix (len(pts), (m+1)^2)."""
    ij = np.clip(np.floor(pts * m), 0, m - 1)
    s, t = (pts * m - ij).T
    v00 = (ij[:, 1] * (m + 1) + ij[:, 0]).astype(np.int64)
    # the cell (v00, v10, v11) below the diagonal, (v00, v11, v01) above
    cols = np.stack([v00, np.where(s >= t, v00 + 1, v00 + m + 1), v00 + m + 2], axis=1)
    vals = np.stack([1.0 - np.maximum(s, t), np.abs(s - t), np.minimum(s, t)], axis=1)
    return _rows_csr(cols, vals, (m + 1) ** 2)


def _rows_csr(cols: np.ndarray, vals: np.ndarray, n_coarse: int):
    import scipy.sparse as sp  # on use: imported with the module it slowed `import hybridfem` 25 ms
    w = cols.shape[-1]  # entries per row, rows in order
    P = sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, cols.size + 1, w)),
                      shape=(cols.size // w, n_coarse))
    P.eliminate_zeros()
    return P


# ---------------------------------------------------------------------------
# batched basis maps on affine cells, and pointwise evaluation

BLOCK_POINTS = 2**16  # quadrature points per evaluation block


def cell_blocks(cells, nq: int):
    """Consecutive blocks of ``cells`` with at most ``BLOCK_POINTS``
    points at ``nq`` points per cell, made lazily so that each block's
    arrays are freed before the next block is built.  ``cells`` is a
    slice with explicit bounds (blocks are slices) or an array of cell
    indices (blocks are chunks of it)."""
    step = max(1, BLOCK_POINTS // nq)
    if isinstance(cells, slice):
        return (slice(s, min(s + step, cells.stop))
                for s in range(cells.start, cells.stop, step))
    return (cells[s:s + step] for s in range(0, len(cells), step))


_DERIVATIVES = {"DG": ("value", "grad"), "CG": ("value", "grad"),
                "VectorDG": ("value", "div"), "RT": ("value", "div")}


def ref_basis(space: FunctionSpace, deriv: str, pts: np.ndarray, geo, cells):
    """A family's basis at reference points ``pts``: ``(ref, g)``,
    :func:`ref_table` and :func:`ref_map`, with the physical basis
    ``phi[c, q, i, d] = sum_r g[c, d, r] * ref[q, i, r]``.  Trace tables
    are built per local edge by the facet contexts of :mod:`hybridfem.forms`."""
    return ref_table(space, deriv, pts), ref_map(space, deriv, geo, cells)


def ref_table(space: FunctionSpace, deriv: str, pts: np.ndarray) -> np.ndarray:
    """The tabulation (nq, nd, nr) of :func:`ref_basis` on the reference cell."""
    fam, el = space.family, space.element()
    if deriv not in _DERIVATIVES.get(fam.kind, ()):
        raise ValueError(f"no batched {deriv!r} map for {fam.kind} spaces")
    if fam.kind == "VectorDG":
        # reference component (a, j) of the gradient: derivative along j of component a
        return _componentwise(el.tabulate(pts)[..., None] if deriv == "value"
                              else el.tabulate_grad(pts))
    if deriv != "value":
        return el.tabulate_grad(pts) if deriv == "grad" else el.tabulate_div(pts)[..., None]
    return el.tabulate(pts)[..., None] if fam.kind in ("DG", "CG") else el.tabulate(pts)


def ref_map(space: FunctionSpace, deriv: str, geo, cells):
    """The per-cell map ``g`` (ncs|1, ncomp, nr) of :func:`ref_basis` on
    ``cells`` (``ncomp`` is 2 for vector values): for RT the contravariant
    Piola map, whose ``det J`` keeps its sign."""
    kind = space.family.kind
    if kind in ("DG", "CG", "Trace"):
        return np.ones((1, 1, 1)) if deriv == "value" else geo.inv_jt[cells]
    if kind == "VectorDG":
        return np.eye(2)[None] if deriv == "value" else geo.inv_jt[cells].reshape(-1, 1, 4)
    det = geo.det_j[cells][:, None, None]
    return geo.jacobians[cells] / det if deriv == "value" else 1.0 / det


def _componentwise(v: np.ndarray) -> np.ndarray:
    """Vector DG tabulation (nq, 2 ns, 2 m) from a scalar one (nq, ns, m):
    basis block a carries component a."""
    nq, ns, m = v.shape
    out = np.zeros((nq, 2, ns, 2, m))
    out[:, 0, :, 0] = v
    out[:, 1, :, 1] = v
    return out.reshape(nq, 2 * ns, 2 * m)


def contract(basis, local: np.ndarray) -> np.ndarray:
    """Values ``sum_i local[c, i] phi[c, q, i, :]`` of a :func:`ref_basis`
    map for per-cell coefficients ``local`` (nc, nd), shaped
    (nc, nq, ncomp).  The coefficients are contracted with the reference
    tabulation first, so the per-cell map applies to nq values, not to
    nq * nd basis functions.  The scalar identity map of DG/CG values is
    skipped, as multiplying by it changes no value."""
    ref, g = basis
    ref_vals = np.einsum("ci,qir->cqr", local, ref, optimize=True)
    if g.shape == (1, 1, 1) and g[0, 0, 0] == 1.0:
        return ref_vals
    return np.einsum("cdr,cqr->cqd", g, ref_vals, optimize=True)


def eval_function(fn: Function, ref_points: np.ndarray, cells=slice(None)) -> np.ndarray:
    """Values of a function at reference points in ``cells`` (a slice,
    default every cell): (ncs, n_points) for scalar families and
    (ncs, n_points, 2) for vector families."""
    space = fn.space
    basis = ref_basis(space, "value", ref_points, space.mesh.geometry(), cells)
    vals = contract(basis, fn.coeffs[space.cell_dofs[cells]])
    return vals if space.family.is_vector else vals[..., 0]


# ---------------------------------------------------------------------------
# broken <-> conforming correspondence


@dataclass
class BrokenTransfer:
    """Index correspondence between a conforming RT space and its twin.

    ``conforming_of_broken[d]`` is the conforming dof behind broken dof
    ``d``; ``incidence[i]`` counts the cells touching conforming dof
    ``i`` (2 for interior-facet dofs, 1 otherwise), and ``share[d]`` is
    broken dof ``d``'s part of its conforming dof, ``1 / incidence``
    there (exact, as the incidence is 1 or 2).
    """

    conforming: FunctionSpace
    broken: FunctionSpace
    conforming_of_broken: np.ndarray
    incidence: np.ndarray
    share: np.ndarray


def broken_transfer(conforming: FunctionSpace, broken: FunctionSpace) -> BrokenTransfer:
    if conforming.broken or broken is None or not broken.broken:
        raise ValueError("expected a conforming space and its broken twin")
    nc, nd = conforming.cell_dofs.shape
    conf_of_broken = np.empty(broken.ndof_global, dtype=np.int64)
    conf_of_broken[broken.cell_dofs.ravel()] = conforming.cell_dofs.ravel()
    incidence = np.bincount(conf_of_broken, minlength=conforming.ndof_global)
    return BrokenTransfer(conforming, broken, conf_of_broken, incidence,
                          1.0 / incidence[conf_of_broken])


def project_div(bt: BrokenTransfer, fn: Function) -> Function:
    """Facet-averaging projection from the broken space back to H(div)."""
    if fn.space is not bt.broken:
        raise ValueError("function does not live on the transfer's broken space")
    acc = np.bincount(bt.conforming_of_broken, fn.coeffs,
                      minlength=bt.conforming.ndof_global)
    return Function(bt.conforming, acc / bt.incidence)


def transfer_residual(bt: BrokenTransfer, residual: np.ndarray) -> np.ndarray:
    """Split a conforming residual onto the broken space.

    Each broken dof receives the conforming value divided by the number
    of incident cells, which preserves the pairing with any conforming
    test function.
    """
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (bt.conforming.ndof_global,):
        raise ValueError("residual does not match the conforming space")
    return residual[bt.conforming_of_broken] * bt.share
