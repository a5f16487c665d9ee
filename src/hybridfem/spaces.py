"""Finite element spaces, degree-of-freedom maps, and interpolation.

Supported families on triangles:

* ``RT(k)``, k in 1..3 — H(div)-conforming Raviart-Thomas, edge-moment dofs
* ``DG(k)`` / ``CG(k)`` — discontinuous / continuous Lagrange
* ``VectorDG(k)`` — componentwise discontinuous vector Lagrange
* ``Trace(k)`` — facet-supported polynomials (one block of k+1 dofs per facet)

A conforming RT space can be "broken" into its cell-wise discontinuous
twin with :func:`break_space`; broken dofs keep the global orientation
convention of the parent so that a conforming function injects into the
broken space by plain index copying.

:func:`ref_basis` is the one batched statement of each family's
reference-to-physical map; :func:`contract` applies it to per-cell
coefficients, and :func:`eval_function` / :func:`eval_function_div`
are that contraction at given reference points.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    cell_signs: np.ndarray   # (n_cells, local_dim), entries +-1
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

    def __post_init__(self):
        meshes = {id(s.mesh) for s in self.fields}
        if len(meshes) != 1:
            raise ValueError("mixed space fields must share a mesh")

    @property
    def mesh(self) -> Mesh:
        return self.fields[0].mesh

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    @property
    def ndof_global(self) -> int:
        return sum(s.ndof_global for s in self.fields)

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum([s.ndof_global for s in self.fields])])

    @property
    def local_dim(self) -> int:
        return sum(s.local_dim for s in self.fields)

    @property
    def local_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum([s.local_dim for s in self.fields])])

    def cell_dofs_global(self) -> np.ndarray:
        off = self.offsets
        return np.concatenate(
            [s.cell_dofs + off[i] for i, s in enumerate(self.fields)], axis=1
        )

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        off = self.offsets
        return [vec[off[i]:off[i + 1]] for i in range(self.n_fields)]


@dataclass
class Function:
    """Coefficient vector attached to a function space."""

    space: FunctionSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.ndof_global,):
            raise ValueError("coefficient length does not match space dimension")


def zero_function(space: FunctionSpace) -> Function:
    return Function(space, np.zeros(space.ndof_global))


# ---------------------------------------------------------------------------
# space construction


def create_space(mesh: Mesh, family: ElementFamily) -> FunctionSpace:
    """Build a function space with its dof maps on ``mesh``."""
    kind, k = family.kind, family.degree
    nc = mesh.n_cells
    if kind in ("DG", "VectorDG"):
        nd = family.local_dim
        dofs = np.arange(nc * nd, dtype=np.int64).reshape(nc, nd)
        return FunctionSpace(mesh, family, nc * nd, dofs, np.ones((nc, nd)), broken=True)
    if kind == "Trace":
        per = k + 1
        nf = mesh.n_facets
        facet_dofs = np.arange(nf * per, dtype=np.int64).reshape(nf, per)
        dofs = facet_dofs[mesh.cell_facets].reshape(nc, 3 * per)
        return FunctionSpace(mesh, family, nf * per, dofs,
                             np.ones((nc, 3 * per)), facet_dofs=facet_dofs)
    if kind == "CG":
        return _create_cg(mesh, family)
    if kind == "RT":
        return _create_rt(mesh, family)
    raise AssertionError


def _create_cg(mesh: Mesh, family: ElementFamily) -> FunctionSpace:
    k = family.degree
    nc, nv, nf = mesh.n_cells, mesh.n_vertices, mesh.n_facets
    n_edge = k - 1
    n_int = (k - 1) * (k - 2) // 2
    ndof = nv + nf * n_edge + nc * n_int
    nd = family.local_dim
    dofs = np.empty((nc, nd), dtype=np.int64)
    geo = mesh.geometry()
    dofs[:, :3] = mesh.cell_vertices
    pos = 3
    for loc in range(3):
        f = mesh.cell_facets[:, loc]
        base = nv + f[:, None] * n_edge
        # global edge dofs run along the global facet direction; flip when
        # the cell traverses the edge the other way
        order = np.arange(n_edge)
        fwd = base + order[None, :]
        rev = base + order[::-1][None, :]
        dofs[:, pos:pos + n_edge] = np.where(geo.dir_match[:, loc][:, None], fwd, rev)
        pos += n_edge
    if n_int:
        interior = nv + nf * n_edge + np.arange(nc * n_int).reshape(nc, n_int)
        dofs[:, pos:] = interior
    return FunctionSpace(mesh, family, ndof, dofs, np.ones((nc, nd)))


def _create_rt(mesh: Mesh, family: ElementFamily) -> FunctionSpace:
    k = family.degree
    nc, nf = mesh.n_cells, mesh.n_facets
    n_int = k * (k - 1)
    ndof = nf * k + nc * n_int
    nd = family.local_dim
    geo = mesh.geometry()
    dofs = np.empty((nc, nd), dtype=np.int64)
    signs = np.ones((nc, nd))
    moment_parity = np.array([(-1.0) ** (j + 1) for j in range(k)])
    for loc in range(3):
        f = mesh.cell_facets[:, loc]
        dofs[:, loc * k:(loc + 1) * k] = f[:, None] * k + np.arange(k)[None, :]
        flip = ~geo.dir_match[:, loc]
        signs[flip, loc * k:(loc + 1) * k] = moment_parity[None, :]
    if n_int:
        dofs[:, 3 * k:] = nf * k + np.arange(nc * n_int).reshape(nc, n_int)
    facet_dofs = np.arange(nf * k, dtype=np.int64).reshape(nf, k)
    return FunctionSpace(mesh, family, ndof, dofs, signs, facet_dofs=facet_dofs)


def break_space(space: FunctionSpace) -> FunctionSpace:
    """Cell-wise discontinuous twin of a conforming RT space.

    The broken space keeps the parent's orientation signs, so twin dofs
    of a shared facet represent the same global moment.
    """
    if space.family.kind != "RT":
        raise ValueError("only Raviart-Thomas spaces can be broken")
    if space.broken:
        raise ValueError("space is already broken")
    nc, nd = space.cell_dofs.shape
    dofs = np.arange(nc * nd, dtype=np.int64).reshape(nc, nd)
    return FunctionSpace(space.mesh, space.family, nc * nd, dofs,
                         space.cell_signs.copy(), broken=True)


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
        fv = mesh.vertex_coords[mesh.facet_vertices]  # (nf, 2, 2), global direction
        pts = fv[:, 0, None, :] + el.nodes[None, :, None] * (fv[:, 1] - fv[:, 0])[:, None, :]
        vals = _eval_scalar(fn, pts)
        coeffs = np.zeros(space.ndof_global)
        coeffs[space.facet_dofs] = vals
        return Function(space, coeffs)
    if kind == "RT":
        return _interpolate_rt(space, fn)
    raise AssertionError


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
    fv = mesh.vertex_coords[mesh.facet_vertices[facets]]  # (nf, 2, 2)
    tang = fv[:, 1] - fv[:, 0]
    n_scaled = tang @ np.array([[0.0, -1.0], [1.0, 0.0]])  # rotate -90
    pts = fv[:, 0, None, :] + rule.points[None, :, None] * tang[:, None, :]
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


def rt_interior_moments(geo, rule, vals: np.ndarray, k: int) -> np.ndarray:
    """Interior dofs of RT(k) in every cell from vector values (nc, nq, 2)
    at the points of ``rule``: reference moments of the Piola pull-back
    against ``[P_{k-2}]^2``, in dof order, shaped (nc, k (k - 1))."""
    jinv = np.linalg.inv(geo.jacobians)
    pulled = geo.det_j[:, None, None] * np.einsum("cij,cqj->cqi", jinv, vals)
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
    fv = mesh.vertex_coords[mesh.facet_vertices[facets]]
    pts = fv[:, 0, None, :] + rule.points[None, :, None] * (fv[:, 1] - fv[:, 0])[:, None, :]
    vals = _eval_scalar(fn, pts)  # (nf, nq)
    basis = el.tabulate(rule.points)  # (nq, m)
    mass = np.einsum("q,qi,qj->ij", rule.weights, basis, basis)
    rhs = np.einsum("q,fq,qi->fi", rule.weights, vals, basis)
    return np.linalg.solve(mass, rhs.T).T


# ---------------------------------------------------------------------------
# batched basis maps on affine cells, and pointwise evaluation

_DERIVATIVES = {"DG": ("value", "grad"), "CG": ("value", "grad"),
                "VectorDG": ("value", "div"), "RT": ("value", "div")}


def ref_basis(space: FunctionSpace, deriv: str, pts: np.ndarray, geo, cells):
    """A family's basis at reference points ``pts`` as a reference
    tabulation and a map that is constant per cell.

    Returns ``(ref, g, signs)`` with the physical basis
    ``phi[c, q, i, d] = signs[c, i] * sum_r g[c, d, r] * ref[q, i, r]``:
    ``ref`` (nq, nd, nr) is tabulated on the reference cell, ``g``
    (ncs|1, ncomp, nr) holds the per-cell map of ``cells`` (``ncomp`` is
    2 for vector values, 1 for scalars), ``signs`` is None for unsigned
    families.  Trace bases are mapped by the facet contexts of
    :mod:`hybridfem.forms`.
    """
    fam = space.family
    if deriv not in _DERIVATIVES.get(fam.kind, ()):
        raise ValueError(f"no batched {deriv!r} map for {fam.kind} spaces")
    el = space.element()
    if fam.kind in ("DG", "CG"):
        if deriv == "value":
            return el.tabulate(pts)[..., None], np.ones((1, 1, 1)), None
        return el.tabulate_grad(pts), geo.inv_jt[cells], None
    if fam.kind == "VectorDG":
        if deriv == "value":
            return _componentwise(el.tabulate(pts)[..., None]), np.eye(2)[None], None
        # reference component (a, j): derivative along j of component a
        ref = _componentwise(el.tabulate_grad(pts))
        return ref, geo.inv_jt[cells].reshape(-1, 1, 4), None
    signs = space.cell_signs[cells]
    det = geo.det_j[cells]
    if deriv == "value":
        return el.tabulate(pts), geo.jacobians[cells] / det[:, None, None], signs
    return el.tabulate_div(pts)[..., None], (1.0 / det)[:, None, None], signs


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
    nq * nd basis functions."""
    ref, g, signs = basis
    if signs is not None:
        local = local * signs
    ref_vals = np.einsum("ci,qir->cqr", local, ref, optimize=True)
    return np.einsum("cdr,cqr->cqd", g, ref_vals, optimize=True)


def eval_function(fn: Function, ref_points: np.ndarray) -> np.ndarray:
    """Values of a function at reference points in every cell.

    Returns (n_cells, n_points) for scalar families and
    (n_cells, n_points, 2) for vector families.
    """
    vals = _contract_all(fn, "value", ref_points)
    return vals if fn.space.family.is_vector else vals[..., 0]


def eval_function_div(fn: Function, ref_points: np.ndarray) -> np.ndarray:
    """Divergence values at reference points in every cell."""
    return _contract_all(fn, "div", ref_points)[..., 0]


def _contract_all(fn: Function, deriv: str, ref_points: np.ndarray) -> np.ndarray:
    space = fn.space
    basis = ref_basis(space, deriv, ref_points, space.mesh.geometry(), slice(None))
    return contract(basis, fn.coeffs[space.cell_dofs])


# ---------------------------------------------------------------------------
# broken <-> conforming correspondence


@dataclass
class BrokenTransfer:
    """Index correspondence between a conforming RT space and its twin.

    ``conforming_of_broken[d]`` is the conforming dof behind broken dof
    ``d``; ``incidence[i]`` counts the cells touching conforming dof
    ``i`` (2 for interior-facet dofs, 1 otherwise).
    """

    conforming: FunctionSpace
    broken: FunctionSpace
    conforming_of_broken: np.ndarray
    incidence: np.ndarray


def broken_transfer(conforming: FunctionSpace, broken: FunctionSpace) -> BrokenTransfer:
    if conforming.broken or broken is None or not broken.broken:
        raise ValueError("expected a conforming space and its broken twin")
    nc, nd = conforming.cell_dofs.shape
    conf_of_broken = np.empty(broken.ndof_global, dtype=np.int64)
    conf_of_broken[broken.cell_dofs.ravel()] = conforming.cell_dofs.ravel()
    incidence = np.bincount(conf_of_broken, minlength=conforming.ndof_global)
    return BrokenTransfer(conforming, broken, conf_of_broken, incidence)


def inject_broken(bt: BrokenTransfer, fn: Function) -> Function:
    """Copy a conforming function into the broken space (twins equal)."""
    if fn.space is not bt.conforming:
        raise ValueError("function does not live on the transfer's conforming space")
    return Function(bt.broken, fn.coeffs[bt.conforming_of_broken])


def project_div(bt: BrokenTransfer, fn: Function) -> Function:
    """Facet-averaging projection from the broken space back to H(div)."""
    if fn.space is not bt.broken:
        raise ValueError("function does not live on the transfer's broken space")
    acc = np.zeros(bt.conforming.ndof_global)
    np.add.at(acc, bt.conforming_of_broken, fn.coeffs)
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
    return residual[bt.conforming_of_broken] / bt.incidence[bt.conforming_of_broken]
