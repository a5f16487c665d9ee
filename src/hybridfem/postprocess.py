"""Local post-processing of hybridized solutions.

``scalar_pp`` solves, in every cell, a stiffness system of one degree
higher with Lagrange multipliers enforcing that the result keeps the
moments of the computed scalar up to the multiplier degree; the gradient
is matched against the computed flux, its data entering as a bilinear
form acting on their gathered coefficients.  This raises the scalar
convergence rate by one order for hybridized mixed and (tau = O(1))
LDG-H solutions.

``flux_pp`` builds an H(div)-conforming flux from an LDG-H solution by
interpolating the numerical flux u_h + tau (p_h - lambda_h) n into a
cell-local Raviart-Thomas space of one degree higher: facet normal
moments take the (single-valued) numerical-trace data, interior moments
take the computed flux.  In the element's own moment basis this
interpolation is explicit, no local solve is required; the two facet
sides are averaged, which keeps the result exactly single-valued even
under inexact trace solves.
"""

from __future__ import annotations

import numpy as np

from . import reference
from .expressions import AssembledVector, Tensor, assemble_global
from .forms import (
    CELL,
    FormIR,
    IntegralTerm,
    ScalarField,
    dot,
    fld,
    grad,
    test,
    trial,
)
from .mesh import EDGE_OUTWARD
from .spaces import (
    DG,
    RT,
    Function,
    MixedSpace,
    break_space,
    cell_blocks,
    create_space,
    eval_function,
    rt_interior_moments,
)


def scalar_pp(u_h: Function, p_h: Function, mu: ScalarField,
              multiplier_degree: int = 0) -> Function:
    """Superconvergent scalar reconstruction on DG(k+1).

    ``mu`` is the inverse diffusivity pairing the flux with the scalar
    gradient (u = -kappa grad p).  The multiplier degree l must satisfy
    0 <= l <= k where k is the computed scalar's degree.
    """
    k = p_h.space.family.degree
    if not 0 <= multiplier_degree <= k:
        raise ValueError(
            f"multiplier degree must lie in [0, {k}], got {multiplier_degree}")
    mesh = p_h.space.mesh
    V_star = create_space(mesh, DG(k + 1))
    V_mult = create_space(mesh, DG(multiplier_degree))
    W = MixedSpace((V_star, V_mult))
    a = FormIR(W, W, [
        IntegralTerm(CELL, dot(grad(test(0)), grad(trial(0)))),
        IntegralTerm(CELL, dot(test(0), trial(1))),
        IntegralTerm(CELL, dot(test(1), trial(0))),
    ])
    expr = Tensor(a).solve(_data_action(W, u_h, p_h, mu)).blocks[0]
    return Function(V_star, assemble_global(expr))


def _data_action(W: MixedSpace, u_h: Function, p_h: Function, mu: ScalarField):
    """The local right-hand side ``-mu grad v . u_h + q p_h`` as Slate
    writes it: a bilinear data form times the gathered coefficients,
    ``Tensor(b) * AssembledVector((data, (u_h, p_h)))``."""
    data = MixedSpace((u_h.space, p_h.space))
    b = FormIR(W, data, [
        IntegralTerm(CELL, -dot(fld(mu), dot(grad(test(0)), trial(0)))),
        IntegralTerm(CELL, dot(test(1), trial(1))),
    ])
    return Tensor(b) * AssembledVector((data, np.concatenate([u_h.coeffs, p_h.coeffs])))


def flux_pp(u_h: Function, p_h: Function, lam_h: Function,
            tau: float) -> Function:
    """H(div)-conforming flux reconstruction from an LDG-H solution.

    Returns a function on the broken Raviart-Thomas space of degree
    k+1 whose facet normal moments match the numerical flux and whose
    interior moments match ``u_h``; twin facet dofs are averaged.
    """
    if u_h.space.family.kind != "VectorDG":
        raise ValueError("flux reconstruction expects a vector DG flux")
    if lam_h.space.family.kind != "Trace":
        raise ValueError("flux reconstruction expects facet trace data")
    k = u_h.space.family.degree
    mesh = u_h.space.mesh
    geo = mesh.geometry()
    target = break_space(create_space(mesh, RT(k + 1)))
    nq_rule = reference.edge_quadrature(min(2 * k + 6, reference.MAX_EXACTNESS))
    tg = nq_rule.points
    w = nq_rule.weights
    leg = reference.shifted_legendre(k, tg)          # (nq, k+1)
    lam_t = lam_h.space.element().tabulate(tg)       # (nq, k+1), global parameter

    side_moments = np.empty((3, mesh.n_cells, k + 1))  # of each (local edge, cell)
    all_cells = slice(0, mesh.n_cells)
    for loc in range(3):
        pts = reference.edge_points(loc, tg)  # in the facet's global direction
        for cells in cell_blocks(all_cells, len(tg)):
            f = mesh.cell_facets[cells, loc]
            lam_vals = lam_t @ lam_h.coeffs[lam_h.space.facet_dofs[f]].T  # (nq, ncs)
            u_n = np.einsum("cqd,cd->cq", eval_function(u_h, pts, cells),
                            geo.edge_normals[cells, loc])
            # the outward normal is the global one times EDGE_OUTWARD[loc] sign(det J)
            outward = EDGE_OUTWARD[loc] * np.sign(geo.det_j[cells])
            flux = outward[:, None] * (u_n + tau * (eval_function(p_h, pts, cells) - lam_vals.T))
            side_moments[loc, cells] = (np.einsum("q,cq,qj->cj", w, flux, leg)
                                        * geo.edge_lengths[cells, loc, None])
    # one bincount per moment, summing each facet's sides in (local edge, cell) order
    sides = mesh.cell_facets.T.ravel()
    facet_moments = np.stack([np.bincount(sides, m.ravel(), minlength=mesh.n_facets)
                              for m in np.moveaxis(side_moments, -1, 0)], axis=1)
    facet_moments /= np.bincount(sides, minlength=mesh.n_facets)[:, None]

    coeffs = np.zeros(target.ndof_global)
    kk = k + 1  # moments per facet in the target space
    for loc in range(3):
        f = mesh.cell_facets[:, loc]
        coeffs[target.cell_dofs[:, loc * kk:(loc + 1) * kk]] = facet_moments[f]
    if kk > 1:
        rule = reference.triangle_quadrature(min(2 * k + 6, reference.MAX_EXACTNESS))
        for cells in cell_blocks(all_cells, len(rule.weights)):
            coeffs[target.cell_dofs[cells, 3 * kk:]] = rt_interior_moments(
                geo, rule, eval_function(u_h, rule.points, cells), kk, cells)
    return Function(target, coeffs)
