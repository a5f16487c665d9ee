"""Local post-processing of hybridized solutions.

``scalar_pp`` solves, in every cell, a stiffness system of one degree
higher with Lagrange multipliers enforcing that the result keeps the
moments of the computed scalar up to the multiplier degree; the gradient
is matched against the computed flux.  This raises the scalar
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
from .expressions import Tensor, assemble_global
from .forms import (
    CELL,
    FormIR,
    IntegralTerm,
    ScalarField,
    coef,
    dot,
    fld,
    grad,
    test,
    trial,
)
from .spaces import (
    DG,
    RT,
    Function,
    MixedSpace,
    break_space,
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
    rhs = FormIR(W, None, [
        IntegralTerm(CELL, -dot(fld(mu), dot(grad(test(0)), coef(u_h)))),
        IntegralTerm(CELL, dot(test(1), coef(p_h))),
    ])
    expr = Tensor(a).solve(Tensor(rhs), "lu").blocks[0]
    return Function(V_star, assemble_global(expr))


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

    nf = mesh.n_facets
    per = k + 1
    facet_moments = np.zeros((nf, per))
    counts = np.zeros(nf)
    for loc in range(3):
        f = mesh.cell_facets[:, loc]
        match = geo.dir_match[:, loc]
        sign = np.where(match, 1.0, -1.0)
        # evaluate each side at the points in the facet's global direction
        pts_f = reference.edge_points(loc, tg)
        pts_r = reference.edge_points(loc, 1.0 - tg)
        u_vals = np.where(match[:, None, None], eval_function(u_h, pts_f),
                          eval_function(u_h, pts_r))
        p_vals = np.where(match[:, None], eval_function(p_h, pts_f),
                          eval_function(p_h, pts_r))
        lam_vals = lam_t @ lam_h.coeffs[lam_h.space.facet_dofs[f]].T  # (nq, nc)
        n_out = geo.edge_normals[np.arange(mesh.n_cells), loc]
        u_n = np.einsum("cqd,cd->cq", u_vals, n_out)
        flux = sign[:, None] * (u_n + tau * (p_vals - lam_vals.T))
        length = geo.edge_lengths[:, loc]
        moments = np.einsum("q,cq,qj->cj", w, flux, leg) * length[:, None]
        np.add.at(facet_moments, f, moments)
        np.add.at(counts, f, 1.0)
    facet_moments /= counts[:, None]

    coeffs = np.zeros(target.ndof_global)
    kk = k + 1  # moments per facet in the target space
    for loc in range(3):
        f = mesh.cell_facets[:, loc]
        coeffs[target.cell_dofs[:, loc * kk:(loc + 1) * kk]] = facet_moments[f]
    if kk > 1:
        rule = reference.triangle_quadrature(min(2 * k + 6, reference.MAX_EXACTNESS))
        coeffs[target.cell_dofs[:, 3 * kk:]] = rt_interior_moments(
            geo, rule, eval_function(u_h, rule.points), kk)
    return Function(target, coeffs)
