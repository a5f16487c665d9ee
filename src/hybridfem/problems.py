"""Manufactured elliptic problems and their discrete form sets.

The model problem is -div(kappa grad p) + c p = f on the unit square
with Dirichlet data p0 and Neumann flux data g = u . n, written in mixed
form as mu u + grad p = 0, div u + c p = f (mu = 1/kappa).  Each problem
gives p, grad p and the Laplacian of p in closed form; the flux, its
divergence and the forcing term are derived from these in one place, so
the forcing is exact by construction.  The tests check every field
against symbolic differentiation.

Form builders return the three-field hybridizable systems (hybridized
mixed and LDG-H), the conforming two-field mixed system, and the primal
continuous Galerkin system.  :func:`hybridize` is the one transform from
a conforming RT x DG form to its hybridized three-field form; the
hybridized mixed system is that transform applied to the conforming
system, and the hybridization preconditioner builds on it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import DIRICHLET, NEUMANN, Mesh
from .reference import scalar_element
from .solvers import Constraints
from .spaces import (
    CG,
    DG,
    RT,
    Trace,
    VectorDG,
    FunctionSpace,
    MixedSpace,
    break_space,
    create_space,
    global_edge_moments,
    project_onto_facets,
)
from .forms import (
    CELL,
    EXTERIOR,
    INTERIOR,
    FormIR,
    IntegralTerm,
    Normal,
    ScalarField,
    div,
    dot,
    fld,
    grad,
    jump,
    test,
    trial,
    vfld,
)

FIELD_DEGREE = 6  # quadrature degree surrogate for smooth manufactured data


@dataclass(frozen=True)
class ManufacturedProblem:
    """Exact solution bundle with coefficients and derived data."""

    name: str
    kappa: ScalarField
    c: ScalarField
    mu: ScalarField
    f: ScalarField
    p0: ScalarField
    p: Callable
    u: Callable          # exact flux, shape (..., 2)
    div_u: Callable

    def flux_expr(self):
        """Integrand factor g = u . n for Neumann surface terms."""
        return dot(vfld(self.u, FIELD_DEGREE), Normal())


def _sinsin(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _sinsin_grad(x, y):
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
    return np.pi * np.stack(np.broadcast_arrays(cx * sy, sx * cy), axis=-1)


def _sinsin_with_lap(x, y):
    p = _sinsin(x, y)
    return p, -2.0 * np.pi**2 * p


def _expsin(x, y):
    return np.exp(_sinsin(x, y))


def _expsin_grad(x, y):
    return _expsin(x, y)[..., None] * _sinsin_grad(x, y)


def _expsin_with_lap(x, y):
    s = _sinsin(x, y)
    grad_s = _sinsin_grad(x, y)
    p = np.exp(s)
    return p, p * ((grad_s**2).sum(axis=-1) - 2.0 * np.pi**2 * s)


# name -> (p, grad p, (p, Laplacian of p) from one evaluation of p)
_SOLUTIONS = {
    "sinsin": (_sinsin, _sinsin_grad, _sinsin_with_lap),
    "expsin": (_expsin, _expsin_grad, _expsin_with_lap),
}


def manufactured(name: str = "sinsin") -> ManufacturedProblem:
    """Closed-form problems: ``sinsin`` (default) or ``expsin``.

    With kappa = c = 1: u = -grad p, div u = -lap p, f = div u + p.
    """
    if name not in _SOLUTIONS:
        raise ValueError(f"unknown manufactured problem {name!r}")
    p, grad_p, p_with_lap = _SOLUTIONS[name]

    def u(x, y):
        return -grad_p(x, y)

    def div_u(x, y):
        return -p_with_lap(x, y)[1]

    def f(x, y):
        p_xy, lap = p_with_lap(x, y)
        return p_xy - lap

    one = ScalarField.constant(1.0, name="1")
    return ManufacturedProblem(
        name=name,
        kappa=one,
        c=one,
        mu=one,
        f=ScalarField(f, degree=FIELD_DEGREE, name="f"),
        p0=ScalarField(p, degree=FIELD_DEGREE, name="p0"),
        p=p,
        u=u,
        div_u=div_u,
    )


# ---------------------------------------------------------------------------
# discrete systems
#
# The transmission-constraint row (continuity of normal flux) is
# assembled with a flipped sign relative to the textbook statement, so
# the condensed trace operator A_cc - A_ce A_ee^{-1} A_ec comes out
# symmetric positive definite rather than negative definite.


@dataclass
class HybridizableSystem:
    """Three-field operator/right-hand side with trace boundary data."""

    space: MixedSpace                  # (flux, scalar, trace)
    a: FormIR
    rhs: FormIR
    trace_bcs: Constraints             # on the trace dofs of ``space``

    @property
    def flux_space(self) -> FunctionSpace:
        return self.space.fields[0]

    @property
    def scalar_space(self) -> FunctionSpace:
        return self.space.fields[1]

    @property
    def trace_space(self) -> FunctionSpace:
        return self.space.fields[2]


def hybridize(a_mixed: FormIR, rhs_mixed: FormIR | None = None,
              neumann_flux=None) -> HybridizableSystem:
    """Hybridize a conforming RT(k) x DG(k-1) mixed form.

    The flux space is broken and Trace(k-1) multipliers are added on the
    facets.  Jump couplings enforce normal continuity on interior facets
    and the flux condition on Neumann facets; the traces on Dirichlet
    facets are constrained to zero.  The right-hand side holds the terms
    of ``rhs_mixed`` (if given) and, for a vector callable
    ``neumann_flux`` giving the exact flux, its normal component against
    the trace tests on the Neumann facets.
    """
    fields = a_mixed.test_fields
    if (a_mixed.rank != 2 or len(fields) != 2
            or fields[0].family.kind != "RT" or fields[0].broken
            or fields[1].family.kind != "DG"):
        raise ValueError(
            "hybridization expects a conforming RT x DG bilinear form")
    U, P = fields
    mesh = U.mesh
    M = create_space(mesh, Trace(U.family.degree - 1))
    W = MixedSpace((break_space(U), P, M))
    terms = list(a_mixed.terms)
    for dom, label in [(INTERIOR, None), (EXTERIOR, NEUMANN)]:
        terms.append(IntegralTerm(dom, dot(jump(test(0)), trial(2)), label))
        terms.append(IntegralTerm(dom, -dot(test(2), jump(trial(0))), label))
    rhs_terms = list(rhs_mixed.terms) if rhs_mixed is not None else []
    if neumann_flux is not None:
        flux = dot(vfld(neumann_flux, FIELD_DEGREE), Normal())
        rhs_terms.append(
            IntegralTerm(EXTERIOR, -dot(test(2), flux), NEUMANN))
    bcs = _facet_constraints(M, mesh.facets_with_label(DIRICHLET), 0.0, int(W.offsets[2]))
    return HybridizableSystem(W, FormIR(W, W, terms), FormIR(W, None, rhs_terms), bcs)


def hybridized_mixed_system(mesh: Mesh, prob: ManufacturedProblem,
                            degree: int) -> HybridizableSystem:
    """Hybridized RT(k) x DG(k-1) x Trace(k-1) system: the conforming
    mixed system with its exact flux as Neumann data, hybridized."""
    ms = conforming_mixed_system(mesh, prob, degree)
    return hybridize(ms.a, ms.rhs, prob.u)


def ldgh_system(mesh: Mesh, prob: ManufacturedProblem, degree: int,
                tau: float = 1.0) -> HybridizableSystem:
    """LDG-H system of equal degree k with flux u + tau (p - lambda) n.

    Dirichlet data enters through strong trace constraints (the facet
    L2 projection of p0); the stabilized flux couplings carry tau.
    """
    if tau <= 0.0:
        raise ValueError("the LDG-H stabilization parameter must be positive")
    U = create_space(mesh, VectorDG(degree))
    P = create_space(mesh, DG(degree))
    M = create_space(mesh, Trace(degree))
    W = MixedSpace((U, P, M))
    tau_field = ScalarField.constant(tau, name="tau")
    all_facets = [(INTERIOR, None), (EXTERIOR, None)]
    flux_terms = []
    for dom, label in all_facets:
        flux_terms.append(IntegralTerm(dom, dot(jump(test(0)), trial(2)), label))
        flux_terms.append(IntegralTerm(dom, dot(test(1), jump(trial(0))), label))
        flux_terms.append(IntegralTerm(dom, dot(fld(tau_field), dot(test(1), trial(1))), label))
        flux_terms.append(IntegralTerm(dom, -dot(fld(tau_field), dot(test(1), trial(2))), label))
    a = FormIR(W, W, [
        IntegralTerm(CELL, dot(fld(prob.mu), dot(test(0), trial(0)))),
        IntegralTerm(CELL, -dot(div(test(0)), trial(1))),
        IntegralTerm(CELL, -dot(grad(test(1)), trial(0))),
        IntegralTerm(CELL, dot(fld(prob.c), dot(test(1), trial(1)))),
        *flux_terms,
        # transmission rows on non-Dirichlet facets, sign-flipped
        IntegralTerm(INTERIOR, -dot(test(2), jump(trial(0)))),
        IntegralTerm(EXTERIOR, -dot(test(2), jump(trial(0))), NEUMANN),
        IntegralTerm(INTERIOR, -dot(fld(tau_field), dot(test(2), trial(1)))),
        IntegralTerm(EXTERIOR, -dot(fld(tau_field), dot(test(2), trial(1))), NEUMANN),
        IntegralTerm(INTERIOR, dot(fld(tau_field), dot(test(2), trial(2)))),
        IntegralTerm(EXTERIOR, dot(fld(tau_field), dot(test(2), trial(2))), NEUMANN),
    ])
    rhs = FormIR(W, None, [
        IntegralTerm(CELL, dot(test(1), fld(prob.f))),
        IntegralTerm(EXTERIOR, -dot(test(2), prob.flux_expr()), NEUMANN),
    ])
    dirichlet = mesh.facets_with_label(DIRICHLET)
    bcs = _facet_constraints(M, dirichlet, project_onto_facets(M, dirichlet, prob.p0.fn),
                             int(W.offsets[2]))
    return HybridizableSystem(W, a, rhs, bcs)


@dataclass
class MixedSystem:
    """Conforming RT x DG saddle-point system with strong flux conditions."""

    space: MixedSpace   # (RT conforming, DG)
    a: FormIR
    rhs: FormIR
    flux_bcs: Constraints  # on the flux dofs of ``space``


def conforming_mixed_system(mesh: Mesh, prob: ManufacturedProblem,
                            degree: int) -> MixedSystem:
    U = create_space(mesh, RT(degree))
    P = create_space(mesh, DG(degree - 1))
    W = MixedSpace((U, P))
    a = FormIR(W, W, [
        IntegralTerm(CELL, dot(fld(prob.mu), dot(test(0), trial(0)))),
        IntegralTerm(CELL, -dot(div(test(0)), trial(1))),
        IntegralTerm(CELL, dot(test(1), div(trial(0)))),
        IntegralTerm(CELL, dot(fld(prob.c), dot(test(1), trial(1)))),
    ])
    rhs = FormIR(W, None, [
        IntegralTerm(CELL, dot(test(1), fld(prob.f))),
        IntegralTerm(EXTERIOR, -dot(jump(test(0)), fld(prob.p0)), DIRICHLET),
    ])
    neumann = mesh.facets_with_label(NEUMANN)
    bcs = _facet_constraints(U, neumann, global_edge_moments(U, neumann, prob.u))
    return MixedSystem(W, a, rhs, bcs)


@dataclass
class PrimalSystem:
    space: FunctionSpace
    a: FormIR
    rhs: FormIR
    dirichlet_bcs: Constraints


def primal_cg_system(mesh: Mesh, prob: ManufacturedProblem,
                     degree: int) -> PrimalSystem:
    V = create_space(mesh, CG(degree))
    a = FormIR(V, V, [
        IntegralTerm(CELL, dot(fld(prob.kappa), dot(grad(test()), grad(trial())))),
        IntegralTerm(CELL, dot(fld(prob.c), dot(test(), trial()))),
    ])
    rhs = FormIR(V, None, [
        IntegralTerm(CELL, dot(test(), fld(prob.f))),
        IntegralTerm(EXTERIOR, -dot(test(), prob.flux_expr()), NEUMANN),
    ])
    facets = mesh.facets_with_label(DIRICHLET)
    # interpolate p0 only on the cells that own a Dirichlet facet
    cells = mesh.facet_cells[facets, 0]
    pts = mesh.geometry().physical_points(scalar_element(degree).nodes, cells)
    vals = np.zeros(V.ndof_global)
    vals[V.cell_dofs[cells]] = prob.p0(pts[..., 0], pts[..., 1])
    dofs = cg_boundary_dofs(V, facets)
    return PrimalSystem(V, a, rhs, Constraints(dofs, vals[dofs]))


def _facet_constraints(space: FunctionSpace, facets: np.ndarray, values,
                       offset: int = 0) -> Constraints:
    """Constraints fixing the dofs of ``space`` on ``facets`` to ``values``
    (shaped like their ``facet_dofs``, or one value for all), numbered
    from ``offset``, the start of ``space`` in its system's mixed space."""
    dofs = space.facet_dofs[facets]
    order = np.argsort(dofs, axis=None)
    return Constraints(dofs.ravel()[order] + offset,
                       np.broadcast_to(values, dofs.shape).ravel()[order])


def cg_boundary_dofs(V: FunctionSpace, facets: np.ndarray) -> np.ndarray:
    """Global CG dofs supported on the given facets (vertex + edge dofs)."""
    if V.family.kind != "CG":
        raise ValueError("boundary dof lookup requires a CG space")
    k = V.family.degree
    facets = np.asarray(facets, dtype=np.int64)
    edge = V.mesh.n_vertices + facets[:, None] * (k - 1) + np.arange(k - 1)
    return np.union1d(V.mesh.facet_vertices[facets], edge)
