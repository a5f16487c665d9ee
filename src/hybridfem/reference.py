"""Reference elements and quadrature on the unit triangle and unit edge.

Basis polynomials are constructed once per (family, degree) in float64,
as in FIAT: the inverse of a monomial Vandermonde matrix at the nodes
(Lagrange) or of the dual matrix of the degrees of freedom (Raviart-
Thomas), cached as monomial coefficient arrays.  The tests check the
coefficients against an exact rational construction.  Tabulation is
plain floating-point polynomial evaluation.  The reference triangle has
vertices (0,0), (1,0), (0,1).

Raviart-Thomas degrees of freedom are edge moments against shifted
Legendre polynomials plus interior moments against [P_{k-2}]^2.  Shifted
Legendre moments flip by (-1)^j under reversal of the edge parameter,
which reduces all inter-cell orientation handling to diagonal signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

MAX_EXACTNESS = 12


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight rule exact for polynomials up to ``exactness``."""

    kind: str            # "cell" or "edge"
    points: np.ndarray   # (nq, 2) reference coords, or (nq,) edge params
    weights: np.ndarray  # (nq,)
    exactness: int


def _gauss01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def edge_quadrature(exactness: int) -> QuadratureRule:
    if not 0 <= exactness <= MAX_EXACTNESS:
        raise ValueError(f"unsupported edge quadrature exactness {exactness}")
    npts = (exactness + 2) // 2
    t, w = _gauss01(max(npts, 1))
    return QuadratureRule("edge", t, w, exactness)


@lru_cache(maxsize=None)
def triangle_quadrature(exactness: int) -> QuadratureRule:
    """Duffy (collapsed Gauss) rule on the reference triangle."""
    if not 0 <= exactness <= MAX_EXACTNESS:
        raise ValueError(f"unsupported cell quadrature exactness {exactness}")
    # x = u*(1-v), y = v with Jacobian (1-v): u needs degree d, v degree d+1
    mu = max((exactness + 2) // 2, 1)
    mv = max((exactness + 3) // 2, 1)
    u, wu = _gauss01(mu)
    v, wv = _gauss01(mv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([(uu * (1.0 - vv)).ravel(), vv.ravel()])
    wts = (np.outer(wu, wv) * (1.0 - vv)).ravel()
    return QuadratureRule("cell", pts, wts, exactness)


def quadrature(kind: str, exactness: int) -> QuadratureRule:
    """Quadrature rule of the requested kind and polynomial exactness."""
    if kind == "cell":
        return triangle_quadrature(exactness)
    if kind == "edge":
        return edge_quadrature(exactness)
    raise ValueError(f"unknown quadrature kind {kind!r}")


# ---------------------------------------------------------------------------
# monomial machinery


def monomial_exponents(degree: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, d - i) for d in range(degree + 1) for i in range(d, -1, -1))


def _eval_monomials(exps, pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    cols = [x**i * y**j for (i, j) in exps]
    return np.stack(cols, axis=-1)


def _eval_monomials_dx(exps, pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    cols = [i * x ** max(i - 1, 0) * y**j if i > 0 else np.zeros(len(pts)) for (i, j) in exps]
    return np.stack(cols, axis=-1)


def _eval_monomials_dy(exps, pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    cols = [j * x**i * y ** max(j - 1, 0) if j > 0 else np.zeros(len(pts)) for (i, j) in exps]
    return np.stack(cols, axis=-1)


def _check_inside_triangle(points: np.ndarray, tol: float = 1e-12) -> None:
    x, y = points[:, 0], points[:, 1]
    if np.any(x < -tol) or np.any(y < -tol) or np.any(x + y > 1.0 + tol):
        raise ValueError("tabulation points outside the reference triangle")


# reference triangle vertices and ccw edge parameterizations
TRI_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def edge_points(local_edge: int, t: np.ndarray) -> np.ndarray:
    """Reference coordinates along local edge ``local_edge`` at params ``t``."""
    from .mesh import EDGE_VERTICES

    a, b = EDGE_VERTICES[local_edge]
    pa, pb = TRI_VERTICES[a], TRI_VERTICES[b]
    return pa[None, :] + np.asarray(t)[:, None] * (pb - pa)[None, :]


@lru_cache(maxsize=None)
def _shifted_legendre_coeffs(degree: int) -> np.ndarray:
    """Coefficient matrix of shifted Legendre P~_0..P~_degree in powers of t."""
    # t^m in P_j(2t - 1) has the integer coefficient (-1)^(j+m) C(j, m) C(j+m, m)
    return np.array([[(-1) ** (j + m) * comb(j, m) * comb(j + m, m)
                      for j in range(degree + 1)] for m in range(degree + 1)], dtype=float)


def shifted_legendre(degree: int, t: np.ndarray) -> np.ndarray:
    """Values of shifted Legendre polynomials 0..degree at params in [0,1]."""
    t = np.asarray(t, dtype=float)
    powers = np.stack([t**p for p in range(degree + 1)], axis=-1)
    return powers @ _shifted_legendre_coeffs(degree)


# ---------------------------------------------------------------------------
# scalar Lagrange elements (shared by CG and DG)


@dataclass(frozen=True)
class ScalarElement:
    degree: int
    nodes: np.ndarray          # (nd, 2)
    coeffs: np.ndarray         # (n_mono, nd): basis_i = sum_a coeffs[a,i] * mono_a
    exponents: tuple[tuple[int, int], ...]
    n_vertex_dofs: int         # 3 for degree >= 1, else 0
    n_edge_dofs: int           # per edge
    n_interior_dofs: int

    @property
    def n_dofs(self) -> int:
        return self.nodes.shape[0]

    def tabulate(self, points: np.ndarray) -> np.ndarray:
        _check_inside_triangle(points)
        return _eval_monomials(self.exponents, points) @ self.coeffs

    def tabulate_grad(self, points: np.ndarray) -> np.ndarray:
        _check_inside_triangle(points)
        gx = _eval_monomials_dx(self.exponents, points) @ self.coeffs
        gy = _eval_monomials_dy(self.exponents, points) @ self.coeffs
        return np.stack([gx, gy], axis=-1)  # (nq, nd, 2)


def _lagrange_nodes(degree: int) -> tuple[np.ndarray, int, int, int]:
    from .mesh import EDGE_VERTICES

    if degree == 0:
        return np.array([[1.0 / 3.0, 1.0 / 3.0]]), 0, 0, 1
    nodes = [TRI_VERTICES[i] for i in range(3)]
    for a, b in EDGE_VERTICES:
        for m in range(1, degree):
            t = m / degree
            nodes.append(TRI_VERTICES[a] * (1 - t) + TRI_VERTICES[b] * t)
    n_int = 0
    for j in range(1, degree):
        for i in range(1, degree - j):
            nodes.append(np.array([i / degree, j / degree]))
            n_int += 1
    return np.asarray(nodes), 3, degree - 1, n_int


@lru_cache(maxsize=None)
def scalar_element(degree: int) -> ScalarElement:
    if not 0 <= degree <= 5:
        raise ValueError(f"unsupported Lagrange degree {degree}")
    nodes, nv, ne, ni = _lagrange_nodes(degree)
    exps = monomial_exponents(degree)
    # coeffs[a, i] with sum_a coeffs[a, i] * mono_a(node_n) = delta_{ni}
    coeffs = np.linalg.inv(_eval_monomials(exps, nodes))
    return ScalarElement(degree, nodes, coeffs, exps, nv, ne, ni)


# ---------------------------------------------------------------------------
# Raviart-Thomas elements


@dataclass(frozen=True)
class RTElement:
    """RT(k) on the reference triangle, k >= 1, local dimension k*(k+2).

    Dof ordering: for each local edge l in 0..2 the k Legendre moments
    j = 0..k-1 (in the ccw edge parameter against the outward scaled
    normal), then k*(k-1) interior moments.
    """

    degree: int
    coeffs: np.ndarray   # (n_mono, nd, 2)
    exponents: tuple[tuple[int, int], ...]

    @property
    def n_dofs(self) -> int:
        return self.degree * (self.degree + 2)

    @property
    def n_edge_dofs(self) -> int:
        return self.degree

    @property
    def n_interior_dofs(self) -> int:
        return self.degree * (self.degree - 1)

    def tabulate(self, points: np.ndarray) -> np.ndarray:
        _check_inside_triangle(points)
        mono = _eval_monomials(self.exponents, points)
        return np.einsum("qa,aid->qid", mono, self.coeffs)

    def tabulate_div(self, points: np.ndarray) -> np.ndarray:
        _check_inside_triangle(points)
        dx = _eval_monomials_dx(self.exponents, points)
        dy = _eval_monomials_dy(self.exponents, points)
        return dx @ self.coeffs[:, :, 0] + dy @ self.coeffs[:, :, 1]


def _rt_candidates(k: int) -> np.ndarray:
    """Spanning set of [P_{k-1}]^2 + x * homogeneous P_{k-1}, as
    coefficients (n_mono(k), nd, 2) in the degree-k monomials."""
    index = {e: a for a, e in enumerate(monomial_exponents(k))}
    low = monomial_exponents(k - 1)
    cands = np.zeros((len(index), k * (k + 2), 2))
    for c, e in enumerate(low):
        cands[index[e], c, 0] = 1.0
        cands[index[e], len(low) + c, 1] = 1.0
    for i in range(k):
        c = 2 * len(low) + i
        cands[index[(i + 1, k - 1 - i)], c, 0] = 1.0
        cands[index[(i, k - i)], c, 1] = 1.0
    return cands


@lru_cache(maxsize=None)
def rt_element(degree: int) -> RTElement:
    from .mesh import EDGE_VERTICES

    if not 1 <= degree <= 3:
        raise ValueError(f"unsupported Raviart-Thomas degree {degree}")
    k = degree
    exps = monomial_exponents(k)
    cands = _rt_candidates(k)
    nd = k * (k + 2)

    # both rules are exact for the moment integrands (degree 2k-1 on
    # edges, 2k-2 in the interior)
    rows = []
    edge = edge_quadrature(2 * k)
    leg = shifted_legendre(k - 1, edge.points)
    # edge moments against shifted Legendre, ccw parameter, outward scaled
    # normal (the tangent rotated by -90 degrees)
    for loc, (a, b) in enumerate(EDGE_VERTICES):
        tx, ty = TRI_VERTICES[b] - TRI_VERTICES[a]
        mono = _eval_monomials(exps, edge_points(loc, edge.points))
        flux = np.einsum("qa,acd,d->qc", mono, cands, [ty, -tx])
        rows.append(np.einsum("q,qj,qc->jc", edge.weights, leg, flux))
    # interior moments against [P_{k-2}]^2
    if k >= 2:
        cell = triangle_quadrature(2 * k)
        vals = np.einsum("qa,acd->qcd", _eval_monomials(exps, cell.points), cands)
        test = _eval_monomials(monomial_exponents(k - 2), cell.points)
        rows.append(np.einsum("q,qm,qcd->mdc", cell.weights, test, vals).reshape(-1, nd))

    alpha = np.linalg.inv(np.concatenate(rows))  # basis_j = sum_c alpha[c, j] * cand_c
    return RTElement(k, np.einsum("acd,cj->ajd", cands, alpha), exps)


# ---------------------------------------------------------------------------
# facet (trace) elements: Lagrange on the unit interval


@dataclass(frozen=True)
class LineElement:
    degree: int
    nodes: np.ndarray   # (k+1,)
    coeffs: np.ndarray  # (k+1, k+1): basis_i = sum_a coeffs[a, i] * t^a

    @property
    def n_dofs(self) -> int:
        return self.degree + 1

    def tabulate(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
            raise ValueError("tabulation points outside the reference edge")
        powers = np.stack([t**p for p in range(self.degree + 1)], axis=-1)
        return powers @ self.coeffs


@lru_cache(maxsize=None)
def line_element(degree: int) -> LineElement:
    if not 0 <= degree <= 4:
        raise ValueError(f"unsupported trace degree {degree}")
    nodes = np.array([0.5]) if degree == 0 else np.arange(degree + 1) / degree
    coeffs = np.linalg.inv(nodes[:, None] ** np.arange(degree + 1))
    return LineElement(degree, nodes, coeffs)
