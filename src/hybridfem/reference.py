"""Reference elements and quadrature on the unit triangle and unit edge.

Basis polynomials are constructed once per (family, degree) in float64,
as in FIAT: the inverse of a monomial Vandermonde matrix at the nodes
(Lagrange) or of the dual matrix of the degrees of freedom (Raviart-
Thomas), cached as monomial coefficient arrays.  The tests check the
coefficients against an exact rational construction.  Tabulation is
plain floating-point polynomial evaluation, done once per element and
point set: the tables are memoized and read-only.  The reference
triangle has vertices (0,0), (1,0), (0,1).

Raviart-Thomas degrees of freedom are edge moments of the normal
component against shifted Legendre polynomials, in each edge's parameter
and against its tangent rotated by -90 degrees (the directions of
``mesh.EDGE_VERTICES``), plus interior moments against [P_{k-2}]^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import permutations
from math import comb, perm

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


# Fully symmetric rules on the reference triangle (area 1/2), as in FIAT,
# keyed by exactness: (centroid weight, S21 orbits (a, w), S111 orbits
# (a, b, w)), w per point.  An S21 orbit is the 3 points with barycentric
# coordinates (a, a, 1-2a), an S111 orbit the 6 permutations of
# (a, b, 1-a-b).  Point counts 1, 3, 6, 7, 12, 15, 16, 19, 25, 28, 33
# for exactness 1, 2, 4-12, the counts of Dunavant (1985).
_TRIANGLE_RULES = {
    1: (0.5, (), ()),
    2: (0.0, (
        (0.16666666666666666, 0.16666666666666666),
    ), ()),
    4: (0.0, (
        (0.091576213509770743, 0.054975871827660935),
        (0.44594849091596489, 0.11169079483900574),
    ), ()),
    5: (0.1125, (
        (0.10128650732345634, 0.06296959027241357),
        (0.47014206410511511, 0.066197076394253096),
    ), ()),
    6: (0.0, (
        (0.063089014491502227, 0.025422453185103409),
        (0.24928674517091043, 0.058393137863189684),
    ), (
        (0.053145049844816945, 0.31035245103378439, 0.041425537809186785),
    )),
    7: (0.0, (
        (0.059442861863342238, 0.022445381297307016),
        (0.18119408081886243, 0.037053730080133761),
        (0.41314854551681801, 0.054269246189586264),
    ), (
        (0.029700174759763602, 0.31288215926627805, 0.026449154549819814),
    )),
    8: (0.072157803838893586, (
        (0.050547228317030977, 0.01622924881159904),
        (0.17056930775176021, 0.051608685267359122),
        (0.45929258829272318, 0.04754581713364231),
    ), (
        (0.0083947774099576052, 0.26311282963463811, 0.013615157087217496),
    )),
    9: (0.048567898141399418, (
        (0.044729513394452712, 0.012788837829349016),
        (0.18820353561903272, 0.039823869463605124),
        (0.43708959149293664, 0.038913770502387139),
        (0.48968251919873762, 0.015667350113569536),
    ), (
        (0.036838412054736286, 0.22196298916076571, 0.021641769688644688),
    )),
    10: (0.040871664573142986, (
        (0.03205537321694351, 0.0066764844065747833),
        (0.14216110105656438, 0.022978981802372365),
    ), (
        (0.028367665339938439, 0.1637017337371825, 0.012648878853644192),
        (0.029619889488729768, 0.36914678182781097, 0.017092324081479714),
        (0.14813288578382056, 0.32181299528883545, 0.031952453198212022),
    )),
    11: (0.040446164551965806, (
        (0.03103141659425156, 0.006200220421100769),
        (0.11417220136343492, 0.020157345579016824),
        (0.21489910931332951, 0.033775132276458883),
        (0.43632452847130249, 0.031271681771683671),
        (0.49920716113052677, 0.0059801804103928246),
    ), (
        (0.014915914855825819, 0.16019321428704703, 0.0074870281139151453),
        (0.047826825695460096, 0.31299430413426593, 0.020412997564764071),
    )),
    12: (0.0, (
        (0.024646363436335594, 0.0039658212549868194),
        (0.1092578276593543, 0.014243026034438772),
        (0.27146250701492608, 0.031270606597951382),
        (0.44011164865859309, 0.024959167464030471),
        (0.48820375094554153, 0.012133419040726016),
    ), (
        (0.021382490256170589, 0.12727971723358936, 0.0075418387882557189),
        (0.023034156355267139, 0.29165567973834094, 0.01089179251930378),
        (0.11629601967792659, 0.25545422863851736, 0.021613681829707104),
    )),
}


@lru_cache(maxsize=None)
def triangle_quadrature(exactness: int) -> QuadratureRule:
    """Smallest tabulated fully symmetric rule of at least ``exactness``;
    its weights are positive and its points interior.

    The orbit parameters solve the moment equations sum w x^i y^j =
    i! j! / (i+j+2)!, i+j <= e, each scaled by its exact value:
    Levenberg-Marquardt from random starts for a chosen orbit structure,
    kept only with relative residual below 1e-12, positive weights and
    positive barycentric coordinates, then Gauss-Newton in 50-digit
    arithmetic.  ``test_triangle_quadrature_exactness`` checks the digits.
    """
    if not 0 <= exactness <= MAX_EXACTNESS:
        raise ValueError(f"unsupported cell quadrature exactness {exactness}")
    centroid, s21, s111 = _TRIANGLE_RULES[min(e for e in _TRIANGLE_RULES if e >= exactness)]
    orbits = ([((1.0 / 3.0,) * 3, centroid)] if centroid else []) + [
        ((a, a, 1.0 - 2.0 * a), w) for a, w in s21] + [((a, b, 1.0 - a - b), w) for a, b, w in s111]
    # each orbit's points are the distinct permutations of its generator;
    # reference coordinates (x, y) are the last two barycentric coordinates
    bary, wts = zip(*[(p, w) for g, w in orbits for p in dict.fromkeys(permutations(g))])
    return QuadratureRule("cell", np.array(bary)[:, 1:], np.array(wts), exactness)


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


def _eval_monomials(exps, pts: np.ndarray, order: tuple[int, int] = (0, 0)) -> np.ndarray:
    """The monomials ``x^i y^j`` of ``exps`` at ``pts``, or their
    derivatives of ``order`` (in x, in y), one column each."""
    x, y = pts[:, 0], pts[:, 1]
    dx, dy = order
    cols = [perm(i, dx) * perm(j, dy) * x ** (i - dx) * y ** (j - dy)
            if i >= dx and j >= dy else np.zeros(len(pts)) for (i, j) in exps]
    return np.stack(cols, axis=-1)


def _memoized(tabulation):
    """A tabulation memoized per element and point set, and read-only."""
    @wraps(tabulation)
    def memo(self, points):
        points = np.asarray(points, dtype=float)
        key = (tabulation.__name__, points.shape, points.tobytes())
        tables = vars(self).setdefault("_tables", {})  # elements are frozen
        if key not in tables:
            tables[key] = tabulation(self, points)
            tables[key].flags.writeable = False
        return tables[key]
    return memo


def _check_inside_triangle(points: np.ndarray, tol: float = 1e-12) -> None:
    x, y = points[:, 0], points[:, 1]
    if np.any(x < -tol) or np.any(y < -tol) or np.any(x + y > 1.0 + tol):
        raise ValueError("tabulation points outside the reference triangle")


# reference triangle vertices and edge parameterizations
TRI_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def edge_points(local_edge: int, t: np.ndarray) -> np.ndarray:
    """Reference coordinates along local edge ``local_edge`` at params ``t``, memoized."""
    return _edge_points(local_edge, np.asarray(t, dtype=float).tobytes())


@lru_cache(maxsize=None)
def _edge_points(local_edge: int, t: bytes) -> np.ndarray:
    from .mesh import EDGE_VERTICES

    pa, pb = TRI_VERTICES[list(EDGE_VERTICES[local_edge])]
    pts = pa[None, :] + np.frombuffer(t)[:, None] * (pb - pa)[None, :]
    pts.flags.writeable = False
    return pts


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

    @property
    def n_dofs(self) -> int:
        return self.nodes.shape[0]

    @_memoized
    def tabulate(self, points: np.ndarray) -> np.ndarray:
        _check_inside_triangle(points)
        return _eval_monomials(self.exponents, points) @ self.coeffs

    @_memoized
    def tabulate_grad(self, points: np.ndarray) -> np.ndarray:
        _check_inside_triangle(points)
        gx = _eval_monomials(self.exponents, points, (1, 0)) @ self.coeffs
        gy = _eval_monomials(self.exponents, points, (0, 1)) @ self.coeffs
        return np.stack([gx, gy], axis=-1)  # (nq, nd, 2)


def _lagrange_nodes(degree: int) -> np.ndarray:
    from .mesh import EDGE_VERTICES

    if degree == 0:
        return np.array([[1.0 / 3.0, 1.0 / 3.0]])
    nodes = [TRI_VERTICES[i] for i in range(3)]
    for a, b in EDGE_VERTICES:
        for m in range(1, degree):
            t = m / degree
            nodes.append(TRI_VERTICES[a] * (1 - t) + TRI_VERTICES[b] * t)
    for j in range(1, degree):
        for i in range(1, degree - j):
            nodes.append(np.array([i / degree, j / degree]))
    return np.asarray(nodes)


@lru_cache(maxsize=None)
def scalar_element(degree: int) -> ScalarElement:
    if not 0 <= degree <= 5:
        raise ValueError(f"unsupported Lagrange degree {degree}")
    nodes = _lagrange_nodes(degree)
    exps = monomial_exponents(degree)
    # coeffs[a, i] with sum_a coeffs[a, i] * mono_a(node_n) = delta_{ni}
    coeffs = np.linalg.inv(_eval_monomials(exps, nodes))
    return ScalarElement(degree, nodes, coeffs, exps)


# ---------------------------------------------------------------------------
# Raviart-Thomas elements


@dataclass(frozen=True)
class RTElement:
    """RT(k) on the reference triangle, k >= 1, local dimension k*(k+2).

    Dof ordering: for each local edge l in 0..2 the k Legendre moments
    j = 0..k-1 (in the edge parameter, against the scaled normal that is
    the tangent rotated by -90 degrees), then k*(k-1) interior moments.
    """

    degree: int
    coeffs: np.ndarray   # (n_mono, nd, 2)
    exponents: tuple[tuple[int, int], ...]

    @property
    def n_dofs(self) -> int:
        return self.degree * (self.degree + 2)

    @_memoized
    def tabulate(self, points: np.ndarray) -> np.ndarray:
        _check_inside_triangle(points)
        mono = _eval_monomials(self.exponents, points)
        return np.einsum("qa,aid->qid", mono, self.coeffs)

    @_memoized
    def tabulate_div(self, points: np.ndarray) -> np.ndarray:
        _check_inside_triangle(points)
        dx = _eval_monomials(self.exponents, points, (1, 0))
        dy = _eval_monomials(self.exponents, points, (0, 1))
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
    # edge moments against shifted Legendre in the edge parameter, scaled
    # normal the tangent rotated by -90 degrees
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

    @_memoized
    def tabulate(self, t: np.ndarray) -> np.ndarray:
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
