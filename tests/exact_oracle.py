"""Exact rational reference elements and symbolic manufactured data.

An independent oracle for the float64 constructions in
``hybridfem.reference`` and the closed-form fields in
``hybridfem.problems``: bases come from exact inverses of sympy
matrices, forcing terms from symbolic differentiation.  Only the tests
import this module, so sympy is a test dependency.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import sympy as sp

from hybridfem.mesh import EDGE_VERTICES
from hybridfem.reference import monomial_exponents

_x, _y, _t = sp.symbols("x y t")
_TRI_VERTICES = ((sp.Integer(0), sp.Integer(0)),
                 (sp.Integer(1), sp.Integer(0)),
                 (sp.Integer(0), sp.Integer(1)))


def _to_float(m: sp.Matrix) -> np.ndarray:
    return np.array(m.tolist(), dtype=float)


@lru_cache(maxsize=None)
def shifted_legendre_coeffs(degree: int) -> np.ndarray:
    """(degree+1, degree+1): column j holds P_j(2t - 1) in powers of t."""
    coeffs = np.zeros((degree + 1, degree + 1))
    for j in range(degree + 1):
        poly = sp.Poly(sp.legendre(j, 2 * _t - 1), _t)
        for mono, c in zip(poly.monoms(), poly.coeffs()):
            coeffs[mono[0], j] = float(c)
    return coeffs


def _lagrange_nodes(degree: int):
    if degree == 0:
        return [(sp.Rational(1, 3), sp.Rational(1, 3))]
    verts = _TRI_VERTICES
    nodes = list(verts)
    for a, b in EDGE_VERTICES:
        for m in range(1, degree):
            t = sp.Rational(m, degree)
            nodes.append((verts[a][0] * (1 - t) + verts[b][0] * t,
                          verts[a][1] * (1 - t) + verts[b][1] * t))
    for j in range(1, degree):
        for i in range(1, degree - j):
            nodes.append((sp.Rational(i, degree), sp.Rational(j, degree)))
    return nodes


@lru_cache(maxsize=None)
def scalar_coeffs(degree: int) -> np.ndarray:
    """Monomial coefficients (n_mono, nd) of the Lagrange basis."""
    exps = monomial_exponents(degree)
    vand = sp.Matrix([[px**i * py**j for (i, j) in exps]
                      for (px, py) in _lagrange_nodes(degree)])
    return _to_float(vand.inv())


@lru_cache(maxsize=None)
def line_coeffs(degree: int) -> np.ndarray:
    """Coefficients (k+1, k+1) of the Lagrange basis on [0, 1] in powers of t."""
    if degree == 0:
        nodes = [sp.Rational(1, 2)]
    else:
        nodes = [sp.Rational(m, degree) for m in range(degree + 1)]
    vand = sp.Matrix([[t**a for a in range(degree + 1)] for t in nodes])
    return _to_float(vand.inv())


def _rt_candidates(k: int):
    """Symbolic spanning set of [P_{k-1}]^2 + x * homogeneous P_{k-1}."""
    cands = []
    for i, j in monomial_exponents(k - 1):
        cands.append((_x**i * _y**j, sp.Integer(0)))
    for i, j in monomial_exponents(k - 1):
        cands.append((sp.Integer(0), _x**i * _y**j))
    for i in range(k):
        m = _x**i * _y ** (k - 1 - i)
        cands.append((_x * m, _y * m))
    return cands


def _tri_integral(expr):
    return sp.integrate(sp.integrate(expr, (_x, 0, 1 - _y)), (_y, 0, 1))


@lru_cache(maxsize=None)
def rt_coeffs(k: int) -> np.ndarray:
    """Monomial coefficients (n_mono, nd, 2) of the RT(k) basis dual to
    edge Legendre moments and interior [P_{k-2}]^2 moments."""
    cands = _rt_candidates(k)
    nd = k * (k + 2)
    legendre = [sp.expand(sp.legendre(j, 2 * _t - 1)) for j in range(k)]
    rows = []
    for a, b in EDGE_VERTICES:
        (ax, ay), (bx, by) = _TRI_VERTICES[a], _TRI_VERTICES[b]
        tx, ty = bx - ax, by - ay
        nx, ny = ty, -tx
        px, py = ax + _t * tx, ay + _t * ty
        for j in range(k):
            row = []
            for vx, vy in cands:
                vn = vx.subs({_x: px, _y: py}) * nx + vy.subs({_x: px, _y: py}) * ny
                row.append(sp.integrate(sp.expand(vn * legendre[j]), (_t, 0, 1)))
            rows.append(row)
    for i, j in (monomial_exponents(k - 2) if k >= 2 else ()):
        for comp in (0, 1):
            rows.append([_tri_integral((vx if comp == 0 else vy) * _x**i * _y**j)
                         for vx, vy in cands])
    alpha = sp.Matrix(rows).inv()

    exps = monomial_exponents(k)
    index = {e: a for a, e in enumerate(exps)}
    coeffs = [[[sp.Integer(0)] * 2 for _ in range(nd)] for _ in exps]
    for cidx, cand in enumerate(cands):
        for comp, v in enumerate(cand):
            poly = sp.Poly(v, _x, _y)
            if poly.is_zero:
                continue
            for mono, c in zip(poly.monoms(), poly.coeffs()):
                for jdof in range(nd):
                    coeffs[index[mono]][jdof][comp] += c * alpha[cidx, jdof]
    return np.array([[[float(v) for v in d] for d in a] for a in coeffs])


def manufactured_fields(name: str) -> dict:
    """Numpy callables for p, u, div_u, f and p0 derived symbolically,
    with kappa = c = 1."""
    if name == "sinsin":
        p = sp.sin(sp.pi * _x) * sp.sin(sp.pi * _y)
    elif name == "expsin":
        p = sp.exp(sp.sin(sp.pi * _x) * sp.sin(sp.pi * _y))
    else:
        raise ValueError(name)
    ux, uy = -sp.diff(p, _x), -sp.diff(p, _y)
    div_u = sp.diff(ux, _x) + sp.diff(uy, _y)
    fns = {key: sp.lambdify((_x, _y), expr, modules="numpy")
           for key, expr in (("p", p), ("ux", ux), ("uy", uy),
                             ("div_u", div_u), ("f", div_u + p))}
    ux_fn, uy_fn = fns.pop("ux"), fns.pop("uy")
    fns["u"] = lambda x, y: np.stack(np.broadcast_arrays(ux_fn(x, y), uy_fn(x, y)), axis=-1)
    fns["p0"] = fns["p"]
    return fns
