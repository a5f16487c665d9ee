import itertools
import math

import numpy as np
import pytest

import exact_oracle
from hybridfem import quadrature
from hybridfem.mesh import EDGE_OUTWARD
from hybridfem.reference import (
    _shifted_legendre_coeffs,
    edge_points,
    edge_quadrature,
    line_element,
    rt_element,
    scalar_element,
    shifted_legendre,
    triangle_quadrature,
)


def assert_relative(actual, exact, rtol):
    assert actual.shape == exact.shape
    assert np.abs(actual - exact).max() <= rtol * np.abs(exact).max()


@pytest.mark.parametrize("degree", range(6))
def test_scalar_element_matches_exact_oracle(degree):
    assert_relative(scalar_element(degree).coeffs, exact_oracle.scalar_coeffs(degree), 1e-13)


@pytest.mark.parametrize("degree", range(5))
def test_line_element_matches_exact_oracle(degree):
    assert_relative(line_element(degree).coeffs, exact_oracle.line_coeffs(degree), 1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rt_element_matches_exact_oracle(k):
    assert_relative(rt_element(k).coeffs, exact_oracle.rt_coeffs(k), 1e-13)


def test_shifted_legendre_coefficients_are_exact():
    for degree in range(6):
        np.testing.assert_array_equal(_shifted_legendre_coeffs(degree),
                                      exact_oracle.shifted_legendre_coeffs(degree))


def exact_triangle_monomial(a: int, b: int) -> float:
    # int_T x^a y^b over the reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("exactness", range(0, 13))
def test_triangle_quadrature_exactness(exactness):
    rule = triangle_quadrature(exactness)
    assert (rule.weights > 0).all()
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    for a in range(exactness + 1):
        for b in range(exactness + 1 - a):
            val = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            exact = exact_triangle_monomial(a, b)
            assert abs(val - exact) <= 1e-14 * exact, (a, b)


# points per tabulated rule, by requested exactness 0..12
TRIANGLE_RULE_POINTS = (1, 1, 3, 6, 6, 7, 12, 15, 16, 19, 25, 28, 33)


@pytest.mark.parametrize("exactness", range(0, 13))
def test_triangle_quadrature_symmetric_interior(exactness):
    rule = triangle_quadrature(exactness)
    assert len(rule.weights) == TRIANGLE_RULE_POINTS[exactness]
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])
    assert bary.min() > 0.0
    # every vertex permutation maps each point onto a point of equal weight
    for perm in itertools.permutations(range(3)):
        dist = np.linalg.norm(bary[:, None, :] - bary[None, :, perm], axis=-1)
        image = dist.argmin(axis=0)
        assert dist.min(axis=0).max() < 1e-15
        np.testing.assert_array_equal(np.sort(image), np.arange(len(bary)))
        np.testing.assert_array_equal(rule.weights[image], rule.weights)


def test_triangle_quadrature_x2y2():
    rule = triangle_quadrature(4)
    val = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
    assert abs(val - 1.0 / 180.0) < 1e-15


@pytest.mark.parametrize("exactness", range(0, 13))
def test_edge_quadrature_exactness(exactness):
    rule = edge_quadrature(exactness)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for a in range(exactness + 1):
        val = np.sum(rule.weights * rule.points**a)
        assert abs(val - 1.0 / (a + 1)) < 1e-14


def test_edge_cubic():
    rule = quadrature("edge", 3)
    assert abs(np.sum(rule.weights * rule.points**3) - 0.25) < 1e-15


def test_quadrature_rejects_unsupported():
    with pytest.raises(ValueError):
        quadrature("cell", 13)
    with pytest.raises(ValueError):
        quadrature("volume", 2)


def test_cg1_kronecker_at_vertices():
    el = scalar_element(1)
    vals = el.tabulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(vals, np.eye(3), atol=1e-14)


def test_dg0_constant():
    el = scalar_element(0)
    vals = el.tabulate(np.array([[0.1, 0.3], [0.5, 0.2]]))
    np.testing.assert_allclose(vals, 1.0, atol=1e-15)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_partition_of_unity(degree):
    el = scalar_element(degree)
    rng = np.random.default_rng(7)
    u = rng.random((40, 2))
    pts = np.column_stack([u[:, 0] * (1 - u[:, 1]), u[:, 1]])
    vals = el.tabulate(pts)
    np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    grads = el.tabulate_grad(pts)
    np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_lagrange_kronecker(degree):
    el = scalar_element(degree)
    vals = el.tabulate(el.nodes)
    np.testing.assert_allclose(vals, np.eye(el.n_dofs), atol=1e-12)


def test_points_outside_rejected():
    el = scalar_element(1)
    with pytest.raises(ValueError):
        el.tabulate(np.array([[0.7, 0.7]]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rt_moment_kronecker(k):
    """Edge moments of the RT basis against Legendre are Kronecker deltas."""
    el = rt_element(k)
    rule = edge_quadrature(2 * k + 2)
    leg = shifted_legendre(k - 1, rule.points)
    n_scaled = _rotated_tangents()
    for loc in range(3):
        pts = edge_points(loc, rule.points)
        vals = el.tabulate(pts)  # (nq, nd, 2)
        flux = vals @ n_scaled[loc]
        for j in range(k):
            moments = np.einsum("q,qi->i", rule.weights * leg[:, j], flux)
            expected = np.zeros(el.n_dofs)
            expected[loc * k + j] = 1.0
            np.testing.assert_allclose(moments, expected, atol=1e-12)


def _rotated_tangents():
    """Per local edge, the edge's tangent rotated by -90 degrees, against
    which the RT moments are taken: the scaled outward normal of the
    reference triangle times ``EDGE_OUTWARD``."""
    outward = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return np.array(EDGE_OUTWARD)[:, None] * outward


def test_rt1_constant_flux_per_edge():
    el = rt_element(1)
    rule = edge_quadrature(4)
    n_scaled = _rotated_tangents()
    for loc in range(3):
        pts = edge_points(loc, rule.points)
        flux = el.tabulate(pts) @ n_scaled[loc]
        for i in range(3):
            expected = 1.0 if i == loc else 0.0
            np.testing.assert_allclose(flux[:, i], expected, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rt_divergence_consistency(k):
    """Divergence tabulation matches a central finite difference."""
    el = rt_element(k)
    pts = np.array([[0.25, 0.25], [0.4, 0.1], [0.1, 0.5]])
    h = 1e-6
    div_fd = (
        el.tabulate(pts + [h, 0.0])[:, :, 0] - el.tabulate(pts - [h, 0.0])[:, :, 0]
        + el.tabulate(pts + [0.0, h])[:, :, 1] - el.tabulate(pts - [0.0, h])[:, :, 1]
    ) / (2 * h)
    np.testing.assert_allclose(el.tabulate_div(pts), div_fd, atol=1e-6)


def test_line_element_kronecker():
    for k in range(4):
        el = line_element(k)
        np.testing.assert_allclose(el.tabulate(el.nodes), np.eye(k + 1), atol=1e-13)


def test_shifted_legendre_parity_and_orthogonality():
    rule = edge_quadrature(8)
    leg = shifted_legendre(3, rule.points)
    leg_rev = shifted_legendre(3, 1.0 - rule.points)
    for j in range(4):
        np.testing.assert_allclose(leg_rev[:, j], (-1.0) ** j * leg[:, j], atol=1e-13)
    gram = np.einsum("q,qi,qj->ij", rule.weights, leg, leg)
    np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-14)
