import numpy as np
import pytest
from hypothesis import given, strategies as st

from semperf.basis import (
    build_gll_basis,
    gll_nodes_weights,
    lagrange_diff_matrix,
)


def test_degree_two_closed_form():
    basis = build_gll_basis(2)
    assert np.allclose(basis.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(basis.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)


def test_degree_three_closed_form():
    basis = build_gll_basis(3)
    r = 1 / np.sqrt(5)
    assert np.allclose(basis.nodes, [-1.0, -r, r, 1.0], atol=1e-14)


def test_degree_below_two_rejected():
    with pytest.raises(ValueError, match="interior node"):
        build_gll_basis(1)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 12, 16, 24, 32, 64])
def test_node_and_weight_structure(n):
    basis = build_gll_basis(n)
    x, w = basis.nodes, basis.weights
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)
    assert np.allclose(x, -x[::-1], atol=0)  # antisymmetric exactly
    assert np.all(w > 0)
    assert np.allclose(w, w[::-1], atol=0)
    assert abs(w.sum() - 2.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_quadrature_exact_to_2n_minus_1(n):
    x, w = gll_nodes_weights(n)
    for k in range(2 * n):
        approx = float(w @ x**k)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(approx - exact) <= 1e-11 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_quadrature_not_exact_at_2n(n):
    x, w = gll_nodes_weights(n)
    k = 2 * n
    approx = float(w @ x**k)
    exact = 2.0 / (k + 1)
    assert abs(approx - exact) > 1e-6


@given(
    n=st.integers(min_value=2, max_value=10),
    coeffs=st.lists(
        st.floats(min_value=-10, max_value=10), min_size=1, max_size=8
    ),
)
def test_quadrature_exact_on_random_polynomials(n, coeffs):
    # restrict the polynomial to degree <= 2n - 1
    coeffs = coeffs[: 2 * n]
    x, w = gll_nodes_weights(n)
    poly = np.polynomial.Polynomial(coeffs)
    approx = float(w @ poly(x))
    exact = float(poly.integ()(1.0) - poly.integ()(-1.0))
    assert abs(approx - exact) <= 1e-11 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_diff_matrix_rows_sum_to_zero(n):
    basis = build_gll_basis(n)
    assert np.abs(basis.diff_matrix.sum(axis=1)).max() < 1e-10


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_diff_matrix_exact_on_monomials(n):
    basis = build_gll_basis(n)
    x = basis.nodes
    for k in range(n + 1):
        expect = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
        got = basis.diff_matrix @ x**k
        assert np.abs(got - expect).max() < 1e-9


def test_diff_matrix_generic_nodes():
    # barycentric construction is not GLL-specific
    nodes = np.array([-1.0, -0.3, 0.2, 0.9])
    d = lagrange_diff_matrix(nodes)
    for k in range(4):
        expect = k * nodes ** (k - 1) if k > 0 else np.zeros(4)
        assert np.allclose(d @ nodes**k, expect, atol=1e-12)

