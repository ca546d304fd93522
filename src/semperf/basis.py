"""Gauss-Lobatto-Legendre reference basis on [-1, 1].

The element grid uses the degree-N GLL points, interval endpoints included.
"""

from dataclasses import dataclass, field

import numpy as np

NEWTON_TOL = 1e-14
NEWTON_MAX_ITERS = 100


def _legendre_pair(n, x):
    """Evaluate (L_n, L_{n-1}) at x via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = np.asarray(x, dtype=float).copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p, p_prev


def gll_nodes_weights(n):
    """Degree-n GLL rule: n+1 nodes (roots of (1-x^2) L'_n) and weights.

    Nodes are found by Newton iteration on q(x) = x L_n(x) - L_{n-1}(x),
    which shares its roots with (1-x^2) L'_n(x) and has the exact derivative
    q'(x) = (n+1) L_n(x).  Chebyshev-Lobatto points seed the iteration.
    Weights are 2 / (n (n+1) L_n(x_i)^2).
    """
    if n < 2:
        raise ValueError(
            f"GLL degree must be >= 2 (got {n}): the rule needs at least "
            "one interior node"
        )
    x = np.cos(np.pi * np.arange(n, -1, -1) / n)
    for _ in range(NEWTON_MAX_ITERS):
        ln, lnm1 = _legendre_pair(n, x)
        dx = (x * ln - lnm1) / ((n + 1) * ln)
        x -= dx
        if np.max(np.abs(dx)) <= NEWTON_TOL:
            break
    # pin the endpoints and symmetrize so the grid is antisymmetric in
    # exact arithmetic, not just to solver tolerance
    x[0], x[-1] = -1.0, 1.0
    x = 0.5 * (x - x[::-1])
    ln, _ = _legendre_pair(n, x)
    w = 2.0 / (n * (n + 1) * ln**2)
    w = 0.5 * (w + w[::-1])
    return x, w


def lagrange_diff_matrix(nodes):
    """First-derivative collocation matrix for the Lagrange basis on nodes.

    D[i, j] = l_j'(x_i), built from barycentric weights; the diagonal uses
    the negative row-sum so every row sums to zero exactly (a constant has
    zero derivative by construction).
    """
    x = np.asarray(nodes, dtype=float)
    n = x.size
    diffs = x[:, None] - x[None, :]
    np.fill_diagonal(diffs, 1.0)
    bary = 1.0 / np.prod(diffs, axis=1)
    d = np.empty((n, n))
    for i in range(n):
        d[i, :] = bary / bary[i] / diffs[i, :]
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


@dataclass(frozen=True)
class SpectralBasis:
    """Degree-N GLL collocation basis: nodes, quadrature weights, D matrix."""

    degree: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    diff_matrix: np.ndarray = field(repr=False)

    @property
    def n_points(self):
        return self.degree + 1


def build_gll_basis(n):
    """Construct the degree-n GLL basis (nodes, weights, derivative matrix)."""
    nodes, weights = gll_nodes_weights(n)
    return SpectralBasis(
        degree=n,
        nodes=nodes,
        weights=weights,
        diff_matrix=lagrange_diff_matrix(nodes),
    )
