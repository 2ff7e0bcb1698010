"""Integration rules over the G-dimensional standard-normal taste distribution.

A single rule object is built once per estimation problem and reused for every
share, Jacobian, and moment evaluation so that simulated and estimated shares
see identical integration error (common random numbers in the Monte Carlo
case). There are two rules: gauss_hermite_rule, a tensor product with the
caller's node count per dimension, refused by check_rule_size above
MAX_NODES_PER_DIM nodes per dimension or MAX_TENSOR_NODES nodes in all, and
monte_carlo_rule, seeded iid draws, the rule for a G too large for a tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# numpy's hermgauss(n) solves an n x n eigenproblem (n^2 memory, n^3 time)
# and is documented as tested only up to degree 100
MAX_NODES_PER_DIM = 100
MAX_TENSOR_NODES = 1_000_000
QUAD_NODES = 9  # nodes per dimension: the default of McConfig.quad_nodes and --quad-nodes


class RuleSizeError(ValueError):
    """Tensor-product rule would exceed the node budget."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (M x G) and nonnegative weights (M,) for E[f(beta_tilde)]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.ndim != 1 or nodes.shape[0] != weights.size:
            raise ValueError(
                f"nodes {nodes.shape} and weights {weights.shape} do not conform"
            )
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def check_rule_size(G: int, nodes_per_dim: int) -> int:
    """The node count of the tensor Gauss-Hermite rule with nodes_per_dim
    nodes in each of G dimensions. Raises RuleSizeError above
    MAX_NODES_PER_DIM nodes per dimension, or above MAX_TENSOR_NODES nodes
    in all, naming the most nodes per dimension that fit at this G."""
    if nodes_per_dim > MAX_NODES_PER_DIM:
        raise RuleSizeError(f"{nodes_per_dim} nodes per dimension exceeds {MAX_NODES_PER_DIM}")
    m = nodes_per_dim**G
    if m > MAX_TENSOR_NODES:
        fits = nodes_per_dim - 1
        while fits**G > MAX_TENSOR_NODES:  # integers, so no root's rounding decides
            fits -= 1
        raise RuleSizeError(
            f"{nodes_per_dim}**{G} = {m} nodes exceeds {MAX_TENSOR_NODES}; "
            f"use at most {fits} nodes per dimension at G = {G}"
        )
    return m


def gauss_hermite_rule(G: int, nodes_per_dim: int) -> QuadratureRule:
    """Tensor-product Gauss-Hermite rule for N(0, I_G).

    Exact for polynomial integrands of total degree up to 2*nodes_per_dim - 1
    in each coordinate. The tensor grid has nodes_per_dim**G points; sizes
    check_rule_size refuses raise RuleSizeError.
    """
    if G <= 0 or nodes_per_dim <= 0:
        raise ValueError("G and nodes_per_dim must be positive")
    m = check_rule_size(G, nodes_per_dim)
    # physicists' rule: integral of f(x) exp(-x^2); rescale to N(0,1)
    x, w = np.polynomial.hermite.hermgauss(nodes_per_dim)
    points = x * np.sqrt(2.0)
    weights1d = w / np.sqrt(np.pi)
    grids = np.meshgrid(*([points] * G), indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([weights1d] * G), indexing="ij")
    weights = np.ones(m)
    for wg in wgrids:
        weights = weights * wg.ravel()
    return QuadratureRule(nodes=nodes, weights=weights)


def monte_carlo_rule(G: int, draws: int, seed: int) -> QuadratureRule:
    """Equal-weight iid standard-normal draws from a PCG64 stream."""
    if G <= 0 or draws <= 0:
        raise ValueError("G and draws must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes = rng.standard_normal((draws, G))
    weights = np.full(draws, 1.0 / draws)
    return QuadratureRule(nodes=nodes, weights=weights)

