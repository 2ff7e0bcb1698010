"""GMM moment system built on the inverted demand residuals.

For market i the structural residual is xi_i(theta) = delta_i(gamma) - X_i beta,
where delta_i(gamma) inverts the observed shares at the loading weights gamma.
The score stacks f_hat[(j-1)K + k] = (1/n) sum_i xi_ij h_ijk over products j
and instrument transforms k (identity weighting throughout).

The Jacobian in theta is analytic. The beta block is the linear term
-(1/n) sum_i h_ijk x_ijl. The gamma block differentiates through the share
inversion with the implicit function theorem:

    d delta / d gamma_l = -(ds/ddelta)^{-1} ds/dgamma_l,
    ds_j/dgamma_l = integral of bt_{g(l)} s_j (x_jl - sum_j' s_j' x_j'l) dF,

so the sign convention is fixed by the residual definition above; central
finite differences of the score are the arbiter in the tests.
"""

from __future__ import annotations

import numpy as np

from .model_core import Dataset, Theta, group_index_matrix
from .quadrature import QuadratureRule
from .shares import InversionOptions, _invert_batch, _node_shares, _share_jacobian


def _invert_dataset(dataset: Dataset, gamma: np.ndarray, rule: QuadratureRule, opts):
    """Mean utilities delta (n, J) at loading weights gamma, and the group indices nu."""
    nu = group_index_matrix(dataset.X, gamma, dataset.config)
    delta, _ = _invert_batch(dataset.S, nu, rule, opts or InversionOptions())
    return delta, nu


def xi_residuals(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
) -> np.ndarray:
    """Structural residuals xi for every market, shape (n, J)."""
    delta, _ = _invert_dataset(dataset, theta.gamma, rule, opts)
    return delta - dataset.X @ theta.beta


def per_market_scores(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
) -> np.ndarray:
    """Per-market moment contributions f_i, shape (n, J*K).

    Entry (j, k) of market i sits at index j*K + k (0-based), matching the
    stacked score layout.
    """
    xi = xi_residuals(dataset, theta, rule, opts)
    return (xi[:, :, None] * dataset.H).reshape(dataset.n, -1)


def score(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
) -> np.ndarray:
    """Stacked moment vector f_hat(theta), length J*K."""
    return per_market_scores(dataset, theta, rule, opts).mean(axis=0)


def omega(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
) -> np.ndarray:
    """Uncentered second-moment matrix (1/n) sum_i f_i f_i', shape (JK, JK)."""
    F = per_market_scores(dataset, theta, rule, opts)
    return F.T @ F / dataset.n


def jacobian_theta(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
) -> np.ndarray:
    """Analytic Jacobian of the score in theta, shape (JK, 2L).

    Columns 0..L-1 differentiate in beta, columns L..2L-1 in gamma. At
    gamma = 0 the gamma block vanishes: its integrand is odd in the taste
    draw and every supported rule integrates odd monomials to zero.
    """
    config = dataset.config
    X, H = dataset.X, dataset.H
    n, J, L = X.shape
    K = config.K
    delta, nu = _invert_dataset(dataset, theta.gamma, rule, opts)

    # beta block: -(1/n) sum_i h_ijk x_ijl, constant in theta
    beta_block = -np.einsum("ijk,ijl->jkl", H, X) / n

    # gamma block via the implicit function theorem
    ns = _node_shares(delta, nu, rule.nodes)  # (n, M, J)
    D = _share_jacobian(ns, rule)  # (n, J, J)
    # ds/dgamma_l: T[i, j, l]
    gidx = np.asarray(config.partition) - 1  # group column for each attribute
    wnode = rule.weights[:, None] * rule.nodes[:, gidx]  # (M, L)
    cross = np.einsum("imj,ijl->iml", ns, X)  # sum_j' s_j' x_j'l per node
    T = X * np.einsum("ml,imj->ijl", wnode, ns) - np.einsum("ml,imj,iml->ijl", wnode, ns, cross)
    ddelta_dgamma = -np.linalg.solve(D, T)  # (n, J, L)
    gamma_block = np.einsum("ijk,ijl->jkl", H, ddelta_dgamma) / n

    out = np.empty((J * K, 2 * L))
    out[:, :L] = beta_block.reshape(J * K, L)
    out[:, L:] = gamma_block.reshape(J * K, L)
    return out
