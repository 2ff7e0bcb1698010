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

Everything here sits on one share inversion per gamma. `evaluate` inverts
once and returns a MomentEvaluation that serves the residuals, per-market
scores, score, Omega and Jacobian at that point. An `Evaluator` does the
same inside one estimator call: it inverts each distinct gamma once and
warm-starts each inversion from a nearby point's delta. The moment
functions (`score`, `omega`, ...) take an Evaluator as evals, and without
one they invert afresh on every call.
"""

from __future__ import annotations

import numpy as np

from .model_core import Dataset, Theta, group_index_matrix
from .quadrature import QuadratureRule
from .shares import (
    InversionError,
    InversionInfo,
    InversionOptions,
    _invert_batch,
    _node_shares,
    _share_jacobian,
)


class MomentEvaluation:
    """The moment system at one theta, from one share inversion at theta.gamma.

    delta and the Jacobian depend on gamma alone, and the per-market scores
    F are linear in beta at fixed delta, so `at_beta` moves beta without
    inverting again; evaluations made that way share the inversion's
    InversionInfo (info) and its Jacobian. xi and F are recomputed on
    access, so a held evaluation keeps little more than delta.
    """

    def __init__(self, dataset: Dataset, theta: Theta, rule: QuadratureRule,
                 delta: np.ndarray, info: InversionInfo):
        self.dataset, self.theta, self.rule = dataset, theta, rule
        self.delta, self.info = delta, info
        self._shared: dict[str, np.ndarray] = {}  # gamma-only values, shared by at_beta

    def at_beta(self, beta: np.ndarray) -> "MomentEvaluation":
        """The evaluation at (beta, self.theta.gamma), from the same inversion."""
        ev = MomentEvaluation(self.dataset, Theta(beta=beta, gamma=self.theta.gamma),
                              self.rule, self.delta, self.info)
        ev._shared = self._shared
        return ev

    @property
    def xi(self) -> np.ndarray:
        return self.delta - self.dataset.X @ self.theta.beta

    @property
    def F(self) -> np.ndarray:
        # entry (j, k) of market i sits at index j*K + k of row i
        return (self.xi[:, :, None] * self.dataset.H).reshape(self.dataset.n, -1)

    def score(self) -> np.ndarray:
        return self.F.mean(axis=0)

    def omega(self) -> np.ndarray:
        F = self.F
        return F.T @ F / self.dataset.n

    def jacobian(self) -> np.ndarray:
        if "jacobian" not in self._shared:
            nu = group_index_matrix(self.dataset.X, self.theta.gamma, self.dataset.config)
            self._shared["jacobian"] = _jacobian(self.dataset, self.delta, nu, self.rule)
        return self._shared["jacobian"]


def evaluate(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
    start: np.ndarray | None = None,
) -> MomentEvaluation:
    """Invert the shares once at theta.gamma (from start, if given) and
    return the moment system there."""
    nu = group_index_matrix(dataset.X, theta.gamma, dataset.config)
    delta, info = _invert_batch(dataset.S, nu, rule, opts or InversionOptions(), start)
    return MomentEvaluation(dataset, theta, rule, delta, info)


class Evaluator:
    """Moment evaluations within one estimator call.

    Each distinct gamma is inverted once: a later evaluation at the same
    gamma reuses that inversion (a failed one raises its InversionError
    again). A new inversion starts from the delta of the nearest gamma
    already inverted (Euclidean distance), which in an SLP run is usually
    the current iterate or an earlier trial point around it, and from the
    logit closed form when there is none. inversions, contraction_iters and
    newton_iters count the inversions run, failed ones included. Create one
    per call and pass it to the moment functions as evals; it keeps every
    inverted delta until it is dropped.
    """

    def __init__(self, dataset: Dataset, rule: QuadratureRule,
                 opts: InversionOptions | None = None):
        self.dataset, self.rule, self.opts = dataset, rule, opts
        self._by_gamma: dict[bytes, MomentEvaluation | InversionError] = {}
        self.inversions = self.contraction_iters = self.newton_iters = 0

    def __call__(self, theta: Theta) -> MomentEvaluation:
        key = (theta.gamma + 0.0).tobytes()  # + 0.0 folds -0.0 into 0.0
        hit = self._by_gamma.get(key)
        if hit is None:
            hit = self._by_gamma[key] = self._invert(theta)
        if isinstance(hit, InversionError):
            raise hit
        if np.array_equal(hit.theta.beta, theta.beta):
            return hit
        return hit.at_beta(theta.beta)

    def _invert(self, theta: Theta) -> MomentEvaluation | InversionError:
        inverted = [ev for ev in self._by_gamma.values() if isinstance(ev, MomentEvaluation)]
        start = None
        if inverted:
            dist = [np.linalg.norm(ev.theta.gamma - theta.gamma) for ev in inverted]
            start = inverted[int(np.argmin(dist))].delta
        own = Theta(beta=theta.beta.copy(), gamma=theta.gamma.copy())  # callers reuse arrays
        try:
            out = evaluate(self.dataset, own, self.rule, self.opts, start)
        except InversionError as exc:
            out = exc
        self.inversions += 1
        self.contraction_iters += out.info.iterations
        self.newton_iters += out.info.newton_iterations
        return out


def _evaluation(dataset, theta, rule, opts, evals: Evaluator | None) -> MomentEvaluation:
    return evaluate(dataset, theta, rule, opts) if evals is None else evals(theta)


def xi_residuals(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
) -> np.ndarray:
    """Structural residuals xi for every market, shape (n, J)."""
    return evaluate(dataset, theta, rule, opts).xi


def per_market_scores(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
    evals: Evaluator | None = None,
) -> np.ndarray:
    """Per-market moment contributions f_i, shape (n, J*K).

    Entry (j, k) of market i sits at index j*K + k (0-based), matching the
    stacked score layout. Here and below, evals (an Evaluator on the same
    dataset, rule and options) supplies the evaluation; without it the
    shares are inverted afresh.
    """
    return _evaluation(dataset, theta, rule, opts, evals).F


def score(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
    evals: Evaluator | None = None,
) -> np.ndarray:
    """Stacked moment vector f_hat(theta), length J*K."""
    return _evaluation(dataset, theta, rule, opts, evals).score()


def omega(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
    evals: Evaluator | None = None,
) -> np.ndarray:
    """Uncentered second-moment matrix (1/n) sum_i f_i f_i', shape (JK, JK)."""
    return _evaluation(dataset, theta, rule, opts, evals).omega()


def jacobian_theta(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
    evals: Evaluator | None = None,
) -> np.ndarray:
    """Analytic Jacobian of the score in theta, shape (JK, 2L).

    Columns 0..L-1 differentiate in beta, columns L..2L-1 in gamma. At
    gamma = 0 the gamma block vanishes: its integrand is odd in the taste
    draw and every supported rule integrates odd monomials to zero.
    """
    return _evaluation(dataset, theta, rule, opts, evals).jacobian()


def _jacobian(dataset: Dataset, delta: np.ndarray, nu: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """jacobian_theta at the inverted delta (n, J) and group indices nu."""
    config = dataset.config
    X, H = dataset.X, dataset.H
    n, J, L = X.shape
    K = config.K

    # beta block: -(1/n) sum_i h_ijk x_ijl, constant in theta
    beta_block = -np.einsum("ijk,ijl->jkl", H, X) / n

    # gamma block via the implicit function theorem
    ns = _node_shares(delta, nu, rule.nodes)  # (n, M, J)
    D = _share_jacobian(ns, rule)  # (n, J, J)
    # ds/dgamma_l: T[i, j, l]
    gidx = np.asarray(config.partition) - 1  # group column for each attribute
    wnode = rule.weights[:, None] * rule.nodes[:, gidx]  # (M, L)
    cross = np.matmul(ns, X)  # (n, M, L): sum_j' s_j' x_j'l per node
    ns_t = ns.transpose(0, 2, 1)  # (n, J, M)
    T = X * np.matmul(ns_t, wnode) - np.matmul(ns_t, wnode * cross)
    ddelta_dgamma = -np.linalg.solve(D, T)  # (n, J, L)
    gamma_block = np.einsum("ijk,ijl->jkl", H, ddelta_dgamma) / n

    out = np.empty((J * K, 2 * L))
    out[:, :L] = beta_block.reshape(J * K, L)
    out[:, L:] = gamma_block.reshape(J * K, L)
    return out
