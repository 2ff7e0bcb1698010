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
finite differences of the score are the arbiter in the tests. The SLP's
Newton steps need the gamma-gamma Hessian of a weighted score as well;
Evaluator.gamma_hessian differentiates the same identity once more, from a
kept delta and without an inversion.

Everything here sits on one share inversion per gamma, and an `Evaluator`
is the one way to it. Within one estimator call it inverts each distinct
gamma once and keeps that inversion's MomentEvaluation (or its failure). Of
Jacobians it keeps one, at its anchor. Each new inversion starts from a
nearby point's delta, moved along d delta / d gamma when that point is the
anchor. The moment functions (`score`, `omega`, ...)
take an Evaluator as evals; without one, each call makes a fresh Evaluator
and so inverts afresh.
"""

from __future__ import annotations

import numpy as np

from .model_core import Dataset, RunStats, Theta, group_index_matrix
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
    """The moment system at theta, from one share inversion at theta.gamma:
    its mean utilities delta (n, J) and the inversion's InversionInfo (info).

    The per-market scores F are linear in beta at fixed delta, so an
    Evaluator serves another beta at the same gamma from the same delta and
    info. xi and F are recomputed on access, so a held evaluation keeps
    little more than delta. The Jacobian depends on gamma alone; ask the
    Evaluator for it.
    """

    def __init__(self, dataset: Dataset, theta: Theta, delta: np.ndarray, info: InversionInfo):
        self.dataset, self.theta, self.delta, self.info = dataset, theta, delta, info

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


class Evaluator:
    """Moment evaluations within one estimator call.

    It keeps one record per distinct gamma: the MomentEvaluation of its one
    inversion, served at any beta, or the failure, raised afresh each time
    (a raised error's traceback would hold the Evaluator).

    Its one derivative record is the anchor: the last gamma whose Jacobian
    was computed here, with that Jacobian and the d delta / d gamma (n, J,
    L), node shares and share Jacobian built with it (gamma_hessian reads
    them). Elsewhere the derivatives are computed afresh, and the point
    becomes the anchor. No evaluation refers back to its Evaluator.

    A new inversion starts from the delta of the nearest gamma inverted
    without failure (Euclidean distance; ties go to the earliest), which in
    an SLP run is usually the current iterate or an earlier trial point
    around it, and from start, an (n, J) delta, or else the logit closed
    form when there is none. When that nearest point is the anchor, the
    start is the first-order prediction delta + (d delta / d gamma)(gamma -
    gamma_anchor). A start that is not a finite (n, J) array raises
    ValueError here.

    stats, the call's RunStats, counts every inversion run here, failed ones
    included, and its iterations; the estimator adds its LP and step counts
    to the same record. Create one per call and pass it to the moment
    functions as evals; it keeps every inverted delta until it is dropped.
    opts defaults to InversionOptions().
    """

    def __init__(self, dataset: Dataset, rule: QuadratureRule,
                 opts: InversionOptions | None = None, start: np.ndarray | None = None):
        if start is not None and (np.shape(start) != dataset.S.shape or not np.isfinite(start).all()):
            raise ValueError(f"start must be a finite {dataset.S.shape} delta, got shape {np.shape(start)}")
        self.dataset, self.rule, self.start = dataset, rule, start
        self.opts = InversionOptions() if opts is None else opts
        self._by_gamma: dict[bytes, MomentEvaluation | InversionError] = {}
        # (evaluation, Jacobian, d delta / d gamma, node shares, D) at the anchor
        self._anchor: tuple | None = None
        self.stats = RunStats()

    def __call__(self, theta: Theta) -> MomentEvaluation:
        hit = self._record(_key(theta.gamma), theta)
        if np.array_equal(hit.theta.beta, theta.beta):
            return hit
        return MomentEvaluation(self.dataset, Theta(beta=theta.beta, gamma=hit.theta.gamma),
                                hit.delta, hit.info)

    def delta(self, gamma: np.ndarray) -> np.ndarray | None:
        """The delta inverted here at gamma, or None; never inverts."""
        hit = self._by_gamma.get(_key(gamma))
        return hit.delta if isinstance(hit, MomentEvaluation) else None

    def jacobian(self, theta: Theta) -> np.ndarray:
        """The Jacobian at theta, the anchor's when theta.gamma is the
        anchor."""
        return self._derivatives(theta)[0]

    def gamma_hessian(self, theta: Theta, w: np.ndarray, coords: np.ndarray,
                      U: np.ndarray) -> np.ndarray:
        """The gamma-gamma Hessian of w'f_hat at theta on the gamma
        coordinates coords, applied to the directions U (len(coords), r),
        for weights w on the JK moments. Exact, from the delta kept at
        theta.gamma: it inverts only where none is kept, and takes d delta /
        d gamma, the node shares and D as jacobian(theta) takes the
        Jacobian.

        Along gamma directions a and b, node m moves each utility u_j by
        p_j = (delta'a)_j + sum_l x_jl a_l node_m,g(l), and by q_j for b.
        Differentiating s(delta(gamma), gamma) = S twice gives D delta''[a, b]
        = -T2[a, b], with D the share Jacobian and T2_j the node-weighted sum
        of the logit's second derivative, s_j [(p_j - s'p)(q_j - s'q) -
        sum_k s_k p_k q_k + (s'p)(s'q)]. f_hat is linear in delta, so the
        Hessian of w'f_hat is (1/n) sum_i (H_i w)'delta_i'' = -(1/n) sum_i
        zeta_i'T2_i, with zeta = D^{-1} H w (D is symmetric). Per node,
        zeta'T2 = sum_j b_j p_j q_j - (s'q)(b'p) - (s'p)(b'q), with b_j =
        s_j (zeta_j - s'zeta). Along coords, p is an (n, M, J, c) array, and
        the sums are two gemms, over its n M J rows and over the n M nodes.
        """
        data, rule, c = self.dataset, self.rule, len(coords)
        _, ddelta, ns, D = self._derivatives(theta)
        Hw = np.einsum("ijk,jk->ij", data.H, w.reshape(data.config.J, data.config.K))
        zeta = np.linalg.solve(D, Hw[:, :, None])  # (n, J, 1)
        b = ns * (zeta[:, None, :, 0] - np.matmul(ns, zeta)) * rule.weights[:, None]  # (n, M, J)
        nodes = rule.nodes[:, np.asarray(data.config.partition)[coords] - 1]  # (M, c)
        P = data.X[:, None, :, coords] * nodes[:, None] + ddelta[:, None, :, coords]  # (n, M, J, c)
        cross = np.matmul(ns[:, :, None], P).reshape(-1, c).T @ np.matmul(b[:, :, None], P).reshape(-1, c)
        hess = P.reshape(-1, c).T @ (b[..., None] * P).reshape(-1, c) - cross - cross.T
        return hess @ U / -data.n

    def _derivatives(self, theta: Theta) -> tuple:
        """_jacobian's four arrays at theta.gamma: the anchor's, or computed
        here, which makes theta.gamma the anchor."""
        hit = self._record(_key(theta.gamma), theta)
        if self._anchor is None or self._anchor[0] is not hit:
            nu = group_index_matrix(self.dataset.X, hit.theta.gamma, self.dataset.config)
            self._anchor = (hit, *_jacobian(self.dataset, hit.delta, nu, self.rule))
        return self._anchor[1:]

    def _record(self, key: bytes, theta: Theta) -> MomentEvaluation:
        """The evaluation kept at theta.gamma (key), inverting there first if
        need be; raises its failure afresh."""
        hit = self._by_gamma.get(key)
        if hit is None:
            hit = self._by_gamma[key] = self._invert(theta)
        if isinstance(hit, InversionError):
            raise InversionError(str(hit), hit.info)
        return hit

    def _invert(self, theta: Theta) -> MomentEvaluation | InversionError:
        start = self.start
        pool = [ev for ev in self._by_gamma.values() if isinstance(ev, MomentEvaluation)]
        if pool:
            d = np.asarray([ev.theta.gamma for ev in pool]) - theta.gamma
            nearest = pool[int(np.argmin(np.einsum("ij,ij->i", d, d)))]
            start = nearest.delta
            if self._anchor is not None and self._anchor[0] is nearest:
                start = start + self._anchor[2] @ (theta.gamma - nearest.theta.gamma)
        own = Theta(beta=theta.beta.copy(), gamma=theta.gamma.copy())  # callers reuse arrays
        nu = group_index_matrix(self.dataset.X, own.gamma, self.dataset.config)
        try:
            delta, info = _invert_batch(self.dataset.S, nu, self.rule, self.opts, start)
        except InversionError as exc:
            # kept unraised: a raised error's traceback would hold this frame
            info = exc.info
            out = InversionError(str(exc), info)
        else:
            out = MomentEvaluation(self.dataset, own, delta, info)
        self.stats.inversions += 1
        self.stats.contraction_iters += info.iterations
        self.stats.newton_iters += info.newton_iterations
        return out


def _key(gamma: np.ndarray) -> bytes:
    return (gamma + 0.0).tobytes()  # + 0.0 folds -0.0 into 0.0


def _evaluator(dataset, rule, opts, evals: Evaluator | None) -> Evaluator:
    return Evaluator(dataset, rule, opts) if evals is None else evals


def score(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
    evals: Evaluator | None = None,
) -> np.ndarray:
    """Stacked moment vector f_hat(theta), length J*K.

    Here and below, evals (an Evaluator on the same dataset, rule and
    options) supplies the evaluation; without it a fresh Evaluator inverts
    the shares afresh.
    """
    return _evaluator(dataset, rule, opts, evals)(theta).score()


def omega(
    dataset: Dataset,
    theta: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
    evals: Evaluator | None = None,
) -> np.ndarray:
    """Uncentered second-moment matrix (1/n) sum_i f_i f_i', shape (JK, JK)."""
    return _evaluator(dataset, rule, opts, evals)(theta).omega()


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
    return _evaluator(dataset, rule, opts, evals).jacobian(theta)


def _jacobian(dataset: Dataset, delta: np.ndarray, nu: np.ndarray,
              rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """jacobian_theta at the inverted delta (n, J) and group indices nu,
    d delta / d gamma there, shape (n, J, L), and the node shares (n, M, J)
    and share Jacobian D (n, J, J) it was built from.

    Sums over markets run as one matmul per product, (K, n) @ (n, L), and
    the node-weighted node shares as one (J n, M) @ (M, L) gemm on the
    product-major (J, n, M) array that _node_shares builds.
    """
    config = dataset.config
    X, H = dataset.X, dataset.H
    n, J, L = X.shape
    K = config.K
    H_pm, X_pm = H.transpose(1, 2, 0), X.transpose(1, 0, 2)  # (J, K, n), (J, n, L)

    # beta block: -(1/n) sum_i h_ijk x_ijl, constant in theta
    beta_block = -np.matmul(H_pm, X_pm) / n

    # gamma block via the implicit function theorem
    ns = _node_shares(delta, nu, rule.nodes)  # (n, M, J)
    D = _share_jacobian(ns, rule)  # (n, J, J)
    # ds/dgamma_l: T[i, j, l]
    gidx = np.asarray(config.partition) - 1  # group column for each attribute
    wnode = rule.weights[:, None] * rule.nodes[:, gidx]  # (M, L)
    product_major = ns.transpose(2, 0, 1).reshape(J * n, -1)  # (J n, M)
    weighted = (product_major @ wnode).reshape(J, n, L).transpose(1, 0, 2)  # (n, J, L)
    # in place: the Evaluator keeps one d delta / d gamma beside these
    cross = np.matmul(ns, X)  # (n, M, L): sum_j' s_j' x_j'l per node
    cross *= wnode
    T = X * weighted
    T -= np.matmul(ns.transpose(0, 2, 1), cross)
    ddelta_dgamma = np.linalg.solve(D, T)  # (n, J, L)
    ddelta_dgamma *= -1.0
    gamma_block = np.matmul(H_pm, ddelta_dgamma.transpose(1, 0, 2)) / n

    out = np.empty((J * K, 2 * L))
    out[:, :L] = beta_block.reshape(J * K, L)
    out[:, L:] = gamma_block.reshape(J * K, L)
    return out, ddelta_dgamma, ns, D
