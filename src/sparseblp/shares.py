"""Market share integrals and the share inversion.

Conditional on a taste draw beta_tilde, choice probabilities follow a logit
over J inside goods plus an outside good with utility 0. Mixed shares
integrate the conditional shares over beta_tilde ~ N(0, I_G) with a
QuadratureRule. The inversion recovers the mean-utility vector delta from
observed shares by damped Newton steps on log s(delta) = log S, from a start
that is the logit closed form or a caller's delta at a nearby parameter
point. A market whose full Newton step does not lower its sup-norm residual
halves the step, and falls back to one step of the classic contraction
delta <- delta + log S - log s(delta) when halving does not help either, so
the iteration cannot stall where plain Newton overshoots.

All kernels subtract the running utility maximum (including the outside
good's 0) before exponentiating, so share evaluations never overflow and
inside shares can only degrade to exact 0.0 under extreme utilities, never
to NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .model_core import ConfigurationError
from .quadrature import QuadratureRule

_LOG_FLOOR = 1e-300  # keeps log() finite if a share underflows to 0
_MAX_HALVINGS = 8  # damped Newton: step halvings before the contraction fallback
MAX_NEWTON_PASSES = 60  # damped Newton passes, contraction fallbacks included
CONTRACTION_TOL = 1e-13  # every inversion stops at this sup-norm residual


@dataclass(frozen=True)
class InversionOptions:
    """Stopping rule for the share inversion.

    contraction_tol, the module constant CONTRACTION_TOL, applies to the sup
    norm of log S - log s(delta) in every market; it stays tight because loose
    inner tolerances bias BLP estimates (Dube, Fox & Su 2012). The damped
    Newton passes are bounded by MAX_NEWTON_PASSES. Neither is settable.
    """

    contraction_tol: ClassVar[float] = CONTRACTION_TOL


@dataclass
class InversionInfo:
    """newton_iterations counts the Newton passes; iterations counts those in
    which some market fell back to a contraction step. A returned inversion
    has converged; one that did not raises InversionError."""

    iterations: int
    newton_iterations: int
    max_residual: float


class InversionError(RuntimeError):
    """Share inversion failed to reach tolerance; info is the failed
    attempt's InversionInfo, whose max_residual is the final residual."""

    def __init__(self, message: str, info: InversionInfo):
        super().__init__(message)
        self.info = info


# ---------------------------------------------------------------------------
# Kernels. Markets are stacked on a leading axis: delta (n, J), group
# indices nu (n, J, G), node shares (n, M, J). The node shares are computed
# product-major, as (J, n, M), and every kernel reads them in that layout.
# ---------------------------------------------------------------------------


def _node_shares(delta: np.ndarray, nu: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Conditional shares at every node: (n, M, J) from delta (n, J), nu (n, J, G).

    Built in place as a (J, n, M) array, so the max and sum over products
    run elementwise across J slices, not over a short last axis; the
    result is its (n, M, J) transposed view.
    """
    # utilities u[j, i, m] = delta[i, j] + sum_g nu[i, j, g] * node[m, g]
    u = np.matmul(nu.transpose(1, 0, 2), nodes.T)
    u += delta.T[:, :, None]
    # outside good contributes utility 0, so the stabilizer must be >= 0
    umax = np.maximum(u.max(axis=0), 0.0)
    u -= umax
    np.exp(u, out=u)
    u /= np.exp(-umax) + u.sum(axis=0)
    return u.transpose(1, 2, 0)


def _mixed_shares(delta, nu, rule):
    return _mixed_from_node_shares(_node_shares(delta, nu, rule.nodes), rule)


def _mixed_from_node_shares(node_shares, rule):
    return np.matmul(node_shares.transpose(2, 0, 1), rule.weights).T


def _share_jacobian(node_shares: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """d s_j / d delta_j' for each market: (n, J, J).

    Integrates diag(s) - s s' over nodes, reading each market's (J, M)
    block from the product-major layout; the result is symmetric with
    positive diagonal and strictly positive row sums whenever the outside
    share is interior.
    """
    w = rule.weights
    per_market = node_shares.transpose(0, 2, 1)  # (n, J, M)
    sbar = np.matmul(per_market, w)
    jac = -np.matmul(per_market * w, node_shares)
    ii = np.arange(node_shares.shape[2])
    jac[:, ii, ii] += sbar
    return jac


def logit_delta(S: np.ndarray) -> np.ndarray:
    """Plain-logit mean utilities delta_j = log S_j - log S_0 along the last axis.

    Exact inversion when gamma = 0, and the inversion's starting point otherwise.
    """
    S = np.asarray(S, dtype=float)
    s0 = 1.0 - S.sum(axis=-1, keepdims=True)
    return np.log(S) - np.log(s0)


def _invert_batch(
    S: np.ndarray,
    nu: np.ndarray,
    rule: QuadratureRule,
    opts: InversionOptions,
    start: np.ndarray | None = None,
):
    """Solve s(delta) = S for delta in every market, on stacked arrays.

    start is the first iterate, (n, J); the default is the logit closed form
    log S - log S_0, which is already exact when gamma = 0. A caller that
    has delta at a nearby parameter point passes it here (a warm start).
    Residuals are the sup norm of log S - log s(delta) per market. Every
    market above contraction_tol takes a Newton step with the share
    Jacobian, halved up to _MAX_HALVINGS times until it lowers the market's
    residual, else replaced by one contraction step; markets already within
    contraction_tol are left alone. Each iterate's node shares serve both
    its residual and its Newton Jacobian, so k passes, none halved, make
    1 + k _node_shares calls. Returns (delta, info); if some market misses
    contraction_tol within MAX_NEWTON_PASSES passes, InversionError is
    raised.
    """
    if np.any(S <= 0.0) or np.any(S.sum(axis=-1) >= 1.0):
        raise ConfigurationError("observed shares must be interior: S_j > 0, sum_j S_j < 1")
    log_target = np.log(S)
    delta = logit_delta(S) if start is None else np.array(start, dtype=float)
    # node shares at each market's last residual evaluation, product-major (J, n, M)
    node = np.empty((S.shape[1], S.shape[0], rule.nodes.shape[0]))

    def residual(d, idx):
        ns = _node_shares(d, nu[idx], rule.nodes)
        node[:, idx] = ns.transpose(2, 0, 1)
        s = np.maximum(_mixed_from_node_shares(ns, rule), _LOG_FLOOR)
        return log_target[idx] - np.log(s)

    def sup(r):
        return np.abs(r).max(axis=1)

    resid = residual(delta, slice(None))
    rmax = sup(resid)
    fallbacks = newton_iters = 0
    while newton_iters < MAX_NEWTON_PASSES and np.any(rmax > opts.contraction_tol):
        act = np.flatnonzero(rmax > opts.contraction_tol)
        d, r, rm = delta[act], resid[act], rmax[act]
        ns = node[:, act].transpose(1, 2, 0)  # kept by the evaluation that gave r
        sbar = np.maximum(_mixed_from_node_shares(ns, rule), _LOG_FLOOR)
        jac = _share_jacobian(ns, rule) / sbar[:, :, None]  # d log s / d delta
        try:
            step = np.linalg.solve(jac, r[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = r  # fall back to a contraction step
        # damping: the steps 1, 1/2, ..., 1/2^_MAX_HALVINGS of the Newton
        # step, then one contraction step; a market tries the next only
        # where the last did not lower its residual (NaN counts as not
        # lower), and every market still halving shares one length. Each
        # try moves its markets to its candidates.
        worse = np.empty(act.size, dtype=bool)
        w = slice(None)  # the markets that try the next step: first all of them
        for k in range(_MAX_HALVINGS + 2):
            fallback = k > _MAX_HALVINGS
            tried = act[w]
            cand = d[w] + (r[w] if fallback else 0.5**k * step[w])
            cand_r = residual(cand, tried)
            cand_rm = sup(cand_r)
            delta[tried], resid[tried], rmax[tried] = cand, cand_r, cand_rm
            worse[w] = ~(cand_rm < rm[w])
            fallbacks += fallback
            w = np.flatnonzero(worse)
            if not w.size:
                break
        newton_iters += 1

    max_resid = float(rmax.max())
    info = InversionInfo(
        iterations=fallbacks,
        newton_iterations=newton_iters,
        max_residual=max_resid,
    )
    if not max_resid <= opts.contraction_tol:
        worst = int(rmax.argmax())
        raise InversionError(
            f"share inversion stalled at market {worst}: residual {max_resid:.3e} "
            f"after {newton_iters} Newton iterations, {fallbacks} with contraction fallbacks "
            f"(tolerance {opts.contraction_tol:.1e})",
            info,
        )
    return delta, info
