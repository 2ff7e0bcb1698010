"""Market share integrals and the share inversion.

Conditional on a taste draw beta_tilde, choice probabilities follow a logit
over J inside goods plus an outside good with utility 0. Mixed shares
integrate the conditional shares over beta_tilde ~ N(0, I_G) with a
QuadratureRule. The inversion recovers the mean-utility vector delta from
observed shares by the classic contraction delta <- delta + log S - log s(delta),
switching to Newton steps once the residual is small.

All kernels subtract the running utility maximum (including the outside
good's 0) before exponentiating, so share evaluations never overflow and
inside shares can only degrade to exact 0.0 under extreme utilities, never
to NaN.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model_core import ConfigurationError
from .quadrature import QuadratureRule

_LOG_FLOOR = 1e-300  # keeps log() finite if a share underflows to 0


@dataclass(frozen=True)
class InversionOptions:
    """Stopping rules for the share inversion.

    contraction_tol is applied to the sup norm of log S - log s(delta).
    The contraction phase hands over to Newton once the residual drops
    below newton_switch_tol. share_floor_c1 / share_cap_c2 define a purely
    diagnostic band [c1/J, c2/J] for integrated shares; violations raise a
    warning, never an error.
    """

    contraction_tol: float = 1e-13
    max_contraction_iters: int = 2000
    newton_switch_tol: float = 1e-4
    max_newton_iters: int = 60
    share_floor_c1: float = 0.0
    share_cap_c2: float = np.inf


@dataclass
class InversionInfo:
    converged: bool
    iterations: int
    newton_iterations: int
    max_residual: float
    band_violations: int


class InversionError(RuntimeError):
    """Share inversion failed to reach tolerance; carries the final residual."""

    def __init__(self, message: str, max_residual: float):
        super().__init__(message)
        self.max_residual = max_residual


# ---------------------------------------------------------------------------
# Kernels. Markets are stacked on a leading axis: delta (n, J), group
# indices nu (n, J, G), node shares (n, M, J).
# ---------------------------------------------------------------------------


def _node_shares(delta: np.ndarray, nu: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Conditional shares at every node: (n, M, J) from delta (n, J), nu (n, J, G)."""
    # utilities u[i, m, j] = delta[i, j] + sum_g nu[i, j, g] * node[m, g]
    u = delta[:, None, :] + np.einsum("ijg,mg->imj", nu, nodes)
    # outside good contributes utility 0, so the stabilizer must be >= 0
    umax = np.maximum(u.max(axis=2, keepdims=True), 0.0)
    eu = np.exp(u - umax)
    denom = np.exp(-umax[..., 0]) + eu.sum(axis=2)
    return eu / denom[..., None]


def _mixed_shares(delta, nu, rule):
    return _mixed_from_node_shares(_node_shares(delta, nu, rule.nodes), rule)


def _mixed_from_node_shares(node_shares, rule):
    return np.einsum("m,imj->ij", rule.weights, node_shares)


def _share_jacobian(node_shares: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """d s_j / d delta_j' for each market: (n, J, J).

    Integrates diag(s) - s s' over nodes; the result is symmetric with
    positive diagonal and strictly positive row sums whenever the outside
    share is interior.
    """
    w = rule.weights
    sbar = np.einsum("m,imj->ij", w, node_shares)
    cross = np.einsum("m,imj,imk->ijk", w, node_shares, node_shares)
    jac = -cross
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
):
    """Solve s(delta) = S for delta in every market, on stacked arrays.

    Starts from the logit closed form log S - log S_0 (which is already exact
    when gamma = 0), contracts until the residual drops below
    newton_switch_tol, then polishes with Newton steps using the share
    Jacobian. Returns (delta, info). Residuals are measured as the sup norm
    of log S - log s(delta) per market; convergence requires every market to
    pass contraction_tol, otherwise InversionError is raised.
    """
    if np.any(S <= 0.0) or np.any(S.sum(axis=-1) >= 1.0):
        raise ConfigurationError("observed shares must be interior: S_j > 0, sum_j S_j < 1")
    log_target = np.log(S)
    delta = logit_delta(S)
    J = S.shape[1]

    def residual(d):
        s = np.maximum(_mixed_shares(d, nu, rule), _LOG_FLOOR)
        return log_target - np.log(s)

    resid = residual(delta)
    rmax = np.abs(resid).max(axis=1)
    iters = 0
    # contraction phase: globally convergent, monotone in the sup norm
    while iters < opts.max_contraction_iters and np.any(rmax > opts.newton_switch_tol):
        active = rmax > opts.newton_switch_tol
        delta[active] += resid[active]
        s_act = np.maximum(_mixed_shares(delta[active], nu[active], rule), _LOG_FLOOR)
        resid[active] = log_target[active] - np.log(s_act)
        rmax = np.abs(resid).max(axis=1)
        iters += 1

    newton_iters = 0
    while newton_iters < opts.max_newton_iters and np.any(rmax > opts.contraction_tol):
        ns = _node_shares(delta, nu, rule.nodes)
        sbar = np.maximum(_mixed_from_node_shares(ns, rule), _LOG_FLOOR)
        jac = _share_jacobian(ns, rule) / sbar[:, :, None]  # d log s / d delta
        try:
            step = np.linalg.solve(jac, resid[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = resid  # fall back to a contraction step
        cand = delta + step
        cand_resid = residual(cand)
        cand_rmax = np.abs(cand_resid).max(axis=1)
        # keep Newton only where it improved; elsewhere take a contraction step
        worse = cand_rmax > rmax
        if np.any(worse):
            cand[worse] = delta[worse] + resid[worse]
            s_w = np.maximum(_mixed_shares(cand[worse], nu[worse], rule), _LOG_FLOOR)
            cand_resid[worse] = log_target[worse] - np.log(s_w)
            cand_rmax[worse] = np.abs(cand_resid[worse]).max(axis=1)
        delta, resid, rmax = cand, cand_resid, cand_rmax
        newton_iters += 1

    max_resid = float(rmax.max())
    converged = max_resid <= opts.contraction_tol

    band_violations = 0
    if opts.share_floor_c1 > 0.0 or np.isfinite(opts.share_cap_c2):
        sbar = _mixed_shares(delta, nu, rule)
        lo = opts.share_floor_c1 / J
        hi = opts.share_cap_c2 / J
        band_violations = int(np.count_nonzero((sbar < lo) | (sbar > hi)))
        if band_violations:
            warnings.warn(
                f"{band_violations} integrated shares fall outside the diagnostic band "
                f"[{lo:.3g}, {hi:.3g}]",
                RuntimeWarning,
                stacklevel=2,
            )

    info = InversionInfo(
        converged=converged,
        iterations=iters,
        newton_iterations=newton_iters,
        max_residual=max_resid,
        band_violations=band_violations,
    )
    if not converged:
        worst = int(np.abs(resid).max(axis=1).argmax())
        raise InversionError(
            f"share inversion stalled at market {worst}: residual {max_resid:.3e} "
            f"after {iters} contraction and {newton_iters} Newton iterations "
            f"(tolerance {opts.contraction_tol:.1e})",
            max_residual=max_resid,
        )
    return delta, info
