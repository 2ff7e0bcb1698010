"""Market share integrals and the share inversion.

Conditional on a taste draw beta_tilde, choice probabilities follow a logit
over J inside goods plus an outside good with utility 0. Mixed shares
integrate the conditional shares over beta_tilde ~ N(0, I_G) with a
QuadratureRule. The inversion recovers the mean-utility vector delta from
observed shares. It is Newton-led: from a start (the logit closed form, or a
caller's delta at a nearby parameter point) it takes the classic contraction
delta <- delta + log S - log s(delta) only while the residual is large, then
damped Newton steps on log s(delta) = log S. A market whose full Newton step
does not lower its sup-norm residual halves the step, and falls back to one
contraction step when halving does not help either, so the iteration cannot
stall where plain Newton overshoots.

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
_MAX_HALVINGS = 8  # damped Newton: step halvings before the contraction fallback


@dataclass(frozen=True)
class InversionOptions:
    """Stopping rules for the share inversion.

    contraction_tol is applied to the sup norm of log S - log s(delta) in
    every market; it stays tight because loose inner tolerances bias BLP
    estimates (Dube, Fox & Su 2012). A market takes contraction steps while
    its residual exceeds newton_switch_tol and damped Newton steps after
    that: the default 1.0 makes the inversion Newton-led, a small value
    makes it contraction-led, and inf skips the contraction phase.
    max_contraction_iters and max_newton_iters bound the two phases.
    share_floor_c1 / share_cap_c2 define a purely diagnostic band
    [c1/J, c2/J] for integrated shares; violations raise a warning, never
    an error.
    """

    contraction_tol: float = 1e-13
    max_contraction_iters: int = 2000
    newton_switch_tol: float = 1.0
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
    """Share inversion failed to reach tolerance; carries the final residual
    and the InversionInfo of the failed attempt."""

    def __init__(self, message: str, max_residual: float, info: InversionInfo | None = None):
        super().__init__(message)
        self.max_residual = max_residual
        self.info = info


# ---------------------------------------------------------------------------
# Kernels. Markets are stacked on a leading axis: delta (n, J), group
# indices nu (n, J, G), node shares (n, M, J).
# ---------------------------------------------------------------------------


def _node_shares(delta: np.ndarray, nu: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Conditional shares at every node: (n, M, J) from delta (n, J), nu (n, J, G)."""
    # utilities u[i, m, j] = delta[i, j] + sum_g nu[i, j, g] * node[m, g]
    u = delta[:, None, :] + np.matmul(nodes, nu.transpose(0, 2, 1))
    # outside good contributes utility 0, so the stabilizer must be >= 0
    umax = np.maximum(u.max(axis=2, keepdims=True), 0.0)
    eu = np.exp(u - umax)
    denom = np.exp(-umax[..., 0]) + eu.sum(axis=2)
    return eu / denom[..., None]


def _mixed_shares(delta, nu, rule):
    return _mixed_from_node_shares(_node_shares(delta, nu, rule.nodes), rule)


def _mixed_from_node_shares(node_shares, rule):
    return np.matmul(rule.weights, node_shares)


def _share_jacobian(node_shares: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """d s_j / d delta_j' for each market: (n, J, J).

    Integrates diag(s) - s s' over nodes; the result is symmetric with
    positive diagonal and strictly positive row sums whenever the outside
    share is interior.
    """
    w = rule.weights
    sbar = np.matmul(w, node_shares)
    cross = np.matmul((node_shares * w[:, None]).transpose(0, 2, 1), node_shares)
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
    start: np.ndarray | None = None,
):
    """Solve s(delta) = S for delta in every market, on stacked arrays.

    start is the first iterate, (n, J); the default is the logit closed form
    log S - log S_0, which is already exact when gamma = 0. A caller that
    has delta at a nearby parameter point passes it here (a warm start).
    Residuals are the sup norm of log S - log s(delta) per market. Markets
    whose residual exceeds newton_switch_tol take contraction steps; the
    rest take Newton steps with the share Jacobian, each halved up to
    _MAX_HALVINGS times until it lowers the market's residual, else replaced
    by one contraction step. Markets already within contraction_tol are left
    alone. Returns (delta, info); if some market misses contraction_tol
    within the iteration budgets, InversionError is raised.
    """
    if np.any(S <= 0.0) or np.any(S.sum(axis=-1) >= 1.0):
        raise ConfigurationError("observed shares must be interior: S_j > 0, sum_j S_j < 1")
    log_target = np.log(S)
    delta = logit_delta(S) if start is None else np.array(start, dtype=float)
    J = S.shape[1]

    def residual(d, idx):
        s = np.maximum(_mixed_shares(d, nu[idx], rule), _LOG_FLOOR)
        return log_target[idx] - np.log(s)

    def sup(r):
        return np.abs(r).max(axis=1)

    resid = residual(delta, slice(None))
    rmax = sup(resid)
    iters = 0
    # contraction phase: globally convergent, monotone in the sup norm
    while iters < opts.max_contraction_iters and np.any(rmax > opts.newton_switch_tol):
        act = np.flatnonzero(rmax > opts.newton_switch_tol)
        delta[act] += resid[act]
        resid[act] = residual(delta[act], act)
        rmax[act] = sup(resid[act])
        iters += 1

    newton_iters = 0
    while newton_iters < opts.max_newton_iters and np.any(rmax > opts.contraction_tol):
        act = np.flatnonzero(rmax > opts.contraction_tol)
        d, r, rm = delta[act], resid[act], rmax[act]
        ns = _node_shares(d, nu[act], rule.nodes)
        sbar = np.maximum(_mixed_from_node_shares(ns, rule), _LOG_FLOOR)
        jac = _share_jacobian(ns, rule) / sbar[:, :, None]  # d log s / d delta
        try:
            step = np.linalg.solve(jac, r[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = r  # fall back to a contraction step
        cand = d + step
        cand_r = residual(cand, act)
        cand_rm = sup(cand_r)
        # damping: halve the step where it did not lower the residual (NaN
        # counts as not lower); every market still halving shares one length
        worse = ~(cand_rm < rm)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            if not worse.any():
                break
            t *= 0.5
            w = np.flatnonzero(worse)
            cand[w] = d[w] + t * step[w]
            cand_r[w] = residual(cand[w], act[w])
            cand_rm[w] = sup(cand_r[w])
            worse[w] = ~(cand_rm[w] < rm[w])
        if worse.any():
            w = np.flatnonzero(worse)
            cand[w] = d[w] + r[w]
            cand_r[w] = residual(cand[w], act[w])
            cand_rm[w] = sup(cand_r[w])
        delta[act], resid[act], rmax[act] = cand, cand_r, cand_rm
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
        worst = int(rmax.argmax())
        raise InversionError(
            f"share inversion stalled at market {worst}: residual {max_resid:.3e} "
            f"after {iters} contraction and {newton_iters} Newton iterations "
            f"(tolerance {opts.contraction_tol:.1e})",
            max_residual=max_resid,
            info=info,
        )
    return delta, info
