"""De-biased RGMM: one-step correction and confidence intervals.

The regularized estimator trades bias for sparsity; inference needs the bias
removed. The correction is built in five steps, all at the plug-in point
theta_hat and all from one share inversion there: (1) Omega_hat, the
second-moment matrix of per-market scores; (2) G_hat, the analytic score
Jacobian; (3) gamma_hat, a row-wise l1 LP approximating G' Omega^{-1}
without inverting Omega; (4) mu_hat, a row-wise l1 LP approximating a left
inverse of gamma_hat G_hat; (5) the update
theta_dd = theta_hat - mu_hat gamma_hat f_hat(theta_hat), whose linear form
also yields plug-in standard errors and per-coordinate intervals.

Both LP families are Dantzig-type programs: the penalty is the allowed
sup-norm slack of the defining linear system, so as the penalties shrink to
zero on a well-conditioned square system the correction approaches the exact
GMM Newton step theta_hat - G_hat^{-1} f_hat(theta_hat).

The default penalties follow the theory's rate formula, whose universal
constants make it extremely conservative at practical sample sizes: rows
then come out zero and the correction degenerates to the identity. Study
code should calibrate the penalties (see DebiasPenalties.scaled) rather
than trust the defaults outside asymptopia.

When the moment dimension JK is below the parameter dimension 2L, the square
system gamma_hat G_hat has rank at most JK and some unit rows e_r may be
unreachable: the mu LP for such a row is infeasible at any penalty below the
row's minimal achievable sup-norm residual (its floor). The floor is exactly
1 iff column r of gamma_hat G_hat is zero, as for a group whose gamma_hat is 0.
The default behaviour is to raise; relax_mu=True instead re-solves each row
whose mu LP is infeasible at the requested penalty with that penalty floored
at just above the row's floor (an auxiliary LP per such row), and records the
effective penalties. Rows the requested penalty reaches keep it; a relaxed
row often gets se 0, an interval of zero width, which the CLI names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .l1_solvers import LpStatus, count_lps, solve_nonneg_lp, solve_row_family
from .model_core import Dataset, ModelConfig, Theta
from .moments import Evaluator, jacobian_theta, omega, score
from .quadrature import QuadratureRule


class DebiasError(RuntimeError):
    """An auxiliary LP row is infeasible or violates its own constraint."""


# Elastic mu relaxation: effective penalty = max(requested, FACTOR*floor + MARGIN)
# where floor is the row's minimal achievable sup-norm residual.
RELAX_FACTOR = 1.05
RELAX_MARGIN = 1e-6

# Constants of the theoretical penalty rule (select_debias_penalties).
BAR_A = 0.0
C_PRIME = 1.5


@dataclass(frozen=True)
class DebiasPenalties:
    """Per-row sup-norm tolerances for the two auxiliary LP families.

    lambda_gamma has one entry per parameter coordinate (2L rows of
    gamma_hat), lambda_mu likewise for mu_hat. The default coupling is
    lambda_gamma = lambda_mu / 2.
    """

    lambda_gamma: np.ndarray
    lambda_mu: np.ndarray

    def __post_init__(self):
        lg = np.asarray(self.lambda_gamma, dtype=float)
        lm = np.asarray(self.lambda_mu, dtype=float)
        if lg.ndim != 1 or lm.shape != lg.shape:
            raise ValueError("penalty vectors must be 1-d and of equal length")
        if np.any(lg < 0) or np.any(lm < 0):
            raise ValueError("penalties must be nonnegative")
        object.__setattr__(self, "lambda_gamma", lg)
        object.__setattr__(self, "lambda_mu", lm)

    @staticmethod
    def constant(L: int, lam_gamma: float) -> "DebiasPenalties":
        """Uniform penalties for all 2L rows, with lambda_mu = 2 lam_gamma."""
        return DebiasPenalties(
            lambda_gamma=np.full(2 * L, lam_gamma), lambda_mu=np.full(2 * L, 2.0 * lam_gamma)
        )

    @staticmethod
    def scaled(config: ModelConfig, n: int, c_gamma: float = 1.0) -> "DebiasPenalties":
        """Calibrated alternative: lambda_gamma = c_gamma sqrt(log(max(JK,2L))/n).

        This keeps the rate of the theoretical rule while dropping its
        dimension-polynomial constants, which swamp any desk-scale n.
        """
        m = max(config.J * config.K, 2 * config.L)
        lam = c_gamma * np.sqrt(np.log(m) / n)
        return DebiasPenalties.constant(config.L, lam)


def select_debias_penalties(config: ModelConfig, n: int) -> DebiasPenalties:
    """The theoretical penalty rule.

    lambda_tilde = n^(-1/2 + BAR_A) J^2 G Phi^{-1}(1 - (2 J^2 G K L n)^{-1}),
    bar_lambda = C_PRIME J^{3/2} max{J^{3/2} lambda_tilde^2, lambda_tilde},
    lambda_gamma = bar_lambda and lambda_mu = 2 bar_lambda on every row.
    Phi^{-1} is statistics.NormalDist().inv_cdf (Wichura's AS241), within
    6 ULP of scipy's ndtri.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    J, G, K, L = config.J, config.G, config.K, config.L
    tail = 1.0 / (2.0 * J**2 * G * K * L * n)
    lam_tilde = n ** (-0.5 + BAR_A) * J**2 * G * NormalDist().inv_cdf(1.0 - tail)
    bar_lam = C_PRIME * J**1.5 * max(J**1.5 * lam_tilde**2, lam_tilde)
    return DebiasPenalties.constant(L, bar_lam)


@dataclass
class DebiasResult:
    gamma_hat: np.ndarray  # 2L x JK
    mu_hat: np.ndarray  # 2L x 2L
    theta_dd: np.ndarray  # length 2L, de-biased estimate
    se: np.ndarray  # length 2L
    ci: np.ndarray  # 2L x 2, [lower, upper] at level 1 - alpha
    alpha: float
    gamma_statuses: list[LpStatus] = field(default_factory=list)
    mu_statuses: list[LpStatus] = field(default_factory=list)
    min_sv_omega: float = np.nan  # conditioning diagnostics for the two
    min_sv_gamma_g: float = np.nan  # systems the LP rows approximate
    mu_lambda_eff: np.ndarray | None = None  # per-row penalties actually used
    mu_relaxed_rows: np.ndarray | None = None  # rows where the floor was binding
    inversions: int = 0  # share inversions run, and their iterations
    contraction_iters: int = 0
    newton_iters: int = 0
    lp_solves: int = 0  # LPs run (both families, relaxed re-solves, row
    lp_pivots: int = 0  # floors), and their simplex pivots


def _solve_rows(A: np.ndarray, B: np.ndarray, lam: np.ndarray, what: str, relax: bool = False):
    """Row family with post-hoc constraint verification (solver not trusted).

    The system is max-abs equilibrated first: x(A/s) - B has minimizer s*x,
    so the rescale is exact while keeping the simplex tolerances (which are
    absolute) meaningful when the plug-in matrices run large or tiny. With
    relax, a row whose LP is infeasible at its penalty is solved once more
    with the penalty floored at RELAX_FACTOR times its minimax_row_floor plus
    RELAX_MARGIN. Returns the rows, their statuses and the penalties used.
    """
    scale = float(np.abs(A).max())
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    As = A / scale
    lam = np.array(np.broadcast_to(lam, (B.shape[0],)), dtype=float)
    sols = solve_row_family(As, B, lam)
    rows = np.zeros((B.shape[0], A.shape[0]))
    statuses = []
    for r, sol in enumerate(sols):
        if relax and sol.status is LpStatus.INFEASIBLE:
            lam[r] = max(lam[r], RELAX_FACTOR * minimax_row_floor(A, B[r]) + RELAX_MARGIN)
            sol = solve_row_family(As, B[r : r + 1], lam[r : r + 1])[0]
        statuses.append(sol.status)
        if sol.status is not LpStatus.OPTIMAL:
            raise DebiasError(
                f"{what} row {r} is {sol.status.value}: penalty {lam[r]:.3g} too "
                "small or the plug-in system is degenerate"
            )
        rows[r] = sol.x / scale
        slack = float(np.abs(rows[r] @ A - B[r]).max()) - lam[r]
        if slack > 1e-8:
            raise DebiasError(
                f"{what} row {r} violates its constraint by {slack:.2e} post-hoc"
            )
    return rows, statuses, lam


def estimate_gamma(
    omega_hat: np.ndarray, g_hat: np.ndarray, penalties: DebiasPenalties
) -> tuple[np.ndarray, list[LpStatus]]:
    """Rows gamma_r: min ||gamma_r||_1 s.t. ||gamma_r Omega - (G')_r||_inf <= lam.

    gamma_hat (2L x JK) approximates G' Omega^{-1} row by row; as the
    penalties shrink it converges to that dense solve on well-conditioned
    inputs, while positive penalties buy sparsity and stability.
    """
    rows, statuses, _ = _solve_rows(omega_hat, g_hat.T, penalties.lambda_gamma, "gamma")
    return rows, statuses


def minimax_row_floor(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest achievable ||x a - b||_inf over x, as an LP in (x+, x-, t).

    Data are max-abs equilibrated before the solve (the floor scales back
    exactly). t enters every row with -1, so solve_nonneg_lp starts from one
    pivot of t and the LP is always feasible: any non-optimal status is a
    numerical failure worth raising over.
    """
    p, q = a.shape
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    at = a.T / scale
    bs = np.asarray(b, dtype=float) / scale
    a_ub = np.block([[at, -at, -np.ones((q, 1))], [-at, at, -np.ones((q, 1))]])
    b_ub = np.concatenate([bs, -bs])
    c = np.zeros(2 * p + 1)
    c[-1] = 1.0
    raw = solve_nonneg_lp(c, a_ub, b_ub)
    if raw.status is not LpStatus.OPTIMAL:
        raise DebiasError(f"row-floor LP unexpectedly {raw.status.value}")
    return scale * float(raw.z[-1])


def estimate_mu(
    gamma_hat: np.ndarray,
    g_hat: np.ndarray,
    penalties: DebiasPenalties,
    relax: bool = False,
) -> tuple[np.ndarray, list[LpStatus], np.ndarray]:
    """Rows mu_r: min ||mu_r||_1 s.t. ||mu_r (gamma_hat G_hat) - e_r||_inf <= lam.

    mu_hat (2L x 2L) approximates the inverse of gamma_hat G_hat, so that
    mu_hat gamma_hat acts as a regularized left inverse of G_hat. With
    relax=True a row whose LP is infeasible at its penalty is solved again
    with the penalty floored at just above its minimal achievable residual,
    keeping structurally unreachable rows feasible; the effective penalty
    vector is returned alongside.
    """
    gg = gamma_hat @ g_hat  # 2L x 2L
    return _solve_rows(gg, np.eye(len(gg)), penalties.lambda_mu, "mu", relax)


def debiased_theta(
    theta_hat: np.ndarray, mu_hat: np.ndarray, gamma_hat: np.ndarray, f_hat: np.ndarray
) -> np.ndarray:
    """One-step correction theta_hat - mu_hat gamma_hat f_hat(theta_hat)."""
    return theta_hat - mu_hat @ (gamma_hat @ f_hat)


def standard_errors(
    mu_hat: np.ndarray, gamma_hat: np.ndarray, omega_hat: np.ndarray, n: int
) -> np.ndarray:
    """Plug-in standard errors from the correction's linear form.

    V = (mu gamma) Omega (mu gamma)'; se_l = sqrt(V_ll / n). Tiny negative
    diagonal entries (roundoff) clamp to zero; anything materially negative
    is a numerical failure worth raising over.
    """
    mg = mu_hat @ gamma_hat
    var = np.einsum("ij,jk,ik->i", mg, omega_hat, mg)
    if np.any(var < -1e-10):
        raise DebiasError(f"negative variance diagonal: min {var.min():.3e}")
    return np.sqrt(np.clip(var, 0.0, None) / n)


def confidence_intervals(theta_dd: np.ndarray, se: np.ndarray, alpha: float) -> np.ndarray:
    """Normal intervals theta_dd -/+ Phi^{-1}(1 - alpha/2) se, one row per coordinate.

    Phi^{-1} is statistics.NormalDist().inv_cdf (Wichura's AS241), within
    6 ULP of scipy's ndtri.
    """
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return np.column_stack([theta_dd - z * se, theta_dd + z * se])


def debias(
    dataset: Dataset,
    theta_hat: Theta,
    rule: QuadratureRule,
    penalties: DebiasPenalties | None = None,
    alpha: float = 0.05,
    relax_mu: bool = False,
) -> DebiasResult:
    """Run the full correction pipeline at the plug-in point theta_hat.

    penalties default to the theoretical rule (see module docstring for why
    a study will usually want DebiasPenalties.scaled instead). relax_mu
    floors the mu penalties row by row at feasibility; the default is to
    raise on an unreachable row.
    """
    cfg = dataset.config
    if penalties is None:
        penalties = select_debias_penalties(cfg, dataset.n)
    evals = Evaluator(dataset, rule)  # one inversion serves all three
    omega_hat = omega(dataset, theta_hat, rule, evals=evals)
    g_hat = jacobian_theta(dataset, theta_hat, rule, evals=evals)
    f_hat = score(dataset, theta_hat, rule, evals=evals)
    with count_lps() as tally:
        gamma_hat, g_statuses = estimate_gamma(omega_hat, g_hat, penalties)
        mu_hat, m_statuses, mu_lam = estimate_mu(gamma_hat, g_hat, penalties, relax=relax_mu)
    theta_dd = debiased_theta(theta_hat.stacked(), mu_hat, gamma_hat, f_hat)
    se = standard_errors(mu_hat, gamma_hat, omega_hat, dataset.n)
    ci = confidence_intervals(theta_dd, se, alpha)
    sv_omega = np.linalg.svd(omega_hat, compute_uv=False)
    sv_gg = np.linalg.svd(gamma_hat @ g_hat, compute_uv=False)
    requested = np.broadcast_to(penalties.lambda_mu, mu_lam.shape)
    return DebiasResult(
        gamma_hat=gamma_hat,
        mu_hat=mu_hat,
        theta_dd=theta_dd,
        se=se,
        ci=ci,
        alpha=alpha,
        gamma_statuses=g_statuses,
        mu_statuses=m_statuses,
        min_sv_omega=float(sv_omega.min()),
        min_sv_gamma_g=float(sv_gg.min()),
        mu_lambda_eff=mu_lam,
        mu_relaxed_rows=np.flatnonzero(mu_lam > requested + 1e-12),
        inversions=evals.inversions,
        contraction_iters=evals.contraction_iters,
        newton_iters=evals.newton_iters,
        lp_solves=tally.solves,
        lp_pivots=tally.pivots,
    )
