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
GMM Newton step theta_hat - G_hat^{-1} f_hat(theta_hat). The penalties are
DebiasPenalties.scaled: the sqrt(log p / n) rate times one constant, which
the CLI and a study default to PENALTY_C_GAMMA.

When the moment dimension JK is below the parameter dimension 2L, the square
system gamma_hat G_hat has rank at most JK and some unit rows e_r may be
unreachable: the mu LP for such a row is infeasible at any penalty below the
row's minimal achievable sup-norm residual (its floor). The floor is exactly
1 iff column r of gamma_hat G_hat is zero, as for a group whose gamma_hat is 0.
Such a dead-column row costs no simplex: the LP presolve drops the zero
constraint row, so the row's LP is infeasible at once, its floor comes back
as exactly 1 and its relaxed re-solve as mu_r = 0. The default behaviour is
to raise; relax_mu=True instead re-solves each row whose mu LP is infeasible
at the requested penalty with that penalty floored at just above the row's
floor (an auxiliary LP per such row), and records the effective penalties.
Rows the requested penalty reaches keep it; a relaxed row often gets se 0,
an interval of zero width, which the CLI names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .l1_solvers import L1LinfProblem, LpStatus, count_lps, solve_nonneg_lp, solve_row_family
from .model_core import Dataset, ModelConfig, RunStats, Theta
from .moments import Evaluator, jacobian_theta, omega, score
from .quadrature import QuadratureRule


class DebiasError(RuntimeError):
    """An auxiliary LP row is infeasible or violates its own constraint."""


# Elastic mu relaxation: effective penalty = max(requested, FACTOR*floor + MARGIN)
# where floor is the row's minimal achievable sup-norm residual.
RELAX_FACTOR = 1.05
RELAX_MARGIN = 1e-6

# c_gamma of DebiasPenalties.scaled: the default of McConfig.penalty_c_gamma
# and of the CLI's --penalty-c.
PENALTY_C_GAMMA = 0.05
ALPHA = 0.05  # 1 - the confidence level: the default of debias, McConfig.alpha and --alpha


@dataclass(frozen=True)
class DebiasPenalties:
    """The sup-norm tolerances of the two auxiliary LP families.

    Every row of gamma_hat gets lambda_gamma, and every row of mu_hat
    lambda_mu = 2 lambda_gamma.
    """

    lambda_gamma: float

    def __post_init__(self):
        lam = float(self.lambda_gamma)
        if not 0 <= lam < np.inf:
            raise ValueError(f"lambda_gamma must be finite and nonnegative, got {lam}")
        object.__setattr__(self, "lambda_gamma", lam)

    @property
    def lambda_mu(self) -> float:
        return 2.0 * self.lambda_gamma

    @staticmethod
    def scaled(config: ModelConfig, n: int, c_gamma: float) -> "DebiasPenalties":
        """lambda_gamma = c_gamma sqrt(log(max(JK, 2L)) / n): the theory's
        rate with one calibrated constant.

        The theory's own constants, polynomial in the dimensions, put
        lambda_gamma above 1, where every row is zero, at any n the package
        runs.
        """
        m = max(config.J * config.K, 2 * config.L)
        return DebiasPenalties(c_gamma * np.sqrt(np.log(m) / n))


@dataclass
class DebiasResult:
    """The de-biased estimate, its intervals, and the two LP row families.

    stats counts the one share inversion at theta_hat and the LPs: both
    families, the row floors and the relaxed re-solves. Its SLP step
    counters stay 0.
    """

    gamma_hat: np.ndarray  # 2L x JK
    mu_hat: np.ndarray  # 2L x 2L
    theta_dd: np.ndarray  # length 2L, de-biased estimate
    se: np.ndarray  # length 2L
    ci: np.ndarray  # 2L x 2, [lower, upper] at level 1 - alpha
    alpha: float
    stats: RunStats
    gamma_statuses: list[LpStatus] = field(default_factory=list)
    mu_statuses: list[LpStatus] = field(default_factory=list)
    min_sv_omega: float = np.nan  # conditioning diagnostics for the two
    min_sv_gamma_g: float = np.nan  # systems the LP rows approximate
    mu_lambda_eff: np.ndarray | None = None  # per-row penalties actually used
    mu_relaxed_rows: np.ndarray | None = None  # rows where the floor was binding


def _solve_rows(A: np.ndarray, B: np.ndarray, lam: float, what: str, relax: bool = False):
    """Row family with post-hoc constraint verification (solver not trusted):
    one product rows @ A - B checks every row, and the first row that is not
    OPTIMAL or breaks its constraint is named.

    The LP presolve equilibrates every constraint row, so the simplex
    tolerances stay meaningful when the plug-in matrices run large or tiny.
    With relax, each row whose LP is infeasible at its penalty gets the
    penalty floored at RELAX_FACTOR times its minimax_row_floor plus
    RELAX_MARGIN, and those rows are solved once more, as one row family.
    Returns the rows, their statuses and the per-row penalties used.
    """
    lam = np.full(B.shape[0], lam, dtype=float)
    sols = solve_row_family(A, B, lam)
    if relax:
        bad = [r for r, sol in enumerate(sols) if sol.status is LpStatus.INFEASIBLE]
        for r in bad:
            lam[r] = max(lam[r], RELAX_FACTOR * minimax_row_floor(A, B[r]) + RELAX_MARGIN)
        if bad:
            for r, sol in zip(bad, solve_row_family(A, B[bad], lam[bad])):
                sols[r] = sol
    statuses = [sol.status for sol in sols]
    rows = np.zeros((B.shape[0], A.shape[0]))
    for r, sol in enumerate(sols):
        rows[r] = sol.x
    slack = np.abs(rows @ A - B).max(axis=1, initial=0.0) - lam
    for r, status in enumerate(statuses):
        if status is not LpStatus.OPTIMAL:
            raise DebiasError(
                f"{what} row {r} is {status.value}: penalty {lam[r]:.3g} too "
                "small or the plug-in system is degenerate"
            )
        if slack[r] > 1e-8:
            raise DebiasError(
                f"{what} row {r} violates its constraint by {slack[r]:.2e} post-hoc"
            )
    return rows, statuses, lam


def estimate_gamma(
    omega_hat: np.ndarray, g_hat: np.ndarray, lam: float
) -> tuple[np.ndarray, list[LpStatus]]:
    """Rows gamma_r: min ||gamma_r||_1 s.t. ||gamma_r Omega - (G')_r||_inf <= lam.

    gamma_hat (2L x JK) approximates G' Omega^{-1} row by row; as the
    penalties shrink it converges to that dense solve on well-conditioned
    inputs, while positive penalties buy sparsity and stability.
    """
    rows, statuses, _ = _solve_rows(omega_hat, g_hat.T, lam, "gamma")
    return rows, statuses


def minimax_row_floor(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest achievable ||x a - b||_inf over x, by solve_nonneg_lp.

    Data are divided by the smallest power of two above their max-abs
    before the solve, so the floor scales back exactly: at a dead column r
    (column r of a zero up to roundoff, b = e_r) the presolve fixes the
    floor at |b_r| and it comes back as exactly 1, whatever the roundoff in
    a. The LP is always feasible, so any non-optimal status is a numerical
    failure worth raising over.
    """
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    scale = float(2.0 ** np.frexp(scale)[1])
    sol = solve_nonneg_lp(L1LinfProblem(a.T / scale, np.asarray(b, dtype=float) / scale, 0.0))
    if sol.status is not LpStatus.OPTIMAL:
        raise DebiasError(f"row-floor LP unexpectedly {sol.status.value}")
    return scale * sol.objective


def estimate_mu(
    gamma_hat: np.ndarray,
    g_hat: np.ndarray,
    lam: float,
    relax: bool = False,
) -> tuple[np.ndarray, list[LpStatus], np.ndarray]:
    """Rows mu_r: min ||mu_r||_1 s.t. ||mu_r (gamma_hat G_hat) - e_r||_inf <= lam.

    mu_hat (2L x 2L) approximates the inverse of gamma_hat G_hat, so that
    mu_hat gamma_hat acts as a regularized left inverse of G_hat. With
    relax=True a row whose LP is infeasible at lam is solved again with the
    penalty floored at just above its minimal achievable residual, keeping
    structurally unreachable rows feasible; the effective per-row penalties
    are returned alongside.
    """
    gg = gamma_hat @ g_hat  # 2L x 2L
    return _solve_rows(gg, np.eye(len(gg)), lam, "mu", relax)


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


def alpha_is_valid(alpha: float) -> bool:
    """Whether alpha lies in (0, 1) and 1 - alpha/2 is below 1 in floating
    point, so that Phi^{-1}(1 - alpha/2) is finite."""
    return 0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0


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
    penalties: DebiasPenalties,
    alpha: float = ALPHA,
    relax_mu: bool = False,
    start: np.ndarray | None = None,
) -> DebiasResult:
    """Run the full correction pipeline at the plug-in point theta_hat.

    penalties is usually DebiasPenalties.scaled(dataset.config, dataset.n,
    PENALTY_C_GAMMA), what the CLI and a study default to. relax_mu floors
    the mu penalties row by row at feasibility; the default is to raise on
    an unreachable row. start, an (n, J) delta, starts the one share
    inversion in place of the logit closed form: the estimate's
    EstimationResult.delta_hat, inverted at theta_hat.gamma already, leaves
    it little or nothing to do. The inversion still runs to its tolerance,
    so the start moves the answer by roundoff only. An alpha that
    alpha_is_valid refuses, or a start that is not a finite (n, J) delta,
    raises ValueError before any work.
    """
    if not alpha_is_valid(alpha):
        raise ValueError(f"alpha must lie in (0, 1) with 1 - alpha/2 < 1, got {alpha}")
    evals = Evaluator(dataset, rule, start=start)  # one inversion serves all three
    f_hat = score(dataset, theta_hat, rule, evals=evals)  # the inversion runs here
    omega_hat = omega(dataset, theta_hat, rule, evals=evals)
    g_hat = jacobian_theta(dataset, theta_hat, rule, evals=evals)
    stats = evals.stats
    del evals  # the LPs need neither its delta nor its d delta / d gamma
    with count_lps(stats):
        gamma_hat, g_statuses = estimate_gamma(omega_hat, g_hat, penalties.lambda_gamma)
        mu_hat, m_statuses, mu_lam = estimate_mu(gamma_hat, g_hat, penalties.lambda_mu, relax=relax_mu)
    theta_dd = debiased_theta(theta_hat.stacked(), mu_hat, gamma_hat, f_hat)
    se = standard_errors(mu_hat, gamma_hat, omega_hat, dataset.n)
    ci = confidence_intervals(theta_dd, se, alpha)
    sv_omega = np.linalg.svd(omega_hat, compute_uv=False)
    sv_gg = np.linalg.svd(gamma_hat @ g_hat, compute_uv=False)
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
        mu_relaxed_rows=np.flatnonzero(mu_lam > penalties.lambda_mu + 1e-12),
        stats=stats,
    )
