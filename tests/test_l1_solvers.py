import inspect
import sys
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from sparseblp import l1_solvers
from sparseblp.l1_solvers import (
    L1LinfProblem,
    LpSizeError,
    LpStatus,
    count_lps,
    solve_l1_linf,
    solve_nonneg_lp,
    solve_row_family,
)
from sparseblp.model_core import RunStats
from conftest import highs_l1_linf


def oracle_l1_linf(A, b, lam):
    """Exhaustive basic-solution enumeration for tiny instances.

    Any LP optimum admits a point where (#active constraints) + (#zero
    coordinates) >= p, so enumerating all such square systems and keeping
    the feasible minimum is a complete oracle for small p, m.
    """
    m, p = A.shape
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (m,))
    faces = [(A[i], b[i] + lam[i]) for i in range(m)] + [(A[i], b[i] - lam[i]) for i in range(m)]
    best = np.inf
    for nzero in range(p + 1):
        for zeros in combinations(range(p), nzero):
            free = [i for i in range(p) if i not in zeros]
            k = len(free)
            if k == 0:
                cands = [np.zeros(p)]
            else:
                cands = []
                for act in combinations(range(len(faces)), k):
                    M = np.array([faces[i][0][free] for i in act])
                    r = np.array([faces[i][1] for i in act])
                    if np.linalg.matrix_rank(M, tol=1e-10) < k:
                        continue
                    sol, *_ = np.linalg.lstsq(M, r, rcond=None)
                    if np.abs(M @ sol - r).max() > 1e-9:
                        continue
                    x = np.zeros(p)
                    x[free] = sol
                    cands.append(x)
            for x in cands:
                if np.all(np.abs(A @ x - b) <= lam + 1e-8):
                    best = min(best, np.abs(x).sum())
    return best


def check_certificate(prob: L1LinfProblem, sol, rel=None):
    """Strong-duality identities from the solver contract; rel adds a
    relative tolerance for answers far from unit scale."""
    y = sol.dual
    assert y is not None
    assert np.abs(prob.A.T @ y).max() <= 1 + 1e-6
    dual_obj = prob.b @ y - prob.lam * np.abs(y).sum()
    assert dual_obj == pytest.approx(sol.objective, rel=rel, abs=1e-6)
    resid = prob.A @ sol.x - prob.b
    assert -y @ resid == pytest.approx(prob.lam * np.abs(y).sum(), rel=rel, abs=1e-6)


class TestSoftThresholdCases:
    def test_identity_two_rows(self):
        sol = solve_l1_linf(L1LinfProblem(A=np.eye(2), b=np.array([1.0, -2.0]), lam=0.5))
        assert sol.status is LpStatus.OPTIMAL
        assert np.allclose(sol.x, [0.5, -1.5], atol=1e-10)

    def test_zero_feasible(self):
        sol = solve_l1_linf(L1LinfProblem(A=np.eye(1), b=np.array([0.3]), lam=0.5))
        assert np.allclose(sol.x, 0.0)
        assert sol.objective == 0.0

    def test_empty_constraints(self):
        sol = solve_l1_linf(L1LinfProblem(A=np.zeros((0, 3)), b=np.zeros(0), lam=1.0))
        assert np.allclose(sol.x, 0.0)

    def test_infeasible_detected(self):
        prob = L1LinfProblem(A=np.array([[1.0], [1.0]]), b=np.array([0.0, 10.0]), lam=1.0)
        assert solve_l1_linf(prob).status is LpStatus.INFEASIBLE

    def test_roundoff_row_is_a_zero_row(self):
        # row 2 is roundoff next to row 1: it is checked as |b_2| <= lam, not
        # rescaled into the constraint 1e-17 (x_1 + 2 x_2) ~ 1
        A = np.array([[1.0, 0.0], [1e-17, 2e-17]])
        b = np.array([0.0, 1.0])
        sol = solve_l1_linf(L1LinfProblem(A=A, b=b, lam=0.5))
        assert sol.status is LpStatus.INFEASIBLE and sol.pivots == 0
        sol = solve_l1_linf(L1LinfProblem(A=A, b=b, lam=1.5))
        assert sol.status is LpStatus.OPTIMAL
        np.testing.assert_array_equal(sol.x, [0.0, 0.0])

    def test_pivot_limit_reported(self, rng, monkeypatch):
        A = rng.standard_normal((6, 6))
        prob = L1LinfProblem(A=A, b=rng.standard_normal(6), lam=0.01)
        monkeypatch.setattr(l1_solvers, "MAX_PIVOTS", 1)
        assert solve_l1_linf(prob).status is LpStatus.ITERATION_LIMIT


class TestAgainstVertexOracle:
    def test_random_instances(self, rng):
        for t in range(15):
            m = int(rng.integers(1, 5))
            p = int(rng.integers(1, 5))
            A = rng.standard_normal((m, p))
            b = rng.standard_normal(m)
            lam = float(rng.random() * 0.5)
            prob = L1LinfProblem(A=A, b=b, lam=lam)
            sol = solve_l1_linf(prob)
            expected = oracle_l1_linf(A, b, lam)
            if np.isinf(expected):
                assert sol.status is LpStatus.INFEASIBLE
            else:
                assert sol.status is LpStatus.OPTIMAL
                assert sol.objective == pytest.approx(expected, abs=1e-6)
                assert sol.max_violation <= 1e-8
                check_certificate(prob, sol)

    def test_scaling_invariance(self, rng):
        A = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        x1 = solve_l1_linf(L1LinfProblem(A=A, b=b, lam=0.2)).x
        x2 = solve_l1_linf(L1LinfProblem(A=7.0 * A, b=7.0 * b, lam=7.0 * 0.2)).x
        assert np.allclose(x1, x2, atol=1e-9)

    def test_objective_monotone_in_lambda(self, rng):
        A = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)  # full rank: feasible at any lam
        b = rng.standard_normal(3)
        objs = []
        for lam in (0.05, 0.1, 0.2, 0.4, 0.8):
            sol = solve_l1_linf(L1LinfProblem(A=A, b=b, lam=lam))
            assert sol.status is LpStatus.OPTIMAL
            objs.append(sol.objective)
        assert all(o1 >= o2 - 1e-10 for o1, o2 in zip(objs, objs[1:]))


class TestRowFamily:
    def test_identity_soft_threshold(self):
        sols = solve_row_family(np.eye(3), np.eye(3), np.full(3, 0.1))
        for r, sol in enumerate(sols):
            assert np.allclose(sol.x, 0.9 * np.eye(3)[r], atol=1e-10)

    def test_large_lambda_gives_zero_rows(self, rng):
        B = rng.standard_normal((2, 3))
        lam = np.abs(B).max(axis=1) + 0.01
        for sol in solve_row_family(rng.standard_normal((3, 3)), B, lam):
            assert np.allclose(sol.x, 0.0)

    def test_transposition_equivalence(self, rng):
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        lam = np.full(4, 0.15)
        family = solve_row_family(A, B, lam)
        for r in range(4):
            direct = solve_l1_linf(L1LinfProblem(A=A.T, b=B[r], lam=0.15))
            assert np.allclose(family[r].x, direct.x, atol=1e-10)
            assert family[r].status is direct.status

    def test_per_row_status_not_raised(self):
        # row 0 feasible, row 1 infeasible; both reported, nothing thrown
        A = np.array([[1.0], [1.0]]).T  # x is length 1, xA has length 2
        B = np.array([[0.0, 0.0], [0.0, 10.0]])
        sols = solve_row_family(A, B, np.array([1.0, 1.0]))
        assert sols[0].status is LpStatus.OPTIMAL
        assert sols[1].status is LpStatus.INFEASIBLE


def low_rank(rng, rows, cols):
    """A random matrix of rank 1 to min(rows, cols), max|entry| 1e-3 to 1e4."""
    rank = int(rng.integers(1, min(rows, cols) + 1))
    M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    return M / np.abs(M).max() * 10.0 ** rng.uniform(-3, 4)


def highs_min_violation(prob: L1LinfProblem) -> float:
    """t* of min t s.t. |Ax - b| <= lam + t, lo <= x <= hi, t >= 0, by
    scipy's HiGHS on (x, t), apart from how the solver under test splits x;
    tolerances tightened as in conftest's bounded reference."""
    from scipy.optimize import linprog

    m, p = prob.A.shape
    ones = np.ones((m, 1))
    A_ub = np.block([[prob.A, -ones], [-prob.A, -ones]])
    b_ub = np.concatenate([prob.lam + prob.b, prob.lam - prob.b])
    bounds = [(None if l == -np.inf else l, None if h == np.inf else h)
              for l, h in zip(prob.lo, prob.hi)]
    res = linprog(np.r_[np.zeros(p), 1.0], A_ub=A_ub, b_ub=b_ub, bounds=bounds + [(0, None)],
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.fun)


def elastic_problem(rng) -> L1LinfProblem:
    """A min-violation LP shaped as rgmm's elastic step poses it: |f + G d|
    <= lam + t with d bounded by the trust region and the box. lam is a
    positive number or 0; each coordinate's bounds straddle 0, lie above or
    below it (theta a hair or more past the box), or are absent."""
    p, m = (int(k) for k in rng.integers(2, 9, size=2))
    G = low_rank(rng, m, p)
    f = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 1)
    lam = [np.abs(f).max() * rng.uniform(0.01, 0.5), 0.0][int(rng.integers(2))]
    radius = 10.0 ** rng.uniform(-2, 1, size=p)
    past = radius * 10.0 ** rng.uniform(-9, 0, size=p)
    lo, hi = -radius, radius * rng.uniform(0.1, 1.0, size=p)
    kind = rng.integers(5, size=p)
    lo[kind == 1], hi[kind == 1] = past[kind == 1], radius[kind == 1]  # above 0
    lo[kind == 2], hi[kind == 2] = -radius[kind == 2], -past[kind == 2]  # below 0
    lo[kind == 3], hi[kind == 3] = -radius[kind == 3], -1e-9  # a hair past the box
    lo[kind == 4], hi[kind == 4] = -np.inf, np.inf
    return L1LinfProblem(G, -f, lam, lo, hi)


def no_tableau(*args):
    raise AssertionError("the solver built a tableau")


def floor_problem(rng) -> L1LinfProblem:
    """A min-violation LP shaped as debias's row floor poses it,
    equilibrated: ||x a - b||_inf <= t, a sometimes with dead columns."""
    p, q = (int(k) for k in rng.integers(2, 9, size=2))
    a = low_rank(rng, p, q)
    a[:, rng.random(q) < 0.2] = 0.0
    b = rng.standard_normal(q) * 10.0 ** rng.uniform(-3, 1)
    scale = max(np.abs(a).max(), np.abs(b).max())
    return L1LinfProblem(a.T / scale, b / scale, 0.0)


class TestNonnegLp:
    def test_negative_rhs_feasibility_phase(self):
        # |x - 3| <= t with x <= 0: the slack basis breaks the row
        # -x - t + s = -3, and the dual simplex repairs it by t = 3
        sol = solve_nonneg_lp(L1LinfProblem(np.array([[1.0]]), np.array([3.0]), 0.0, hi=0.0))
        assert sol.status is LpStatus.OPTIMAL and sol.dual is None
        assert sol.objective == 3.0 and sol.x[0] == 0.0 and sol.max_violation == 0.0

    def test_size_guard(self):
        with pytest.raises(LpSizeError):
            solve_nonneg_lp(L1LinfProblem(np.zeros((1200, 1200)), np.zeros(1200), 0.0))

    def test_no_rows_leaves_x_at_the_bound_nearest_zero(self):
        prob = L1LinfProblem(np.zeros((0, 2)), np.zeros(0), 0.0, lo=[1.0, -3.0], hi=[2.0, -1.0])
        sol = solve_nonneg_lp(prob)
        assert sol.status is LpStatus.OPTIMAL and sol.pivots == 0 and sol.objective == 0.0
        np.testing.assert_array_equal(sol.x, [1.0, -1.0])

    def test_crossed_bounds_are_infeasible(self):
        prob = L1LinfProblem(np.eye(2), np.zeros(2), 0.0, lo=[0.0, 1.0], hi=[1.0, 0.5])
        assert solve_nonneg_lp(prob).status is LpStatus.INFEASIBLE

    def test_min_violation_lps_agree_with_highs(self, rng):
        for k in range(400):
            prob = elastic_problem(rng) if k % 2 else floor_problem(rng)
            sol = solve_nonneg_lp(prob)
            assert sol.status is LpStatus.OPTIMAL
            # roundoff in Ax grows with the entries of A (up to 1e4 here)
            tol = 1e-12 * max(1.0, np.abs(prob.A).max())
            assert sol.objective == pytest.approx(highs_min_violation(prob), rel=1e-9, abs=tol)
            assert sol.max_violation <= l1_solvers.FEAS_TOL
            assert np.all(prob.lo <= sol.x) and np.all(sol.x <= prob.hi) and sol.objective >= 0.0

    def test_a_dead_column_floors_at_exactly_one_without_a_tableau(self, rng, monkeypatch):
        # at a dead group, column r of gamma_hat G_hat is zero up to roundoff,
        # and row r's floor, min ||x a - e_r||_inf, is 1: the presolve drops
        # that zero row, whose violation is fixed at 1, and x = 0 meets every
        # other row at t = 1
        a = rng.standard_normal((80, 80))
        a /= np.abs(a).max()
        a[:, 5] = 3e-15 * rng.standard_normal(80)
        monkeypatch.setattr(l1_solvers, "_slack_tableau", no_tableau)
        sol = solve_nonneg_lp(L1LinfProblem(a.T, np.eye(80)[5], 0.0))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.pivots == 0 and sol.objective == 1.0 and sol.max_violation == 0.0
        np.testing.assert_array_equal(sol.x, np.zeros(80))


def random_family(rng):
    """A row family (A, B, lam) as the debias LPs pose them, but harder.

    A (p x q) is often rank-deficient and sometimes has a dead column (a zero
    constraint row of A'), the scales run from 1e-3 to 1e3, and each row's
    penalty is 0.01 to 1.2 times max|B|, so statuses mix.
    """
    p, q = (int(k) for k in rng.integers(2, 9, size=2))
    rank = int(rng.integers(1, min(p, q) + 1))
    A = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, q))
    if rng.random() < 0.3:
        A[:, int(rng.integers(q))] = 0.0
    A *= 10.0 ** rng.uniform(-3, 3)
    B = rng.standard_normal((int(rng.integers(3, 9)), q)) * 10.0 ** rng.uniform(-3, 3)
    lam = np.abs(B).max() * rng.uniform(0.01, 1.2, size=B.shape[0])
    return A, B, lam


class TestWarmStartedFamily:
    """solve_row_family starts each row from its crash basis on a square
    family and from the slack basis otherwise, and the LPs that pass one
    _FamilyState start from the last one's tableau; every answer must be
    the one a cold solve of that row gives."""

    def test_agrees_with_cold_solves(self, rng):
        statuses = set()
        for _ in range(150):
            A, B, lam = random_family(rng)
            for r, sol in enumerate(solve_row_family(A, B, lam)):
                cold = solve_l1_linf(L1LinfProblem(A.T, B[r], lam[r]))
                assert sol.status is cold.status
                statuses.add(sol.status)
                if sol.status is LpStatus.OPTIMAL:
                    assert sol.objective == pytest.approx(cold.objective, rel=1e-9, abs=0)
                    assert sol.max_violation <= l1_solvers.FEAS_TOL
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}

    def test_dual_certificates(self, rng):
        for _ in range(20):
            A, B, lam = random_family(rng)
            for r, sol in enumerate(solve_row_family(A, B, lam)):
                if sol.status is LpStatus.OPTIMAL:
                    # the identities are checked on unit-scale data
                    s = np.abs(B).max()
                    check_certificate(L1LinfProblem(A.T, B[r] / s, lam[r] / s),
                                      replace(sol, x=sol.x / s, objective=sol.objective / s))

    def test_warm_start_is_used(self, rng):
        # a repeated LP is already optimal at the previous LP's basis when
        # both pass one _FamilyState, as the SLP's step LPs do
        At = rng.standard_normal((7, 5)).T
        b = rng.standard_normal(5)
        family = l1_solvers._FamilyState(At)
        first, second = (solve_l1_linf(L1LinfProblem(At, b, 0.05), _family=family) for _ in range(2))
        assert first.pivots > 0 and second.pivots == 0
        np.testing.assert_allclose(first.x, second.x, rtol=0, atol=1e-12)

    def test_infeasible_row_leaves_next_row_unchanged(self, rng):
        # A has rank 2 in R^4: a generic right-hand side is out of reach
        A = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 4))
        b0, b2 = rng.standard_normal((2, 3)) @ A
        unreachable = rng.standard_normal(4)
        lam = np.full(3, 0.01)
        sols = solve_row_family(A, np.array([b0, unreachable, b2]), lam)
        assert [s.status for s in sols] == [LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.OPTIMAL]
        assert sols[1].pivots > 0  # the LP itself, not the zero-row check, found it
        without = solve_row_family(A, np.array([b0, b2]), lam[:2])[1]
        np.testing.assert_allclose(sols[2].x, without.x, rtol=0, atol=1e-12)
        cold = solve_l1_linf(L1LinfProblem(A.T, b2, 0.01))
        assert sols[2].objective == pytest.approx(cold.objective, rel=1e-12)

    def test_violation_below_tolerance_after_equilibration_is_removed(self):
        # x = 0 violates the row by 5e-6, which equilibration by 1/1000 turns
        # into 5e-9, below FEAS_TOL: the vertex must still satisfy the row
        (sol,) = solve_row_family(np.array([[1000.0]]), np.array([[0.030005]]), np.array([0.03]))
        cold = solve_l1_linf(L1LinfProblem(np.array([[1000.0]]), np.array([0.030005]), 0.03))
        assert sol.status is LpStatus.OPTIMAL and sol.max_violation <= l1_solvers.FEAS_TOL
        assert sol.x[0] == pytest.approx(5e-9, rel=1e-6)
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9)

    def test_all_zero_family(self):
        # every constraint row of A' is zero, so no row is left after
        # equilibration; |b| <= lam makes x = 0 optimal
        B = np.array([[0.1, -0.2, 0.0], [0.3, 0.3, -0.3]])
        for sol in solve_row_family(np.zeros((4, 3)), B, np.full(2, 0.3)):
            assert sol.status is LpStatus.OPTIMAL
            np.testing.assert_array_equal(sol.x, np.zeros(4))

    def test_pivot_limit_per_row(self, rng, monkeypatch):
        # A' is 6 x 9, not square: each row needs pivots from the slack basis
        A = rng.standard_normal((9, 6))
        B = rng.standard_normal((3, 6))
        monkeypatch.setattr(l1_solvers, "MAX_PIVOTS", 1)
        sols = solve_row_family(A, B, np.full(3, 0.01))
        assert [s.status for s in sols] == [LpStatus.ITERATION_LIMIT] * 3

    def test_warm_row_violating_its_constraint_is_resolved_cold(self, rng, simplex_runs):
        At = rng.standard_normal((5, 5)).T
        B = rng.standard_normal((2, 5))
        family = l1_solvers._FamilyState(At)
        solve_l1_linf(L1LinfProblem(At, B[0], 0.05), _family=family)
        m, n = len(family.basis), family.T.shape[1] - 1
        assert n == 2 * 5 + m  # columns u, v, then the slacks, whose block holds B^-1
        family.T[:m, n - m : n] *= 3.0  # a stale B^-1: the warm answer is wrong
        simplex_runs.clear()
        sol = solve_l1_linf(L1LinfProblem(At, B[1], 0.05), _family=family)
        assert_resolved_cold_once(sol, simplex_runs, solve_l1_linf(L1LinfProblem(At, B[1], 0.05)))

    def test_warm_answer_left_dual_infeasible_is_resolved_cold(self, simplex_runs):
        # a stored row with its u and v entries negated misleads the warm
        # ratio test: the warm answer meets every row, but its final reduced
        # costs come out dual infeasible
        rng = np.random.default_rng(12)
        At = rng.standard_normal((5, 5)).T
        B = rng.standard_normal((2, 5))
        family = l1_solvers._FamilyState(At)
        solve_l1_linf(L1LinfProblem(At, B[0], 0.05), _family=family)
        family.T[4, : 2 * 5] *= -1.0
        simplex_runs.clear()
        sol = solve_l1_linf(L1LinfProblem(At, B[1], 0.05), _family=family)
        assert_resolved_cold_once(sol, simplex_runs, solve_l1_linf(L1LinfProblem(At, B[1], 0.05)))
        assert simplex_runs[0] > 0  # the warm attempt pivoted, and its pivots count too

    def test_one_solve_l1_linf_call_per_row(self, rng, monkeypatch):
        # each call poses no problem of its own, only the family and its row
        calls = []
        real = l1_solvers.solve_l1_linf

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(l1_solvers, "solve_l1_linf", counting)
        B = rng.standard_normal((5, 4))
        solve_row_family(rng.standard_normal((4, 4)), B, np.full(5, 0.1))
        assert [(args, kwargs["_row"]) for args, kwargs in calls] == [((), r) for r in range(5)]
        family = calls[0][1]["_family"]
        assert all(kwargs["_family"] is family for _, kwargs in calls)
        np.testing.assert_array_equal(family.B, B)

    def test_deterministic(self, rng):
        A, B, lam = random_family(rng)

        def run():
            return b"".join(
                s.x.tobytes() + np.float64(s.objective).tobytes() + bytes(str(s.pivots), "ascii")
                + (b"" if s.dual is None else s.dual.tobytes())
                for s in solve_row_family(A, B, lam)
            )

        assert run() == run()


def square_family(rng, cond):
    """A square row family (A, B, lam) whose presolved block A' is square,
    with condition number about cond: sometimes a dead column of A (a zero
    constraint row of A') together with a zero row of A (a coordinate no
    live row uses), scales from 1e-3 to 1e3, and each row's penalty 0.01 to
    1.2 times max|B|, so statuses mix."""
    k = int(rng.integers(3, 9))
    U, _ = np.linalg.qr(rng.standard_normal((k, k)))
    V, _ = np.linalg.qr(rng.standard_normal((k, k)))
    A = (U * np.geomspace(1.0, 1.0 / cond, k)) @ V
    if rng.random() < 0.5:
        A = np.insert(A, int(rng.integers(k + 1)), 0.0, axis=0)
        A = np.insert(A, int(rng.integers(k + 1)), 0.0, axis=1)
    A *= 10.0 ** rng.uniform(-3, 3)
    B = rng.standard_normal((int(rng.integers(3, 9)), A.shape[1])) * 10.0 ** rng.uniform(-3, 3)
    lam = np.abs(B).max() * rng.uniform(0.01, 1.2, size=B.shape[0])
    return A, B, lam


@pytest.fixture
def crash_starts(monkeypatch):
    """Counts the rows given crash starts while the test runs, one entry
    (the block's size) per row."""
    calls = []
    real = l1_solvers._crash_starts

    def counting(*args):
        out = real(*args)
        calls.extend([len(out.inv)] * len(out.s))
        return out

    monkeypatch.setattr(l1_solvers, "_crash_starts", counting)
    return calls


@pytest.fixture
def simplex_runs(monkeypatch):
    """Records the pivots of every dual simplex run while the test runs."""
    runs = []
    real = l1_solvers._run_dual_simplex

    def recording(*args):
        status, pivots = real(*args)
        runs.append(pivots)
        return status, pivots

    monkeypatch.setattr(l1_solvers, "_run_dual_simplex", recording)
    return runs


def assert_resolved_cold_once(sol, runs, cold):
    """sol came from a warm attempt and one re-solve from the slack basis
    (runs holds both simplex runs' pivots, and cold is a fresh cold solve
    of the same LP, made after sol): the answer is the cold one, and both
    attempts' pivots count."""
    assert len(runs) == 3 and runs[1] == runs[2] == cold.pivots
    assert sol.pivots == runs[0] + runs[1]
    assert sol.status is cold.status is LpStatus.OPTIMAL and sol.max_violation <= l1_solvers.FEAS_TOL
    assert sol.x.tobytes() == cold.x.tobytes() and sol.dual.tobytes() == cold.dual.tobytes()


def family_bytes(sols):
    return [s.x.tobytes() + np.float64(s.objective).tobytes() + bytes(f"{s.status} {s.pivots}", "ascii")
            + (b"" if s.dual is None else s.dual.tobytes()) for s in sols]


class TestCrashStart:
    """solve_row_family starts each row of a square, safely invertible
    family at the basis sign(A^-1 b) names; every answer must be HiGHS's."""

    @pytest.mark.parametrize("cond", [10.0, 1e6], ids=["well", "ill"])
    def test_square_families_agree_with_highs(self, rng, crash_starts, cond):
        statuses = set()
        for _ in range(60):
            A, B, lam = square_family(rng, cond)
            s = np.abs(B).max()
            for r, sol in enumerate(solve_row_family(A, B, lam)):
                status, value = highs_l1_linf(A.T, B[r], lam[r])
                assert sol.status.value == status
                statuses.add(sol.status)
                if sol.status is LpStatus.OPTIMAL:
                    assert sol.objective == pytest.approx(value, rel=1e-9, abs=1e-12 * s)
                    assert sol.max_violation <= l1_solvers.FEAS_TOL
                    # the identities are checked on unit-scale data
                    check_certificate(L1LinfProblem(A.T, B[r] / s, lam[r] / s),
                                      replace(sol, x=sol.x / s, objective=sol.objective / s),
                                      rel=1e-9)
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
        assert len(crash_starts) > 100

    def test_a_singular_block_starts_each_row_cold(self, rng, crash_starts):
        # A' is square but of rank 4: no inverse, so no crash start; the
        # repeated row starts from the slack basis too, not from the first
        # row's tableau, and each row comes out as it does alone
        Q = rng.standard_normal((4, 5))
        A = rng.standard_normal((5, 4)) @ Q
        b = rng.standard_normal(4) @ Q
        first, second = solve_row_family(A, np.array([b, b]), np.full(2, 0.05))
        assert crash_starts == []
        assert first.status is second.status is LpStatus.OPTIMAL
        assert first.pivots == second.pivots > 0
        alone = solve_row_family(A, b[None, :], np.full(1, 0.05))
        assert family_bytes([first, second]) == family_bytes(alone) * 2

    def test_row_order_does_not_matter(self, rng, crash_starts):
        # each row comes out the same, byte for byte, in its family, in a
        # permuted family and alone: dead rows and x = 0 rows included, and
        # on families without crash starts too, whose block is not square
        # (A is 6 x 4) or singular (5 x 5 of rank 3)
        kinds = {"square": set(), "non-square": set(), "singular": set()}
        for _ in range(20):
            Q = rng.standard_normal((3, 5))
            for name, (A, B, lam) in (
                ("square", square_family(rng, 1e3)),
                ("non-square", (rng.standard_normal((6, 4)), rng.standard_normal((6, 4)),
                                rng.uniform(0.01, 1.2, 6))),
                ("singular", (rng.standard_normal((5, 3)) @ Q, rng.standard_normal((6, 3)) @ Q,
                              rng.uniform(0.01, 1.2, 6))),
            ):
                perm = rng.permutation(B.shape[0])
                fam = solve_row_family(A, B, lam)
                sols = family_bytes(fam)
                assert family_bytes(solve_row_family(A, B[perm], lam[perm])) == [sols[r] for r in perm]
                for r, sol in enumerate(fam):
                    assert family_bytes(solve_row_family(A, B[r : r + 1], lam[r : r + 1])) == [sols[r]]
                    kinds[name].add("dead" if sol.status is LpStatus.INFEASIBLE
                                    else "zero" if sol.objective == 0.0 else "simplex" if sol.pivots else "crash")
        assert kinds["square"] == {"dead", "zero", "simplex", "crash"}
        assert kinds["non-square"] >= {"zero", "simplex"} and kinds["singular"] >= {"zero", "simplex"}
        assert crash_starts

    def test_a_crash_answer_that_breaks_its_certificate_is_resolved_cold(self, rng, monkeypatch, simplex_runs):
        # an inverse off by a factor 1 + 1e-4 names the same signs, but the
        # answer's dual y then has ||A'y||_inf = 1 + 1e-4: the row is solved
        # again from the slack basis
        A = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
        b = rng.standard_normal(6)
        real = l1_solvers._safe_inverse
        monkeypatch.setattr(l1_solvers, "_safe_inverse", lambda As: real(As) * (1 + 1e-4))
        (sol,) = solve_row_family(A, b[None, :], np.full(1, 0.05))
        assert_resolved_cold_once(sol, simplex_runs, solve_l1_linf(L1LinfProblem(A.T, b, 0.05)))


class TestPresolve:
    """Both solvers drop zero rows and the columns no live row uses, and
    return the point of [lo, hi] nearest 0 without a tableau when it meets
    every row."""

    def test_l1_linf_exit_at_zero_with_a_dual_certificate(self, rng, monkeypatch):
        A = rng.standard_normal((6, 4))
        A[2] = 0.0
        b = 0.3 * rng.uniform(-1.0, 1.0, 6)
        prob = L1LinfProblem(A, b, 0.3)
        monkeypatch.setattr(l1_solvers, "_slack_tableau", no_tableau)
        sol = solve_l1_linf(prob)
        assert sol.status is LpStatus.OPTIMAL and sol.pivots == 0 and sol.objective == 0.0
        np.testing.assert_array_equal(sol.x, np.zeros(4))
        np.testing.assert_array_equal(sol.dual, np.zeros(6))
        check_certificate(prob, sol)

    def test_nonneg_exit_at_the_violation_a_zero_row_fixes(self, rng, monkeypatch):
        # the zero row fixes t >= |b_0| - lam = 0.7, and x = 0 meets the
        # other rows within lam + 0.7
        A = rng.standard_normal((5, 3))
        A[0] = 0.0
        b = np.r_[-0.9, 0.9 * rng.uniform(-1.0, 1.0, 4)]
        prob = L1LinfProblem(A, b, 0.2)
        monkeypatch.setattr(l1_solvers, "_slack_tableau", no_tableau)
        sol = solve_nonneg_lp(prob)
        assert sol.status is LpStatus.OPTIMAL and sol.pivots == 0
        assert sol.objective == pytest.approx(0.7, rel=1e-15) and sol.max_violation == 0.0
        np.testing.assert_array_equal(sol.x, np.zeros(3))
        monkeypatch.undo()
        assert sol.objective == pytest.approx(highs_min_violation(prob), rel=1e-9)

    def test_a_zero_row_bounds_the_violation_from_below(self, rng):
        # the zero row fixes t >= 0.1, but the live rows need more
        A = rng.standard_normal((5, 3))
        A[0] = 0.0
        b = np.r_[0.3, 5.0 * rng.standard_normal(4)]
        prob = L1LinfProblem(A, b, 0.2, lo=-0.1, hi=0.1)
        sol = solve_nonneg_lp(prob)
        assert sol.status is LpStatus.OPTIMAL and sol.pivots > 0 and sol.objective > 0.1
        assert sol.objective == pytest.approx(highs_min_violation(prob), rel=1e-9)

    def test_a_zero_column_stays_at_the_bound_nearest_zero(self, rng):
        A = rng.standard_normal((4, 5))
        A[:, 1] = 0.0
        b = rng.standard_normal(4)
        lo, hi = np.full(5, -np.inf), np.full(5, np.inf)
        lo[1], hi[1] = 0.5, 3.0
        for prob in (L1LinfProblem(A, b, 0.05, lo, hi), L1LinfProblem(A, b, 0.0, lo, hi)):
            for sol in (solve_l1_linf(prob), solve_nonneg_lp(prob)):
                assert sol.status is LpStatus.OPTIMAL and sol.pivots > 0
                assert sol.x[1] == 0.5
        status, value = highs_l1_linf(A, b, 0.05, lo, hi)
        assert solve_l1_linf(L1LinfProblem(A, b, 0.05, lo, hi)).objective == pytest.approx(value, rel=1e-9)

    def test_a_warm_family_is_still_right_after_an_exit(self, rng):
        # the exit builds no tableau, so the next LP starts warm from the
        # last one the family solved
        A = rng.standard_normal((5, 7))
        b0, b2 = rng.standard_normal((2, 5))
        small = 0.01 * rng.uniform(-1.0, 1.0, 5)
        lam = 0.05
        family, without = l1_solvers._FamilyState(A), l1_solvers._FamilyState(A)
        sols = [solve_l1_linf(L1LinfProblem(A, b, lam), _family=family) for b in (b0, small, b2)]
        assert sols[1].pivots == 0 and not sols[1].x.any()
        alone = [solve_l1_linf(L1LinfProblem(A, b, lam), _family=without) for b in (b0, b2)]
        assert family_bytes(sols[::2]) == family_bytes(alone)
        cold = solve_l1_linf(L1LinfProblem(A, b2, lam))
        assert sols[2].objective == pytest.approx(cold.objective, rel=1e-12)
        assert sols[2].max_violation <= l1_solvers.FEAS_TOL

    def test_the_size_guard_applies_to_the_problem_as_posed(self):
        # every row is zero, so no tableau would be built; the guard still holds
        with pytest.raises(LpSizeError):
            solve_l1_linf(L1LinfProblem(np.zeros((2000, 2000)), np.zeros(2000), 0.0))


class TestOneLpPath:
    """Every l1/l_inf LP runs the one-phase dual simplex; solve_nonneg_lp
    is left to the min-violation LPs."""

    def test_cold_solves_agree_with_highs_without_the_two_phase_simplex(self, rng, monkeypatch):
        def min_violation(*args, **kwargs):
            raise AssertionError("solve_l1_linf ran solve_nonneg_lp")

        monkeypatch.setattr(l1_solvers, "solve_nonneg_lp", min_violation)
        statuses = set()
        for _ in range(60):
            A, B, lam = random_family(rng)
            prob = L1LinfProblem(A.T, B[0], lam[0])
            sol = solve_l1_linf(prob)
            status, value = highs_l1_linf(prob.A, prob.b, prob.lam)
            assert sol.status.value == status
            statuses.add(sol.status)
            if sol.status is LpStatus.OPTIMAL:
                assert sol.objective == pytest.approx(value, rel=1e-9, abs=1e-12 * np.abs(B).max())
                assert sol.max_violation <= l1_solvers.FEAS_TOL
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}

    def test_a_family_whose_matrix_changes_starts_from_the_slack_basis(self, rng):
        # same shape, another matrix: the old family refuses it rather than
        # solve it on its stored tableau, and the new matrix's own family
        # starts from the slack basis, as a cold solve does
        A1, A2 = rng.standard_normal((2, 6, 4))
        b = rng.standard_normal(6)
        family = l1_solvers._FamilyState(A1)
        solve_l1_linf(L1LinfProblem(A1, b, 0.3), _family=family)
        with pytest.raises(ValueError, match="family's matrix"):
            solve_l1_linf(L1LinfProblem(A2, b, 0.3), _family=family)
        sol = solve_l1_linf(L1LinfProblem(A2, b, 0.3), _family=l1_solvers._FamilyState(A2))
        fresh = solve_l1_linf(L1LinfProblem(A2, b, 0.3))
        assert sol.pivots == fresh.pivots > 0
        assert sol.x.tobytes() == fresh.x.tobytes()

    def test_a_matrix_changed_in_place_starts_afresh(self, rng):
        # a family is made with its matrix object: an edited copy, even one
        # equal to the family's matrix, is refused, and the edited matrix is
        # solved afresh by a family made with it
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        family = l1_solvers._FamilyState(A)
        solve_l1_linf(L1LinfProblem(A, b, 0.3), _family=family)
        edited = A.copy()
        with pytest.raises(ValueError, match="family's matrix"):
            solve_l1_linf(L1LinfProblem(edited, b, 0.3), _family=family)
        edited[0, 0] += 1.0
        sol = solve_l1_linf(L1LinfProblem(edited, b, 0.3), _family=l1_solvers._FamilyState(edited))
        fresh = solve_l1_linf(L1LinfProblem(edited, b, 0.3))
        assert sol.pivots == fresh.pivots > 0
        assert sol.x.tobytes() == fresh.x.tobytes()


def random_bounds(rng, p, scale):
    """Per-coordinate bounds (lo, hi) on x, each coordinate one of: a box
    straddling 0, a box above 0, a box below 0, a pinch of radius 1e-6, a
    one-sided bound, or none; the boxes run up to `scale` wide."""
    lo, hi = np.full(p, -np.inf), np.full(p, np.inf)
    for k, kind in enumerate(rng.integers(0, 6, size=p)):
        a, b = np.sort(rng.uniform(0.05, 1.0, size=2)) * scale
        if kind == 0:
            lo[k], hi[k] = -a, b
        elif kind == 1:
            lo[k], hi[k] = a, b
        elif kind == 2:
            lo[k], hi[k] = -b, -a
        elif kind == 3:
            center = rng.uniform(-1.0, 1.0) * scale
            lo[k], hi[k] = center - 1e-6, center + 1e-6
        elif kind == 4:
            lo[k] = rng.uniform(-1.0, 1.0) * scale
    return lo, hi


class TestBoundedProblems:
    """Bounds on x are variable bounds of the dual simplex, not rows; every
    answer must be the one HiGHS gives with the bounds posed its own way."""

    @staticmethod
    def _check_against_highs(prob, sol, tol_abs):
        status, value = highs_l1_linf(prob.A, prob.b, prob.lam, prob.lo, prob.hi)
        assert sol.status.value == status
        if sol.status is LpStatus.OPTIMAL:
            assert sol.objective == pytest.approx(value, rel=1e-9, abs=tol_abs)
            assert sol.max_violation <= l1_solvers.FEAS_TOL
            assert np.all(prob.lo <= sol.x) and np.all(sol.x <= prob.hi)
        return sol.status

    def test_cold_and_warm_solves_agree_with_highs(self, rng):
        statuses = set()
        for _ in range(80):
            A, B, lam = random_family(rng)
            lam[rng.random(lam.size) < 0.3] = 0.0  # lambda = 0 rows: equality constraints
            scale = np.abs(B).max() / np.abs(A).max()
            At = A.T
            family = l1_solvers._FamilyState(At)
            for r in range(B.shape[0]):
                lo, hi = random_bounds(rng, A.shape[0], scale)
                prob = L1LinfProblem(At, B[r], lam[r], lo, hi)
                tol_abs = 1e-12 * np.abs(B).max()
                cold = solve_l1_linf(prob)
                warm = solve_l1_linf(prob, _family=family)
                statuses.add(self._check_against_highs(prob, cold, tol_abs))
                self._check_against_highs(prob, warm, tol_abs)
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}

    def test_bounds_alone(self):
        # no live row: x is 0 clipped into [lo, hi]
        prob = L1LinfProblem(np.zeros((2, 3)), np.array([0.1, -0.1]), 0.5,
                             lo=[-1.0, 0.5, -3.0], hi=[1.0, 2.0, -2.0])
        sol = solve_l1_linf(prob)
        assert sol.status is LpStatus.OPTIMAL and sol.pivots == 0
        np.testing.assert_array_equal(sol.x, [0.0, 0.5, -2.0])
        crossed = L1LinfProblem(np.eye(2), np.zeros(2), 1.0, lo=[0.0, 1.0], hi=[1.0, 0.5])
        assert solve_l1_linf(crossed).status is LpStatus.INFEASIBLE

    @pytest.mark.parametrize("bad", [{"lo": np.inf}, {"hi": -np.inf}, {"lo": np.nan},
                                     {"hi": [1.0, 2.0, 3.0]}])
    def test_bad_bounds_raise(self, bad):
        with pytest.raises(ValueError):
            L1LinfProblem(np.eye(2), np.zeros(2), 1.0, **bad)

    @pytest.mark.parametrize("lam", [[0.5, 0.5], np.array([0.5]), -0.1, np.inf, np.nan])
    def test_lam_is_one_finite_nonnegative_number(self, lam):
        with pytest.raises(ValueError, match="one finite, nonnegative number"):
            L1LinfProblem(np.eye(2), np.zeros(2), lam)


class TestInputChecks:
    @pytest.mark.parametrize("A, b", [(np.zeros(3), np.zeros(3)), (np.zeros((3, 2)), np.zeros((3, 1))),
                                      (np.zeros((3, 2)), np.zeros(2))], ids=["A 1-D", "b 2-D", "rows differ"])
    def test_problem_shapes_must_conform(self, A, b):
        with pytest.raises(ValueError, match="do not conform"):
            L1LinfProblem(A, b, 0.1)

    @pytest.mark.parametrize("bad", ["A", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_problem_data_must_be_finite(self, bad, value):
        data = {"A": np.eye(2), "b": np.zeros(2)}
        data[bad][0] = value
        with pytest.raises(ValueError, match="A and b must be finite"):
            L1LinfProblem(data["A"], data["b"], 0.1)

    @pytest.mark.parametrize("A, B, lam, message", [
        (np.eye(3), np.zeros((2, 2)), 0.1, "row family shapes do not conform"),
        (np.eye(2), np.zeros((2, 2)), [0.1, -0.1], "lam must be finite and nonnegative"),
        (np.eye(2), np.zeros((2, 2)), np.nan, "lam must be finite and nonnegative"),
        (np.eye(2), np.array([[0.0, np.inf], [0.0, 0.0]]), 0.1, "A and b must be finite"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros((2, 2)), 0.1, "A and b must be finite"),
    ], ids=["shapes", "negative lam", "nan lam", "B not finite", "A not finite"])
    def test_row_family_inputs_are_checked(self, A, B, lam, message):
        with pytest.raises(ValueError, match=message):
            solve_row_family(A, B, lam)


class TestCountLps:
    def test_counts_both_solvers_in_nested_blocks(self, rng):
        prob = L1LinfProblem(rng.standard_normal((4, 3)), rng.standard_normal(4), 0.2)
        outer, inner = RunStats(), RunStats()
        with count_lps(outer):
            first = solve_l1_linf(prob)
            with count_lps(inner):
                raw = solve_nonneg_lp(L1LinfProblem(np.array([[1.0]]), np.array([3.0]), 1.0, hi=0.0))
        solve_l1_linf(prob)  # outside every block
        assert (inner.lp_solves, inner.lp_pivots) == (1, raw.pivots)
        assert (outer.lp_solves, outer.lp_pivots) == (2, first.pivots + raw.pivots)
        assert replace(outer, lp_solves=0, lp_pivots=0) == RunStats()  # no other counter moves


def line_runs(solver_fn, marker, call, offset=0):
    """Run call() and report whether solver_fn ran the line `offset` lines
    after the one that contains marker, traced line by line."""
    src, first = inspect.getsourcelines(solver_fn)
    (k,) = [i for i, line in enumerate(src) if marker in line]
    target = (solver_fn.__code__, first + k + offset)
    hit = []

    def local(frame, event, arg):
        if event == "line" and (frame.f_code, frame.f_lineno) == target:
            hit.append(True)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is target[0] else None)
    try:
        out = call()
    finally:
        sys.settrace(previous)
    return out, bool(hit)


def bland_rule_runs(solver_fn, call):
    """Run call() and report whether solver_fn took its Bland-rule branch
    (the line after its degenerate-streak test)."""
    return line_runs(solver_fn, "if stall >= _DEGENERATE_STREAK:", call, offset=1)


# a degenerate row family (lambda = 0.5, entries in {-1, 0, 1}) on which the
# dual simplex stalls long enough for its Bland rule
STALL_A = np.array([[-1, -1, 0, 0, -1, -1], [1, 1, -1, 1, 1, 1], [1, -1, 0, -1, 1, 0],
                    [-1, 0, 1, 0, 1, 0], [-1, 1, 0, 1, 1, -1], [1, 0, 1, -1, 1, 0],
                    [-1, 1, 1, -1, -1, 1], [-1, -1, 0, 1, 0, 1], [-1, -1, 1, 1, -1, 0]],
                   dtype=float)
STALL_B = np.array([[-1, 0, -1, -1, -1, 1], [-1, 1, 0, 1, 1, -1], [1, 1, -1, -1, 1, -1]],
                   dtype=float)
# a degenerate LP (lambda = 0) whose dual simplex meets a row out of bounds
# by 5.6e-17 with no candidate to repair it
ROUNDOFF_A = np.array([[0, 0, 1, 0, 1, 0], [0, 1, 0, 1, -1, -1], [0, -1, 1, 0, 0, 1],
                       [0, -1, -1, 0, -1, -1]], dtype=float)
ROUNDOFF_B = np.array([0, -1, -1, -1, 1, -1], dtype=float)


class TestDegenerateLps:
    def test_dual_bland_rule_on_a_degenerate_family(self):
        # STALL_A's rows chained through one _FamilyState, as the SLP chains
        # its step LPs: the second starts from the first's final tableau
        At = STALL_A.T
        family = l1_solvers._FamilyState(At)
        sols, ran = bland_rule_runs(
            l1_solvers._run_dual_simplex,
            lambda: [solve_l1_linf(L1LinfProblem(At, b, 0.5), _family=family) for b in STALL_B])
        assert ran
        for r, sol in enumerate(sols):
            status, value = highs_l1_linf(STALL_A.T, STALL_B[r], 0.5)
            assert sol.status.value == status, r
            assert sol.objective == pytest.approx(value, rel=1e-9)
            assert sol.max_violation <= l1_solvers.FEAS_TOL

    def test_roundoff_below_zero_is_no_infeasibility_proof(self):
        prob = L1LinfProblem(ROUNDOFF_A.T, ROUNDOFF_B, 0.0)
        sol, ran = line_runs(l1_solvers._run_dual_simplex, "off its bound by roundoff only",
                             lambda: solve_l1_linf(prob))
        assert ran
        status, value = highs_l1_linf(prob.A, prob.b, 0.0)
        assert sol.status is LpStatus.OPTIMAL and status == "optimal"
        assert sol.objective == pytest.approx(value, rel=1e-9)
        assert sol.max_violation <= l1_solvers.FEAS_TOL
