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


def check_certificate(prob: L1LinfProblem, sol):
    """Strong-duality identities from the solver contract."""
    y = sol.dual
    assert y is not None
    assert np.abs(prob.A.T @ y).max() <= 1 + 1e-6
    dual_obj = prob.b @ y - prob.lam @ np.abs(y)
    assert dual_obj == pytest.approx(sol.objective, abs=1e-6)
    resid = prob.A @ sol.x - prob.b
    assert -y @ resid == pytest.approx(prob.lam @ np.abs(y), abs=1e-6)


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


def elastic_lp(rng):
    """(A_ub, b_ub) shaped as rgmm's elastic step poses it: min t over
    z = (d+, d-, t) s.t. |f + G d| <= lam + t, lo <= theta + d <= hi."""
    p, m = (int(k) for k in rng.integers(2, 9, size=2))
    G = low_rank(rng, m, p)
    f = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 1)
    lam = np.abs(f).max() * rng.uniform(0.01, 0.5)
    radius = 10.0 ** rng.uniform(-2, 1)
    ones, eye, zero = np.ones((m, 1)), np.eye(p), np.zeros((p, 1))
    A_ub = np.block([[G, -G, -ones], [-G, G, -ones], [eye, -eye, zero], [-eye, eye, zero]])
    return A_ub, np.concatenate([lam - f, lam + f, np.full(2 * p, radius)])


def floor_lp(rng):
    """(A_ub, b_ub) shaped as debias's row floor poses it, equilibrated:
    min t s.t. |x a - b| <= t over z = (x+, x-, t)."""
    p, q = (int(k) for k in rng.integers(2, 9, size=2))
    a = low_rank(rng, p, q)
    b = rng.standard_normal(q) * 10.0 ** rng.uniform(-3, 1)
    scale = max(np.abs(a).max(), np.abs(b).max())
    at, bs = a.T / scale, b / scale
    ones = np.ones((q, 1))
    return np.block([[at, -at, -ones], [-at, at, -ones]]), np.concatenate([bs, -bs])


class TestNonnegLp:
    @pytest.mark.parametrize(
        "c, A_ub, b_ub, match",
        [
            ([-1.0, 1.0], [[1.0, -1.0]], [2.0], "nonnegative cost"),
            ([0.0, 1.0], [[1.0, 1.0]], [1.0], "last column <= 0"),
            ([0.0, 1.0], [[-1.0, 0.0], [1.0, -1.0]], [-1.0, 1.0], "< 0 on every row"),
        ],
        ids=["negative cost", "positive last column", "last column zero on a negative row"],
    )
    def test_input_outside_the_contract_raises(self, c, A_ub, b_ub, match):
        with pytest.raises(ValueError, match=match):
            solve_nonneg_lp(np.array(c), np.array(A_ub), np.array(b_ub))

    def test_negative_rhs_feasibility_phase(self):
        # min z1 s.t. -z1 <= -3 (z1 >= 3)
        raw = solve_nonneg_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-3.0]))
        assert raw.status is LpStatus.OPTIMAL
        assert raw.z[0] == pytest.approx(3.0, abs=1e-10)

    def test_size_guard(self):
        with pytest.raises(LpSizeError):
            solve_nonneg_lp(np.zeros(4000), np.zeros((4000, 4000)), np.zeros(4000))

    def test_min_violation_lps_agree_with_highs(self, rng):
        # HiGHS's primal feasibility tolerance is 1e-7, and t enters each row
        # with -1, so its t* may sit up to 1e-7 below the true optimum
        from scipy.optimize import linprog

        for k in range(300):
            A_ub, b_ub = elastic_lp(rng) if k % 2 else floor_lp(rng)
            c = np.zeros(A_ub.shape[1])
            c[-1] = 1.0
            raw = solve_nonneg_lp(c, A_ub, b_ub)
            ref = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
            assert ref.status == 0 and raw.status is LpStatus.OPTIMAL
            assert raw.z[-1] == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
            assert max((A_ub @ raw.z - b_ub).max(), -raw.z.min()) <= l1_solvers.FEAS_TOL

    def test_start_pivot_alone_solves_a_pure_violation_lp(self):
        # min t s.t. -t <= b_i: t enters the row of the most negative b_i
        b = np.array([-1.0, 2.0, -3.0, 0.5])
        raw = solve_nonneg_lp(np.ones(1), -np.ones((4, 1)), b)
        assert raw.status is LpStatus.OPTIMAL
        assert raw.pivots == 1 and raw.z[0] == 3.0
        # with b >= 0 the slack basis is already feasible, and t* = 0
        raw = solve_nonneg_lp(np.ones(1), -np.ones((4, 1)), np.abs(b))
        assert raw.status is LpStatus.OPTIMAL
        assert raw.pivots == 0 and raw.z[0] == 0.0


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
    """solve_row_family warm-starts each row from the previous row's tableau;
    every answer must be the one a cold solve of that row gives."""

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
        # a repeated row is already optimal at the previous row's basis
        A = rng.standard_normal((5, 5))
        b = rng.standard_normal(5)
        first, second = solve_row_family(A, np.array([b, b]), np.full(2, 0.05))
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
        A = rng.standard_normal((6, 6))
        B = rng.standard_normal((3, 6))
        monkeypatch.setattr(l1_solvers, "MAX_PIVOTS", 1)
        sols = solve_row_family(A, B, np.full(3, 0.01))
        assert [s.status for s in sols] == [LpStatus.ITERATION_LIMIT] * 3

    def test_warm_row_violating_its_constraint_is_resolved_cold(self, rng):
        A = rng.standard_normal((5, 5))
        B = rng.standard_normal((2, 5))
        family = l1_solvers._FamilyState()
        solve_l1_linf(L1LinfProblem(A.T, B[0], 0.05), _family=family)
        m = len(family.basis)
        family.T[:m, -m - 1 : -1] *= 3.0  # a stale B^-1: the warm answer is wrong
        sol = solve_l1_linf(L1LinfProblem(A.T, B[1], 0.05), _family=family)
        cold = solve_l1_linf(L1LinfProblem(A.T, B[1], 0.05))
        assert sol.max_violation <= l1_solvers.FEAS_TOL
        assert sol.objective == pytest.approx(cold.objective, rel=1e-12)

    def test_one_solve_l1_linf_call_per_row(self, rng, monkeypatch):
        calls = []
        real = l1_solvers.solve_l1_linf

        def counting(problem, **kwargs):
            calls.append(problem.b)
            return real(problem, **kwargs)

        monkeypatch.setattr(l1_solvers, "solve_l1_linf", counting)
        B = rng.standard_normal((5, 4))
        solve_row_family(rng.standard_normal((4, 4)), B, np.full(5, 0.1))
        assert len(calls) == 5
        for r, b in enumerate(calls):
            np.testing.assert_array_equal(b, B[r])

    def test_deterministic(self, rng):
        A, B, lam = random_family(rng)

        def run():
            return b"".join(
                s.x.tobytes() + np.float64(s.objective).tobytes() + bytes(str(s.pivots), "ascii")
                + (b"" if s.dual is None else s.dual.tobytes())
                for s in solve_row_family(A, B, lam)
            )

        assert run() == run()


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
        # same shape, another matrix: the stored tableau must not be reused
        family = l1_solvers._FamilyState()
        A1, A2 = rng.standard_normal((2, 6, 4))
        b = rng.standard_normal(6)
        solve_l1_linf(L1LinfProblem(A1, b, 0.3), _family=family)
        sol = solve_l1_linf(L1LinfProblem(A2, b, 0.3), _family=family)
        fresh = solve_l1_linf(L1LinfProblem(A2, b, 0.3))
        assert sol.pivots == fresh.pivots > 0
        assert sol.x.tobytes() == fresh.x.tobytes()


class TestCountLps:
    def test_counts_both_solvers_in_nested_blocks(self, rng):
        prob = L1LinfProblem(rng.standard_normal((4, 3)), rng.standard_normal(4), 0.2)
        with count_lps() as outer:
            first = solve_l1_linf(prob)
            with count_lps() as inner:
                raw = solve_nonneg_lp(np.array([0.0, 1.0]), np.array([[1.0, -1.0], [-1.0, -1.0]]),
                                      np.array([-1.0, 1.0]))
        solve_l1_linf(prob)  # outside every block
        assert (inner.solves, inner.pivots) == (1, raw.pivots)
        assert (outer.solves, outer.pivots) == (2, first.pivots + raw.pivots)
