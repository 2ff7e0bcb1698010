from itertools import combinations

import numpy as np
import pytest

from sparseblp import l1_solvers
from sparseblp.l1_solvers import (
    L1LinfProblem,
    LpSizeError,
    LpStatus,
    solve_l1_linf,
    solve_nonneg_lp,
    solve_row_family,
)


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


class TestNonnegLp:
    def test_simple_bounded_problem(self):
        # min -z1 s.t. z1 <= 2 -> z1 = 2
        raw = solve_nonneg_lp(np.array([-1.0]), np.array([[1.0]]), np.array([2.0]))
        assert raw.status is LpStatus.OPTIMAL
        assert raw.z[0] == pytest.approx(2.0, abs=1e-10)

    def test_negative_rhs_feasibility_phase(self):
        # min z1 s.t. -z1 <= -3 (z1 >= 3)
        raw = solve_nonneg_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-3.0]))
        assert raw.status is LpStatus.OPTIMAL
        assert raw.z[0] == pytest.approx(3.0, abs=1e-10)

    def test_size_guard(self):
        with pytest.raises(LpSizeError):
            solve_nonneg_lp(np.zeros(4000), np.zeros((4000, 4000)), np.zeros(4000))
