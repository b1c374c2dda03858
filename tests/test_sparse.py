"""Linear solvers against dense numpy oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from crobstacle.sparse import (
    BorderedKkt,
    LinearSolveError,
    SingularConstraintError,
    solve_kkt,
    solve_spd,
)


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    return M @ M.T + n * np.eye(n)


class TestSolveSpd:
    def test_direct_vs_dense_oracle(self):
        D = random_spd(30, seed=1)
        b = np.random.default_rng(2).normal(size=30)
        x, report = solve_spd(sp.csr_array(D), b)
        assert np.allclose(x, np.linalg.solve(D, b), atol=1e-10)
        assert report.method == "direct-lu"
        assert report.residual_norm < 1e-9
        assert report.n == 30

    def test_shape_mismatch(self):
        with pytest.raises(LinearSolveError):
            solve_spd(sp.csr_array(np.eye(3)), np.ones(4))


class TestSolveKkt:
    def test_against_dense_oracle(self):
        rng = np.random.default_rng(6)
        n, m = 12, 5
        A = random_spd(n, seed=7)
        B = rng.normal(size=(n, m))
        f = rng.normal(size=n)
        g = rng.normal(size=m)
        x, y, report = solve_kkt(sp.csr_array(A), sp.csr_array(B), f, g)
        K = np.block([[A, B], [B.T, np.zeros((m, m))]])
        expected = np.linalg.solve(K, np.concatenate([f, g]))
        assert np.allclose(x, expected[:n], atol=1e-9)
        assert np.allclose(y, expected[n:], atol=1e-9)
        assert report.residual_norm < 1e-8

    def test_empty_constraint_detected(self):
        A = random_spd(6, seed=8)
        B = np.zeros((6, 2))
        B[0, 0] = 1.0  # constraint 1 has empty support
        with pytest.raises(SingularConstraintError) as err:
            solve_kkt(sp.csr_array(A), sp.csr_array(B),
                      np.ones(6), np.zeros(2))
        assert 1 in err.value.constraints
        assert "1" in str(err.value)

    def test_duplicate_constraints_detected(self):
        A = random_spd(6, seed=9)
        B = np.zeros((6, 3))
        B[0, 0] = 1.0
        B[0, 2] = 1.0  # duplicate of constraint 0
        B[3, 1] = 2.0
        with pytest.raises(SingularConstraintError) as err:
            solve_kkt(sp.csr_array(A), sp.csr_array(B),
                      np.ones(6), np.zeros(3))
        assert set(err.value.constraints) == {0, 2}

    def test_shape_mismatch(self):
        with pytest.raises(LinearSolveError):
            solve_kkt(sp.csr_array(np.eye(3)),
                      sp.csr_array(np.ones((4, 2))),
                      np.ones(3), np.ones(2))



class TestBorderedKkt:
    @staticmethod
    def base(seed, n=14, m=6, m0=4):
        rng = np.random.default_rng(seed)
        A = random_spd(n, seed=seed + 1)
        B = rng.normal(size=(n, m))
        f = rng.normal(size=n)
        g = rng.normal(size=m)
        x, y, report = solve_kkt(sp.csr_array(A), sp.csr_array(B[:, :m0]),
                                 f, g[:m0])
        kkt = BorderedKkt(report.factor, np.concatenate([f, g[:m0]]),
                          np.concatenate([x, y]))
        return A, B, f, g, kkt

    @staticmethod
    def border(B, m0, added, dropped):
        n = B.shape[0]
        W = np.zeros((n + m0, len(added) + len(dropped)))
        W[:n, :len(added)] = B[:, added]
        W[n + np.asarray(dropped, dtype=int),
          len(added) + np.arange(len(dropped))] = 1.0
        return W

    def test_added_and_dropped_columns_against_dense_oracle(self):
        A, B, f, g, kkt = self.base(11)
        n = A.shape[0]
        kkt.extend([4, 5, 1], sp.csc_array(self.border(B, 4, [4, 5], [1])))
        assert kkt.missing([5, 2, 1]) == [2]
        # active set {0, 2, 3, 5}: constraint 4 cached but not used
        w, z = kkt.solve([5, 1], [g[5], 0.0])
        act = [0, 2, 3, 5]
        K = np.block([[A, B[:, act]], [B[:, act].T, np.zeros((4, 4))]])
        expected = np.linalg.solve(K, np.concatenate([f, g[act]]))
        assert np.allclose(w[:n], expected[:n], atol=1e-10)
        assert abs(w[n + 1]) <= 1e-12          # the dropped multiplier is pinned
        assert np.allclose(w[n + np.array([0, 2, 3])], expected[n:n + 3], atol=1e-10)
        assert np.allclose(z[0], expected[n + 3], atol=1e-10)

    def test_empty_border_returns_base_solution(self):
        _, _, _, _, kkt = self.base(12)
        w, z = kkt.solve([], [])
        assert np.array_equal(w, kkt.solution) and z.size == 0

    def test_dependent_column_raises(self):
        A, B, f, g, kkt = self.base(13)
        dependent = B[:, 0] - 2.0 * B[:, 3]
        column = np.concatenate([dependent, np.zeros(4)])[:, None]
        kkt.extend(["dep"], sp.csc_array(column))
        with pytest.raises(LinearSolveError, match="singular"):
            kkt.solve(["dep"], [0.0])
