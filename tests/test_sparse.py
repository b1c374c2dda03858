"""Linear solvers against dense numpy oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from crobstacle.sparse import (
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

