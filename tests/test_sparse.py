"""Linear solvers against dense numpy oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from crobstacle.sparse import (
    BorderedKkt,
    LinearSolveError,
    SelectorPattern,
    SingularConstraintError,
    _DELTA,
    solve_kkt,
    solve_spd,
)
from oracles import selector_pattern_arrays
from util import assert_same_pattern


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
        assert report.residual_norm < 1e-9
        assert report.n == 30
        assert report.nnz == 900 and report.elapsed >= 0.0

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
        with pytest.raises(SingularConstraintError):
            solve_kkt(sp.csr_array(A), sp.csr_array(B),
                      np.ones(6), np.zeros(3))

    def test_shape_mismatch(self):
        with pytest.raises(LinearSolveError):
            solve_kkt(sp.csr_array(np.eye(3)),
                      sp.csr_array(np.ones((4, 2))),
                      np.ones(3), np.ones(2))



def dense_kkt_solution(A, B, f, g, act):
    """``(u, multipliers over every constraint)`` of active mask ``act`` by dense LU."""
    n, cols = A.shape[0], np.flatnonzero(act)
    K = np.block([[A, B[:, cols]], [B[:, cols].T, np.zeros((cols.size, cols.size))]])
    sol = np.linalg.solve(K, np.concatenate([f, g[cols]]))
    mult = np.zeros(B.shape[1])
    mult[cols] = sol[n:]
    return sol[:n], mult


def mask(m, indices):
    out = np.zeros(m, dtype=bool)
    out[list(indices)] = True
    return out


def regularised_matrix(A, B0):
    """The matrix of a raw solve: ``M = [[A, B0], [B0^T, -delta D^-2]]``.

    ``D = diag(1 / max|b_j|)`` scales the constraints of ``B0``.
    """
    d = 1.0 / np.abs(B0).max(axis=0)
    return np.block([[A, B0], [B0.T, -_DELTA * np.diag(d ** -2.0)]])


class TestBorderedKkt:
    @staticmethod
    def base(seed, n=14, m=6, m0=4):
        rng = np.random.default_rng(seed)
        A = random_spd(n, seed=seed + 1)
        B = rng.normal(size=(n, m))
        f = rng.normal(size=n)
        g = rng.normal(size=m)
        pattern = SelectorPattern(sp.csr_array(A), sp.csr_array(B), rng.permutation(n))
        kkt = BorderedKkt(pattern, f, g, mask(m, range(m0)))
        return A, B, f, g, kkt

    def test_added_and_dropped_columns_against_dense_oracle(self):
        A, B, f, g, kkt = self.base(11)
        # {0, 2, 3, 4} adds column 4 and drops 1; {0, 2, 3, 5} then adds 5
        # and reuses the cached drop of 1, with 4 cached but not used
        for act in (mask(6, [0, 2, 3, 4]), mask(6, [0, 2, 3, 5])):
            u, mult = kkt.solve(act)
            expected_u, expected_mult = dense_kkt_solution(A, B, f, g, act)
            assert np.allclose(u, expected_u, atol=1e-10)
            assert np.allclose(mult, expected_mult, atol=1e-10)
            assert np.all(mult[~act] == 0.0)     # the dropped multiplier is pinned
        assert np.flatnonzero(kkt._slot >= 0).tolist() == [1, 4, 5]

    def test_base_solution_against_dense_oracle(self):
        A, B, f, g, kkt = self.base(10)
        act = mask(6, range(4))
        u, mult = kkt.solve(act)
        expected_u, expected_mult = dense_kkt_solution(A, B, f, g, act)
        assert np.allclose(u, expected_u, rtol=0.0, atol=1e-12)
        assert np.allclose(mult, expected_mult, rtol=0.0, atol=1e-12)

    def test_raw_solve_against_dense_regularised_oracle(self):
        # the eliminated multiplier block: a raw solve applies M^-1 for
        # M = [[A, B], [B^T, -delta D^-2]], D = diag(1 / max|b_j|).  The
        # -delta block costs about eps / delta of relative accuracy, so the
        # raw solve is held to (n + m) eps / delta; one refinement step
        # against M then squares that relative error away.
        A, B, _, _, kkt = self.base(16)
        size = A.shape[0] + 4
        M = regularised_matrix(A, B[:, :4])
        rng = np.random.default_rng(17)
        for r in (rng.normal(size=size), rng.normal(size=(size, 3))):
            expected = np.linalg.solve(M, r)
            scale = np.abs(expected).max()
            raw = kkt._raw(r)
            assert (np.abs(raw - expected).max()
                    <= size * np.finfo(float).eps / _DELTA * scale)
            refined = raw + kkt._raw(r - M @ raw)
            assert np.abs(refined - expected).max() <= 1e-10 * scale

    def test_empty_border_returns_base_solution(self):
        _, _, _, _, kkt = self.base(12)
        act = mask(6, range(4))
        u, mult = kkt.solve(act)
        u_again, mult_again = kkt.solve(act.copy())
        assert np.array_equal(u, u_again) and np.array_equal(mult, mult_again)
        assert u is not u_again and np.all(kkt._slot < 0)

    def test_dependent_column_raises(self):
        A, B, f, g, _ = self.base(13, m=4)
        B = np.column_stack([B, B[:, 0] - 2.0 * B[:, 3]])
        g = np.append(g, 0.0)
        pattern = SelectorPattern(sp.csr_array(A), sp.csr_array(B), np.arange(14))
        kkt = BorderedKkt(pattern, f, g, mask(5, range(4)))
        with pytest.raises(LinearSolveError, match="singular"):
            kkt.solve(np.ones(5, dtype=bool))

    def test_coupling_outside_the_stiffness_pattern_raises(self):
        # P is filled into A's pattern: a constraint that couples two
        # unknowns A does not couple is named when the pattern is built,
        # never scattered elsewhere
        n = 5
        A = sp.diags_array([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                           offsets=[-1, 0, 1], format="csr")
        B = np.zeros((n, 3))
        B[[0, 1], 0] = 1.0
        B[[1, 2], 1] = 1.0
        B[[0, 3], 2] = 1.0
        order = np.arange(n)[::-1]
        pattern = SelectorPattern(A, sp.csr_array(B[:, :2]), order)
        BorderedKkt(pattern, np.ones(n), np.zeros(2), mask(2, [0, 1]))
        # named by the unknowns of A, not by their places in the order
        with pytest.raises(LinearSolveError,
                           match="constraint 2 couples unknowns (0 and 3|3 and 0)") as err:
            SelectorPattern(A, sp.csr_array(B), order)
        with pytest.raises(LinearSolveError) as reference:
            selector_pattern_arrays(A, sp.csr_array(B), order)
        assert str(err.value) == str(reference.value)

    @pytest.mark.parametrize("seed", [20, 21])
    def test_pattern_arrays_match_the_indexing_reference(self, seed):
        # random supports, empty columns inside and at the end, a dense
        # stiffness in a random order
        rng = np.random.default_rng(seed)
        n, m = 9, 7
        B = rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.4)
        B[:, 2] = B[:, -1] = 0.0
        B[:5, 3] = rng.normal(size=5)
        A = sp.csr_array(random_spd(n, seed=seed))
        order = rng.permutation(n)
        pattern = SelectorPattern(A, sp.csr_array(B), order)
        assert np.array_equal(pattern.scale[[2, 6]], [0.0, 0.0])
        assert_same_pattern(pattern, selector_pattern_arrays(A, sp.csr_array(B), order))

    def test_permuted_build_against_dense_oracles(self):
        # a build factors P permuted into the pattern's order; with every
        # support of 14 rows the scatter sums 6 products into each entry.  A
        # second build of the pattern, with other constraints, sees the same
        # moved data
        rng = np.random.default_rng(18)
        A = random_spd(14, seed=19)
        B = rng.normal(size=(14, 6))
        f = rng.normal(size=14)
        g = rng.normal(size=6)
        order = rng.permutation(14)
        assert np.any(order != np.arange(14))
        pattern = SelectorPattern(sp.csr_array(A), sp.csr_array(B), order)
        BorderedKkt(pattern, f, g, mask(6, range(4)))
        base = mask(6, [1, 2, 4, 5])
        kkt = BorderedKkt(pattern, f, g, base)
        for act in (base, mask(6, [0, 2, 4, 5]), mask(6, [1, 3])):
            u, mult = kkt.solve(act)
            expected_u, expected_mult = dense_kkt_solution(A, B, f, g, act)
            assert np.allclose(u, expected_u, rtol=0.0, atol=1e-10)
            assert np.allclose(mult, expected_mult, rtol=0.0, atol=1e-10)
        M = regularised_matrix(A, B[:, base])
        r = np.random.default_rng(19).normal(size=(M.shape[0], 2))
        expected = np.linalg.solve(M, r)
        assert (np.abs(kkt._raw(r) - expected).max()
                <= M.shape[0] * np.finfo(float).eps / _DELTA * np.abs(expected).max())
