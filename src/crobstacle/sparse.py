"""Linear solvers for the operators of the discrete obstacle problem.

Operators are plain ``scipy.sparse`` CSR arrays; both solvers factor them
with SuperLU and are deterministic:

* :func:`solve_spd` -- symmetric positive definite systems,
* :func:`solve_kkt` -- symmetric saddle-point systems
  ``[[A, B], [B^T, 0]]`` with constraint-degeneracy diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SolveReport",
    "LinearSolveError",
    "SingularConstraintError",
    "solve_spd",
    "solve_kkt",
]


class LinearSolveError(Exception):
    """Raised when a linear solve fails to produce a usable solution."""


class SingularConstraintError(Exception):
    """Raised when a saddle-point system has degenerate constraints.

    ``constraints`` holds the offending constraint indices (rows of the
    constraint block).
    """

    def __init__(self, message, constraints=()):
        super().__init__(message)
        self.constraints = tuple(int(c) for c in constraints)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a linear solve."""
    method: str
    n: int
    nnz: int
    iterations: int
    residual_norm: float
    elapsed: float


def solve_spd(A, b):
    """Solve a symmetric positive definite system by sparse LU.

    Returns ``(x, SolveReport)``.
    """
    csr = sp.csr_array(A)
    b = np.asarray(b, dtype=float)
    n = csr.shape[0]
    if csr.shape[0] != csr.shape[1] or len(b) != n:
        raise LinearSolveError(f"shape mismatch: A {csr.shape}, b {b.shape}")
    t0 = time.perf_counter()
    try:
        x = spla.splu(sp.csc_matrix(csr)).solve(b)
    except RuntimeError as exc:
        raise LinearSolveError(f"direct factorisation failed: {exc}") from exc
    residual = float(np.linalg.norm(csr @ x - b))
    return x, SolveReport("direct-lu", n, int(csr.nnz), 1, residual,
                          time.perf_counter() - t0)


def _duplicate_columns(Bcsc):
    """Indices of constraint columns that duplicate an earlier column."""
    seen = {}
    dups = []
    for j in range(Bcsc.shape[1]):
        sl = slice(Bcsc.indptr[j], Bcsc.indptr[j + 1])
        key = (tuple(Bcsc.indices[sl]), tuple(np.round(Bcsc.data[sl], 14)))
        if key in seen:
            dups.extend((seen[key], j))
        else:
            seen[key] = j
    return sorted(set(dups))


def _dependent_columns(Bcsc, size_limit=4_000_000):
    """Indices of constraint columns participating in a linear dependence.

    Uses a dense null-space computation; for blocks too large to densify the
    duplicate-column heuristic is the only diagnostic returned.
    """
    n, m = Bcsc.shape
    if n * m > size_limit:
        return _duplicate_columns(Bcsc)
    dense = Bcsc.toarray()
    _, sv, vt = np.linalg.svd(dense, full_matrices=True)
    tol = max(n, m) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)
    null_rows = vt[np.sum(sv > tol):]
    if null_rows.size == 0:
        return _duplicate_columns(Bcsc)
    support = np.abs(null_rows).max(axis=0)
    return sorted(np.flatnonzero(support > 1e-8 * support.max()).tolist())


def solve_kkt(A, B, f, g):
    """Solve the saddle-point system ``[[A, B], [B^T, 0]] [x; y] = [f; g]``.

    ``A`` is ``n x n`` symmetric, ``B`` is ``n x m`` with full column rank.
    Degenerate constraints raise :class:`SingularConstraintError` naming the
    offending constraint indices.  Returns ``(x, y, SolveReport)``.
    """
    Acsr = sp.csr_array(A)
    Bcsr = sp.csr_array(B)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    n, m = Bcsr.shape
    if Acsr.shape != (n, n) or len(f) != n or len(g) != m:
        raise LinearSolveError(
            f"shape mismatch: A {Acsr.shape}, B {Bcsr.shape}, f {f.shape}, g {g.shape}")

    Bcsc = sp.csc_array(Bcsr)
    Bcsc.eliminate_zeros()
    col_nnz = np.diff(Bcsc.indptr)
    empty = np.flatnonzero(col_nnz == 0)
    if empty.size:
        raise SingularConstraintError(
            f"constraints {empty.tolist()} have empty support "
            "(no unknown couples to them)", constraints=empty)

    t0 = time.perf_counter()
    K = sp.bmat([[Acsr, Bcsr], [Bcsr.T, None]], format="csc")
    try:
        lu = spla.splu(K)
    except RuntimeError as exc:
        dups = _duplicate_columns(Bcsc)
        if dups:
            raise SingularConstraintError(
                f"constraints {dups} are duplicates of each other "
                "(linearly dependent constraint rows)", constraints=dups) from exc
        raise LinearSolveError(f"saddle-point factorisation failed: {exc}") from exc
    rhs = np.concatenate([f, g])
    sol = lu.solve(rhs)
    x, y = sol[:n], sol[n:]
    if not np.all(np.isfinite(sol)):
        dups = _duplicate_columns(Bcsc)
        if dups:
            raise SingularConstraintError(
                f"constraints {dups} are duplicates of each other "
                "(linearly dependent constraint rows)", constraints=dups)
        raise LinearSolveError("saddle-point solve produced non-finite values")

    # A consistent right-hand side can hide a rank-deficient constraint
    # block: the LU then factors a roundoff-perturbed nonsingular matrix and
    # returns one particular solution, with the multiplier polluted by an
    # arbitrary null-space component.  Probe the factorization with a dense,
    # unstructured vector; solution growth near 1/eps exposes the (near-)
    # dependent constraints, which are then named via a dense null-space
    # computation when the block is small enough.
    probe = np.cos(0.7 * np.arange(n + m) + 0.3)
    growth = float(np.linalg.norm(lu.solve(probe)) / np.linalg.norm(probe))
    block_scale = max(abs(K).max(), 1.0)
    if growth * block_scale > 1e13:
        offending = _dependent_columns(Bcsc)
        raise SingularConstraintError(
            "constraint block is rank deficient (linearly dependent "
            f"constraint rows: {offending})", constraints=offending)
    residual = float(np.linalg.norm(K @ sol - rhs))
    report = SolveReport("direct-lu", n + m, int(K.nnz), 1, residual,
                         time.perf_counter() - t0)
    return x, y, report

