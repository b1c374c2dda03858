"""Linear solvers for the operators of the discrete obstacle problem.

Operators are plain ``scipy.sparse`` CSR arrays; both solvers factor them
with SuperLU and are deterministic:

* :func:`solve_spd` -- symmetric positive definite systems,
* :func:`solve_kkt` -- symmetric saddle-point systems
  ``[[A, B], [B^T, 0]]`` with constraint-degeneracy diagnostics,
* :class:`BorderedKkt` -- reuse of one :func:`solve_kkt` factorisation
  ``K0`` (the *base*) for systems bordered onto it.

A bordered system ``[[K0, W], [W^T, 0]] [w; z] = [r0; r2]`` is solved through
the dense Schur complement ``S = W^T K0^-1 W``: ``z = S^-1 (W^T w0 - r2)``
with ``w0 = K0^-1 r0``, then ``w = K0^-1 (r0 - W z)``.  A border column
``[b; 0]`` adds the constraint ``b``; a unit column ``e_{n+i}`` releases
base constraint ``i`` and pins its multiplier to zero.  Border columns are
solved against ``K0`` once per base and cached with their rows of ``S``.
A bordered solution agrees with a fresh factorisation to round-off, not
bitwise; :func:`crobstacle.solver.pdas_solve` therefore uses bordered
solves only to pick the next active set and re-solves the iterate it
returns through :func:`solve_kkt`, which keeps its results bitwise those of
a fresh factorisation per iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

import numpy as np
import scipy.sparse as sp
import scipy.linalg as sla
import scipy.sparse.linalg as spla

__all__ = [
    "SolveReport",
    "LinearSolveError",
    "SingularConstraintError",
    "solve_spd",
    "solve_kkt",
    "BorderedKkt",
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
    """Outcome of a linear solve.

    ``factor`` is the SuperLU factorisation a :func:`solve_kkt` call made,
    for reuse by :class:`BorderedKkt`; it does not take part in comparisons.
    """
    method: str
    n: int
    nnz: int
    iterations: int
    residual_norm: float
    elapsed: float
    factor: object = field(default=None, repr=False, compare=False)


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
    block_scale = float(np.abs(K.data).max(initial=1.0))
    if growth * block_scale > 1e13:
        offending = _dependent_columns(Bcsc)
        raise SingularConstraintError(
            "constraint block is rank deficient (linearly dependent "
            f"constraint rows: {offending})", constraints=offending)
    residual = float(np.linalg.norm(K @ sol - rhs))
    report = SolveReport("direct-lu", n + m, int(K.nnz), 1, residual,
                         time.perf_counter() - t0, factor=lu)
    return x, y, report



#: border columns solved against the base per SuperLU call; bounds the dense
#: right-hand-side and solution buffers of :meth:`BorderedKkt.extend`
BORDER_CHUNK = 16
#: bound on ``1 / |S^-1|_1`` of the scaled Schur complement below which a
#: bordered solve counts as singular
SCHUR_INV_NORM_MIN = 1e-12


class BorderedKkt:
    """A factored saddle-point matrix ``K0`` reused for bordered systems.

    ``factor`` is the SuperLU object of ``K0`` (``SolveReport.factor``),
    ``rhs`` its right-hand side ``r0`` and ``solution`` the solve ``w0`` the
    fresh path returned.  Border columns carry hashable keys: :meth:`extend`
    solves new ones against ``K0`` and caches their rows of ``S`` and of
    ``W^T w0``; :meth:`solve` solves the system bordered by any subset of the
    cached columns.
    """

    def __init__(self, factor, rhs, solution):
        self._lu = factor
        self.rhs = np.asarray(rhs, dtype=float)
        self.solution = np.asarray(solution, dtype=float)
        self._index = {}
        self._columns = sp.csc_array((self.rhs.size, 0))
        self._schur = np.zeros((0, 0))
        self._projected = np.zeros(0)
        self._weights = np.zeros(0)

    def missing(self, keys) -> list:
        """The keys among ``keys`` whose column is not cached yet."""
        return [k for k in keys if k not in self._index]

    def extend(self, keys, columns):
        """Solve the border ``columns`` (one per key) against ``K0`` and cache them."""
        cols = sp.csc_array(columns)
        k0, c = len(self._index), cols.shape[1]
        border = sp.hstack([self._columns, cols], format="csc")
        schur = np.empty((k0 + c, k0 + c))
        schur[:k0, :k0] = self._schur
        weights = np.empty(c)
        for start in range(0, c, BORDER_CHUNK):
            stop = min(start + BORDER_CHUNK, c)
            chunk = cols[:, start:stop].toarray(order="F")
            solved = self._lu.solve(chunk)
            schur[:, k0 + start:k0 + stop] = border.T @ solved
            weights[start:stop] = np.sqrt(np.linalg.norm(chunk, axis=0)
                                          * np.linalg.norm(solved, axis=0))
        schur[k0:, :k0] = schur[:k0, k0:].T   # K0 is symmetric
        self._schur = schur
        self._columns = border
        self._projected = np.concatenate([self._projected,
                                          cols.T @ self.solution])
        self._weights = np.concatenate([self._weights, weights])
        for i, key in enumerate(keys, start=k0):
            self._index[key] = i

    def solve(self, keys, border_rhs):
        """Solve ``[[K0, W], [W^T, 0]] [w; z] = [r0; border_rhs]``.

        ``W`` holds the cached columns of ``keys`` in that order.  Returns
        ``(w, z)``; a singular or non-finite Schur complement raises
        :class:`LinearSolveError`.
        """
        idx = np.fromiter((self._index[k] for k in keys), dtype=np.intp,
                          count=len(keys))
        if idx.size == 0:
            return self.solution.copy(), np.zeros(0)
        schur = self._schur[np.ix_(idx, idx)]
        rhs = self._projected[idx] - np.asarray(border_rhs, dtype=float)
        z = _solve_schur(schur, rhs, self._weights[idx])
        w = self._lu.solve(self.rhs - self._columns[:, idx] @ z)
        if not np.all(np.isfinite(w)):
            raise LinearSolveError("bordered solve produced non-finite values")
        return w, z


def _solve_schur(schur, rhs, weights):
    """Dense LU solve of a Schur complement ``S = W^T K0^-1 W``.

    ``S`` is scaled symmetrically by ``1 / weights`` with ``weights_j**2 =
    |W_j| |K0^-1 W_j|``, which bounds its diagonal by 1.  A border column
    that depends on the base constraints and the other columns then shows as
    ``1 / |S^-1|_1`` at round-off level, whatever the element sizes.
    """
    if not (np.all(np.isfinite(schur)) and np.all(weights > 0.0)):
        raise LinearSolveError("Schur complement is singular or non-finite")
    d = 1.0 / weights
    scaled = schur * d[:, None] * d[None, :]
    lu, piv, info = sla.lapack.dgetrf(scaled)
    if info != 0:
        raise LinearSolveError("Schur complement is singular")
    # with a unit norm passed in, the condition estimate returns 1/|S^-1|_1
    inv_norm_recip, _ = sla.lapack.dgecon(lu, 1.0)
    if not inv_norm_recip >= SCHUR_INV_NORM_MIN:
        raise LinearSolveError(
            f"Schur complement is singular (1/|S^-1| = {inv_norm_recip:.1e})")
    return d * sla.lu_solve((lu, piv), d * rhs, check_finite=False)
