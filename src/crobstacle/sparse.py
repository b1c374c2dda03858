"""Linear solvers for the operators of the discrete obstacle problem.

Operators are plain ``scipy.sparse`` CSR arrays; the solvers factor them
with SuperLU and are deterministic:

* :func:`solve_spd` -- symmetric positive definite systems,
* :func:`solve_kkt` -- symmetric saddle-point systems
  ``[[A, B], [B^T, 0]]`` with independent constraints; a growth probe
  refuses dependent ones,
* :class:`BorderedKkt` -- the saddle-point systems of the active sets of one
  PDAS solve: one *selector* factorisation (the *base*), with the systems of
  other active sets bordered onto it.

The selector factorisation scales each constraint column to unit maximum
and regularises the (2,2) block by ``-delta I``.  It eliminates that block
exactly and factors the symmetric positive definite ``P = A + B~ B~^T /
delta`` (``B~`` the scaled constraints).  A constraint couples only the free
sides of one element, so ``P`` is filled into the stiffness matrix's own CSC
pattern, explicit zeros included; a constraint that couples two unknowns the
stiffness does not couple raises :class:`LinearSolveError`.  The selector
factorisations of one system share a :class:`SelectorPattern`: the
stiffness pattern moved once into the symmetric permutation of a given
elimination order (the mesh's nested-dissection order of the free sides,
:func:`crobstacle.mesh.nested_dissection`, in the solver), the scaled
constraints and a scatter map from each constraint's pairs of unknowns to
positions in that permuted pattern.  Every ``P`` of the system is scattered
into it and factored in its natural order (``permc_spec="NATURAL"``),
without pivoting (``diag_pivot_thresh=0``, ``SymmetricMode``) and with
one-column panels (``panel_size=1``).  It exists for every active set,
dependent constraints included.  Its solves are refined against the
unregularised matrix, the constraint residuals formed in extended
precision, and a refined residual above its bound (an inconsistent active
set gives one) raises :class:`LinearSolveError`.

A :class:`BorderedKkt` solve borders the base with the columns of the
constraints its active set changes.  At most ``_REFACTOR_COLUMNS`` of them
may be new to the base; they are solved against it in one SuperLU call and
cached, and more make the caller factor a new selector.  Sixteen columns is
the break-even on the benchmark workloads: summed in-process PDAS time was
0.91x (ring), 0.75x (pyramid) and 0.85x (corner) of the time at 64 columns
(medians of 5 interleaved runs; 8, 12, 24 and 32 columns were slower on
pyramid and corner), with the same iterates.

:class:`BorderedKkt` is the one solver of the package for a dependent
active set.  A selector solution agrees with :func:`solve_kkt` to
round-off, not bitwise; :func:`crobstacle.solver.pdas_solve` therefore
re-solves the iterate it returns through :func:`solve_kkt`, which keeps
its results bitwise those of a fresh factorisation per iterate, and keeps
the selector's iterate where :func:`solve_kkt` refuses the set.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "SelectorPattern",
    "BorderedKkt",
]


class LinearSolveError(Exception):
    """Raised when a linear solve fails to produce a usable solution."""


class SingularConstraintError(LinearSolveError):
    """Raised when a saddle-point system has degenerate constraints.

    ``constraints`` holds the offending constraint indices (rows of the
    constraint block) where they are known: only an empty support names
    them.
    """

    def __init__(self, message, constraints=()):
        super().__init__(message)
        self.constraints = tuple(int(c) for c in constraints)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a linear solve (a sparse LU factorisation and one solve)."""
    n: int
    nnz: int
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
    return x, SolveReport(n, int(csr.nnz), residual, time.perf_counter() - t0)


def solve_kkt(A, B, f, g):
    """Solve the saddle-point system ``[[A, B], [B^T, 0]] [x; y] = [f; g]``.

    ``A`` is ``n x n`` symmetric, ``B`` is ``n x m`` with full column rank.
    A constraint column with empty support raises
    :class:`SingularConstraintError` naming it; a singular factor, or one
    whose growth probe exposes dependent constraints, raises it without
    names.  Returns ``(x, y, SolveReport)``.
    """
    Acsr = sp.csr_array(A)
    Bcsr = sp.csr_array(B)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    n, m = Bcsr.shape
    if Acsr.shape != (n, n) or len(f) != n or len(g) != m:
        raise LinearSolveError(
            f"shape mismatch: A {Acsr.shape}, B {Bcsr.shape}, f {f.shape}, g {g.shape}")

    empty = np.flatnonzero(np.bincount(Bcsr.indices[Bcsr.data != 0], minlength=m) == 0)
    if empty.size:
        raise SingularConstraintError(
            f"constraints {empty.tolist()} have empty support "
            "(no unknown couples to them)", constraints=empty)

    t0 = time.perf_counter()
    K = _saddle_point(Acsr, Bcsr)
    try:
        lu = spla.splu(K)
    except RuntimeError as exc:
        raise SingularConstraintError(
            f"saddle-point factorisation failed: {exc}") from exc
    rhs = np.concatenate([f, g])
    sol = lu.solve(rhs)
    x, y = sol[:n], sol[n:]
    if not np.all(np.isfinite(sol)):
        raise SingularConstraintError("saddle-point solve produced non-finite values")

    # A consistent right-hand side can hide a rank-deficient constraint
    # block: the LU then factors a roundoff-perturbed nonsingular matrix and
    # returns one particular solution, with the multiplier polluted by an
    # arbitrary null-space component.  Probe the factorization with a dense,
    # unstructured vector; solution growth near 1/eps exposes (near-)
    # dependent constraints.
    block_scale = float(np.abs(K.data).max(initial=1.0))
    probe = np.cos(0.7 * np.arange(n + m) + 0.3)
    growth = float(np.linalg.norm(lu.solve(probe)) / np.linalg.norm(probe))
    if growth * block_scale > 1e13:
        raise SingularConstraintError(
            f"constraint block is rank deficient (solution growth {growth:.1e})")
    residual = float(np.linalg.norm(K @ sol - rhs))
    report = SolveReport(n + m, int(K.nnz), residual, time.perf_counter() - t0)
    return x, y, report


def _saddle_point(A, B):
    """``sp.bmat([[A, B], [B.T, None]], format="csc")`` of canonical CSR blocks
    without a COO pass: the same arrays, which fix the COLAMD order."""
    Ac, Bc, n = A.tocsc(), B.tocsc(), B.shape[0]
    head = Ac.indptr + B.indptr   # column j: A's column j, then B's row j
    indptr = np.concatenate([head, head[-1] + Bc.indptr[1:]])
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=indptr.dtype)
    at_a = np.arange(Ac.nnz) + np.repeat(B.indptr[:-1], np.diff(Ac.indptr))
    at_b = np.arange(B.nnz) + np.repeat(Ac.indptr[1:], np.diff(B.indptr))
    data[at_a], indices[at_a] = Ac.data, Ac.indices
    data[at_b], indices[at_b] = B.data, B.indices + n
    data[head[-1]:], indices[head[-1]:] = Bc.data, Bc.indices
    return sp.csc_array((data, indices, indptr), shape=(len(indptr) - 1,) * 2)


#: (2,2) block of a selector factorisation: ``-_DELTA I`` against constraint
#: columns scaled to unit maximum
_DELTA = 1e-10
#: iterative-refinement steps of a selector solve against the unregularised
#: (bordered) saddle-point matrix
_REFINE_STEPS = 2
#: bound on a refined selector residual (max norm) relative to ``1 + max|f|``,
#: the residual contract of :func:`crobstacle.solver.pdas_solve`
_RESIDUAL_TOL = 1e-10
#: new border columns of one solve above which a selector is refactored, the
#: measured break-even (module docstring); they are solved against the base
#: in one SuperLU call, so this also bounds the dense block of
#: :meth:`BorderedKkt._extend`
_REFACTOR_COLUMNS = 16
#: ``1 / |S^-1|_1`` of the scaled Schur complement below which a bordered
#: solve is singular: a dependent border column shows at about ``delta``
SCHUR_INV_NORM_MIN = 100 * _DELTA


#: SuperLU options of every selector factorisation: no pivoting, a symmetric
#: order, one-column panels (they factor the pipeline's ``P`` fastest)
_SELECTOR_OPTIONS = {"diag_pivot_thresh": 0.0, "panel_size": 1,
                     "options": {"SymmetricMode": True}}


class SelectorPattern:
    """What the selector factorisations of one system share.

    ``A`` is the ``n x n`` stiffness, ``B`` holds every constraint column and
    ``order`` is the elimination order of the ``n`` unknowns, a permutation
    (``order[k]`` is eliminated ``k``-th).  The pattern moves ``A``'s data
    and pattern into the CSC form of the symmetric permutation ``A[order][:,
    order]`` once.  It keeps the scale ``d_j = 1 / max|b_j|`` of each
    constraint (0 for an empty support) with the scaled constraints ``B~ =
    B D``, each column's rows stored in reverse of ``B``'s, and a scatter
    map: for each pair ``(r, c)`` of those rows, constraint by constraint,
    the position of the permuted ``(r, c)`` in that data and the product
    ``b~_rj b~_cj``.  A pair outside ``A``'s pattern raises
    :class:`LinearSolveError` naming its constraint.  The data of the
    permuted ``P = A + B~_act B~_act^T / delta`` is then the permuted data of
    ``A`` plus one ``bincount`` of the active constraints' pairs, and
    :meth:`factor` factors it in its natural order.
    """

    def __init__(self, A, B, order):
        self.A = sp.csr_array(A)
        self._order = np.asarray(order)
        self._rank = np.empty_like(self._order)
        self._rank[self._order] = np.arange(self._order.size)
        # one row gather and the columns' ranks; CSR -> CSC sorts the rows
        # and keeps A's explicit zeros
        gathered = self.A[self._order]
        columns = self._rank[gathered.indices].astype(gathered.indices.dtype, copy=False)
        moved = sp.csr_array((gathered.data, columns, gathered.indptr),
                             shape=self.A.shape).tocsc()
        self._data, self._indices, self._indptr = moved.data, moved.indices, moved.indptr
        self.B = sp.csc_array(B)
        indptr = self.B.indptr
        counts = np.diff(indptr)
        col_max = np.zeros(counts.size)
        np.maximum.at(col_max, np.repeat(np.arange(counts.size), counts),
                      np.abs(self.B.data))
        self.scale = np.divide(1.0, col_max, out=np.zeros_like(col_max),
                               where=col_max > 0.0)
        # each column's rows in reverse, as a product B @ diag(scale) stores
        # them: the scatter map sums in this order, so it fixes P's bits
        entry = np.repeat(indptr[:-1] + indptr[1:] - 1, counts) - np.arange(indptr[-1])
        self.scaled = sp.csc_array((self.B.data[entry] * np.repeat(self.scale, counts),
                                    self.B.indices[entry], indptr), shape=self.B.shape)
        # pair k of a constraint with s support rows is (k // s, k % s): each
        # entry, s times, against the entries of its column in turn
        self._pairs = counts * counts
        repeats = np.repeat(counts, counts)
        second = np.repeat(np.repeat(indptr[:-1], counts) + repeats - np.cumsum(repeats),
                           repeats)
        second += np.arange(second.size)
        self._product = np.repeat(self.scaled.data, repeats)
        self._product *= self.scaled.data[second]
        ranked = self._rank[self.scaled.indices]
        rows, cols = np.repeat(ranked, repeats), ranked[second]
        # 1 + the position of each stored entry; 0 off the pattern
        lookup = sp.csc_array((np.arange(1, self._data.size + 1), self._indices,
                               self._indptr), shape=self.A.shape)
        self._pos = lookup[rows, cols]
        self._pos -= 1
        if np.any(self._pos < 0):
            bad = np.argmax(self._pos < 0)
            owner = np.searchsorted(np.cumsum(self._pairs), bad, side="right")
            raise LinearSolveError(
                f"constraint {int(owner)} couples unknowns {int(self._order[rows[bad]])} "
                f"and {int(self._order[cols[bad]])}, which the stiffness matrix does "
                "not couple")

    def factor(self, active):
        """Factor ``P`` of the active mask ``active``; returns ``b -> P^-1 b``."""
        keep = np.repeat(active, self._pairs)
        data = self._data + np.bincount(self._pos[keep], weights=self._product[keep],
                                        minlength=self._data.size) / _DELTA
        P = sp.csc_array((data, self._indices, self._indptr), shape=self.A.shape)
        lu = spla.splu(P, permc_spec="NATURAL", **_SELECTOR_OPTIONS)
        order, rank = self._order, self._rank
        return lambda b: np.take(lu.solve(np.take(b, order, axis=0)), rank, axis=0)


class BorderedKkt:
    """The active-set systems of one PDAS solve: a selector base and systems bordered onto it.

    The system of active mask ``act`` is ``[[A, B_act], [B_act^T, 0]] [u; y]
    = [f; g_act]``; ``B`` (of ``pattern``) holds every constraint column and
    ``g`` every target.  The constructor factors the base ``K0``, the system
    of ``active``, on the selector path.  A raw solve applies ``M^-1`` for
    ``M = [[A, B0], [B0^T, -delta D^-2]]`` with ``B0 = B_active`` and ``D =
    diag(1 / max|b_j|)``, which differs from ``K0`` in its (2,2) block only.
    In the scaled variables ``M`` is the quasi-definite ``K_delta = [[A,
    B~], [B~^T, -delta I]]``, ``B~ = B0 D``; its multiplier block is
    eliminated, so only the ``n x n`` matrix ``P = A + B~ B~^T / delta`` is
    factored, and ``K_delta^-1 [q1; q2]`` is ``u = P^-1 (q1 + B~ q2 /
    delta)``, ``y~ = (B~^T u - q2) / delta``.  ``P`` is positive definite
    whatever the rank of ``B0``.  ``pattern``, the :class:`SelectorPattern`
    of ``A`` and ``B``, scatters it into ``A``'s CSC pattern, symmetrically
    permuted into the pattern's elimination order, and factors it in its
    natural order.  A raw solve is accurate to about ``eps / delta``
    relative, so every solve is refined ``_REFINE_STEPS`` times against the
    unregularised matrix, bordered or not; the refined base solution ``w0``
    solves ``K0 w0 = [f; g_active]``.  On a consistent dependent active set
    it carries a regularised representative of the multiplier family, close
    to the minimum-norm one because the constraint residuals and a vector's
    multiplier block are formed in extended precision.

    Any other active set is the base bordered by ``W``: a constraint ``j``
    added since the base is the column ``[b_j; 0]`` with target ``g_j``, a
    dropped one the unit column ``e_{n+pos(j)}`` with target 0, which pins
    its multiplier to zero.  Then ``z = S^-1 (W^T w0 - r2)`` with the dense
    Schur complement ``S = W^T M^-1 W`` and ``w = w0 - M^-1 W z``, refined
    against the bordered ``K0``.  Each border column is solved against ``M``
    once per base and cached, with its rows of ``S`` and of ``W^T w0``, at
    position ``_slot[j]``.
    """

    def __init__(self, pattern, f, g, active):
        self._A = pattern.A
        self._all = pattern.B
        self._active = np.array(active, dtype=bool)
        columns = np.flatnonzero(self._active)
        self._B = self._all[:, columns]
        n, m = self._B.shape
        d = pattern.scale[columns]
        if not np.all(d > 0.0):
            raise LinearSolveError("a constraint column has empty support")
        self._scaled = pattern.scaled[:, columns]
        self._scaled_t = self._scaled.T.astype(np.longdouble)
        self._b_t = self._B.T.astype(np.longdouble)
        try:
            # P dies with this call (held through the refinement, it raised
            # peak RSS); its factor's solve is kept
            self._solve_p = pattern.factor(self._active)
        except RuntimeError as exc:
            raise LinearSolveError(f"selector factorisation failed: {exc}") from exc
        self._scale = np.concatenate([np.ones(n), d])
        f = np.asarray(f, dtype=float)
        self._g = np.asarray(g, dtype=float)
        self._tol = _RESIDUAL_TOL * (1.0 + np.abs(f).max(initial=0.0))
        self._rhs = np.concatenate([f, self._g[self._active]])
        sol = self._raw(self._rhs)
        for _ in range(_REFINE_STEPS):
            sol += self._raw(self._residual(sol))
        self._check(self._residual(sol))
        self._solution = sol
        self._slot = np.full(self._active.size, -1, dtype=np.intp)
        self._columns = sp.csc_array((n + m, 0))
        self._schur = np.zeros((0, 0))
        self._projected = np.zeros(0)
        self._weights = np.zeros(0)

    def _solve(self, q):
        """``K_delta^-1 q`` through the factor of ``P``; ``q`` is a vector or a block.

        ``B~^T u`` agrees with ``q2`` to about ``delta``, so a vector's
        multiplier ``(B~^T u - q2) / delta`` is formed in extended precision
        (see :meth:`_residual`); a block's, for the Schur complement, in
        float64.
        """
        n = self._A.shape[0]
        q2 = q[n:]
        u = self._solve_p(q[:n] + self._scaled @ q2 / _DELTA)
        if q.ndim == 2:
            return np.concatenate([u, (self._scaled.T @ u - q2) / _DELTA])
        y = (self._scaled_t @ u.astype(np.longdouble) - q2) / _DELTA
        return np.concatenate([u, y.astype(float)])

    def _raw(self, r):
        """``M^-1 r`` by one solve with the factor; ``r`` is a vector or a block."""
        s = self._scale if r.ndim == 1 else self._scale[:, None]
        return s * self._solve(s * r)

    def _residual(self, v):
        """``[f; g_active] - K0 v``, its constraint block in extended precision.

        A raw solve divides the constraint block by ``delta``.  On a
        dependent active set, float64 rounding of ``g - B^T u`` (about eps
        of ``g``) then moves the multiplier along the null space of ``B``
        by about ``eps / delta`` relative at every refinement step, and no
        residual sees that component again.
        """
        n = self._A.shape[0]
        u = v[:n]
        constraint = self._rhs[n:] - self._b_t @ u.astype(np.longdouble)
        return np.concatenate([self._rhs[:n] - (self._A @ u + self._B @ v[n:]),
                               constraint.astype(float)])

    def _check(self, residual):
        res = float(np.abs(residual).max(initial=0.0))
        if not res <= self._tol:
            raise LinearSolveError(f"refined residual {res:.1e} exceeds {self._tol:.1e}")

    def _extend(self, keys):
        """Solve the border columns of constraints ``keys`` against ``M`` and cache them.

        All of them go through one block solve: there are at most
        ``_REFACTOR_COLUMNS``.
        """
        n, m = self._B.shape
        added = keys[~self._active[keys]]
        dropped = keys[self._active[keys]]
        units = n + np.searchsorted(np.flatnonzero(self._active), dropped)
        columns = self._all[:, added]
        new = sp.csc_array((np.concatenate([columns.data, np.ones(dropped.size)]),
                            np.concatenate([columns.indices, units]),
                            np.concatenate([columns.indptr,
                                            columns.nnz + np.arange(1, dropped.size + 1)])),
                           shape=(n + m, keys.size))
        k0, c = self._columns.shape[1], keys.size
        border = sp.hstack([self._columns, new], format="csc")
        schur = np.empty((k0 + c, k0 + c))
        schur[:k0, :k0] = self._schur
        block = new.toarray(order="F")
        solved = self._raw(block)
        schur[:, k0:] = border.T @ solved
        weights = np.sqrt(np.linalg.norm(block, axis=0) * np.linalg.norm(solved, axis=0))
        schur[k0:, :k0] = schur[:k0, k0:].T   # M is symmetric
        self._schur = schur
        self._columns = border
        self._projected = np.concatenate([self._projected, new.T @ self._solution])
        self._weights = np.concatenate([self._weights, weights])
        self._slot[np.concatenate([added, dropped])] = np.arange(k0, k0 + c)

    def solve(self, act):
        """Solve the system of active mask ``act``; returns ``(u, multipliers)``.

        The multipliers cover every constraint and are zero off ``act``.
        More than ``_REFACTOR_COLUMNS`` border columns not cached yet, a
        singular Schur complement or a refined residual above the bound raise
        :class:`LinearSolveError`.
        """
        n = self._A.shape[0]
        changed = np.flatnonzero(act != self._active)
        missing = changed[self._slot[changed] < 0]
        if missing.size > _REFACTOR_COLUMNS:
            raise LinearSolveError(
                f"{missing.size} new border columns exceed {_REFACTOR_COLUMNS}")
        if missing.size:
            self._extend(missing)
        mult = np.zeros(self._active.size)
        if changed.size == 0:
            mult[self._active] = self._solution[n:]
            return self._solution[:n].copy(), mult
        added = changed[act[changed]]
        dropped = changed[~act[changed]]
        idx = self._slot[np.concatenate([added, dropped])]
        W = self._columns[:, idx]
        schur_solve = _factor_schur(self._schur[np.ix_(idx, idx)], self._weights[idx])
        r2 = np.concatenate([self._g[added], np.zeros(dropped.size)])
        z = schur_solve(self._projected[idx] - r2)
        w = self._solution - self._raw(W @ z)
        for _ in range(_REFINE_STEPS):
            dw = self._raw(self._residual(w) - W @ z)
            dz = schur_solve(W.T @ (w + dw) - r2)
            w += dw - self._raw(W @ dz)
            z += dz
        self._check(np.concatenate([self._residual(w) - W @ z,
                                    r2 - W.T @ w]))
        mult[self._active] = w[n:]
        mult[dropped] = 0.0
        mult[added] = z[:added.size]
        return w[:n], mult


def _factor_schur(schur, weights):
    """Dense LU of a Schur complement ``S = W^T M^-1 W``; returns its solve.

    ``S`` is scaled symmetrically by ``1 / weights`` with ``weights_j**2 =
    |W_j| |M^-1 W_j|``, which bounds its diagonal by 1.  A border column
    that depends on the base constraints and the other columns then shows as
    a small ``1 / |S^-1|_1``, whatever the element sizes.
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
    return lambda rhs: d * sla.lu_solve((lu, piv), d * rhs, check_finite=False)
