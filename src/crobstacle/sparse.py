"""Linear solvers for the operators of the discrete obstacle problem.

Operators are plain ``scipy.sparse`` CSR arrays; the solvers factor them
with SuperLU and are deterministic:

* :func:`solve_spd` -- symmetric positive definite systems,
* :func:`solve_kkt` -- symmetric saddle-point systems
  ``[[A, B], [B^T, 0]]`` with independent constraints; a growth probe
  refuses dependent ones,
* :func:`selector_solve` -- the saddle-point system of one active set of a
  PDAS iterate, by one *selector* factorisation.

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

:func:`selector_solve` is the one solver of the package for a dependent
active set.  A selector solution agrees with :func:`solve_kkt` to
round-off, not bitwise; :func:`crobstacle.solver.pdas_solve` therefore
re-solves the iterate it returns through :func:`solve_kkt`, which keeps
its results bitwise those of a fresh :func:`solve_kkt` factorisation per
iterate, and keeps the selector's iterate where :func:`solve_kkt` refuses
the set.
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
    "SelectorPattern",
    "selector_solve",
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
#: saddle-point matrix
_REFINE_STEPS = 2
#: bound on a refined selector residual (max norm) relative to ``1 + max|f|``,
#: the residual contract of :func:`crobstacle.solver.pdas_solve`
_RESIDUAL_TOL = 1e-10


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


def _regularised_inverse(pattern, active):
    """``r -> M^-1 r`` for the active mask ``active``, by one factorisation of ``P``.

    ``M = [[A, B0], [B0^T, -delta D^-2]]`` with ``B0 = B_active`` and ``D =
    diag(1 / max|b_j|)`` differs from the saddle-point matrix of
    ``active`` in its (2,2) block only.  In the scaled variables ``M`` is the
    quasi-definite ``K_delta = [[A, B~], [B~^T, -delta I]]``, ``B~ = B0 D``;
    its multiplier block is eliminated, so only ``P = A + B~ B~^T / delta``
    is factored (by ``pattern``), and ``K_delta^-1 [q1; q2]`` is ``u = P^-1
    (q1 + B~ q2 / delta)``, ``y~ = (B~^T u - q2) / delta``.  ``B~^T u``
    agrees with ``q2`` to about ``delta``, so ``y~`` is formed in extended
    precision.  An empty constraint column raises :class:`LinearSolveError`.
    """
    columns = np.flatnonzero(active)
    d = pattern.scale[columns]
    if not np.all(d > 0.0):
        raise LinearSolveError("a constraint column has empty support")
    n = pattern.A.shape[0]
    scaled = pattern.scaled[:, columns]
    scaled_t = scaled.T.astype(np.longdouble)
    try:
        # P dies with this call (held through the refinement, it raised
        # peak RSS); its factor's solve is kept
        solve_p = pattern.factor(active)
    except RuntimeError as exc:
        raise LinearSolveError(f"selector factorisation failed: {exc}") from exc
    s = np.concatenate([np.ones(n), d])

    def raw(r):
        q = s * r
        q2 = q[n:]
        u = solve_p(q[:n] + scaled @ q2 / _DELTA)
        y = (scaled_t @ u.astype(np.longdouble) - q2) / _DELTA
        return s * np.concatenate([u, y.astype(float)])

    return raw


def selector_solve(pattern, f, g, active):
    """Solve the saddle-point system of one active set by a selector factorisation.

    The system of active mask ``active`` is ``[[A, B_act], [B_act^T, 0]]
    [u; y] = [f; g_act]``; ``pattern``, the :class:`SelectorPattern` of
    ``A`` and ``B``, holds every constraint column and ``g`` every target.
    One factorisation of ``P`` gives the raw solve ``M^-1`` of the
    regularised matrix (:func:`_regularised_inverse`), accurate to about
    ``eps / delta`` relative, so the solution is refined ``_REFINE_STEPS``
    times against the unregularised matrix.  ``P`` is positive definite
    whatever the rank of ``B_act``: on a consistent dependent active set the
    solution carries a regularised representative of the multiplier
    family, close to the minimum-norm one because the constraint residuals
    and a raw solve's multiplier block are formed in extended precision.

    Returns ``(u, multipliers)``; the multipliers cover every constraint and
    are zero off ``active``.  A refined residual above its bound (an
    inconsistent active set gives one) raises :class:`LinearSolveError`.
    Nothing of the factorisation outlives the call.
    """
    active = np.asarray(active, dtype=bool)
    raw = _regularised_inverse(pattern, active)
    A, B = pattern.A, pattern.B[:, np.flatnonzero(active)]
    b_t = B.T.astype(np.longdouble)
    n = A.shape[0]
    f = np.asarray(f, dtype=float)
    rhs = np.concatenate([f, np.asarray(g, dtype=float)[active]])

    def residual(v):
        """``[f; g_act] - K v``, its constraint block in extended precision.

        A raw solve divides the constraint block by ``delta``.  On a
        dependent active set, float64 rounding of ``g - B^T u`` (about eps
        of ``g``) then moves the multiplier along the null space of ``B``
        by about ``eps / delta`` relative at every refinement step, and no
        residual sees that component again.
        """
        u = v[:n]
        constraint = rhs[n:] - b_t @ u.astype(np.longdouble)
        return np.concatenate([rhs[:n] - (A @ u + B @ v[n:]), constraint.astype(float)])

    sol = raw(rhs)
    for _ in range(_REFINE_STEPS):
        sol += raw(residual(sol))
    res = float(np.abs(residual(sol)).max(initial=0.0))
    tol = _RESIDUAL_TOL * (1.0 + np.abs(f).max(initial=0.0))
    if not res <= tol:
        raise LinearSolveError(f"refined residual {res:.1e} exceeds {tol:.1e}")
    mult = np.zeros(active.size)
    mult[active] = sol[n:]
    return sol[:n], mult
