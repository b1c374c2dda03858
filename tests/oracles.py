"""Reference solvers that the tests compare the active-set solver against.

* :func:`brute_force_solve` -- exhaustive enumeration of active sets on tiny
  instances (the oracle the other routes are validated against),
* :func:`penalized_solve` -- quadratic penalization with a semismooth Newton
  inner solver (independent cross-check route),
* :func:`fresh_pdas_solve` -- the active-set iteration with a fresh
  :func:`~crobstacle.sparse.solve_kkt` factorisation at every iterate
  (:func:`fresh_solve`; the reference that the selector iterates and the
  final ``solve_kkt`` re-solve of :func:`~crobstacle.solver.pdas_solve` must
  reproduce bitwise),
* :func:`min_norm_kkt` -- the dense minimum-norm solution of a saddle-point
  system, the reference multiplier of a dependent active set,
* :func:`bisection_labels` -- the recursive element bisection behind
  :func:`~crobstacle.mesh.nested_dissection`, part by part,
* :func:`selector_pattern_arrays` -- the arrays of a
  :class:`~crobstacle.sparse.SelectorPattern`, built through scipy's
  fancy indexing, matrix product and element lookup,
* :func:`inherited_dirichlet_mask` -- the Dirichlet sides of a refined
  mesh, found by searching the parent's boundary sides by vertex pair
  instead of reading them off the child codes.

None of them runs in the package pipeline; they live with the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np
import scipy.sparse as sp

from crobstacle.assembly import ProblemData
from crobstacle.mesh import Mesh
from crobstacle.solver import (
    DiscreteObstacleSystem,
    IterationRow,
    PdasState,
    SolveOutcome,
    SolverError,
    active_set,
    build_system,
)
from crobstacle.spaces import CrFunction, P0Function
from crobstacle.sparse import (
    LinearSolveError,
    SingularConstraintError,
    solve_kkt,
    solve_spd,
)

MAX_BRUTE_FORCE_MULTIPLIERS = 20
_BATCH = 4096


@dataclass(frozen=True)
class PenalizedOutcome:
    """A penalized solve with its constraint-violation bookkeeping."""
    solution: CrFunction
    multiplier: P0Function
    penalty: float
    iterations: int
    converged: bool
    residual: float
    violation_norm: float
    multiplier_norm: float
    system: DiscreteObstacleSystem


# ----------------------------------------------------------------------
# refactor-every-iteration active-set route
# ----------------------------------------------------------------------
def min_norm_kkt(A, B, f, g):
    """Minimum-norm solution of ``[[A, B], [B^T, 0]] [x; y] = [f; g]`` by dense lstsq.

    Returns ``(x, y, residual)`` with the max-norm residual of the solution.
    """
    n, m = B.shape
    kkt = np.block([[A.toarray(), B.toarray()],
                    [B.toarray().T, np.zeros((m, m))]])
    rhs = np.concatenate([f, g])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:n], sol[n:], float(np.abs(kkt @ sol - rhs).max())


def fresh_solve(system: DiscreteObstacleSystem, act: np.ndarray):
    """``(free, multipliers)`` of active set ``act``, factored afresh.

    No active constraint takes ``solve_spd``, any other set ``solve_kkt``.
    Where ``solve_kkt`` refuses dependent constraints and the system is
    consistent, the minimum-norm solution gives the symmetric multiplier
    representative; an inconsistent system re-raises.
    """
    dm = system.dofmap
    mult = np.zeros(dm.n_multipliers)
    if dm.n_free == 0:
        return np.zeros(0), mult
    if not act.any():
        return solve_spd(system.stiffness, system.load)[0], mult
    cols = np.flatnonzero(act)
    args = (system.stiffness, system.coupling[:, cols], system.load,
            system.constraint_rhs[cols])
    try:
        free, mult[cols], _ = solve_kkt(*args)
    except SingularConstraintError:
        free, mult[cols], residual = min_norm_kkt(*args)
        if residual > 1e-9 * system.scale:
            raise
    return free, mult


def fresh_pdas_solve(mesh: Mesh | None = None, data: ProblemData | None = None,
                     *, system: DiscreteObstacleSystem | None = None,
                     init=None, max_iter: int = 50) -> SolveOutcome:
    """``pdas_solve`` with every constrained iterate factored afresh."""
    sys_ = system if system is not None else build_system(mesh, data)
    dm = sys_.dofmap
    if init is None:
        free, mult = fresh_solve(sys_, np.zeros(dm.n_multipliers, dtype=bool))
    else:
        free, mult = (np.asarray(v, dtype=float) for v in init)

    rows = []
    prev_active = None
    converged = False
    factorizations = 0
    for it in range(1, max_iter + 1):
        means = sys_.element_means(free)
        act = active_set(means, mult, sys_.chi_h.values)
        if prev_active is not None and np.array_equal(act, prev_active):
            converged = True
            act = prev_active
            break
        old = free
        free, mult = fresh_solve(sys_, act)
        how = "fresh" if dm.n_free and act.any() else "unconstrained"
        factorizations += how == "fresh"
        step = float(np.abs(free - old).max()) if dm.n_free else 0.0
        res = sys_.residual_inf(free, mult)
        rows.append(IterationRow(it, int(act.sum()), step, res, how))
        prev_active = act
        if step == 0.0:
            converged = True
            break

    state = PdasState(free_values=free, multipliers=mult, active=act,
                      iteration=len(rows))
    return SolveOutcome(
        solution=sys_.solution_field(free),
        multiplier=sys_.multiplier_field(mult),
        state=state, converged=converged, iterations=len(rows),
        residual=sys_.residual_inf(free, mult), log=tuple(rows),
        system=sys_, factorizations=factorizations)


# ----------------------------------------------------------------------
# penalization route
# ----------------------------------------------------------------------
def penalized_solve(mesh: Mesh | None = None, data: ProblemData | None = None,
                    *, eps: float,
                    system: DiscreteObstacleSystem | None = None,
                    newton_tol: float = 1e-12,
                    max_iter: int = 200) -> PenalizedOutcome:
    """Quadratic-penalty solve with a semismooth Newton iteration.

    The multiplier is the scaled negative part of the constraint defect,
    ``lambda_T = eps^-2 * min(m_T - chi_T, 0)``; the outcome records the
    L2 norms of the violation and of the multiplier, which satisfy
    ``violation == eps^2 * multiplier_norm`` identically.
    """
    if eps <= 0.0:
        raise SolverError(f"penalty parameter must be positive, got {eps}")
    sys_ = system if system is not None else build_system(mesh, data)
    dm = sys_.dofmap
    inv_eps2 = 1.0 / (eps * eps)
    areas_el = sys_.mesh.areas[dm.elements]

    if dm.n_free:
        free, _ = solve_spd(sys_.stiffness, sys_.load)
    else:
        free = np.zeros(0)

    iterations = 0
    converged = False
    solved_pattern = None
    defect = sys_.element_means(free) - sys_.chi_h.values
    lam = inv_eps2 * np.minimum(defect, 0.0)
    while True:
        defect = sys_.element_means(free) - sys_.chi_h.values
        lam = inv_eps2 * np.minimum(defect, 0.0)
        pattern = defect < 0.0
        res = sys_.residual_inf(free, lam)
        # the residual map is piecewise affine in the free dofs and each
        # Newton step solves its branch exactly, so a repeated violation
        # pattern certifies an exact root; the residual check catches the
        # pattern-free (fully feasible) start
        if res <= newton_tol * sys_.scale or (
                solved_pattern is not None
                and np.array_equal(pattern, solved_pattern)):
            converged = True
            break
        if iterations >= max_iter:
            break
        iterations += 1
        weights = pattern.astype(float) * inv_eps2 / areas_el
        coupling = sys_.coupling
        jac = sys_.stiffness + coupling @ sp.diags_array(weights) @ coupling.T
        rhs = -(sys_.stiffness @ free + coupling @ lam - sys_.load)
        delta, _ = solve_spd(jac, rhs)
        free = free + delta
        solved_pattern = pattern

    violation = float(np.sqrt((np.minimum(defect, 0.0) ** 2 * areas_el).sum()))
    multiplier_norm = float(np.sqrt((lam ** 2 * areas_el).sum()))
    return PenalizedOutcome(
        solution=sys_.solution_field(free),
        multiplier=sys_.multiplier_field(lam),
        penalty=eps, iterations=iterations, converged=converged,
        residual=sys_.residual_inf(free, lam),
        violation_norm=violation, multiplier_norm=multiplier_norm,
        system=sys_)


# ----------------------------------------------------------------------
# exhaustive oracle
# ----------------------------------------------------------------------
def _chunked(iterable, size):
    it = iter(iterable)
    while True:
        chunk = list(islice(it, size))
        if not chunk:
            return
        yield chunk


def _batch_kkt(S, P, b, crhs, subsets, residual_tol):
    """Dense KKT solves for a batch of equal-cardinality subsets.

    Returns the list of (subset, solution) pairs passing the residual
    filter; singular systems are skipped.
    """
    nf = len(b)
    size = len(subsets[0])
    m = nf + size
    n = len(subsets)
    M = np.zeros((n, m, m))
    rhs = np.zeros((n, m))
    M[:, :nf, :nf] = S
    rhs[:, :nf] = b
    for i, subset in enumerate(subsets):
        if size:
            cols = np.asarray(subset, dtype=np.int64)
            block = P[:, cols]
            M[i, :nf, nf:] = block
            M[i, nf:, :nf] = block.T
            rhs[i, nf:] = crhs[cols]
    ok = np.ones(n, dtype=bool)
    try:
        sols = np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        sols = np.zeros_like(rhs)
        for i in range(n):
            try:
                sols[i] = np.linalg.solve(M[i], rhs[i])
            except np.linalg.LinAlgError:
                ok[i] = False
    res = np.abs(np.einsum("bij,bj->bi", M, sols) - rhs).max(axis=1)
    ok &= res <= residual_tol
    return [(subsets[i], sols[i]) for i in np.flatnonzero(ok)]


def brute_force_solve(mesh: Mesh | None = None, data: ProblemData | None = None, *,
                      system: DiscreteObstacleSystem | None = None,
                      residual_tol: float = 1e-8,
                      feasibility_tol: float = 1e-12,
                      sign_tol: float = 1e-12,
                      distinct_tol: float = 1e-9) -> SolveOutcome:
    """Enumerate every active set and keep the feasible stationary points.

    Only instances with at most 20 multiplier elements are accepted.  The
    unique feasible candidate (after deduplication) is returned; zero or
    several distinct candidates raise :class:`SolverError`.
    """
    sys_ = system if system is not None else build_system(mesh, data)
    dm = sys_.dofmap
    nm, nf = dm.n_multipliers, dm.n_free
    if nm > MAX_BRUTE_FORCE_MULTIPLIERS:
        raise SolverError(
            f"exhaustive enumeration is limited to {MAX_BRUTE_FORCE_MULTIPLIERS} "
            f"multiplier elements, got {nm}")

    S = sys_.stiffness.toarray()
    P = sys_.coupling.toarray()
    b = sys_.load
    scale = max(1.0, sys_.scale)
    feas_tol = feasibility_tol * scale
    candidates = []
    for size in range(nm + 1):
        for chunk in _chunked(combinations(range(nm), size), _BATCH):
            for subset, sol in _batch_kkt(S, P, b, sys_.constraint_rhs,
                                          chunk, residual_tol * scale):
                free, active_mult = sol[:nf], sol[nf:]
                means = sys_.element_means(free)
                if (means - sys_.chi_h.values).min(initial=0.0) < -feas_tol:
                    continue
                if size and active_mult.max() > sign_tol * scale:
                    continue
                mult = np.zeros(nm)
                if size:
                    mult[np.asarray(subset, dtype=np.int64)] = active_mult
                candidates.append((free, mult))

    distinct = []
    for free, mult in candidates:
        for f0, m0 in distinct:
            if (np.abs(free - f0).max(initial=0.0) <= distinct_tol
                    and np.abs(mult - m0).max(initial=0.0) <= distinct_tol):
                break
        else:
            distinct.append((free, mult))

    if not distinct:
        raise SolverError("no feasible stationary point found by enumeration")
    if len(distinct) > 1:
        raise SolverError(
            f"enumeration found {len(distinct)} distinct feasible stationary "
            "points (degenerate instance)")

    free, mult = distinct[0]
    state = PdasState(free_values=free, multipliers=mult, active=mult < 0.0,
                      iteration=0)
    return SolveOutcome(
        solution=sys_.solution_field(free),
        multiplier=sys_.multiplier_field(mult),
        state=state, converged=True, iterations=0,
        residual=sys_.residual_inf(free, mult), log=(),
        system=sys_, factorizations=0)


def bisection_labels(mesh, leaf):
    """``(labels, depth, leaf_levels)`` of the recursive element bisection, one part at a time.

    A part of more than ``leaf`` elements is sorted by the barycentric
    coordinate of its longer extent (ties by element number) and cut before
    the position ``k``, ``0.35 n <= k <= 0.65 n``, crossed by the fewest of
    its interior sides (then nearest ``n / 2``, then the lower).  Bit
    ``depth - 1 - l`` of a label says whether the element went to the second
    half at level ``l``; ``leaf_levels[t]`` is the level at which the part of
    element ``t`` became a leaf.
    """
    centers = mesh.barycenters
    interior = mesh.side_elem_plus >= 0
    pairs = list(zip(mesh.side_elem_minus[interior].tolist(),
                     mesh.side_elem_plus[interior].tolist()))
    halves = {}

    def split(elements, path):
        if len(elements) <= leaf:
            for element in elements:
                halves[element] = path
            return
        extent = centers[elements].max(axis=0) - centers[elements].min(axis=0)
        axis = 1 if extent[1] > extent[0] else 0
        ordered = [elements[i] for i in np.lexsort((elements, centers[elements, axis]))]
        place = {element: i for i, element in enumerate(ordered)}
        spans = [sorted((place[a], place[b])) for a, b in pairs
                 if a in place and b in place]
        n = len(ordered)
        best = min(range(-(-7 * n // 20), 13 * n // 20 + 1),
                   key=lambda k: (sum(first < k <= last for first, last in spans),
                                  abs(2 * k - n), k))
        split(ordered[:best], path + "0")
        split(ordered[best:], path + "1")

    split(list(range(mesh.n_elements)), "")
    depth = max(len(path) for path in halves.values())
    labels = np.array([int(halves[t].ljust(depth, "0") or "0", 2)
                       for t in range(mesh.n_elements)], dtype=np.int64)
    leaf_levels = np.array([len(halves[t]) for t in range(mesh.n_elements)])
    return labels, depth, leaf_levels


def inherited_dirichlet_mask(coarse, fine):
    """The Dirichlet sides of ``fine``, refined from ``coarse``, by key search.

    The new vertices of a refinement are the midpoints of the split parent
    sides, in ascending side order.  A child boundary side either contains
    exactly one new vertex (it is half of that split parent side) or joins
    two parent vertices (it *is* a parent side, found by its sorted vertex
    pair among the parent's boundary sides).
    """
    nv_old = coarse.n_vertices
    new = {tuple(p) for p in fine.vertex_coords[nv_old:].tolist()}
    side_ids = np.array([s for s, p in enumerate(coarse.side_midpoints.tolist())
                         if tuple(p) in new], dtype=np.int64)
    assert np.array_equal(coarse.side_midpoints[side_ids], fine.vertex_coords[nv_old:])

    bnd = np.flatnonzero(coarse.boundary_mask)
    pair = np.sort(coarse.side_vertices[bnd], axis=1)
    key = pair[:, 0] * nv_old + pair[:, 1]
    order = np.argsort(key)
    parent_keys = key[order]
    parent_dirichlet = coarse.dirichlet_side_mask[bnd[order]]

    sides = fine.side_vertices[fine.boundary_mask]
    lo, hi = sides.min(axis=1), sides.max(axis=1)
    split = hi >= nv_old
    inherited = np.empty(len(hi), dtype=bool)
    inherited[split] = coarse.dirichlet_side_mask[side_ids[hi[split] - nv_old]]
    whole = lo[~split] * nv_old + hi[~split]
    pos = np.minimum(np.searchsorted(parent_keys, whole), len(parent_keys) - 1)
    assert np.array_equal(parent_keys[pos], whole), "a boundary side matches no parent side"
    inherited[~split] = parent_dirichlet[pos]
    mask = np.zeros(fine.n_sides, dtype=bool)
    mask[fine.boundary_mask] = inherited
    return mask


def selector_pattern_arrays(A, B, order):
    """The arrays a :class:`~crobstacle.sparse.SelectorPattern` of ``A``, ``B`` keeps.

    Returns a dict of ``_data``, ``_indices`` and ``_indptr`` (the CSC form of
    ``A[order][:, order]``), ``scale``, ``scaled`` (``B @ diag(scale)``),
    ``_pairs``, ``_pos`` and ``_product``.  Pair ``k`` of a constraint with
    ``s`` support rows is ``(k // s, k % s)``; its position is looked up in
    a CSC matrix of ``1 +`` the position of each stored entry.  A pair
    outside the pattern raises :class:`LinearSolveError` naming its
    constraint.
    """
    A = sp.csr_array(A)
    order = np.asarray(order)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    moved = A[order][:, order].tocsc()
    B = sp.csc_array(B)
    col_max = abs(B).max(axis=0).toarray()
    scale = np.divide(1.0, col_max, out=np.zeros_like(col_max), where=col_max > 0.0)
    scaled = B @ sp.diags_array(scale)
    indptr = scaled.indptr
    counts = np.diff(indptr)
    pairs = counts * counts
    owner = np.repeat(np.arange(counts.size), pairs)
    k = np.arange(owner.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    start, size = indptr[owner], counts[owner]
    first, second = start + k // size, start + k % size
    rows, cols = scaled.indices[first], scaled.indices[second]
    lookup = sp.csc_array((np.arange(1, moved.data.size + 1), moved.indices,
                           moved.indptr), shape=A.shape)
    pos = lookup[rank[rows], rank[cols]] - 1
    if np.any(pos < 0):
        bad = np.argmax(pos < 0)
        raise LinearSolveError(
            f"constraint {int(owner[bad])} couples unknowns {int(rows[bad])} and "
            f"{int(cols[bad])}, which the stiffness matrix does not couple")
    return {"_data": moved.data, "_indices": moved.indices, "_indptr": moved.indptr,
            "scale": scale, "scaled": scaled, "_pairs": pairs, "_pos": pos,
            "_product": scaled.data[first] * scaled.data[second]}
