"""Solvers for the side-midpoint discretization of the obstacle problem.

The discrete problem minimizes the broken Dirichlet energy over side-dof
vectors whose element means stay above the element means of the interpolated
obstacle.  Three routes are provided:

* :func:`pdas_solve` -- the primal-dual active-set iteration (production
  solver; finitely terminating semismooth Newton method),
* :func:`penalized_solve` -- quadratic penalization with a semismooth Newton
  inner solver (independent cross-check route),
* :func:`brute_force_solve` -- exhaustive enumeration of active sets on tiny
  instances (the oracle the other two are validated against).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np
import scipy.sparse as sp

from .assembly import (
    DofMap,
    ProblemData,
    assemble_coupling,
    assemble_load,
    assemble_obstacle_vectors,
    assemble_stiffness_full,
    build_dofmap,
    dirichlet_dof_values,
    find_excluded_element,
)
from .mesh import Mesh
from .sparse import SingularConstraintError, solve_kkt, solve_spd
from .spaces import CrFunction, P0Function

__all__ = [
    "SolverError",
    "DiscreteObstacleSystem",
    "build_system",
    "PdasState",
    "IterationRow",
    "SolveOutcome",
    "PenalizedOutcome",
    "active_set",
    "pdas_solve",
    "penalized_solve",
    "brute_force_solve",
    "write_iteration_log",
]

MAX_BRUTE_FORCE_MULTIPLIERS = 20
_BATCH = 4096


class SolverError(Exception):
    """Raised on invalid solver input or an ill-posed instance."""


# ----------------------------------------------------------------------
# assembled system
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiscreteObstacleSystem:
    """All operators and vectors of one discrete obstacle instance.

    The stiffness acts on the free (non-Dirichlet) side dofs; the coupling
    pairs free sides with multiplier elements (entry ``|T|/3``).  The load
    carries the Dirichlet lifting; ``constraint_rhs`` is the right-hand side
    of an activated constraint row (obstacle mean integral minus the fixed
    boundary-side contributions).
    """
    mesh: Mesh
    data: ProblemData
    dofmap: DofMap
    stiffness: sp.csr_array
    coupling: sp.csr_array
    load: np.ndarray
    boundary_values: np.ndarray
    obstacle_side_values: np.ndarray
    chi_h: P0Function
    f_h: P0Function
    obstacle_means: np.ndarray
    constraint_rhs: np.ndarray

    @property
    def scale(self) -> float:
        if self.load.size == 0:
            return 1.0
        return 1.0 + float(np.abs(self.load).max())

    def full_side_values(self, free_values) -> np.ndarray:
        out = self.boundary_values.copy()
        out[self.dofmap.free_sides] = np.asarray(free_values, dtype=float)
        return out

    def element_means(self, free_values) -> np.ndarray:
        """Barycentric means over the multiplier elements (boundary dofs included)."""
        full = self.full_side_values(free_values)
        return full[self.mesh.elem_sides[self.dofmap.elements]].mean(axis=1)

    def residual_inf(self, free_values, multipliers) -> float:
        if self.dofmap.n_free == 0:
            return 0.0
        r = (self.stiffness @ np.asarray(free_values, dtype=float)
             + self.coupling @ np.asarray(multipliers, dtype=float) - self.load)
        return float(np.abs(r).max())

    def solution_field(self, free_values) -> CrFunction:
        return CrFunction(self.mesh, self.full_side_values(free_values),
                          dirichlet_mask=self.mesh.dirichlet_side_mask)

    def multiplier_field(self, multipliers) -> P0Function:
        values = np.zeros(self.mesh.n_elements)
        values[self.dofmap.elements] = np.asarray(multipliers, dtype=float)
        return P0Function(self.mesh, values)


def build_system(mesh: Mesh, data: ProblemData,
                 dofmap: DofMap | None = None) -> DiscreteObstacleSystem:
    """Assemble the discrete obstacle system on a mesh.

    When no dof map is given, elements without any free side are excluded
    from the multiplier (their means are fixed by the boundary data).
    """
    if dofmap is None:
        dofmap = build_dofmap(mesh)
        coupling = assemble_coupling(mesh, dofmap)
        excluded = find_excluded_element(coupling)
        if excluded:
            dofmap = dofmap.exclude(excluded)
            coupling = assemble_coupling(mesh, dofmap)
    else:
        coupling = assemble_coupling(mesh, dofmap)
    obstacle_side_values, chi_h = assemble_obstacle_vectors(mesh, data, dofmap)
    data.validate_on(mesh, side_values=obstacle_side_values)

    stiffness_full = assemble_stiffness_full(mesh)
    stiffness = stiffness_full[dofmap.free_sides][:, dofmap.free_sides]
    boundary_values = dirichlet_dof_values(mesh, data)
    _, f_h = assemble_load(mesh, data, dofmap)

    load = coupling @ f_h.values[dofmap.elements]
    if np.any(boundary_values != 0.0):
        load = load - (stiffness_full @ boundary_values)[dofmap.free_sides]

    areas_el = mesh.areas[dofmap.elements]
    obstacle_means = chi_h.values[dofmap.elements]
    fixed = boundary_values[mesh.elem_sides[dofmap.elements]].sum(axis=1)
    constraint_rhs = areas_el * obstacle_means - (areas_el / 3.0) * fixed

    return DiscreteObstacleSystem(
        mesh=mesh, data=data, dofmap=dofmap, stiffness=stiffness,
        coupling=coupling, load=load, boundary_values=boundary_values,
        obstacle_side_values=obstacle_side_values, chi_h=chi_h, f_h=f_h,
        obstacle_means=obstacle_means, constraint_rhs=constraint_rhs)


# ----------------------------------------------------------------------
# outcome types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PdasState:
    """Iterate of the active-set solver (free dofs, multipliers, active mask)."""
    free_values: np.ndarray
    multipliers: np.ndarray
    active: np.ndarray
    iteration: int
    alpha: float


@dataclass(frozen=True)
class IterationRow:
    iteration: int
    n_active: int
    step_inf_norm: float
    residual: float


@dataclass(frozen=True)
class SolveOutcome:
    """A constrained solve: full-dof solution field, multiplier, diagnostics."""
    solution: CrFunction
    multiplier: P0Function
    state: PdasState
    converged: bool
    iterations: int
    residual: float
    log: tuple
    method: str
    system: DiscreteObstacleSystem


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


def write_iteration_log(path, rows) -> None:
    """Write iteration rows as CSV (deterministic formatting)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,n_active,step_inf_norm,residual\n")
        for r in rows:
            fh.write(f"{r.iteration},{r.n_active},"
                     f"{r.step_inf_norm:.17g},{r.residual:.17g}\n")


# ----------------------------------------------------------------------
# active-set test
# ----------------------------------------------------------------------
def active_set(element_means, multipliers, obstacle_means, alpha: float = 1.0,
               classical: bool = False, current_active=None) -> np.ndarray:
    """Element activation mask.

    Default test: ``L_T + alpha * (m_T - chi_T) < 0`` with strict inequality
    (exact ties stay inactive).  The ``classical`` variant is the
    penalty-free limit and needs the current active mask: active elements
    stay active iff their multiplier is negative; inactive elements join iff
    their constraint is violated.
    """
    means = np.asarray(element_means, dtype=float)
    mult = np.asarray(multipliers, dtype=float)
    chi = np.asarray(obstacle_means, dtype=float)
    if alpha <= 0.0:
        raise SolverError(f"alpha must be positive, got {alpha}")
    if not classical:
        return mult + alpha * (means - chi) < 0.0
    if current_active is None:
        current_active = np.zeros(means.shape, dtype=bool)
    cur = np.asarray(current_active, dtype=bool)
    return np.where(cur, mult < 0.0, means - chi < 0.0)


# ----------------------------------------------------------------------
# primal-dual active-set iteration
# ----------------------------------------------------------------------
def _solve_for_active(system: DiscreteObstacleSystem, act: np.ndarray):
    dm = system.dofmap
    if dm.n_free == 0:
        return np.zeros(0), np.zeros(dm.n_multipliers)
    if not act.any():
        free, _ = solve_spd(system.stiffness, system.load)
        return free, np.zeros(dm.n_multipliers)
    cols = np.flatnonzero(act)
    constraint = system.coupling[:, cols]
    try:
        free, active_mult, _ = solve_kkt(
            system.stiffness, constraint,
            system.load, system.constraint_rhs[cols])
    except SingularConstraintError as exc:
        # A fully (or almost fully) constrained iterate on a structured mesh
        # can carry linearly dependent constraints: the multiplier is then a
        # one-parameter family and an arbitrary representative would keep the
        # active test churning forever.  When the system is consistent the
        # minimum-norm solution projects out the dependence and gives the
        # symmetric representative, letting the active set settle; an
        # inconsistent system re-raises the constraint diagnosis.
        free, active_mult = _min_norm_kkt(
            system.stiffness, constraint,
            system.load, system.constraint_rhs[cols], system.scale, exc)
    mult = np.zeros(dm.n_multipliers)
    mult[cols] = active_mult
    return free, mult


_MIN_NORM_DENSE_LIMIT = 4000


def _min_norm_kkt(A, B, f, g, scale, original):
    n, m = B.shape
    if n + m > _MIN_NORM_DENSE_LIMIT:
        raise original
    kkt = np.block([[A.toarray(), B.toarray()],
                    [B.toarray().T, np.zeros((m, m))]])
    rhs = np.concatenate([f, g])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    residual = float(np.abs(kkt @ sol - rhs).max())
    if residual > 1e-9 * scale:
        raise original
    return sol[:n], sol[n:]


def _coerce_init(init, system: DiscreteObstacleSystem):
    if isinstance(init, PdasState):
        free, mult = init.free_values, init.multipliers
    elif isinstance(init, SolveOutcome):
        free, mult = init.state.free_values, init.state.multipliers
    else:
        free, mult = init
    free = np.asarray(free, dtype=float)
    mult = np.asarray(mult, dtype=float)
    if free.shape != (system.dofmap.n_free,) or mult.shape != (system.dofmap.n_multipliers,):
        raise SolverError(
            f"init shapes {free.shape}/{mult.shape} do not match the system "
            f"({system.dofmap.n_free} free dofs, "
            f"{system.dofmap.n_multipliers} multipliers)")
    return free, mult


def pdas_solve(mesh: Mesh | None = None, data: ProblemData | None = None,
               dofmap: DofMap | None = None, *,
               system: DiscreteObstacleSystem | None = None,
               init=None, alpha: float = 1.0, eps_stop: float = 0.0,
               max_iter: int = 50,
               classical_active_test: bool = False) -> SolveOutcome:
    """Primal-dual active-set solve.

    Starts from the unconstrained solve (zero multipliers) unless ``init``
    provides an iterate; terminates when the active set repeats or the
    sup-norm primal update drops to ``eps_stop`` (default: exact repetition
    only).  Exhausting ``max_iter`` returns a non-converged outcome with full
    diagnostics instead of raising; singular constraint blocks propagate as
    errors.
    """
    if alpha <= 0.0:
        raise SolverError(f"alpha must be positive, got {alpha}")
    if max_iter < 1:
        raise SolverError(f"max_iter must be at least 1, got {max_iter}")
    sys_ = system if system is not None else build_system(mesh, data, dofmap)
    dm = sys_.dofmap

    if init is None:
        free, _ = (solve_spd(sys_.stiffness, sys_.load) if dm.n_free
                   else (np.zeros(0), None))
        mult = np.zeros(dm.n_multipliers)
        current = np.zeros(dm.n_multipliers, dtype=bool)
    else:
        free, mult = _coerce_init(init, sys_)
        current = mult < 0.0

    rows = []
    prev_active = None
    converged = False
    act = current
    for it in range(1, max_iter + 1):
        means = sys_.element_means(free)
        act = active_set(means, mult, sys_.obstacle_means, alpha,
                         classical=classical_active_test, current_active=current)
        if prev_active is not None and np.array_equal(act, prev_active):
            converged = True
            act = prev_active
            break
        old = free
        free, mult = _solve_for_active(sys_, act)
        step = float(np.abs(free - old).max()) if dm.n_free else 0.0
        res = sys_.residual_inf(free, mult)
        rows.append(IterationRow(it, int(act.sum()), step, res))
        prev_active = act
        current = act
        if step <= eps_stop:
            converged = True
            break

    iterations = len(rows)
    state = PdasState(free_values=free, multipliers=mult, active=act,
                      iteration=iterations, alpha=alpha)
    return SolveOutcome(
        solution=sys_.solution_field(free),
        multiplier=sys_.multiplier_field(mult),
        state=state, converged=converged, iterations=iterations,
        residual=sys_.residual_inf(free, mult), log=tuple(rows),
        method="classical-active-set" if classical_active_test else "active-set",
        system=sys_)


# ----------------------------------------------------------------------
# penalization route
# ----------------------------------------------------------------------
def penalized_solve(mesh: Mesh | None = None, data: ProblemData | None = None,
                    dofmap: DofMap | None = None, *, eps: float,
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
    sys_ = system if system is not None else build_system(mesh, data, dofmap)
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
    defect = sys_.element_means(free) - sys_.obstacle_means
    lam = inv_eps2 * np.minimum(defect, 0.0)
    while True:
        defect = sys_.element_means(free) - sys_.obstacle_means
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


def brute_force_solve(mesh: Mesh | None = None, data: ProblemData | None = None,
                      dofmap: DofMap | None = None, *,
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
    sys_ = system if system is not None else build_system(mesh, data, dofmap)
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
                if (means - sys_.obstacle_means).min(initial=0.0) < -feas_tol:
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
                      iteration=0, alpha=float("nan"))
    return SolveOutcome(
        solution=sys_.solution_field(free),
        multiplier=sys_.multiplier_field(mult),
        state=state, converged=True, iterations=0,
        residual=sys_.residual_inf(free, mult), log=(),
        method="brute-force", system=sys_)
