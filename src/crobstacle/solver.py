"""The primal-dual active-set solver of the discrete obstacle problem.

The discrete problem minimizes the broken Dirichlet energy over side-dof
vectors whose element means stay above the element means of the interpolated
obstacle.  :func:`build_system` assembles it on a mesh and :func:`pdas_solve`
solves it by the primal-dual active-set iteration, a finitely terminating
semismooth Newton method.

Each iteration solves the equality-constrained problem of its active set.
The first constrained iterate of a solve is factored fresh through
:func:`~crobstacle.sparse.solve_kkt`; that factorisation is the *base*, and
later active sets are solved as systems bordered onto it
(:class:`~crobstacle.sparse.BorderedKkt`) until an active set needs more new
border columns than one factorisation costs.  Bordered iterates only
select the next active set: the iterate a solve returns always comes from a
fresh factorisation, so the result is bitwise that of refactoring at every
iteration as long as the active sets follow the same sequence.
"""
from __future__ import annotations

from dataclasses import dataclass

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
from .sparse import (
    BorderedKkt,
    LinearSolveError,
    SingularConstraintError,
    solve_kkt,
    solve_spd,
)
from .spaces import CrFunction, P0Function

__all__ = [
    "SolverError",
    "DiscreteObstacleSystem",
    "build_system",
    "PdasState",
    "IterationRow",
    "SolveOutcome",
    "active_set",
    "pdas_solve",
]


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


def build_system(mesh: Mesh, data: ProblemData) -> DiscreteObstacleSystem:
    """Assemble the discrete obstacle system on a mesh.

    Elements without any free side are excluded from the multiplier (their
    means are fixed by the boundary data).
    """
    dofmap = build_dofmap(mesh)
    coupling = assemble_coupling(mesh, dofmap)
    excluded = find_excluded_element(coupling)
    if excluded:
        dofmap = dofmap.exclude(excluded)
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


@dataclass(frozen=True)
class IterationRow:
    """One PDAS iterate; ``solve`` is ``"fresh"``, ``"bordered"`` or ``"unconstrained"``."""
    iteration: int
    n_active: int
    step_inf_norm: float
    residual: float
    solve: str


@dataclass(frozen=True)
class SolveOutcome:
    """A constrained solve: full-dof solution field, multiplier, diagnostics.

    ``factorizations`` counts the fresh saddle-point factorisations, the
    final re-solve of a bordered iterate included.
    """
    solution: CrFunction
    multiplier: P0Function
    state: PdasState
    converged: bool
    iterations: int
    residual: float
    log: tuple
    method: str
    system: DiscreteObstacleSystem
    factorizations: int = 0


# ----------------------------------------------------------------------
# active-set test
# ----------------------------------------------------------------------
def active_set(element_means, multipliers, obstacle_means) -> np.ndarray:
    """Element activation mask ``L_T + (m_T - chi_T) < 0``.

    The inequality is strict (exact ties stay inactive).  The test
    ``L_T + c (m_T - chi_T) < 0`` depends on the constant ``c > 0`` only
    through the first iterate, so it is fixed at 1.
    """
    means = np.asarray(element_means, dtype=float)
    mult = np.asarray(multipliers, dtype=float)
    chi = np.asarray(obstacle_means, dtype=float)
    return mult + (means - chi) < 0.0


# ----------------------------------------------------------------------
# primal-dual active-set iteration
# ----------------------------------------------------------------------
def _fresh_solve(system: DiscreteObstacleSystem, act: np.ndarray):
    """Solve the equality-constrained problem of active set ``act`` afresh.

    Returns ``(free, multipliers, report)``; ``report`` is the
    :func:`solve_kkt` report carrying its factorisation, or ``None`` when no
    saddle-point system was factored (no free dofs, no active constraint,
    or the minimum-norm fallback).
    """
    dm = system.dofmap
    if dm.n_free == 0:
        return np.zeros(0), np.zeros(dm.n_multipliers), None
    if not act.any():
        free, _ = solve_spd(system.stiffness, system.load)
        return free, np.zeros(dm.n_multipliers), None
    cols = np.flatnonzero(act)
    constraint = system.coupling[:, cols]
    report = None
    try:
        free, active_mult, report = solve_kkt(
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
    return free, mult, report


#: border columns that cost about one fresh factorisation: a fresh
#: :func:`solve_kkt` call took as long as 55 to 85 border-column solves
#: against its factor on most saddle-point systems of the three benchmark
#: workloads (up to 180 below 2,000 unknowns; 2-CPU Xeon, one BLAS thread).
#: A count, not a timing, so that which iterates are bordered, and how many
#: factorisations a solve makes, depends on the active sets alone.
_REFACTOR_COLUMNS = 64


class _ActiveSetSolves:
    """The linear solves of one PDAS run: a factored base plus bordered updates.

    A constrained active set is solved fresh when there is no base, and the
    factorisation becomes the base.  A later active set is bordered onto the
    base: a constraint added since the base is the border column ``[b_j; 0]``
    with right-hand side ``g_j``; a dropped one is the unit column
    ``e_{n+pos(j)}`` with right-hand side 0, which pins its multiplier to 0.
    The base is refactored when more than ``_REFACTOR_COLUMNS`` border
    columns not yet solved against it are needed; a singular Schur
    complement falls back to a fresh solve.
    """

    def __init__(self, system: DiscreteObstacleSystem):
        self.system = system
        self.factorizations = 0
        self._coupling = sp.csc_array(system.coupling)
        self._base = None          # BorderedKkt of the last fresh factorisation
        self._base_active = None   # ... and its active mask

    def release(self):
        self._base = None
        self._base_active = None

    def fresh(self, act, *, keep=True):
        """Fresh solve of ``act``; with ``keep`` its factorisation becomes the base."""
        self.release()   # at most one factorisation alive at a time
        sys_ = self.system
        free, mult, report = _fresh_solve(sys_, act)
        self.factorizations += 1   # one solve_kkt call, min-norm fallback or not
        if keep and report is not None:
            cols = np.flatnonzero(act)
            self._base = BorderedKkt(
                report.factor,
                np.concatenate([sys_.load, sys_.constraint_rhs[cols]]),
                np.concatenate([free, mult[cols]]))
            self._base_active = act.copy()
        return free, mult

    def solve(self, act):
        """Solve active set ``act``; returns ``(free, mult, how)``."""
        if self.system.dofmap.n_free == 0 or not act.any():
            free, mult, _ = _fresh_solve(self.system, act)
            return free, mult, "unconstrained"
        if self._base is not None:
            try:
                solved = self._bordered(act)
            except LinearSolveError:
                solved = None
            if solved is not None:
                return (*solved, "bordered")
        return (*self.fresh(act), "fresh")

    def _bordered(self, act):
        base, base_act = self._base, self._base_active
        changed = np.flatnonzero(act != base_act)
        missing = np.asarray(base.missing(changed.tolist()), dtype=np.int64)
        if missing.size > _REFACTOR_COLUMNS:
            return None
        if missing.size:
            self._extend(missing)
        sys_ = self.system
        n = sys_.dofmap.n_free
        added = changed[act[changed]]
        dropped = changed[~act[changed]]
        w, z = base.solve(np.concatenate([added, dropped]).tolist(),
                          np.concatenate([sys_.constraint_rhs[added],
                                          np.zeros(dropped.size)]))
        mult = np.zeros(sys_.dofmap.n_multipliers)
        mult[base_act] = w[n:]
        mult[dropped] = 0.0
        mult[added] = z[:added.size]
        return w[:n], mult

    def _extend(self, keys):
        """Solve the border columns of constraints ``keys`` against the base."""
        base_act = self._base_active
        n = self.system.dofmap.n_free
        added = keys[~base_act[keys]]
        dropped = keys[base_act[keys]]
        block = self._coupling[:, added]
        rows = np.concatenate([
            block.indices,
            n + np.searchsorted(np.flatnonzero(base_act), dropped)])
        cols = np.concatenate([
            np.repeat(np.arange(added.size), np.diff(block.indptr)),
            added.size + np.arange(dropped.size)])
        data = np.concatenate([block.data, np.ones(dropped.size)])
        border = sp.csc_array((data, (rows, cols)),
                              shape=(n + base_act.sum(), keys.size))
        self._base.extend(np.concatenate([added, dropped]).tolist(), border)


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
    free, mult = init
    free = np.asarray(free, dtype=float)
    mult = np.asarray(mult, dtype=float)
    if free.shape != (system.dofmap.n_free,) or mult.shape != (system.dofmap.n_multipliers,):
        raise SolverError(
            f"init shapes {free.shape}/{mult.shape} do not match the system "
            f"({system.dofmap.n_free} free dofs, "
            f"{system.dofmap.n_multipliers} multipliers)")
    return free, mult


def pdas_solve(mesh: Mesh | None = None, data: ProblemData | None = None, *,
               system: DiscreteObstacleSystem | None = None,
               init=None, max_iter: int = 50) -> SolveOutcome:
    """Primal-dual active-set solve.

    Solves ``system``, or the system :func:`build_system` assembles from
    ``mesh`` and ``data``.  Starts from the unconstrained solve (zero
    multipliers) unless ``init`` provides an iterate as a pair ``(free
    values, multipliers)``; terminates when the active set repeats or the
    primal update is exactly zero.  Exhausting ``max_iter`` returns a
    non-converged outcome with full diagnostics instead of raising; singular
    constraint blocks propagate as errors.

    The first constrained iterate is factored fresh and later ones are
    bordered onto that factorisation (:class:`_ActiveSetSolves`); bordered
    iterates only choose the next active set.  When the returned iterate
    was bordered, its active set is solved once more by a fresh
    factorisation, so the result is bitwise that of refactoring at every
    iteration whenever the sequence of active sets is the same.
    """
    if max_iter < 1:
        raise SolverError(f"max_iter must be at least 1, got {max_iter}")
    sys_ = system if system is not None else build_system(mesh, data)
    dm = sys_.dofmap

    if init is None:
        free, _ = (solve_spd(sys_.stiffness, sys_.load) if dm.n_free
                   else (np.zeros(0), None))
        mult = np.zeros(dm.n_multipliers)
    else:
        free, mult = _coerce_init(init, sys_)

    solves = _ActiveSetSolves(sys_)
    rows = []
    prev_active = None
    converged = False
    for it in range(1, max_iter + 1):
        means = sys_.element_means(free)
        act = active_set(means, mult, sys_.obstacle_means)
        if prev_active is not None and np.array_equal(act, prev_active):
            converged = True
            act = prev_active
            break
        old = free
        free, mult, how = solves.solve(act)
        step = float(np.abs(free - old).max()) if dm.n_free else 0.0
        res = sys_.residual_inf(free, mult)
        rows.append(IterationRow(it, int(act.sum()), step, res, how))
        prev_active = act
        if step == 0.0:
            converged = True
            break
    solves.release()
    if rows[-1].solve == "bordered":
        free, mult = solves.fresh(act, keep=False)

    iterations = len(rows)
    state = PdasState(free_values=free, multipliers=mult, active=act,
                      iteration=iterations)
    return SolveOutcome(
        solution=sys_.solution_field(free),
        multiplier=sys_.multiplier_field(mult),
        state=state, converged=converged, iterations=iterations,
        residual=sys_.residual_inf(free, mult), log=tuple(rows),
        method="active-set",
        system=sys_, factorizations=solves.factorizations)
