"""The primal-dual active-set solver of the discrete obstacle problem.

The discrete problem minimizes the broken Dirichlet energy over side-dof
vectors whose element means stay above the element means of the interpolated
obstacle.  :func:`build_system` assembles it on a mesh and :func:`pdas_solve`
solves it by the primal-dual active-set iteration, a finitely terminating
semismooth Newton method.

Each iteration solves the equality-constrained problem of its active set.
A constrained iterate gets its own selector factorisation
(:func:`~crobstacle.sparse.selector_solve`), and nothing of it outlives the
iterate.  The selectors of one solve share a
:class:`~crobstacle.sparse.SelectorPattern`, built with the first of them
and dropped when the solve returns: it holds the stiffness pattern in the
mesh's nested-dissection order of the free sides
(:func:`~crobstacle.mesh.nested_dissection`), and its scatter map fills
each selector matrix into that pattern.  The selector accepts dependent
constraints; an active set it cannot solve is inconsistent and raises
:class:`SolverError`.  The constrained iterate a solve returns is solved
once more by :func:`~crobstacle.sparse.solve_kkt`, so the result is bitwise
that of a fresh ``solve_kkt`` factorisation at every iteration as long as
the active sets follow the same sequence; where ``solve_kkt`` refuses the
set (dependent constraints), the selector's iterate is returned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (
    AssemblyError,
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
from .mesh import Mesh, nested_dissection
from .sparse import LinearSolveError, SelectorPattern, selector_solve, solve_kkt, solve_spd
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
    pairs free sides with the elements, each of which carries one
    multiplier (entry ``|T|/3``).  The load carries the Dirichlet lifting;
    ``constraint_rhs`` is the right-hand side of an activated constraint row
    (obstacle mean integral minus the fixed boundary-side contributions).
    """
    mesh: Mesh
    data: ProblemData
    dofmap: DofMap
    stiffness: sp.csr_array
    coupling: sp.csr_array
    load: np.ndarray
    boundary_values: np.ndarray
    chi_h: P0Function
    f_h: P0Function
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
        """Barycentric means of the elements (boundary dofs included)."""
        full = self.full_side_values(free_values)
        return full[self.mesh.elem_sides].mean(axis=1)

    def residual_inf(self, free_values, multipliers) -> float:
        if self.dofmap.n_free == 0:
            return 0.0
        r = (self.stiffness @ np.asarray(free_values, dtype=float)
             + self.coupling @ np.asarray(multipliers, dtype=float) - self.load)
        return float(np.abs(r).max())

    def solution_field(self, free_values) -> CrFunction:
        return CrFunction(self.mesh, self.full_side_values(free_values))

    def multiplier_field(self, multipliers) -> P0Function:
        return P0Function(self.mesh, multipliers)


def build_system(mesh: Mesh, data: ProblemData) -> DiscreteObstacleSystem:
    """Assemble the discrete obstacle system on a mesh.

    Every element carries a multiplier, so an element without a free side
    (a triangle whose three sides are Dirichlet sides) raises
    :class:`~crobstacle.assembly.AssemblyError`.
    """
    dofmap = build_dofmap(mesh)
    coupling = assemble_coupling(mesh, dofmap)
    excluded = find_excluded_element(coupling)
    if excluded:
        raise AssemblyError(
            f"elements {excluded} have no free side: their means are fixed "
            "by the boundary data and cannot carry a multiplier")
    side_values, chi_h = assemble_obstacle_vectors(mesh, data)
    boundary_values = dirichlet_dof_values(mesh, data)
    data.validate_on(mesh, side_values=side_values, boundary_values=boundary_values)

    stiffness_full = assemble_stiffness_full(mesh)
    # keeps the explicit zeros of right-angled elements (about a quarter of
    # the entries): solve_kkt's ordering, and so every record's bits, depends
    # on them, and the selector factor runs up to 3x slower without them
    stiffness = stiffness_full[dofmap.free_sides][:, dofmap.free_sides]
    f_h = assemble_load(mesh, data)

    load = coupling @ f_h.values
    if np.any(boundary_values != 0.0):
        load = load - (stiffness_full @ boundary_values)[dofmap.free_sides]

    fixed = boundary_values[mesh.elem_sides].sum(axis=1)
    constraint_rhs = mesh.areas * chi_h.values - (mesh.areas / 3.0) * fixed

    return DiscreteObstacleSystem(
        mesh=mesh, data=data, dofmap=dofmap, stiffness=stiffness,
        coupling=coupling, load=load, boundary_values=boundary_values,
        chi_h=chi_h, f_h=f_h, constraint_rhs=constraint_rhs)


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
    """One PDAS iterate.

    ``solve`` is ``"fresh"`` (a selector factorisation of its active set)
    or ``"unconstrained"`` (no active constraint: the stiffness alone).
    """
    iteration: int
    n_active: int
    step_inf_norm: float
    residual: float
    solve: str


@dataclass(frozen=True)
class SolveOutcome:
    """A constrained solve: full-dof solution field, multiplier, diagnostics.

    ``factorizations`` counts the sparse factorisations of the active-set
    systems: one selector per constrained iterate, plus the final
    ``solve_kkt`` re-solve of a constrained returned iterate, whether or not
    ``solve_kkt`` accepts it.
    """
    solution: CrFunction
    multiplier: P0Function
    state: PdasState
    converged: bool
    iterations: int
    residual: float
    log: tuple
    system: DiscreteObstacleSystem
    factorizations: int


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
    non-converged outcome with full diagnostics instead of raising.

    Each constrained iterate is solved by its own selector factorisation
    (:func:`~crobstacle.sparse.selector_solve`); no factorisation is kept
    from one iterate to the next.  The selectors share one
    :class:`~crobstacle.sparse.SelectorPattern`, which lives as long as the
    call: the first selector builds it, in the nested-dissection order
    :func:`~crobstacle.mesh.nested_dissection` gives the free sides of the
    system's mesh, and every selector factors in that order.  A selector
    that misses its refined-residual bound means an inconsistent active set
    and raises :class:`SolverError` naming the iteration and the number of
    active constraints.  The returned constrained active set is solved once
    more through :func:`solve_kkt`, so the result is bitwise that of a
    fresh ``solve_kkt`` at every iteration whenever the sequence of active
    sets is the same.  Where ``solve_kkt`` refuses that set (its probe or a
    singular factor: the constraints are dependent), the refined selector
    iterate of the same set is returned.
    """
    if max_iter < 1:
        raise SolverError(f"max_iter must be at least 1, got {max_iter}")
    sys_ = system if system is not None else build_system(mesh, data)
    dm = sys_.dofmap

    def unconstrained():
        free = solve_spd(sys_.stiffness, sys_.load)[0] if dm.n_free else np.zeros(0)
        return free, np.zeros(dm.n_multipliers)

    free, mult = unconstrained() if init is None else _coerce_init(init, sys_)
    pattern = None         # SelectorPattern of the system, built by the first selector
    factorizations = 0
    rows = []
    prev_active = None
    converged = False
    for it in range(1, max_iter + 1):
        means = sys_.element_means(free)
        act = active_set(means, mult, sys_.chi_h.values)
        if prev_active is not None and np.array_equal(act, prev_active):
            converged = True
            act = prev_active
            break
        old = free
        if not (dm.n_free and act.any()):
            how = "unconstrained"
            free, mult = unconstrained()
        else:
            how = "fresh"
            factorizations += 1
            try:
                if pattern is None:
                    pattern = SelectorPattern(
                        sys_.stiffness, sys_.coupling,
                        nested_dissection(sys_.mesh, dm.free_sides))
                free, mult = selector_solve(pattern, sys_.load, sys_.constraint_rhs, act)
            except LinearSolveError as exc:
                raise SolverError(
                    f"PDAS iteration {it}: the active set of {int(act.sum())} "
                    f"constraints has no solution ({exc})") from exc
        step = float(np.abs(free - old).max()) if dm.n_free else 0.0
        res = sys_.residual_inf(free, mult)
        rows.append(IterationRow(it, int(act.sum()), step, res, how))
        prev_active = act
        if step == 0.0:
            converged = True
            break
    pattern = None
    if dm.n_free and act.any():
        factorizations += 1
        cols = np.flatnonzero(act)
        try:
            free, active_mult, _ = solve_kkt(sys_.stiffness, sys_.coupling[:, cols],
                                             sys_.load, sys_.constraint_rhs[cols])
        except LinearSolveError:
            pass   # dependent constraints: keep the selector iterate
        else:
            mult = np.zeros(dm.n_multipliers)
            mult[cols] = active_mult

    iterations = len(rows)
    state = PdasState(free_values=free, multipliers=mult, active=act,
                      iteration=iterations)
    return SolveOutcome(
        solution=sys_.solution_field(free),
        multiplier=sys_.multiplier_field(mult),
        state=state, converged=converged, iterations=iterations,
        residual=sys_.residual_inf(free, mult), log=tuple(rows),
        system=sys_, factorizations=factorizations)
