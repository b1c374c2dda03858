"""Adaptive refinement loop: solve, estimate, mark, refine, with bookkeeping.

Each level solves the discrete obstacle problem (warm-started from the
previous level through mesh prolongation), reconstructs the dual flux,
assembles the error-estimator breakdown and optional exact-error record,
then either stops (estimator tolerance, level budget, element budget) or
refines: all elements in uniform mode, a bulk-marked subset in adaptive
mode.  The full per-level history is retained so studies, tables, and
exports can be produced without re-running the loop.
"""
import math
import time
from dataclasses import dataclass

import numpy as np

from .assembly import ProblemData
from .duality import (
    DualField,
    energy_dual_discrete,
    energy_primal_discrete,
    marini_flux,
)
from .estimator import (
    ErrorRecord,
    EstimatorBreakdown,
    PostprocessedField,
    estimate,
    exact_errors,
    rho_reduced,
)
from .mesh import Mesh, export_vtk, refine_rgb
from .solver import SolveOutcome, build_system, pdas_solve
from .spaces import prolong_cr, prolong_p0

__all__ = [
    "AdaptivityError",
    "AfemConfig",
    "AfemLevel",
    "AfemHistory",
    "doerfler_mark",
    "afem_run",
    "dump_level_vtk",
]


class AdaptivityError(Exception):
    """Invalid configuration or an aborted run.

    When a run aborts mid-loop, ``history`` carries the levels completed
    before the failure.
    """

    def __init__(self, message: str, history: "AfemHistory | None" = None):
        super().__init__(message)
        self.history = history


# ----------------------------------------------------------------------
# Configuration and history containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AfemConfig:
    """Loop controls: marking fraction, stopping tests, refinement mode."""
    theta: float = 0.5
    eps_stop: float = 1e-12
    max_levels: int = 25
    uniform: bool = False
    max_elements: int = 200_000

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise AdaptivityError(
                f"theta must lie strictly in (0, 1), got {self.theta}")
        if not self.eps_stop > 0.0:
            raise AdaptivityError(
                f"eps_stop must be positive, got {self.eps_stop}")
        if self.max_levels < 1:
            raise AdaptivityError(
                f"max_levels must be at least 1, got {self.max_levels}")
        if self.max_elements < 1:
            raise AdaptivityError(
                f"max_elements must be at least 1, got {self.max_elements}")


@dataclass(frozen=True)
class AfemLevel:
    """Everything produced on one level of the loop."""
    record: ErrorRecord
    mesh: Mesh
    outcome: SolveOutcome
    flux: DualField
    field: PostprocessedField
    breakdown: EstimatorBreakdown
    marked: np.ndarray
    contact: np.ndarray
    seconds: float


@dataclass(frozen=True)
class AfemHistory:
    """A completed (or aborted) run: per-level payloads plus stop reason."""
    config: AfemConfig
    data: ProblemData
    levels: tuple
    stop_reason: str

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        dofs = [lvl.record.dofs for lvl in self.levels]
        if any(b <= a for a, b in zip(dofs, dofs[1:])):
            raise AdaptivityError(
                f"history dof counts must increase strictly, got {dofs}")

    @property
    def records(self) -> list:
        return [lvl.record for lvl in self.levels]

    def decay_slope(self, skip: int = 0) -> float:
        """Log-log slope of the squared estimator against dof counts.

        Least-squares fit over the levels after dropping the first
        ``skip`` ones (pre-asymptotic transient).
        """
        recs = self.records[skip:]
        if len(recs) < 2:
            raise AdaptivityError(
                f"slope fit needs at least 2 levels, got {len(recs)} "
                f"after skipping {skip}")
        eta = np.array([r.estimator_sq for r in recs])
        dofs = np.array([r.dofs for r in recs], dtype=float)
        if not np.all(np.isfinite(eta)) or np.any(eta <= 0.0):
            raise AdaptivityError(
                "slope fit needs positive finite estimator values")
        return float(np.polyfit(np.log(dofs), np.log(eta), 1)[0])


# ----------------------------------------------------------------------
# Bulk marking
# ----------------------------------------------------------------------
def doerfler_mark(indicators, theta: float) -> np.ndarray:
    """Minimal bulk chasing: smallest element set carrying a θ² share.

    Elements are taken greedily in descending indicator order (ties by
    ascending id) until their sum reaches ``theta**2`` times the total;
    greedy selection on the sorted order attains the minimal cardinality.
    Returns the marked ids in ascending order; an all-zero input returns
    the empty set, and a non-finite or negative indicator raises.
    """
    if not (0.0 < theta < 1.0):
        raise AdaptivityError(
            f"theta must lie strictly in (0, 1), got {theta}")
    ind = np.asarray(indicators, dtype=float).ravel()
    if ind.size and not (np.all(np.isfinite(ind)) and float(ind.min()) >= 0.0):
        raise AdaptivityError(
            f"indicators must be finite and nonnegative, got min {ind.min()}")
    total = float(ind.sum())
    if total <= 0.0:
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((np.arange(ind.size), -ind))
    csum = np.cumsum(ind[order])
    target = theta * theta * total - 1e-14 * total
    k = min(int(np.searchsorted(csum, target)) + 1, ind.size)
    return np.sort(order[:k]).astype(np.int64)


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
def afem_run(data: ProblemData, config: AfemConfig, mesh0: Mesh) -> AfemHistory:
    """Run the solve-estimate-mark-refine loop from an initial mesh.

    Stops when the squared estimator drops to ``config.eps_stop``
    (``stop_reason == "estimator_tolerance"``), the level budget is used up
    (``"max_levels"``), or the next refinement would exceed
    ``config.max_elements`` (``"element_budget"``).  A failure anywhere in
    a level (solve, flux, estimate, diagnostics, energies, marking or
    refinement) raises :class:`AdaptivityError` with the levels completed
    so far attached.
    """
    levels: list[AfemLevel] = []
    mesh = mesh0
    prev: SolveOutcome | None = None
    stop_reason = "max_levels"

    def partial() -> AfemHistory:
        return AfemHistory(config, data, tuple(levels), "aborted")

    for level_no in range(1, config.max_levels + 1):
        t0 = time.perf_counter()
        try:
            if prev is None:
                out = pdas_solve(mesh, data)
            else:
                system = build_system(mesh, data)
                dm = system.dofmap
                free = prolong_cr(prev.solution, mesh).dofs[dm.free_sides]
                mult = prolong_p0(prev.multiplier, mesh).values[dm.elements]
                out = pdas_solve(system=system, init=(free, mult))
            if not out.converged:
                raise AdaptivityError(
                    f"level {level_no}: solver did not converge within its "
                    f"iteration budget")
            flux = marini_flux(out.solution, out.multiplier, out.system.f_h)
            result = estimate(out)

            sysd = out.system
            eta_sq = result.breakdown.total_sq
            errs = None
            reduced_sq = math.nan
            if data.exact is not None:
                errs = exact_errors(out.solution, flux, out.multiplier, data)
                if getattr(data.exact, "energy", None) is not None:
                    reduced_sq = rho_reduced(result.field, out.solution,
                                             out.multiplier, data)
            primal = energy_primal_discrete(out.solution, sysd.f_h, sysd.chi_h)
            dual = energy_dual_discrete(flux, sysd.f_h, sysd.chi_h,
                                        boundary_dof_values=sysd.boundary_values)
            record = ErrorRecord(
                level=level_no, h_max=mesh.h_max, dofs=sysd.dofmap.n_free,
                errors=errs, estimator_sq=eta_sq, reduced_sq=reduced_sq,
                primal_energy=primal, dual_energy=dual)
            if config.uniform:
                marked = np.arange(mesh.n_elements, dtype=np.int64)
            else:
                marked = doerfler_mark(result.breakdown.indicators, config.theta)
            levels.append(AfemLevel(
                record=record, mesh=mesh, outcome=out, flux=flux,
                field=result.field, breakdown=result.breakdown, marked=marked,
                contact=out.multiplier.values < 0.0,
                seconds=time.perf_counter() - t0))
            prev = out

            if eta_sq <= config.eps_stop:
                stop_reason = "estimator_tolerance"
                break
            if level_no == config.max_levels:
                stop_reason = "max_levels"
                break
            next_mesh = refine_rgb(mesh, marked)
        except AdaptivityError as exc:
            raise AdaptivityError(str(exc), history=partial()) from exc
        except Exception as exc:
            raise AdaptivityError(
                f"level {level_no} aborted: {exc}", history=partial()) from exc
        if next_mesh.n_elements > config.max_elements:
            stop_reason = "element_budget"
            break
        mesh = next_mesh

    return AfemHistory(config, data, tuple(levels), stop_reason)


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def dump_level_vtk(level: AfemLevel, path) -> None:
    """Write one level as a VTK file: solution, multiplier, flux, estimator.

    Cell fields carry the element means, the constraint force, the contact
    mask, the flux components, and the estimator breakdown; the vertex
    field ``solution`` is the nodal part of ``level.field``: the node-averaged
    conforming representative, with the boundary data on Dirichlet vertices.
    """
    cell = {
        "solution_mean": level.outcome.solution.element_means(),
        "multiplier": level.outcome.multiplier.values,
        "contact": level.contact.astype(float),
        "flux_x": level.flux.cell_average.values[:, 0],
        "flux_y": level.flux.cell_average.values[:, 1],
    }
    cell.update(level.breakdown.cell_data())
    point = {"solution": level.field.nodal.values}
    export_vtk(level.mesh, path, cell_data=cell, point_data=point)
