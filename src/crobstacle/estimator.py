"""A posteriori error machinery for the nonconforming obstacle solver.

* conforming post-processing of a solve: vertex averaging capped by the
  obstacle, with pointwise values and active-branch gradients,
* the three-part error estimator (flux discrepancy, complementarity
  discrepancy, dual irregularity) with per-element localization and data
  oscillation,
* the computable reduced error measure built from a reference energy,
* exact error norms against closed-form solutions,
* experimental convergence orders and extrapolated reference energies.

Everything is vectorised over elements with deterministic reductions.

On one level, :func:`oscillation` (through :func:`estimate`),
:func:`exact_errors` and :func:`rho_reduced` (through
``energy_primal_continuous``) need the load ``f`` and the exact ``u`` and
``grad u`` at the same degree-12 element points.  They take them from
:func:`~crobstacle.spaces.shared_sample`, which keeps them on the mesh, so
each callable is evaluated once per level, not once per caller.  A refined
level takes each sample over from its parent mesh and evaluates the callable
only on the elements the refinement created, at element points built for
them alone.  The obstacle is not shared: :func:`estimate` and
:func:`rho_reduced` each sample it once, at points built only for a callable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import HIGH_ORDER_DEGREE, ProblemData
from .duality import DualField, energy_primal_continuous
from .mesh import Mesh
from .spaces import (
    CrFunction,
    P0Function,
    VertexFunction,
    element_points,
    integrate_elementwise,
    interp_av,
    interp_cr,
    interp_rt,
    sample_data,
    segment_rule,
    shared_sample,
    triangle_rule,
)

__all__ = [
    "EstimatorError",
    "PostprocessedField",
    "FieldSample",
    "postprocess_conforming",
    "eta_A",
    "eta_B",
    "eta_C",
    "oscillation",
    "EstimatorBreakdown",
    "EstimateResult",
    "estimate",
    "rho_reduced",
    "ExactErrors",
    "exact_errors",
    "eoc",
    "aitken",
    "ErrorRecord",
    "write_error_history",
]

#: quadrature degree used when interpolating data along sides
_SIDE_RULE_POINTS = 6


class EstimatorError(Exception):
    """Invalid input to the a posteriori machinery."""


# ----------------------------------------------------------------------
# Conforming post-processing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PostprocessedField:
    """Pointwise maximum of a conforming averaging and the obstacle.

    The nodal part is piecewise affine; where the obstacle wins, values and
    gradients switch to the obstacle branch (ties go to the affine branch,
    so constant obstacles never require an obstacle gradient).

    Evaluation is barycentric: ``bary`` are rule points shared by every
    element.  Their element points are built only for a callable obstacle,
    which is sampled there.
    """
    mesh: Mesh
    nodal: VertexFunction
    data: ProblemData

    def values_on(self, bary):
        """Values at shared barycentric points; shape (n_elements, nq)."""
        return self.sample(bary).values

    def sample(self, bary) -> "FieldSample":
        """The nodal part and the obstacle at shared barycentric points."""
        chi = self.data.chi
        points = element_points(self.mesh, bary) if callable(chi) else None
        return FieldSample(self, points, self.nodal.eval_at(bary),
                           sample_data(chi, points))


@dataclass(frozen=True)
class FieldSample:
    """A post-processed field on one set of element points.

    ``p1`` is the nodal part ``(n_elements, nq)`` and ``chi`` the obstacle
    as :func:`sample_data` returns it (for a constant, a float and no points).
    """
    field: PostprocessedField
    points: np.ndarray
    p1: np.ndarray
    chi: object

    @property
    def values(self) -> np.ndarray:
        return np.maximum(self.p1, self.chi)

    @property
    def excess(self) -> np.ndarray:
        """``v - chi``, the field's height above the obstacle."""
        return np.maximum(self.p1 - self.chi, 0.0)

    def gradient_error_sq(self, reference: np.ndarray) -> np.ndarray:
        """``|grad v - reference|^2`` for a per-element ``reference`` (n_elements, 2).

        The affine branch is squared once per element and broadcast; only
        points on the obstacle branch are evaluated one by one.
        """
        nodal = self.field.nodal.gradient().values
        per_elem = ((nodal - reference) ** 2).sum(axis=1)
        out = np.repeat(per_elem[:, None], self.p1.shape[1], axis=1)
        active = self.chi > self.p1
        if active.any():
            rows = np.nonzero(active)[0]
            out[active] = ((self._obstacle_gradients(active)
                            - reference[rows]) ** 2).sum(axis=1)
        return out

    def _obstacle_gradients(self, active) -> np.ndarray:
        """Obstacle gradients ``(k, 2)`` at the ``k`` active points."""
        data = self.field.data
        if not callable(data.chi):   # constant
            return np.zeros((int(active.sum()), 2))
        if data.chi_grad is None:
            raise EstimatorError(
                "the obstacle is active on the post-processed field but the "
                "problem data carries no obstacle gradient")
        return np.asarray(data.chi_grad(self.points[active]), dtype=float)


def postprocess_conforming(u: CrFunction, data: ProblemData) -> PostprocessedField:
    """Conforming feasible field ``max{vertex averaging, obstacle}``.

    Dirichlet vertices of the averaging carry the boundary data, so the
    result matches the boundary condition at the mesh vertices and sits
    above the obstacle everywhere by construction.
    """
    nodal = interp_av(u, data.dirichlet_values_at)
    return PostprocessedField(u.mesh, nodal, data)


# ----------------------------------------------------------------------
# Estimator contributions (per-element squared values)
# ----------------------------------------------------------------------
def eta_A(v: PostprocessedField, u: CrFunction, sample: FieldSample) -> np.ndarray:
    """Per-element squared flux discrepancy ``|grad v - grad_h u|^2``.

    ``sample`` is ``v`` sampled on the points of the high-order rule.
    """
    rule = triangle_rule(HIGH_ORDER_DEGREE)
    return integrate_elementwise(
        v.mesh, rule, sample.gradient_error_sq(u.gradient().values))


def eta_B(v: PostprocessedField, multiplier: P0Function,
          sample: FieldSample) -> np.ndarray:
    """Per-element complementarity discrepancy ``(-mult)·|T|·mean(v - chi)``.

    Requires a nonpositive multiplier and ``v >= chi``; any per-element
    value below ``-1e-12`` signals a violated precondition and raises.
    ``sample`` is ``v`` sampled on the points of the high-order rule.
    """
    rule = triangle_rule(HIGH_ORDER_DEGREE)
    gap = integrate_elementwise(v.mesh, rule, sample.excess)
    per_element = (-multiplier.values) * gap
    worst = float(per_element.min(initial=0.0))
    if worst < -1e-12:
        raise EstimatorError(
            "negative complementarity contribution "
            f"({worst:.3e}): the multiplier must be nonpositive and the "
            "field must dominate the obstacle")
    return per_element


def eta_C(multiplier: P0Function, f_h: P0Function, mesh: Mesh) -> np.ndarray:
    """Per-element dual irregularity ``(1/4) h_T^2 (f_h - mult)^2 |T|``."""
    diff = f_h.values - multiplier.values
    return 0.25 * mesh.h_elements ** 2 * diff ** 2 * mesh.areas


def oscillation(mesh: Mesh, data: ProblemData, f_h: P0Function) -> np.ndarray:
    """Per-element data oscillation ``h_T^2 * int_T (f - f_h)^2``.

    Exactly zero (by construction, not by quadrature) when ``f`` is a
    constant and ``f_h`` is its projection.
    """
    rule = triangle_rule(HIGH_ORDER_DEGREE)
    f = shared_sample(data.f, mesh, rule)
    diff_sq = (f - f_h.values[:, None]) ** 2
    return mesh.h_elements ** 2 * integrate_elementwise(mesh, rule, diff_sq)


# ----------------------------------------------------------------------
# Aggregated breakdown
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EstimatorBreakdown:
    """Per-element estimator contributions and the global squared estimator.

    All entries are squared quantities and must be finite and nonnegative
    up to roundoff (>= -1e-14).
    """
    mesh: Mesh
    eta_a_sq: np.ndarray
    eta_b_sq: np.ndarray
    eta_c_sq: np.ndarray
    osc_sq: np.ndarray

    def __post_init__(self):
        for name in ("eta_a_sq", "eta_b_sq", "eta_c_sq", "osc_sq"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.mesh.n_elements,):
                raise EstimatorError(
                    f"{name} must have one entry per element, got shape "
                    f"{arr.shape}")
            if not np.all(np.isfinite(arr)) or float(arr.min(initial=0.0)) < -1e-14:
                raise EstimatorError(
                    f"{name} has a non-finite or negative entry ({arr.min():.3e})")
            object.__setattr__(self, name, arr)

    @property
    def indicators(self) -> np.ndarray:
        """Per-element refinement indicators (sum of the three parts)."""
        return self.eta_a_sq + self.eta_b_sq + self.eta_c_sq

    @property
    def total_sq(self) -> float:
        """Global squared estimator (oscillation not included)."""
        return float(self.indicators.sum())

    def cell_data(self) -> dict:
        """Per-element fields for VTK heatmaps."""
        return {
            "eta_a_sq": self.eta_a_sq.copy(),
            "eta_b_sq": self.eta_b_sq.copy(),
            "eta_c_sq": self.eta_c_sq.copy(),
            "osc_sq": self.osc_sq.copy(),
            "estimator_sq": self.indicators,
        }


@dataclass(frozen=True)
class EstimateResult:
    """Post-processed field and estimator breakdown of one solve."""
    field: PostprocessedField
    breakdown: EstimatorBreakdown


def estimate(outcome) -> EstimateResult:
    """Post-process a solve outcome and assemble its estimator breakdown."""
    system = outcome.system
    data = system.data
    mesh = system.mesh
    v = postprocess_conforming(outcome.solution, data)
    sample = v.sample(triangle_rule(HIGH_ORDER_DEGREE).bary)
    return EstimateResult(
        field=v,
        breakdown=EstimatorBreakdown(
            mesh,
            eta_A(v, outcome.solution, sample),
            eta_B(v, outcome.multiplier, sample),
            eta_C(outcome.multiplier, system.f_h, mesh),
            oscillation(mesh, data, system.f_h),
        ),
    )


# ----------------------------------------------------------------------
# Reduced error measure
# ----------------------------------------------------------------------
def rho_reduced(v: PostprocessedField, solution: CrFunction,
                multiplier: P0Function, data: ProblemData, *,
                reference_energy: float | None = None,
                include_exact_terms: bool | None = None) -> float:
    """Computable lower bound companion of the squared estimator.

    The base term is ``I(v) - I(u)``, the energy excess of the conforming
    field over the reference energy (an exact energy when the problem data
    carries one, otherwise an explicitly supplied extrapolated value).
    When the exact solution is available the broken-gradient error squared
    and the pairing of the discrete constraint force with the exact gap are
    added; ``include_exact_terms=False`` selects the energy-only variant.
    """
    exact = data.exact
    if reference_energy is None:
        if exact is not None and exact.energy is not None:
            reference_energy = exact.energy
        else:
            raise EstimatorError(
                "no reference energy: the problem data has no exact energy "
                "and none was supplied")
    has_exact = exact is not None
    if include_exact_terms is None:
        include_exact_terms = has_exact
    if include_exact_terms and not has_exact:
        raise EstimatorError(
            "exact-solution terms requested but the problem data has no "
            "exact solution")

    mesh = v.mesh
    rule = triangle_rule(HIGH_ORDER_DEGREE)
    sample = v.sample(rule.bary)
    chi = sample.chi
    values = sample.values
    grad_sq = sample.gradient_error_sq(np.zeros((mesh.n_elements, 2)))
    # Free the nodal part before the energy and the energy's inputs after
    # it: level-sized arrays kept past their use raise the run's peak memory.
    del sample
    total = (energy_primal_continuous(mesh, data, values, grad_sq)
             - float(reference_energy))
    del values, grad_sq
    if include_exact_terms:
        grad_h = solution.gradient().values
        grad_u = shared_sample(exact.grad_u, mesh, rule)
        total += float(_distance_sq(mesh, rule, grad_h[:, None, :], grad_u).sum())
        gap = shared_sample(exact.u, mesh, rule) - chi
        total += float(np.sum((-multiplier.values)
                              * integrate_elementwise(mesh, rule, gap)))
    return float(total)


# ----------------------------------------------------------------------
# Exact error norms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExactErrors:
    """Error quantities of one level against the exact solution.

    Three flavours per unknown: ``*_error`` compares the discrete field
    against the exact one, ``*_error_interp`` is the approximation error
    of the exact field's canonical interpolant (the quantity convergence
    tables track alongside ``*_error``), and ``*_supercloseness`` is the
    distance between the discrete field and that interpolant, which
    converges faster than either error.  For the gradient the three are
    tied per element by L2 orthogonality:
    ``grad_error**2 == grad_error_interp**2 + grad_supercloseness**2``
    up to quadrature accuracy.  The pairing entries are duality pairings
    of the discrete constraint force with primal errors (squared-scale
    quantities); totals are pairing + norm.
    """
    grad_error: float
    grad_error_interp: float
    grad_supercloseness: float
    flux_error: float
    flux_error_interp: float
    flux_supercloseness: float
    pairing_error: float
    pairing_error_interp: float

    @property
    def total_error(self) -> float:
        return self.pairing_error + self.grad_error

    @property
    def total_error_interp(self) -> float:
        return self.pairing_error_interp + self.grad_error_interp


def _distance_sq(mesh: Mesh, rule, a, b) -> np.ndarray:
    """Per-element ``int_T |a - b|^2`` of vector fields sampled on ``rule``.

    ``a`` and ``b`` broadcast to ``(n_elements, nq, 2)``.  Each component's
    difference is squared in place and the two are added: the bits of
    ``((a - b) ** 2).sum(axis=-1)`` without its ``(n_elements, nq, 2)``
    temporaries.
    """
    dist, dy = a[..., 0] - b[..., 0], a[..., 1] - b[..., 1]
    dist *= dist
    dist += np.square(dy, out=dy)
    return integrate_elementwise(mesh, rule, dist)


def _element_means_vector(rt_field, rule) -> np.ndarray:
    """Element means of a lowest-order flux field (exact: affine integrand)."""
    vals = rt_field.eval_at(rule.bary)
    return np.einsum("tqd,q->td", vals, rule.weights)


def exact_errors(solution: CrFunction, flux: DualField, multiplier: P0Function,
                 data: ProblemData) -> ExactErrors:
    """All error quantities of a level against the exact solution.

    ``flux`` is the reconstructed field from ``marini_flux``: its flux gives
    the flux errors and its ``cell_average`` the flux supercloseness.
    """
    exact = data.exact
    if exact is None:
        raise EstimatorError("exact errors need problem data with an exact "
                             "solution")
    mesh = solution.mesh
    rule = triangle_rule(HIGH_ORDER_DEGREE)
    grad_u = shared_sample(exact.grad_u, mesh, rule)

    def error(field_vals) -> float:
        return math.sqrt(float(_distance_sq(mesh, rule, field_vals, grad_u).sum()))

    grad_h = solution.gradient().values
    grad_error = error(grad_h[:, None, :])
    u_i = interp_cr(exact.u, mesh, segment_rule(_SIDE_RULE_POINTS))
    grad_i = u_i.gradient().values
    grad_error_interp = error(grad_i[:, None, :])
    grad_supercloseness = math.sqrt(float(
        (((grad_h - grad_i) ** 2).sum(axis=1) * mesh.areas).sum()))

    flux_error = error(flux.flux.eval_at(rule.bary))
    z_i = interp_rt(exact.grad_u, mesh, segment_rule(_SIDE_RULE_POINTS))
    flux_error_interp = error(z_i.eval_at(rule.bary))

    zh_mean = flux.cell_average.values
    zi_mean = _element_means_vector(z_i, triangle_rule(2))
    flux_supercloseness = math.sqrt(float(
        (((zh_mean - zi_mean) ** 2).sum(axis=1) * mesh.areas).sum()))

    mean_u = integrate_elementwise(
        mesh, rule, shared_sample(exact.u, mesh, rule)) / mesh.areas
    m_uh = solution.element_means()
    neg_mult = -multiplier.values
    pairing_error = float(np.sum(neg_mult * (mean_u - m_uh) * mesh.areas))
    m_ui = u_i.element_means()
    pairing_error_interp = float(np.sum(neg_mult * (m_ui - m_uh) * mesh.areas))

    return ExactErrors(
        grad_error=grad_error,
        grad_error_interp=grad_error_interp,
        grad_supercloseness=grad_supercloseness,
        flux_error=flux_error,
        flux_error_interp=flux_error_interp,
        flux_supercloseness=flux_supercloseness,
        pairing_error=pairing_error,
        pairing_error_interp=pairing_error_interp,
    )


# ----------------------------------------------------------------------
# Convergence orders and extrapolation
# ----------------------------------------------------------------------
def eoc(errors, h) -> np.ndarray:
    """Experimental orders ``log(e_k/e_{k-1}) / log(h_k/h_{k-1})``."""
    e = np.asarray(errors, dtype=float).ravel()
    hs = np.asarray(h, dtype=float).ravel()
    if e.size != hs.size:
        raise EstimatorError(
            f"errors and mesh sizes differ in length ({e.size} vs {hs.size})")
    if e.size < 2:
        raise EstimatorError("need at least two levels to compute orders")
    if not np.all(e > 0.0) or not np.all(hs > 0.0):
        raise EstimatorError("errors and mesh sizes must be positive")
    log_h = np.log(hs[1:] / hs[:-1])
    if np.any(log_h == 0.0):
        raise EstimatorError("successive mesh sizes must differ")
    return np.log(e[1:] / e[:-1]) / log_h


def aitken(values) -> float:
    """Extrapolated limit of an energy sequence (delta-squared process).

    Uses the last window ``(I_{k-2}, I_{k-1}, I_k)`` from the end of the
    sequence whose second difference is nonzero relative to its scale.
    """
    seq = np.asarray(values, dtype=float).ravel()
    if seq.size < 3:
        raise EstimatorError("extrapolation needs at least three values")
    for k in range(seq.size - 1, 1, -1):
        a, b, c = seq[k - 2], seq[k - 1], seq[k]
        den = c - 2.0 * b + a
        scale = max(abs(a), abs(b), abs(c), 1.0)
        if abs(den) > 1e-14 * scale:
            return float((c * a - b * b) / den)
    raise EstimatorError(
        "no window with a nonvanishing second difference: the sequence is "
        "too flat to extrapolate")


# ----------------------------------------------------------------------
# Study records
# ----------------------------------------------------------------------
_CSV_COLUMNS = (
    "level,h_max,dofs,grad_error,grad_error_interp,grad_supercloseness,"
    "flux_error,flux_error_interp,flux_supercloseness,pairing_error,"
    "pairing_error_interp,total_error,total_error_interp,estimator_sq,"
    "reduced_sq,primal_energy,dual_energy"
)


@dataclass(frozen=True)
class ErrorRecord:
    """One study level: mesh size, dof count, errors, estimator, energies."""
    level: int
    h_max: float
    dofs: int
    errors: ExactErrors | None
    estimator_sq: float
    reduced_sq: float
    primal_energy: float
    dual_energy: float

    def row(self) -> list:
        e = self.errors
        err_cols = [math.nan] * 10 if e is None else [
            e.grad_error, e.grad_error_interp, e.grad_supercloseness,
            e.flux_error, e.flux_error_interp, e.flux_supercloseness,
            e.pairing_error, e.pairing_error_interp,
            e.total_error, e.total_error_interp]
        return ([self.level, self.h_max, self.dofs] + err_cols
                + [self.estimator_sq, self.reduced_sq, self.primal_energy,
                   self.dual_energy])


def write_error_history(path, records) -> None:
    """Write study records as deterministic CSV (17 significant digits)."""
    lines = [_CSV_COLUMNS]
    for rec in records:
        cells = []
        for value in rec.row():
            if isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            else:
                cells.append("%.17g" % float(value))
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
