"""One benchmark study in its own process: set up, run the levels, check them.

Run as ``python3 perfbench/study.py --workload NAME [--trace] [--setup-only]
[--smoke]``.  The last line of standard output is one JSON object with the
set-up time, the timed wall time, the per-level records and the check
results (and, traced, the per-layer metrics).

The level sequence repeats ``afem_run``'s with its default arguments:
``pdas_solve`` (cold on the first level, else ``build_system`` plus a warm
start through ``prolong_cr``/``prolong_p0``), ``marini_flux``, ``estimate``,
``exact_errors`` and ``rho_reduced`` when the data has an exact solution, the
discrete energies, Dörfler marking, then ``refine_rgb``.  Every call goes
through a module attribute, so a traced process sees it.
"""
import time

_SETUP_START = time.perf_counter()  # set-up time counts the imports below

import argparse
import json
import math
import resource
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import load_layers  # noqa: E402
import tracing  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

THETA = 0.5
#: quadrature degree of the obstacle check on the post-processed field
CHECK_DEGREE = 12
#: relative agreement of the discrete primal and dual energies
DUALITY_RTOL = 1e-8
#: relative agreement with the seed reference of eta^2, energies and errors;
#: loose enough for an iterative linear solve in place of the direct one
VALUE_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    benchmark: str
    levels: int
    divisions: int | None = None     # structured mesh size; None: the definition's
    eta_target_level: int = 0        # seed level whose eta^2 is the time-to-eta target


WORKLOADS = {
    # The paper's headline study: adaptive, diagnostics-heavy.
    "corner-afem": Workload("corner", levels=22, eta_target_level=19),
    # One cold PDAS solve on a fine structured mesh: KKT factorisations dominate.
    "ring-cold": Workload("ring", levels=1, divisions=96, eta_target_level=1),
    # Adaptive without an exact solution: estimator, PDAS and mesh work.
    "pyramid-afem": Workload("pyramid", levels=26, eta_target_level=23),
}

SMOKE = {
    "corner-afem": Workload("corner", levels=4, eta_target_level=3),
    "ring-cold": Workload("ring", levels=1, divisions=12, eta_target_level=1),
    "pyramid-afem": Workload("pyramid", levels=4, eta_target_level=3),
}


def workload_spec(name, smoke=False):
    table = SMOKE if smoke else WORKLOADS
    if name not in table:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]


def reference_path(name, smoke=False):
    return REFERENCE_DIR / f"{name}{'.smoke' if smoke else ''}.json"


def load_reference(name, smoke=False):
    path = reference_path(name, smoke)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# marking
# ----------------------------------------------------------------------
def doerfler_mark(indicators, theta=THETA):
    """Smallest element set carrying a θ² share of the indicator sum.

    Elements are taken in descending indicator order, ties by ascending id,
    until their sum reaches ``theta**2`` times the total (less 1e-14 of it);
    the ids come back sorted.  An all-zero input marks nothing.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie strictly in (0, 1), got {theta}")
    ind = np.asarray(indicators, dtype=float).ravel()
    if ind.size and float(ind.min()) < 0.0:
        raise ValueError(f"indicators must be nonnegative, got min {ind.min()}")
    total = float(ind.sum())
    if total <= 0.0:
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((np.arange(ind.size), -ind))
    csum = np.cumsum(ind[order])
    target = theta * theta * total - 1e-14 * total
    k = min(int(np.searchsorted(csum, target)) + 1, ind.size)
    return np.sort(order[:k]).astype(np.int64)


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
class Stopwatch:
    """Accumulates the timed regions; tracing records only inside them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.total = 0.0
        self._start = None

    def __enter__(self):
        self._recording = self.tracer.recording()
        self._recording.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._start
        self._start = None
        self._recording.__exit__(*exc)
        return False

    def elapsed(self):
        running = 0.0 if self._start is None else time.perf_counter() - self._start
        return self.total + running


# ----------------------------------------------------------------------
# the levels
# ----------------------------------------------------------------------
def _finite(value):
    return isinstance(value, float) and math.isfinite(value)


def setup(L, spec, tracer):
    definition = L.benchmarks.get_benchmark(spec.benchmark)
    with tracer.recording(), tracer.span("mesh.build"):
        if spec.divisions is None:
            mesh0 = definition.initial_mesh()
        else:
            mesh0 = L.mesh.build_structured(definition.domain, spec.divisions,
                                            pattern=definition.mesh_pattern)
    return definition, mesh0


def run_levels(L, spec, data, mesh0, tracer, reference=None):
    """Run the level sequence; return (records, failed, wall_s, time_to_eta_s)."""
    eta_target = None
    if reference is not None and spec.eta_target_level:
        eta_target = reference["levels"][spec.eta_target_level - 1]["eta_sq"]
        eta_target *= 1.0 + VALUE_RTOL
    clock = Stopwatch(tracer)
    span = tracer.span
    solver, spaces, duality, estimator = L.solver, L.spaces, L.duality, L.estimator
    records, failed, time_to_eta = [], 0, None
    mesh, prev = mesh0, None
    for level_no in range(1, spec.levels + 1):
        try:
            with clock:
                with span("spaces.prolong"):
                    moved = None if prev is None else (
                        spaces.prolong_cr(prev.solution, mesh),
                        spaces.prolong_p0(prev.multiplier, mesh))
                if moved is None:
                    with span("solver.pdas"):
                        out = solver.pdas_solve(mesh, data)
                else:
                    system = solver.build_system(mesh, data)
                    dm = system.dofmap
                    init = (moved[0].dofs[dm.free_sides],
                            moved[1].values[dm.elements])
                    with span("solver.pdas"):
                        out = solver.pdas_solve(system=system, init=init)
                if not out.converged:
                    raise RuntimeError(f"level {level_no}: PDAS did not converge")
                sysd = out.system
                with span("duality.flux"):
                    flux = duality.marini_flux(out.solution, out.multiplier, sysd.f_h)
                with span("estimator.estimate"):
                    result = estimator.estimate(out)
                eta_sq = result.breakdown.total_sq
                if time_to_eta is None and eta_target is not None \
                        and eta_sq <= eta_target:
                    time_to_eta = clock.elapsed()
                exact = data.exact
                with span("estimator.exact_errors"):
                    errs = (None if exact is None else estimator.exact_errors(
                        out.solution, flux, out.multiplier, data))
                with span("estimator.rho_reduced"):
                    reduced_sq = (math.nan if getattr(exact, "energy", None) is None
                                  else estimator.rho_reduced(
                                      result.field, out.solution, out.multiplier, data))
                with span("duality.energy"):
                    primal = duality.energy_primal_discrete(
                        out.solution, sysd.f_h, sysd.chi_h)
                    dual = duality.energy_dual_discrete(
                        flux, sysd.f_h, sysd.chi_h,
                        boundary_dof_values=sysd.boundary_values)
                marked = doerfler_mark(result.breakdown.indicators)
                with span("mesh.refine"):
                    next_mesh = (None if level_no == spec.levels
                                 else L.mesh.refine_rgb(mesh, marked))
        except Exception as exc:
            failed += 1
            print(f"level {level_no} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            break
        records.append({
            "level": level_no,
            "dofs": int(sysd.dofmap.n_free),
            "elements": int(mesh.n_elements),
            "iterations": int(out.iterations),
            "active": int(np.count_nonzero(out.state.active)),
            "converged": bool(out.converged),
            "eta_sq": float(eta_sq),
            "reduced_sq": None if math.isnan(reduced_sq) else float(reduced_sq),
            "primal_energy": float(primal) if _finite(primal) else None,
            "dual_energy": float(dual) if _finite(dual) else None,
            "errors": None if errs is None else {
                k: float(v) for k, v in vars(errs).items()},
            "above_obstacle": above_obstacle(L, result.field, data),
        })
        mesh, prev = next_mesh, out
    return records, failed, clock.total, time_to_eta


def above_obstacle(L, field, data):
    """The post-processed field is >= chi at the degree-12 quadrature points."""
    rule = L.spaces.triangle_rule(CHECK_DEGREE)
    values = field.values_on(rule.bary)
    mesh = field.mesh
    corners = mesh.vertex_coords[mesh.elem_vertices]
    points = np.einsum("qj,tjd->tqd", rule.bary, corners)
    chi = data.chi(points) if callable(data.chi) else data.chi
    return bool(np.all(values >= np.broadcast_to(chi, values.shape)))


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _close(a, b, scale=0.0):
    """Relative agreement; ``scale`` sets the magnitude below which it is absolute.

    ``None`` stands for an infinite energy and matches only ``None``.
    """
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= VALUE_RTOL * max(abs(a), abs(b), scale)


def check_level(rec, ref):
    """Outcome of every applicable check on one level record (check -> bool)."""
    out = {"converged": rec["converged"], "above_obstacle": rec["above_obstacle"]}
    primal, dual = rec["primal_energy"], rec["dual_energy"]
    out["strong_duality"] = (primal is not None and dual is not None and
                             abs(primal - dual) <= DUALITY_RTOL * max(1.0, abs(primal)))
    if rec["reduced_sq"] is not None:
        out["rho_le_eta"] = rec["reduced_sq"] <= rec["eta_sq"]
    if ref is not None:
        out["counts_match_seed"] = all(rec[k] == ref[k]
                                       for k in ("dofs", "iterations", "active"))
        values = (_close(rec["eta_sq"], ref["eta_sq"])
                  and _close(rec["primal_energy"], ref["primal_energy"], 1.0))
        if ref["reduced_sq"] is not None:
            values = values and _close(rec["reduced_sq"], ref["reduced_sq"],
                                       ref["eta_sq"])
        if ref["errors"] is not None:
            # The error fields share one scale: a pairing term far below the
            # gradient error moves with the solve's round-off, not with its size.
            scale = max(abs(v) for v in ref["errors"].values())
            values = values and rec["errors"] is not None and all(
                _close(rec["errors"].get(k), v, scale)
                for k, v in ref["errors"].items())
        out["values_match_seed"] = values
    return out


def check_study(records, failed, spec, reference):
    """Per-level check results, the failing levels per check and the verdict.

    The verdict is ``correct`` when every level ran and every check failure
    is one the seed reference records as a known defect.
    """
    ref_levels = reference["levels"] if reference is not None else []
    known = reference.get("known_failures", {}) if reference is not None else {}
    per_level, failing = [], {}
    for i, rec in enumerate(records):
        ref = ref_levels[i] if i < len(ref_levels) else None
        result = check_level(rec, ref)
        per_level.append(result)
        for name, ok in result.items():
            if not ok:
                failing.setdefault(name, []).append(rec["level"])
    unexpected = {name: [lv for lv in levels if lv not in known.get(name, [])]
                  for name, levels in failing.items()}
    unexpected = {k: v for k, v in unexpected.items() if v}
    complete = (failed == 0 and len(records) == spec.levels
                and (reference is None or len(ref_levels) == spec.levels))
    return {
        "passed": sum(sum(r.values()) for r in per_level),
        "total": sum(len(r) for r in per_level),
        "levels_failing": sum(1 for r in per_level if not all(r.values())),
        "failing": failing,
        "unexpected": unexpected,
        "correct": complete and reference is not None and not unexpected,
    }


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer, records, mesh_elements):
    """Per-layer metrics of one traced study (values only; units live in BENCHMARK.json)."""
    t, c = tracer.total, tracer.counters
    gaps = [abs(r["primal_energy"] - r["dual_energy"]) / max(1.0, abs(r["primal_energy"]))
            for r in records
            if r["primal_energy"] is not None and r["dual_energy"] is not None]
    metrics = {
        "sparse.kkt_s": t("sparse.kkt"),
        "sparse.kkt_calls": tracer.calls("sparse.kkt"),
        "sparse.kkt_n_max": c.get("sparse.kkt_n_max"),
        "sparse.kkt_nnz_max": c.get("sparse.kkt_nnz_max"),
        "sparse.kkt_singular": c.get("sparse.kkt_singular"),
        "sparse.spd_s": t("sparse.spd"),
        "solver.pdas_s": t("solver.pdas"),
        "solver.pdas_self_s": tracer.self_time("solver.pdas"),
        "solver.iterations": sum(r["iterations"] for r in records),
        "solver.iterations_max": max((r["iterations"] for r in records), default=0),
        "estimator.exact_errors_s": t("estimator.exact_errors"),
        "estimator.rho_reduced_s": t("estimator.rho_reduced"),
        "spaces.element_points_calls": tracer.calls("spaces.element_points"),
        "spaces.element_points_s": t("spaces.element_points"),
        "spaces.quad_points": c.get("spaces.quad_points", 0),
        "mesh.barycentric_calls": tracer.calls("mesh.barycentric"),
        "mesh.barycentric_s": t("mesh.barycentric"),
        "estimator.estimate_s": t("estimator.estimate"),
        "estimator.postprocess_s": t("estimator.postprocess"),
        "estimator.eta_s": t("estimator.eta"),
        "estimator.osc_s": t("estimator.osc"),
        "mesh.build_s": t("mesh.build"),
        "mesh.refine_s": t("mesh.refine"),
        "mesh.elements_final": mesh_elements,
        "assembly.build_system_s": t("assembly.build_system"),
        "assembly.stiffness_s": t("assembly.stiffness"),
        "assembly.coupling_s": t("assembly.coupling"),
        "assembly.load_s": t("assembly.load"),
        "spaces.prolong_s": t("spaces.prolong"),
        "duality.flux_s": t("duality.flux"),
        "duality.energy_s": t("duality.energy"),
        "duality.gap_max": max(gaps, default=0.0),
        "duality.dual_infinite": sum(1 for r in records if r["dual_energy"] is None),
    }
    # A wrapper whose target a later tree removed leaves its metrics out.
    return {k: v for k, v in metrics.items() if v is not None and
            (k not in _WRAPPED_SPANS or _WRAPPED_SPANS[k] in tracer.wrapped)}


#: metrics that come from a wrapped program name, by the span it records
_WRAPPED_SPANS = {
    "sparse.kkt_s": "sparse.kkt", "sparse.kkt_calls": "sparse.kkt",
    "sparse.kkt_n_max": "sparse.kkt", "sparse.kkt_nnz_max": "sparse.kkt",
    "sparse.kkt_singular": "sparse.kkt", "sparse.spd_s": "sparse.spd",
    "spaces.element_points_s": "spaces.element_points",
    "spaces.element_points_calls": "spaces.element_points",
    "spaces.quad_points": "spaces.element_points",
    "mesh.barycentric_s": "mesh.barycentric",
    "mesh.barycentric_calls": "mesh.barycentric",
    "estimator.postprocess_s": "estimator.postprocess",
    "estimator.eta_s": "estimator.eta", "estimator.osc_s": "estimator.osc",
    "assembly.build_system_s": "assembly.build_system",
    "assembly.stiffness_s": "assembly.stiffness",
    "assembly.coupling_s": "assembly.coupling", "assembly.load_s": "assembly.load",
}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_study(L, name, *, trace=False, smoke=False, setup_only=False,
              trace_path=None, setup_start=None):
    """Set up and run one study of workload ``name`` with the loaded layers ``L``."""
    spec = workload_spec(name, smoke)
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    if trace:
        tracing.install(tracer, L)
    definition, mesh0 = setup(L, spec, tracer)
    result = {"workload": name, "smoke": smoke}
    if setup_start is not None:
        result["setup_s"] = time.perf_counter() - setup_start
    if setup_only:
        return result
    reference = load_reference(name, smoke)
    records, failed, wall_s, time_to_eta = run_levels(
        L, spec, definition.data, mesh0, tracer, reference)
    result.update({
        "wall_s": wall_s,
        "time_to_eta_s": time_to_eta,
        "attempted": len(records) + failed,
        "failed": failed,
        "records": records,
        "checks": check_study(records, failed, spec, reference),
    })
    if trace:
        final_elements = records[-1]["elements"] if records else 0
        result["layers"] = layer_metrics(tracer, records, final_elements)
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(tracer.dump()))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    L = load_layers()
    result = run_study(L, args.workload, trace=args.trace, smoke=args.smoke,
                       setup_only=args.setup_only, trace_path=args.trace_file,
                       setup_start=_SETUP_START)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
