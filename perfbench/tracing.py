"""Span recording around the calls into each crobstacle layer.

Only a traced child process installs the wrappers.  Each wrapper replaces a
module attribute through which callers reach a layer (``solver.solve_kkt``,
``estimator.element_points``, ``Mesh.barycentric_coordinates``, ...), so the
program code itself is untouched.  Spans record name, start, end and parent;
they stay in memory and are written out when the run ends.
"""
import functools
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""
    enabled = False

    def span(self, name):
        return _NULL

    def recording(self):
        return _NULL


class Tracer:
    """In-memory span recorder; records only while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = {}
        self.wrapped = []        # span names whose wrapper was installed
        self.missing = []        # "owner.attr" names absent from the tree
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def recording(self):
        """Enable recording for the enclosed (timed) region only."""
        previous, self.enabled = self.enabled, True
        try:
            yield
        finally:
            self.enabled = previous

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, owner, attr, name, on_result=None, on_error=None):
        """Replace ``owner.attr`` with a recorder; a missing attr is noted, not fatal."""
        original = getattr(owner, attr, None)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if original is None:
            self.missing.append(label)
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            try:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self.wrapped.append(name)
        return True

    # -- reductions ---------------------------------------------------------
    def total(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name):
        """Duration of the named spans minus the time their child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child_time[i]
                   for i, s in enumerate(self.spans) if s[0] == name)

    def dump(self):
        return {"spans": [{"name": n, "start": a, "end": b, "parent": p}
                          for n, a, b, p in self.spans],
                "counters": dict(self.counters),
                "missing_wrappers": list(self.missing)}


def install(tracer, L):
    """Wrap the layer entry points of the loaded modules ``L``."""
    solver, sparse = L.solver, L.sparse

    def kkt_report(result):
        report = result[2] if isinstance(result, tuple) and len(result) == 3 else None
        for key, field in (("sparse.kkt_n_max", "n"), ("sparse.kkt_nnz_max", "nnz"),
                           ("sparse.kkt_residual_max", "residual_norm")):
            value = getattr(report, field, None)
            if value is not None:
                tracer.maximum(key, value)

    singular = getattr(sparse, "SingularConstraintError", None)

    def kkt_error(exc):
        if singular is not None and isinstance(exc, singular):
            tracer.count("sparse.kkt_singular")

    tracer.count("sparse.kkt_singular", 0)
    tracer.wrap(solver, "solve_kkt", "sparse.kkt", kkt_report, kkt_error)
    tracer.wrap(solver, "solve_spd", "sparse.spd")
    tracer.wrap(solver, "build_system", "assembly.build_system")
    for attr, name in (("assemble_stiffness_full", "assembly.stiffness"),
                       ("assemble_coupling", "assembly.coupling"),
                       ("find_excluded_element", "assembly.coupling"),
                       ("build_dofmap", "assembly.dofmap"),
                       ("assemble_load", "assembly.load"),
                       ("assemble_obstacle_vectors", "assembly.load"),
                       ("dirichlet_dof_values", "assembly.load")):
        tracer.wrap(solver, attr, name)

    def quad_points(points):
        shape = getattr(points, "shape", ())
        if len(shape) == 3:
            tracer.count("spaces.quad_points", int(shape[0]) * int(shape[1]))

    for module in (L.spaces, L.assembly, L.duality, L.estimator):
        if hasattr(module, "element_points"):
            tracer.wrap(module, "element_points", "spaces.element_points",
                        quad_points)
    tracer.wrap(L.mesh.Mesh, "barycentric_coordinates", "mesh.barycentric")

    estimator = L.estimator
    for attr in ("eta_A", "eta_B", "eta_C"):
        tracer.wrap(estimator, attr, "estimator.eta")
    tracer.wrap(estimator, "oscillation", "estimator.osc")
    tracer.wrap(estimator, "postprocess_conforming", "estimator.postprocess")
