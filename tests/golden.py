"""Pinned ErrorRecord values of three short AFEM runs (``data/afem_golden.json``).

``tests/test_golden.py`` compares fresh runs against the file.  Rewrite it
only when a change is meant to move the values, from the repository root::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/golden.py
"""
import json
import math
from pathlib import Path

from crobstacle.adaptivity import AfemConfig, afem_run
from crobstacle.benchmarks import get_benchmark

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "afem_golden.json"

#: (benchmark, levels, uniform refinement)
RUNS = (("corner", 6, False), ("pyramid", 6, False), ("ring", 2, True))


def encode(value):
    """Finite floats as floats; NaN as None; infinite energies as "inf"/"-inf"."""
    value = float(value)
    if math.isnan(value):
        return None
    return repr(value) if math.isinf(value) else value


def record_dict(rec):
    out = {"level": rec.level, "dofs": rec.dofs, "h_max": rec.h_max,
           "estimator_sq": encode(rec.estimator_sq),
           "reduced_sq": encode(rec.reduced_sq),
           "primal_energy": encode(rec.primal_energy),
           "dual_energy": encode(rec.dual_energy),
           "errors": None}
    if rec.errors is not None:
        out["errors"] = {k: encode(v) for k, v in vars(rec.errors).items()}
    return out


def run_records(name, levels, uniform):
    bench = get_benchmark(name)
    hist = afem_run(bench.data, AfemConfig(max_levels=levels, uniform=uniform),
                    bench.initial_mesh())
    return [record_dict(r) for r in hist.records]


def main():
    runs = {}
    for name, levels, uniform in RUNS:
        bench = get_benchmark(name)
        runs[name] = {"levels": levels, "uniform": uniform,
                      "exact_energy": (None if bench.data.exact is None
                                       else bench.data.exact.energy),
                      "records": run_records(name, levels, uniform)}
    GOLDEN_PATH.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
