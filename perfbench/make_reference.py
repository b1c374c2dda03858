"""Record the seed reference of every workload and its smoke size.

Run ``OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py`` from the
repository root to rewrite ``perfbench/reference/*.json``.  Each file holds,
per level, the dofs, PDAS iterations and active-set size (compared exactly)
and eta^2, the primal energy and the exact-error fields (compared to a
relative tolerance).  Checks that already fail on the tree that records the
reference are stored as ``known_failures``: they still count against
``checks_passed_frac``, but they do not make a run incorrect.

Rewrite the reference only from the tree the benchmark was defined on; a
reference taken from a changed program would hide what the change did.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import study  # noqa: E402
from layers import load_layers  # noqa: E402
from tracing import NullTracer  # noqa: E402

KEPT = ("level", "dofs", "iterations", "active", "eta_sq", "primal_energy",
        "reduced_sq", "errors")


def record(L, name, smoke):
    spec = study.workload_spec(name, smoke)
    definition, mesh0 = study.setup(L, spec, NullTracer())
    records, failed, _, _ = study.run_levels(L, spec, definition.data, mesh0,
                                             NullTracer())
    if failed or len(records) != spec.levels:
        raise SystemExit(f"{name}: a level failed; no reference written")
    checks = study.check_study(records, failed, spec, None)
    return {
        "workload": name,
        "smoke": smoke,
        "levels": [{k: r[k] for k in KEPT} for r in records],
        "known_failures": checks["failing"],
    }


def main():
    L = load_layers()
    study.REFERENCE_DIR.mkdir(exist_ok=True)
    for smoke in (True, False):
        for name in study.WORKLOADS:
            ref = record(L, name, smoke)
            path = study.reference_path(name, smoke)
            path.write_text(json.dumps(ref, indent=1) + "\n")
            print(f"{path.name}: {len(ref['levels'])} levels, "
                  f"known failures {ref['known_failures']}")


if __name__ == "__main__":
    main()
