"""ErrorRecord values of short AFEM runs against pinned values.

``data/afem_golden.json`` holds the records of corner (6 adaptive levels),
pyramid (6 adaptive levels) and ring (2 uniform levels), written by
``golden.py``.  Levels, dof counts and mesh sizes must match exactly; every
other float must agree to 1e-13 relative.  ``reduced_sq`` is a difference
of O(1) energies, so its scale is ``max(|reduced_sq|, |exact energy|)``.
"""
import json
import math

import pytest

from golden import GOLDEN_PATH, run_records

GOLDEN = json.loads(GOLDEN_PATH.read_text())
RTOL = 1e-13


def _agree(got, want, scale=0.0):
    if want is None or isinstance(want, str):
        return got == want
    return abs(got - want) <= RTOL * max(abs(want), scale)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_error_records_match_golden(name):
    spec = GOLDEN[name]
    got = run_records(name, spec["levels"], spec["uniform"])
    assert len(got) == len(spec["records"])
    energy = abs(spec["exact_energy"] or 0.0)
    for g, w in zip(got, spec["records"]):
        assert (g["level"], g["dofs"], g["h_max"]) == \
            (w["level"], w["dofs"], w["h_max"])
        for key in ("estimator_sq", "primal_energy", "dual_energy"):
            assert _agree(g[key], w[key]), (w["level"], key, g[key], w[key])
        if w["reduced_sq"] is None:
            assert g["reduced_sq"] is None
        else:
            assert _agree(g["reduced_sq"], w["reduced_sq"], energy), \
                (w["level"], g["reduced_sq"], w["reduced_sq"])
        assert (g["errors"] is None) == (w["errors"] is None)
        for key, want in (w["errors"] or {}).items():
            assert math.isfinite(g["errors"][key])
            assert _agree(g["errors"][key], want), \
                (w["level"], key, g["errors"][key], want)
