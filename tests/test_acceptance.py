"""Acceptance gate: the ten shipping criteria.

Each test prints a single "[PASS]"/"[FAIL]" line naming the criterion and
its time budget. Arithmetic is exact everywhere (zero tolerance); the
only bounds are the per-criterion wall-clock budgets asserted below, and
the randomized criteria fix seed 0.
"""

import pytest

from quivar import acceptance

CRITERIA = [
    (acceptance.check_dimension_formulas,
     "1: closed-form dimensions (jordan 2v; one-vertex 2k(r-k))"),
    (acceptance.check_hecke_relation,
     "2: flag convolution T^2=(q-1)T+q, 6 orbits for GL3(F2) and GL3(F3), "
     "24 for GL4(F2)"),
    (acceptance.check_mckay_tables,
     "3: cyclic doubles, BD2 -> affine D4, C delta = 0"),
    (acceptance.check_stability_oracle,
     "4: closure stability vs brute-force enumeration"),
    (acceptance.check_hilbert_bijection,
     "5: cyclic-triple orbits = codim-2 ideals over F2"),
    (acceptance.check_fiber_components,
     "6: flat A2 fiber with 2 components of dim 1"),
    (acceptance.check_trace_separation,
     "7: trace signatures separate semisimple classes"),
    (acceptance.check_convolution_laws,
     "8: associativity, dual formulas, S3 group algebra"),
    (acceptance.check_moment_trace_identity,
     "9: moment-map trace identity and fiber obstruction"),
    (acceptance.check_weight_bookkeeping,
     "10: w - Cv weights, sl2 strings, sl3 adjoint mult"),
]


@pytest.mark.parametrize("check,label", CRITERIA,
                         ids=[lab.split(":")[0] for _, lab in CRITERIA])
def test_acceptance_criterion(check, label, capsys):
    rep = check(seed=0)
    status = "PASS" if rep["ok"] else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {label} "
              f"({rep['elapsed']}s of {rep['bound']}s budget, exact) "
              f"-- {rep['detail']}")
    assert rep["ok"], rep["detail"]
    assert rep["elapsed"] < rep["bound"], \
        f"time budget exceeded: {rep['elapsed']}s >= {rep['bound']}s"
