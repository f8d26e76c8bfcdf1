"""Acceptance gate: every named suite at its stated size and time budget.

Each test prints one pass/fail line; run with -s to watch them stream.
All equalities inside the suites are exact (finite-table comparison), so
there are no numeric tolerances, only instance counts and wall-clock caps.
Each report must also equal, byte for byte, its golden text and JSON in
`data/reports/`.
"""

import pathlib
import time

import pytest

from gral.generators import SuiteConfig
from gral.suites import run_suite

REPORTS = pathlib.Path(__file__).parent / "data" / "reports"

CRITERIA = [
    # (number, suite, budget seconds, required counts)
    (1, "cogroupoid", 1.0, {}),
    (2, "fundamental-groupoid", 10.0,
     {"groupoids": 50, "boundary-pairs": 100}),
    (3, "squares", 10.0, {"cells": 100}),
    (4, "two-one-axioms", 30.0, {"configs": 100}),
    (5, "pgasm-ccc", 60.0, {"beta": 20, "modest": 10}),
    (6, "finite-limits", 60.0, {"pullbacks": 20, "pseudopullbacks": 20}),
    (7, "path-axioms", 120.0,
     {"assemblies": 20, "fibrations": 30, "pc7": 20, "pc8": 20, "brown": 10}),
    (8, "weak-pi", 120.0, {"instances": 20}),
    (9, "modest-closure", 60.0, {"instances": 10}),
    (10, "comb-alg", 30.0, {"bracket": 200, "assemblies": 10}),
]


@pytest.mark.parametrize("number,suite,budget,counts",
                         CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance(number, suite, budget, counts):
    cfg = SuiteConfig(seed=0, counts=counts)
    start = time.perf_counter()
    report = run_suite(suite, cfg)
    elapsed = time.perf_counter() - start
    status = "PASS" if report.ok and elapsed < budget else "FAIL"
    print(f"criterion {number:2d} [{suite}] {status} "
          f"({elapsed:.2f}s < {budget:.0f}s)")
    if not report.ok:
        print(report.to_text())
    assert report.ok, f"criterion {number}: checks failed"
    assert report.to_text() == (REPORTS / f"{suite}.txt").read_text()
    assert report.to_json() == (REPORTS / f"{suite}.json").read_text()
    assert elapsed < budget, f"criterion {number}: {elapsed:.2f}s over budget"


def test_injected_report_matches_golden():
    counts = next(c[3] for c in CRITERIA if c[1] == "path-axioms")
    report = run_suite("path-axioms",
                       SuiteConfig(seed=0, counts=counts, inject="broken-cleavage"))
    assert not report.ok
    assert report.to_text() == \
        (REPORTS / "path-axioms-broken-cleavage.txt").read_text()
    assert report.to_json() == \
        (REPORTS / "path-axioms-broken-cleavage.json").read_text()
