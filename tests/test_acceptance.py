"""Release-gate acceptance suite.

Criteria 1-8 are measured by the `surfimp.selftest` checks, called here with
the release seed and draw counts; this file applies the release tolerances
and time bounds.  Each criterion prints one pass/fail line (run with
`pytest -s` to see them on success) and asserts at its stated tolerance.
Run time bounds are wall clock on a desk-class machine.
"""

import os
import time

import numpy as np
import pytest

from surfimp import selftest
from surfimp.presets import synthetic_anisotropic
from surfimp.rayleigh import scan_directions

SEED = 20240817


def _report(num, name, ok, detail=""):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_1_isotropic_two_route_blocks():
    tol = 1e-9
    start = time.perf_counter()
    worst = selftest._check_iso_blocks(SEED, 50)
    elapsed = time.perf_counter() - start
    ok = worst < tol and elapsed < 5.0
    _report(1, "isotropic two-route equivalence", ok,
            f"worst {worst:.3e} (tol {tol:.0e}), {elapsed:.2f} s")
    assert worst < tol
    assert elapsed < 5.0


def test_criterion_2_rayleigh_speed_oracle():
    tol = 1e-9
    # draws the same stream as criterion 1; the frozen lam = mu constant is
    # confirmed by an independent bisection oracle
    worst, constant_gap = selftest._check_rayleigh_oracle(SEED, 50)
    assert constant_gap <= 1e-12
    ok = worst < tol
    _report(2, "rayleigh speed oracle", ok, f"worst {worst:.3e} (tol {tol:.0e})")
    assert ok


@pytest.fixture(scope="module")
def identity_worst():
    """200 seeded elliptic points: isotropic + three synthetic anisotropics."""
    start = time.perf_counter()
    worst = selftest._check_identities(SEED, 50)
    return worst, time.perf_counter() - start


def test_criterion_3_identity_suite(identity_worst):
    (worst_res, worst_herm, structure_failures, _), build_time = identity_worst
    tol, herm_tol = 1e-8, 1e-9
    structure_ok = structure_failures == 0
    ok = worst_res < tol and worst_herm < herm_tol and structure_ok and build_time < 30.0
    _report(3, "identity suite at 200 elliptic points", ok,
            f"residuals {worst_res:.3e} (tol {tol:.0e}), hermiticity {worst_herm:.3e}, "
            f"build {build_time:.1f} s")
    assert worst_res < tol
    assert worst_herm < herm_tol
    assert structure_ok
    assert build_time < 30.0


def test_criterion_4_factor_route_cross_check(identity_worst):
    (_, _, _, worst), _ = identity_worst
    tol = 1e-8
    ok = worst < tol
    _report(4, "eigen vs integral factor at 200 points", ok,
            f"worst {worst:.3e} (tol {tol:.0e})")
    assert ok


def test_criterion_5_determinant_monotonicity():
    offending, rays = selftest._check_monotonicity(SEED, 6)
    ok = offending == 0
    _report(5, "determinant monotonicity along rays", ok,
            f"{offending}/{rays} offending rays")
    assert ok


def test_criterion_6_subprincipal_suite():
    tol = 1e-9
    start = time.perf_counter()
    flat_terms, worst_lin, worst_route, _ = selftest._check_subprincipal(SEED, 100)
    elapsed = time.perf_counter() - start
    ok = flat_terms < 1e-14 and worst_lin < tol and worst_route < tol and elapsed < 5.0
    _report(6, "subprincipal suite", ok,
            f"flat {flat_terms:.1e}, linearity {worst_lin:.3e}, two-route "
            f"{worst_route:.3e} (tol {tol:.0e}), {elapsed:.2f} s")
    assert flat_terms < 1e-14
    assert worst_lin < tol
    assert worst_route < tol
    assert elapsed < 5.0


def test_criterion_7_derivative_checks():
    tol = 1e-7
    worst = selftest._check_derivatives(SEED, 20)
    ok = worst < tol
    _report(7, "complex-step derivative checks", ok, f"worst {worst:.3e} (tol {tol:.0e})")
    assert ok


def test_criterion_8_sylvester_oracle():
    tol = 1e-7
    worst = selftest._check_sylvester(SEED, 20)
    ok = worst < tol
    _report(8, "sylvester exponential-integral oracle", ok,
            f"worst {worst:.3e} (tol {tol:.0e})")
    assert ok


def test_criterion_9_scan_performance():
    mat = synthetic_anisotropic(11)
    nu = np.array([0.0, 0.0, 1.0])
    start = time.perf_counter()
    scan = scan_directions(mat, nu, 10000, threads=1)
    single = time.perf_counter() - start
    ok_time = single < 10.0
    assert scan.e1_satisfied
    # thread-count invariance of the output bytes
    small_1 = scan_directions(mat, nu, 512, threads=1).to_csv()
    small_4 = scan_directions(mat, nu, 512, threads=4).to_csv()
    ok_det = small_1 == small_4
    detail = f"10k directions in {single:.2f} s single-threaded"
    if (os.cpu_count() or 1) >= 2:
        start = time.perf_counter()
        scan_directions(mat, nu, 10000, threads=2)
        dual = time.perf_counter() - start
        detail += f", {dual:.2f} s with 2 threads"
        ok_scaling = dual < 0.9 * single
    else:
        detail += ", scaling check skipped (single-core host)"
        ok_scaling = True
    ok = ok_time and ok_det and ok_scaling
    _report(9, "scan performance", ok, detail)
    assert ok_time
    assert ok_det
    assert ok_scaling
