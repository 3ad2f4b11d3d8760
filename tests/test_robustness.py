"""Edge-of-domain behavior: extreme parameter contrast, genuine existence
failures, the integral fallback path, and off-axis normals."""

import json
import math
import warnings

import numpy as np
import pytest

import surfimp.polyfactor as polyfactor
import surfimp.rayleigh as rayleigh
from surfimp.cli import RES_KERNEL_TOL, RES_RICCATI_TOL, main
from surfimp.impedance import barnett_lothe_residual, impedance_tensor, radial_derivative_z
from surfimp.isotropic import rayleigh_cubic_root
from surfimp.material import Material, StiffnessTensor, SurfaceFrame, material_to_json, rotate_stiffness
from surfimp.polyfactor import build_pencil, spectral_factor
from surfimp.presets import isotropic_material, poisson_solid, synthetic_anisotropic
from surfimp.rayleigh import (
    SCAN_CSV_HEADER,
    BracketError,
    eval_p,
    rayleigh_point,
    scan_directions,
    tangent_basis,
)

from conftest import c_lim_reference, count_newton_min

NU = np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def e1_failing_material():
    # strongly perturbed convex material with two rootless directions
    return synthetic_anisotropic(27, strength=0.75)


@pytest.fixture(scope="module")
def e1_failing_scan(e1_failing_material):
    return scan_directions(e1_failing_material, NU, 12)


def test_extreme_parameter_contrast():
    for lam, mu in ((100.0, 0.1), (0.1, 100.0)):
        mat = isotropic_material(lam, mu, 3000.0)
        frame = SurfaceFrame(NU, np.array([1.0, 0.0, 0.0]))
        pt = rayleigh_point(mat, frame)
        u = mu / (lam + 2.0 * mu)
        expected = math.sqrt(mu * 1e9 / 3000.0) * math.sqrt(rayleigh_cubic_root(u))
        assert pt.c_r == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("factor", [3e3, 1e4, 1e6])
@pytest.mark.parametrize("name", ["aniso11", "poisson"])
def test_fast_media_certify_c_lim(name, factor):
    # scaling the moduli by k scales every speed by sqrt(k) and the pencil's
    # roots s by 1 / sqrt(k); the certificate's spectral margin, measured in
    # the spectrum's own scale, must not fail once c_lim passes ~1e5 m/s
    mat = synthetic_anisotropic(11) if name == "aniso11" else poisson_solid()
    frame = SurfaceFrame(NU, np.array([1.0, 0.0, 0.0]))
    fast = Material(StiffnessTensor(factor * mat.stiffness.voigt), mat.density)
    pt, ref = rayleigh_point(fast, frame), rayleigh_point(mat, frame)
    assert pt.c_lim > 1e5
    assert pt.c_r / math.sqrt(factor) == pytest.approx(ref.c_r, rel=1e-14)


def test_tiny_moduli_factor_residuals_are_finite():
    # |a|^2 underflows at moduli of 1e-200 Pa: the pencil's root scale takes
    # each norm of its matrix scaled to a unit peak, so the residuals stay
    # finite, and both factor routes agree.  At 1e-300 Pa the root scale is
    # about 1e152, and the integral route must not square it; at 1e-297 Pa
    # and 1e-300 kg/m^3 f0 is about 3e299, and its norm must not square it
    v = synthetic_anisotropic(11).stiffness.voigt
    frame = SurfaceFrame(NU, np.array([1.0, 0.0, 0.0]))
    for peak_pa, density in ((1e-200, 4000.0), (1e-300, 4000.0), (1e-297, 1e-300)):
        mat = Material(StiffnessTensor(v * (peak_pa / np.abs(v).max())), density)
        p = build_pencil(mat, frame, 1.0 / (0.9 * rayleigh_point(mat, frame).c_lim))
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            sf = spectral_factor(p)
            integral = polyfactor.factor_integral(p)
        assert sf.method == "eigen"
        assert sf.residual_factorization <= polyfactor.RESIDUAL_TOL
        solvency, factor_max = polyfactor.factor_residual_rows(p, integral.q)
        assert np.maximum(solvency, factor_max) <= polyfactor.RESIDUAL_TOL
        assert np.linalg.norm(integral.q - sf.q) <= 1e-13 * np.linalg.norm(sf.q)


def _preset(name):
    return poisson_solid() if name == "poisson" else synthetic_anisotropic(11)


def _rescaled(mat, stiffness_factor, density_factor):
    return Material(StiffnessTensor(mat.stiffness.voigt * stiffness_factor), mat.density * density_factor)


@pytest.mark.parametrize("fraction", [0.5, 0.999])
@pytest.mark.parametrize("name", ["poisson", "aniso11"])
@pytest.mark.parametrize("s", [2.0 ** 960, 2.0 ** -960], ids=["2^960", "2^-960"])
def test_identities_are_free_of_the_units_of_the_input(s, name, fraction):
    # C and rho times s keep every speed and q, and scale z and f0^-1 by s
    # exactly: the factor, the impedance, their residuals and the integral
    # route's node count must not see s, even where |z|^2 or |f0|^2 leaves
    # the float range; c_lim's Newton steps take f'' at the spectrum's scale,
    # and the slope's cofactors are formed at the scale of z: the slope, of
    # the units of s^3, overflows to inf or underflows to 0, with no warning
    mat = _preset(name)
    frame = SurfaceFrame(NU, np.array([1.0, 0.0, 0.0]))
    c_lim = rayleigh_point(mat, frame).c_lim
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = rayleigh_point(_rescaled(mat, s, s), frame)
    assert abs(scaled.c_lim - c_lim) <= 1e-15 * c_lim
    assert scaled.slope == (math.inf if s > 1.0 else 0.0)
    xi = 1.0 / (fraction * c_lim)
    runs = []
    for m in (mat, _rescaled(mat, s, s)):
        p = build_pencil(m, frame, xi)
        sf = spectral_factor(p)
        data, integral = impedance_tensor(p, sf), polyfactor.factor_integral(p)
        runs.append((sf.q, data, integral, barnett_lothe_residual(data.z, integral.f0)))
    (q, data, integral, bl), (q_s, data_s, integral_s, bl_s) = runs
    np.testing.assert_array_equal(q_s, q)
    np.testing.assert_array_equal(data_s.z / s, data.z)
    assert integral_s.nodes == integral.nodes
    assert data_s.nonpositive_eigenvalues == data.nonpositive_eigenvalues
    for got, want in ((data_s.hermiticity, data.hermiticity), (data_s.riccati, data.riccati), (bl_s, bl)):
        assert abs(got - want) <= 1e-13 * want
    assert np.linalg.norm(integral_s.q - integral.q) <= 1e-13 * np.linalg.norm(integral.q)


@pytest.mark.parametrize("gap", [1e-3, 1e-5])
@pytest.mark.parametrize("name", ["poisson", "aniso11"])
def test_quadrature_is_free_of_the_unit_system(name, gap):
    # the same solid in SI and in GPa and g/cm^3 (speeds then in km/s): the
    # integral route takes as many nodes in both and meets the eigen route
    frame = SurfaceFrame(NU, np.array([1.0, 0.0, 0.0]))
    nodes = []
    for mat in (_preset(name), _rescaled(_preset(name), 1e-9, 1e-3)):
        p = build_pencil(mat, frame, 1.0 / ((1.0 - gap) * rayleigh_point(mat, frame).c_lim))
        sf, integral = spectral_factor(p), polyfactor.factor_integral(p)
        assert sf.method == "eigen"
        assert np.linalg.norm(integral.q - sf.q) <= 1e-13 * np.linalg.norm(sf.q)
        nodes.append(integral.nodes)
    assert nodes[0] == nodes[1]


def test_integral_route_reaches_the_elliptic_edge(monkeypatch):
    # with every eigenvector basis rejected, the integral route factors every
    # pencil of a point and a scan, the certificate's at (1 - 1e-6) c_lim
    # included (at exactly QUAD_MAX_NODES), and the roots are the eigen route's
    mat = poisson_solid()
    frame = SurfaceFrame(NU, np.array([1.0, 0.0, 0.0]))
    ref_point, ref_scan = rayleigh_point(mat, frame), scan_directions(mat, NU, 8)
    monkeypatch.setattr(polyfactor, "COND_LIMIT", 0.0)
    point, scan = rayleigh_point(mat, frame), scan_directions(mat, NU, 8)
    assert point.exists == ref_point.exists
    assert np.array_equal(scan.exists, ref_scan.exists)
    assert abs(point.c_r - ref_point.c_r) <= 1e-12 * ref_point.c_r
    assert np.all(np.abs(scan.c_r - ref_scan.c_r) <= 1e-12 * ref_scan.c_r)


def test_existence_failure_is_data(e1_failing_scan):
    scan = e1_failing_scan
    assert not scan.e1_satisfied
    missing = np.nonzero(~scan.exists)[0]
    assert missing.size == 2
    # evenness: failures come in antipodal pairs
    n = scan.thetas.size
    assert set((missing + n // 2) % n) == set(missing)
    # c_lim is still reported for rootless rows
    assert np.all(np.isfinite(scan.c_lim))
    assert np.all(np.isnan(scan.c_r[missing]))


def test_existence_failure_scalar_agreement(e1_failing_material, e1_failing_scan):
    e1v, e2v = tangent_basis(NU)
    k = int(np.nonzero(~e1_failing_scan.exists)[0][0])
    th = e1_failing_scan.thetas[k]
    d = math.cos(th) * e1v + math.sin(th) * e2v
    pt = rayleigh_point(e1_failing_material, SurfaceFrame(NU, d))
    assert not pt.exists
    assert pt.c_r is None and pt.kernel is None
    assert pt.c_lim == pytest.approx(e1_failing_scan.c_lim[k], rel=1e-8)
    with pytest.raises(BracketError):
        eval_p(e1_failing_material, SurfaceFrame(NU, d), d)


def test_existence_failure_csv_rows(e1_failing_scan):
    lines = e1_failing_scan.to_csv().strip().split("\n")
    missing = np.nonzero(~e1_failing_scan.exists)[0]
    row = lines[1 + missing[0]].split(",")
    assert row[2] == "false"
    assert all(field == "" for field in row[3:])


def test_roots_hugging_c_lim(e1_failing_material):
    # 720 directions: six rows have no root, and the others include roots
    # within about 1.3e-6 of c_lim; det z changes sign across each c_r
    scan = scan_directions(e1_failing_material, NU, 720)
    assert np.count_nonzero(~scan.exists) == 6
    rows = np.flatnonzero(scan.exists)
    assert np.max(scan.c_r[rows] / scan.c_lim[rows]) > 1.0 - 1e-5
    engine = rayleigh._Engine(e1_failing_material)
    pre = engine.prepare(NU, scan.directions)
    above = np.linalg.det(engine.impedance_at(pre, (1.0 + 1e-9) * scan.c_r[rows], rows=rows)[3]).real
    below = np.linalg.det(engine.impedance_at(pre, (1.0 - 1e-9) * scan.c_r[rows], rows=rows)[3]).real
    assert np.all(above < 0.0) and np.all(below > 0.0)


def test_cli_exit_codes_on_existence_failure(e1_failing_material, tmp_path, capsys):
    mat_file = tmp_path / "mat.json"
    mat_file.write_text(material_to_json(e1_failing_material))
    code = main(["scan", "--material", str(mat_file), "--normal", "0,0,1",
                 "--count", "12", "--require-e1"])
    out = capsys.readouterr()
    assert code == 3
    assert json.loads(out.out)["e1_satisfied"] is False
    assert json.loads(out.out)["holonomy_phase"] is None
    # single-point solve along a rootless direction
    e1v, e2v = tangent_basis(NU)
    th = 2.0 * math.pi * 4.0 / 12.0
    d = math.cos(th) * e1v + math.sin(th) * e2v
    code = main(["rayleigh", "--material", str(mat_file), "--normal", "0,0,1",
                 "--tangent=" + ",".join(f"{x:.17g}" for x in d)])
    capsys.readouterr()
    assert code == 3
    # --csv keeps its format there: the header and one exists=false row
    code = main(["rayleigh", "--material", str(mat_file), "--normal", "0,0,1",
                 "--tangent=" + ",".join(f"{x:.17g}" for x in d), "--csv"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert code == 3
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 2 and lines[1].split(",")[2] == "false"


def test_integral_fallback_path(monkeypatch, soft_iso, std_frame):
    # force the eigen route to be rejected; the integral route must deliver
    # the same factor within its residual bounds
    p = build_pencil(soft_iso, std_frame, 2.0 / math.sqrt(1.0e9 / 1000.0))
    reference = spectral_factor(p)
    monkeypatch.setattr(polyfactor, "COND_LIMIT", 0.0)
    fallback = spectral_factor(p)
    assert reference.method == "eigen"
    assert fallback.method == "integral"
    assert max(fallback.residual_solvency, fallback.residual_factorization) < 1e-8
    assert np.linalg.norm(fallback.q - reference.q) / np.linalg.norm(reference.q) < 1e-8


def test_non_elliptic_material_raises_bracket_error():
    # lam = 2 GPa, mu = -1 GPa: c(nu) is singular and c(e) indefinite
    mat = isotropic_material(2.0, -1.0, 1000.0)
    with pytest.raises(BracketError):
        rayleigh_point(mat, SurfaceFrame(NU, np.array([1.0, 0.0, 0.0])))
    with pytest.raises(BracketError):
        scan_directions(mat, NU, 8)


def test_scan_certifies_overshot_c_lim(monkeypatch):
    # the c_lim estimate from the trace-minimiser start overshoots the
    # elliptic boundary on rows 13 and 37; uncaught, the root search starts
    # outside it and finds a spurious root.  Rows 15 and 39, where a coarser
    # start overshoots, are held to the same checks
    mat = synthetic_anisotropic(750559955, strength=0.7)
    nu = np.array([0.275124880014095, 0.6878899119845973, 0.6716500349043787])
    nu /= np.linalg.norm(nu)
    rounds = count_newton_min(monkeypatch)
    scan = scan_directions(mat, nu, 48)
    assert len(rounds) >= 2
    assert {13, 37} <= set(rounds[1].tolist())
    sigma_max = rayleigh._Engine(mat).sigma_max
    for k, c_r in ((13, 1726.849), (37, 1726.849), (15, 1891.646), (39, 1891.646)):
        frame = SurfaceFrame(nu, scan.directions[k])
        pt = rayleigh_point(mat, frame)
        assert scan.exists[k] and pt.exists
        assert scan.res_riccati[k] <= 1e-8
        assert pt.c_r == pytest.approx(c_r, abs=1e-3)
        assert scan.c_r[k] == pytest.approx(pt.c_r, rel=1e-10)
        ref = c_lim_reference(mat, nu, scan.directions[k], sigma_max)
        assert abs(scan.c_lim[k] - ref) <= 1e-12 * ref


def _transversely_isotropic(c11, c12, c13, c33, c44, rho, tilt):
    """Voigt constants in GPa, C66 = (C11 - C12) / 2, with the axis tilted from NU by tilt rad."""
    v = np.zeros((6, 6))
    v[:2, :2] = c12
    v[0, 0] = v[1, 1] = c11
    v[:2, 2] = v[2, :2] = c13
    v[2, 2], v[3, 3], v[4, 4], v[5, 5] = c33, c44, c44, 0.5 * (c11 - c12)
    cos, sin = math.cos(tilt), math.sin(tilt)
    rotation = np.array([[1.0, 0.0, 0.0], [0.0, cos, -sin], [0.0, sin, cos]])
    return Material(stiffness=rotate_stiffness(StiffnessTensor(v * 1e9), rotation), density=rho)


@pytest.mark.parametrize("tilt", [0.0, 1e-3, 0.3])
@pytest.mark.parametrize("constants", [(200.0, 60.0, 50.0, 150.0, 40.0, 3000.0),
                                       (165.0, 31.0, 50.0, 62.0, 39.6, 7140.0)],
                         ids=["ti", "zinc-like"])
def test_transversely_isotropic_axis_along_or_near_the_normal(constants, tilt):
    # with the axis along nu, sigma = 0 is a critical point of
    # eig_min c(e + sigma nu) on every row, and the Newton start; for the
    # zinc-like material it is not the minimum, so every row fails the
    # certificate and is refined again from its nearly real root
    mat = _transversely_isotropic(*constants, tilt)
    scan = scan_directions(mat, NU, 16)
    assert np.all(scan.res_kernel[scan.exists] <= RES_KERNEL_TOL)
    assert np.all(scan.res_riccati[scan.exists] <= RES_RICCATI_TOL)
    for k in range(16):
        assert rayleigh_point(mat, SurfaceFrame(NU, scan.directions[k])).exists == scan.exists[k]
    sigma_max = rayleigh._Engine(mat).sigma_max
    for k in (0, 5, 11):
        ref = c_lim_reference(mat, NU, scan.directions[k], sigma_max)
        assert abs(scan.c_lim[k] - ref) <= 1e-12 * ref


def test_uncertifiable_c_lim_raises_bracket_error(monkeypatch, capsys, tmp_path):
    # no spectrum keeps a margin of 1: each round's Newton minimum stops
    # falling and the certification gives up
    monkeypatch.setattr(polyfactor, "ELLIPTICITY_MARGIN", 1.0)
    mat = synthetic_anisotropic(1)
    with pytest.raises(BracketError):
        scan_directions(mat, NU, 8)
    with pytest.raises(BracketError):
        rayleigh_point(mat, SurfaceFrame(NU, np.array([1.0, 0.0, 0.0])))
    mat_file = tmp_path / "aniso.json"
    mat_file.write_text(material_to_json(mat))
    code = main(["scan", "--material", str(mat_file), "--normal", "0,0,1", "--count", "8"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_engine_guard_falls_back_to_integral_route(monkeypatch):
    # with every eigenvector basis rejected, each det z row is re-factored by
    # the integral route alone, with no second companion eigensolve, into
    # spectral_factor's q of its pencil, and det z is unchanged
    nu = np.array([0.0, 0.0, 1.0])
    e1v, e2v = tangent_basis(nu)
    th = 2.0 * np.pi * np.arange(6) / 6
    dirs = np.cos(th)[:, None] * e1v + np.sin(th)[:, None] * e2v
    mat = synthetic_anisotropic(11)
    engine = rayleigh._Engine(mat)
    pre = engine.prepare(nu, dirs)
    c_lim = engine.limiting_speeds(pre, np.full(6, np.nan))[0]
    speeds = np.concatenate([0.5 * c_lim, 0.9 * c_lim])
    rows = np.tile(np.arange(6), 2)
    reference = np.linalg.det(engine.impedance_at(pre, speeds, rows=rows)[3]).real
    integrals, eigensolves = [], []
    factor_integral, companion_eig = polyfactor.factor_integral, polyfactor.companion_eig

    def counted(p):
        integrals.append(p)
        return factor_integral(p)

    def counted_eig(*args):
        eigensolves.append(args)
        return companion_eig(*args)

    monkeypatch.setattr(polyfactor, "COND_LIMIT", 0.0)
    monkeypatch.setattr(polyfactor, "factor_integral", counted)
    monkeypatch.setattr(polyfactor, "companion_eig", counted_eig)
    q, _, _, z, s = engine.impedance_at(pre, speeds, rows=rows)
    fallback = np.linalg.det(z).real
    assert len(integrals) == speeds.size
    assert len(eigensolves) == 0
    for k in range(speeds.size):
        p = build_pencil(mat, SurfaceFrame(nu, dirs[rows[k]]), 1.0 / speeds[k])
        np.testing.assert_array_equal(spectral_factor(p).q, q[k])
    assert np.all(np.abs(fallback - reference) <= 1e-8 * np.abs(reference))
    # each re-factored row reports the spectrum of its new q
    spec = np.sort(np.linalg.eigvals(q), axis=1)
    assert np.all(np.abs(np.sort(s, axis=1) - spec) <= 1e-12 * np.abs(spec))
    zdot = radial_derivative_z(z, q, engine.rho)
    assert np.all(np.abs(radial_derivative_z(z, q, engine.rho, s) - zdot) <= 1e-12 * np.abs(zdot).max())


def test_scan_off_axis_normal(aniso):
    rng = np.random.default_rng(19)
    nu = rng.standard_normal(3)
    nu /= np.linalg.norm(nu)
    scan = scan_directions(aniso, nu, 8)
    assert scan.e1_satisfied
    e1v, e2v = tangent_basis(nu)
    for k in (1, 6):
        th = scan.thetas[k]
        d = math.cos(th) * e1v + math.sin(th) * e2v
        pt = rayleigh_point(aniso, SurfaceFrame(nu, d))
        assert pt.c_r == pytest.approx(scan.c_r[k], rel=1e-10)


def test_near_boundary_elliptic_point(soft_iso, std_frame):
    # just inside the elliptic region: c_s |xi| = 1.01
    cs = math.sqrt(1.0e9 / 1000.0)
    p = build_pencil(soft_iso, std_frame, 1.01 / cs)
    sf = spectral_factor(p)
    assert max(sf.residual_solvency, sf.residual_factorization) < 1e-8


def test_hundred_random_frames_never_crash(aniso):
    # engine-level fuzz over 100 random frames: existence is data, residuals
    # stay tight, nothing raises for a convex material
    rng = np.random.default_rng(99)
    total = 0
    for _ in range(4):
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        scan = scan_directions(aniso, nu, 25)
        total += scan.thetas.size
        found = scan.exists
        assert np.all(scan.res_kernel[found] < 1e-7)
        assert np.all(scan.res_riccati[found] < 1e-8)
        assert np.all(scan.c_r[found] < scan.c_lim[found])
    assert total == 100
