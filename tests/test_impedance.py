import math

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from surfimp import impedance, selftest
from surfimp.impedance import (
    SpectralSeparationError,
    barnett_lothe_residual,
    impedance_tensor,
    radial_derivative_z,
    solve_zminus,
    sylvester_solve,
)
from surfimp.material import Material, StiffnessTensor, SurfaceFrame
from surfimp.polyfactor import build_pencil, factor_integral, spectral_factor
from surfimp.presets import random_isotropic, synthetic_anisotropic

from conftest import frame_rotation, random_frame


def impedance_at(mat, frame, ximag):
    p = build_pencil(mat, frame, ximag)
    return p, impedance_tensor(p, spectral_factor(p))


def test_isotropic_out_of_plane_block(unit_iso, std_frame):
    # (z)_22 = mu |xi| sqrt(1-t): lam=mu=rho=1 would be u=1/3; here lam=2,mu=1
    p, data = impedance_at(unit_iso, std_frame, 2.0)
    rot = frame_rotation(std_frame)
    z = rot.T @ data.z @ rot
    assert z[2, 2].real == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert abs(z[2, 2].imag) < 1e-12


def test_isotropic_in_plane_block(unit_iso, std_frame):
    p, data = impedance_at(unit_iso, std_frame, 2.0)
    rot = frame_rotation(std_frame)
    z11 = (rot.T @ data.z @ rot)[:2, :2]
    t, u = 0.25, 0.25
    ut = u * t
    b = 1.0 - math.sqrt(1 - ut) * math.sqrt(1 - t)
    m = 2.0 / b  # mu |xi| / b
    expected = m * np.array([
        [t * math.sqrt(1 - t), -1j * (2 * b - t)],
        [1j * (2 * b - t), t * math.sqrt(1 - ut)],
    ])
    np.testing.assert_allclose(z11, expected, atol=1e-10 * np.abs(expected).max())


def test_conjugation_under_flip(aniso, rng):
    frame = random_frame(rng)
    flipped = SurfaceFrame(frame.nu, -frame.tangent)
    _, d1 = impedance_at(aniso, frame, 5e-4)
    _, d2 = impedance_at(aniso, flipped, 5e-4)
    assert np.linalg.norm(d2.z - np.conj(d1.z)) / np.linalg.norm(d1.z) < 1e-9


def test_identity_residuals_random_points():
    rng = np.random.default_rng(11)
    mats = [random_isotropic(rng), synthetic_anisotropic(21), synthetic_anisotropic(22)]
    for mat in mats:
        for _ in range(4):
            frame = random_frame(rng)
            c_min = math.sqrt(np.linalg.eigvalsh(mat.stiffness.mandel())[0] / mat.density)
            ximag = rng.uniform(1.5, 15.0) / c_min
            p, data = impedance_at(mat, frame, ximag)
            assert data.riccati < 1e-8
            assert barnett_lothe_residual(data.z, factor_integral(p).f0) < 1e-8
            assert data.hermiticity < 1e-9
            assert data.re_z_positive_definite
            assert data.nonpositive_eigenvalues <= 1


def test_impedance_tensor_runs_no_quadrature(aniso, rng, monkeypatch):
    # z needs the spectral factor only; the integral route's f0 is the
    # caller's to pass to barnett_lothe_residual
    calls = []
    monkeypatch.setattr(impedance, "factor_integral",
                        lambda *a, **k: calls.append(a) or factor_integral(*a, **k),
                        raising=False)
    p = build_pencil(aniso, random_frame(rng), 5e-4)
    impedance_tensor(p, spectral_factor(p))
    assert calls == []


def test_z_positive_definite_deep_elliptic(soft_iso, std_frame):
    # c_s |xi| = 10: all three impedance eigenvalues positive
    cs = math.sqrt(1.0e9 / 1000.0)
    _, data = impedance_at(soft_iso, std_frame, 10.0 / cs)
    assert np.linalg.eigvalsh(data.z)[0] > 0


def test_at_least_two_positive_eigenvalues(aniso, rng):
    for _ in range(10):
        frame = random_frame(rng)
        c_min = math.sqrt(np.linalg.eigvalsh(aniso.stiffness.mandel())[0] / aniso.density)
        ximag = rng.uniform(1.5, 30.0) / c_min
        _, data = impedance_at(aniso, frame, ximag)
        eigs = np.linalg.eigvalsh(data.z)
        assert np.sum(eigs > 0) >= 2


def test_sylvester_scalar_case():
    x = sylvester_solve(np.eye(1), np.eye(1))
    assert x[0, 0] == pytest.approx(0.5)
    x3 = sylvester_solve(np.eye(3), np.eye(3))
    np.testing.assert_allclose(x3, 0.5 * np.eye(3), atol=1e-14)


def test_sylvester_positive_definite_from_iq(unit_iso, std_frame):
    p = build_pencil(unit_iso, std_frame, 2.0)
    q = spectral_factor(p).q
    x = sylvester_solve(1j * q, 2.0 * p.rho * np.eye(3, dtype=complex))
    assert np.linalg.norm(x - x.conj().T) < 1e-10 * np.linalg.norm(x)
    assert np.linalg.eigvalsh(0.5 * (x + x.conj().T))[0] > 0


def test_sylvester_linearity(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 2 * np.eye(3)
    b1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    alpha = 1.7 - 0.3j
    lhs = sylvester_solve(a, alpha * b1 + b2)
    rhs = alpha * sylvester_solve(a, b1) + sylvester_solve(a, b2)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-12


def test_sylvester_integral_oracle(rng):
    for _ in range(5):
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = raw + (0.5 + max(0.0, -np.linalg.eigvals(raw).real.min())) * np.eye(3)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = sylvester_solve(a, b)
        oracle, _ = quad_vec(lambda r: expm(-r * a).conj().T @ b @ expm(-r * a),
                             0.0, 80.0, epsabs=1e-12, epsrel=1e-12)
        assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) < 1e-7
        # the closed form that selftest uses is the same integral
        closed = selftest._exp_integral(a, b)
        assert np.linalg.norm(closed - oracle) / np.linalg.norm(oracle) <= 1e-12
        # a supplied spectrum only replaces the eigvals of the separation check
        np.testing.assert_array_equal(sylvester_solve(a, b, np.linalg.eigvals(a)), x)


def test_sylvester_check_catches_transposed_solver(monkeypatch):
    # a solver of A X + X A* = B instead of A* X + X A = B
    monkeypatch.setattr(selftest, "sylvester_solve",
                        lambda a, b: sylvester_solve(a.conj().T, b))
    assert selftest._check_sylvester(0, 5) > 1e-3


def test_sylvester_separation_error():
    a = np.diag([1.0, -1.0, 2.0]).astype(complex)  # spec(A) meets spec(-A*)
    with pytest.raises(SpectralSeparationError):
        sylvester_solve(a, np.eye(3, dtype=complex))


def test_sylvester_separation_is_free_of_the_scale():
    # the threshold is relative to max |lam|: scaling A and B by a power of
    # two leaves X as it is, even where |A|^2 leaves the float range
    mat = synthetic_anisotropic(11)
    p = build_pencil(mat, SurfaceFrame(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])), 5e-4)
    a, b = 1j * spectral_factor(p).q, 2.0 * mat.density * np.eye(3, dtype=complex)
    x = sylvester_solve(a, b)
    for e in (600, -600, 1000, -1000):
        scaled = sylvester_solve(np.ldexp(1.0, e) * a, np.ldexp(1.0, e) * b)
        assert np.linalg.norm(scaled - x) <= 1e-14 * np.linalg.norm(x), e


def test_radial_derivative_positive_definite():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mat = random_isotropic(rng) if rng.uniform() < 0.5 else synthetic_anisotropic(
            int(rng.integers(100, 200)))
        frame = random_frame(rng)
        c_min = math.sqrt(np.linalg.eigvalsh(mat.stiffness.mandel())[0] / mat.density)
        ximag = rng.uniform(1.5, 10.0) / c_min
        p, data = impedance_at(mat, frame, ximag)
        zdot = radial_derivative_z(data.z, spectral_factor(p).q, mat.density)
        assert np.linalg.eigvalsh(zdot - data.z)[0] > 0


def test_radial_derivative_finite_difference(aniso, rng):
    frame = random_frame(rng)
    ximag = 5e-4
    p, data = impedance_at(aniso, frame, ximag)
    zdot = radial_derivative_z(data.z, spectral_factor(p).q, aniso.density)
    h = 1e-5
    _, dp = impedance_at(aniso, frame, (1 + h) * ximag)
    _, dm = impedance_at(aniso, frame, (1 - h) * ximag)
    fd = (dp.z - dm.z) / (2 * h)
    assert np.linalg.norm(zdot - fd) / np.linalg.norm(fd) < 1e-6


def test_solve_zminus_zero_rhs(unit_iso, std_frame):
    p = build_pencil(unit_iso, std_frame, 2.0)
    q = spectral_factor(p).q
    zm = solve_zminus(q, np.zeros((3, 3), dtype=complex))
    assert np.linalg.norm(zm) == 0.0


def test_solve_zminus_residual(aniso, rng):
    frame = random_frame(rng)
    p = build_pencil(aniso, frame, 5e-4)
    q = spectral_factor(p).q
    rhs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    zm = solve_zminus(q, rhs)
    res = np.linalg.norm(zm @ q - q.conj().T @ zm - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


def test_corrupted_factor_raises_hermiticity_failure(unit_iso, std_frame):
    # the defect is relative to |z|, so it fires where |z|^2 leaves the float range too
    from surfimp.polyfactor import FactorizationError
    from dataclasses import replace
    for scale in (1.0, 2.0 ** 960, 2.0 ** -960):
        mat = Material(StiffnessTensor(unit_iso.stiffness.voigt * scale), unit_iso.density * scale)
        p = build_pencil(mat, std_frame, 2.0)
        sf = spectral_factor(p)
        bad = replace(sf, q=sf.q + 0.05 * np.linalg.norm(sf.q) * np.array(
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
        with pytest.raises(FactorizationError):
            impedance_tensor(p, bad)


def test_solve_zminus_separation_error():
    q = np.eye(3, dtype=complex)
    with pytest.raises(SpectralSeparationError):
        solve_zminus(q, np.eye(3, dtype=complex))
    # the same check on a supplied spectrum
    s = np.linalg.eigvals(q)
    with pytest.raises(SpectralSeparationError):
        sylvester_solve(1j * q, 1j * np.eye(3, dtype=complex), 1j * s)
    with pytest.raises(SpectralSeparationError):
        radial_derivative_z(np.zeros((3, 3), dtype=complex), q, 1.0, s)
