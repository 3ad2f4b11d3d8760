import math

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from surfimp import impedance, polyfactor, rayleigh, selftest
from surfimp.impedance import (
    SpectralSeparationError,
    barnett_lothe_residual,
    impedance_tensor,
    radial_derivative_z,
    solve_zminus,
    sylvester_solve,
)
from surfimp.material import Material, StiffnessTensor, SurfaceFrame
from surfimp.polyfactor import NonEllipticError, QuadraticPencil, build_pencil, factor_integral, spectral_factor
from surfimp.presets import isotropic_material, random_isotropic, synthetic_anisotropic

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


def _stacked(pencils, shared_a):
    return QuadraticPencil(a=pencils[0].a if shared_a else np.stack([p.a for p in pencils]),
                           a1=np.stack([p.a1 for p in pencils]), a2=np.stack([p.a2 for p in pencils]),
                           rho=pencils[0].rho)


@pytest.mark.parametrize("cond_limit", [1e8, 0.0], ids=["eigen", "integral"])
@pytest.mark.parametrize("shared_a", [True, False], ids=["one-normal", "four-normals"])
def test_batches_equal_their_unbatched_calls(monkeypatch, shared_a, cond_limit):
    # each row of a batch is bit for bit its own call, through the eigen route
    # or, with every eigenvector basis rejected, the integral fallback; at
    # these fractions of c_lim factor_integral's rows stop at different levels
    mat = synthetic_anisotropic(11)
    rng = np.random.default_rng(3)
    frames = [random_frame(rng)] * 4 if shared_a else [random_frame(rng) for _ in range(4)]
    c_lim = [rayleigh.rayleigh_point(mat, f).c_lim for f in frames]
    fractions = (0.3, 0.99, 0.995, 0.999) if shared_a else (0.3, 0.9, 0.99, 0.995)
    pencils = [build_pencil(mat, f, 1.0 / (fraction * c)) for f, c, fraction in zip(frames, c_lim, fractions)]
    batch = _stacked(pencils, shared_a)
    monkeypatch.setattr(polyfactor, "COND_LIMIT", cond_limit)
    sf, intf = spectral_factor(batch), factor_integral(batch)
    data = impedance_tensor(batch, sf)
    bl = barnett_lothe_residual(data.z, intf.f0)
    assert intf.nodes.tolist() == ([128, 128, 256, 512] if shared_a else [128, 128, 256, 256])
    for k, p in enumerate(pencils):
        one_sf, one_intf = spectral_factor(p), factor_integral(p)
        one = impedance_tensor(p, one_sf)
        for got, want in ((sf.q[k], one_sf.q), (intf.f0[k], one_intf.f0), (intf.f1[k], one_intf.f1),
                          (intf.q[k], one_intf.q), (data.z[k], one.z)):
            np.testing.assert_array_equal(got, want)
        assert one_sf.method == ("eigen" if cond_limit else "integral")
        assert ((sf.method[k], sf.residual_solvency[k], sf.residual_factorization[k], sf.spectral_margin[k])
                == (one_sf.method, one_sf.residual_solvency, one_sf.residual_factorization,
                    one_sf.spectral_margin))
        assert ((intf.nodes[k], data.hermiticity[k], data.riccati[k], data.re_z_positive_definite[k],
                 data.nonpositive_eigenvalues[k], bl[k])
                == (one_intf.nodes, one.hermiticity, one.riccati, one.re_z_positive_definite,
                    one.nonpositive_eigenvalues, barnett_lothe_residual(one.z, one_intf.f0)))
    # one row above c_lim fails the whole batch
    beyond = build_pencil(mat, frames[3], 1.0 / (1.5 * c_lim[3]))
    with pytest.raises(NonEllipticError):
        spectral_factor(_stacked(pencils[:3] + [beyond], shared_a))


def _identities_point_by_point(seed, per_mat):
    """selftest._check_identities' values, and each point's q, from one unbatched
    chain per point on the check's own draws: the loop that its batches replaced."""
    rng = np.random.default_rng([seed, 3])
    mats = [isotropic_material(35.0, 27.0, 2600.0),
            synthetic_anisotropic(11), synthetic_anisotropic(12), synthetic_anisotropic(13)]
    worst_res = worst_herm = worst_q = 0.0
    failures, qs = 0, []
    for mat in mats:
        draws = [(random_frame(rng), rng.uniform(0.05, 0.95)) for _ in range(per_mat)]
        engine = rayleigh._Engine(mat)
        pre = engine.prepare(np.array([f.nu for f, _ in draws]), np.array([f.tangent for f, _ in draws]))
        c_lim = engine.limiting_speeds(pre, np.full(per_mat, np.nan))[0]
        for (frame, fraction), top in zip(draws, c_lim):
            p = build_pencil(mat, frame, 1.0 / (fraction * top))
            sf, intf = spectral_factor(p), factor_integral(p)
            data = impedance_tensor(p, sf)
            worst_res = max(worst_res, data.riccati, sf.residual_solvency, sf.residual_factorization,
                            barnett_lothe_residual(data.z, intf.f0))
            worst_herm = max(worst_herm, data.hermiticity)
            worst_q = max(worst_q, np.linalg.norm(sf.q - intf.q) / np.linalg.norm(sf.q))
            zdot = radial_derivative_z(data.z, sf.q, mat.density)
            failures += not (data.re_z_positive_definite and np.linalg.eigvalsh(zdot - data.z)[0] > 0.0
                             and data.nonpositive_eigenvalues <= 1)
            qs.append(sf.q)
    return (worst_res, worst_herm, failures, worst_q), qs


@pytest.mark.parametrize("seed, per_mat", [(0, 8), (20240817, 12)])
def test_identity_check_matches_the_per_point_chain(monkeypatch, seed, per_mat):
    # one batch per material gives the per-point chain's values, and its
    # batches hold every point's q; the q gap takes its norms over the batch
    batches = []
    monkeypatch.setattr(selftest, "impedance_tensor",
                        lambda p, sf: batches.append(sf.q) or impedance_tensor(p, sf))
    got = selftest._check_identities(seed, per_mat)
    want, qs = _identities_point_by_point(seed, per_mat)
    assert got[:3] == want[:3]
    assert abs(got[3] - want[3]) <= 1e-15 * want[3]
    np.testing.assert_array_equal(np.concatenate(batches), np.stack(qs))


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
