import math

import numpy as np
import pytest

from surfimp.impedance import radial_derivative_z, riccati_residual
from surfimp.material import SurfaceFrame, acoustic_tensor
from surfimp.polyfactor import (
    NonEllipticError,
    QuadraticPencil,
    build_pencil,
    companion_eig,
    factor_integral,
    factor_residual_rows,
    is_elliptic,
    spectral_factor,
)
from surfimp.presets import isotropic_material, random_isotropic, synthetic_anisotropic

from conftest import frame_rotation, random_frame


def unit_pencil(unit_iso, std_frame, xi_mag=2.0):
    return build_pencil(unit_iso, std_frame, xi_mag)


def test_build_pencil_normal_block(std_frame):
    from surfimp.material import Material, isotropic_stiffness
    lame_solid = Material(stiffness=isotropic_stiffness(1.0, 1.0), density=1.0)
    p = build_pencil(lame_solid, std_frame, 2.0)
    rot = frame_rotation(std_frame)
    a_frame = rot.T @ p.a @ rot
    np.testing.assert_allclose(a_frame, np.diag([3.0, 1.0, 1.0]), atol=1e-14)


def test_build_pencil_a1_transpose(unit_iso, std_frame):
    p = unit_pencil(unit_iso, std_frame)
    xi = 2.0 * std_frame.tangent
    np.testing.assert_allclose(p.a1.T, acoustic_tensor(unit_iso.stiffness, xi, std_frame.nu),
                               atol=1e-14)


def test_build_pencil_scaling(unit_iso, std_frame):
    p1 = unit_pencil(unit_iso, std_frame, 2.0)
    p2 = unit_pencil(unit_iso, std_frame, 4.0)
    np.testing.assert_allclose(p2.a2, 4.0 * p1.a2, rtol=1e-14)
    np.testing.assert_allclose(p2.a1, 2.0 * p1.a1, rtol=1e-14)
    np.testing.assert_allclose(p2.a, p1.a, rtol=1e-15)


def test_build_pencil_rejects_indefinite_normal_block(std_frame):
    with pytest.raises(ValueError, match="not strongly elliptic"):
        build_pencil(isotropic_material(2.0, -1.0, 1000.0), std_frame, 2.0)


def test_constructors_copy_the_callers_arrays(unit_iso):
    # a frame or pencil is frozen, but the arrays it was built from stay the
    # caller's: writeable, and later writes do not reach the frozen copy
    nu, tangent = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    frame = SurfaceFrame(nu, tangent)
    p = build_pencil(unit_iso, frame, 2.0)
    a, a1, a2 = p.a.copy(), p.a1.copy(), p.a2.copy()
    pencil = QuadraticPencil(a=a, a1=a1, a2=a2, rho=p.rho)
    nu[2] = tangent[0] = 2.0
    for m in (a, a1, a2):
        m[0, 0] = 7.0
    np.testing.assert_array_equal(frame.nu, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(frame.tangent, [1.0, 0.0, 0.0])
    for name in ("a", "a1", "a2"):
        np.testing.assert_array_equal(getattr(pencil, name), getattr(p, name))
        assert not getattr(pencil, name).flags.writeable
    assert not frame.nu.flags.writeable and not frame.tangent.flags.writeable


def test_ellipticity_isotropic_threshold(unit_iso, std_frame):
    # c_s = 1: elliptic iff |xi| > 1
    assert is_elliptic(unit_pencil(unit_iso, std_frame, 2.0)).elliptic
    assert not is_elliptic(unit_pencil(unit_iso, std_frame, 0.5)).elliptic


def test_ellipticity_symmetric(aniso, rng):
    frame = random_frame(rng)
    flipped = SurfaceFrame(frame.nu, -frame.tangent)
    for ximag in (1e-4, 3e-4, 1e-3):
        assert (is_elliptic(build_pencil(aniso, frame, ximag)).elliptic
                == is_elliptic(build_pencil(aniso, flipped, ximag)).elliptic)


def test_companion_eig_isotropic_branches(unit_iso, std_frame):
    ximag = 2.0
    p = unit_pencil(unit_iso, std_frame, ximag)
    vals, vecs = companion_eig(np.linalg.inv(p.a), p.a1[None], p.a2[None], p.rho)
    values = vals[0]
    # the top half of a companion eigenvector is the pencil's; unit columns
    vectors = vecs[0, :3] / np.linalg.norm(vecs[0, :3], axis=0)
    residuals = [np.linalg.norm(p(s) @ vectors[:, k]) / np.linalg.norm(p(s))
                 for k, s in enumerate(values)]
    # shear branches: mu(|xi|^2 + s^2) = rho -> s = -i sqrt(3); quadruple across signs
    s_shear = math.sqrt(ximag ** 2 - 1.0)
    # pressure: (lam+2mu)(|xi|^2+s^2) = rho -> s^2 = 1/4 - 4
    s_press = math.sqrt(ximag ** 2 - 1.0 / 4.0)
    expected = np.sort_complex(np.array([
        -1j * s_shear, -1j * s_shear, -1j * s_press,
        1j * s_shear, 1j * s_shear, 1j * s_press,
    ]))
    np.testing.assert_allclose(np.sort_complex(values), expected, atol=1e-10)
    assert np.all(np.array(residuals) <= 1e-8)
    # decaying pressure eigenvector is xi + s nu
    k = int(np.argmin(np.abs(values + 1j * s_press)))
    v = vectors[:, k]
    expect = ximag * std_frame.tangent - 1j * s_press * std_frame.nu
    expect = expect / np.linalg.norm(expect)
    phase = (v @ expect.conj()) / abs(v @ expect.conj())
    np.testing.assert_allclose(v, phase * expect, atol=1e-10)
    # out-of-plane shear eigenvector is orthogonal to xi and nu
    shear_idx = [i for i in range(6) if abs(values[i] + 1j * s_shear) < 1e-9]
    perp_mass = [abs(vectors[:, i] @ std_frame.perp) for i in shear_idx]
    assert max(perp_mass) > 0.99


def test_spectral_factor_isotropic_blocks(unit_iso, std_frame):
    p = unit_pencil(unit_iso, std_frame, 2.0)
    sf = spectral_factor(p)
    rot = frame_rotation(std_frame)
    iq = 1j * (rot.T @ sf.q @ rot)
    # out-of-plane block: |xi| sqrt(1-t) with t = 1/4
    assert iq[2, 2].real == pytest.approx(math.sqrt(3.0), rel=1e-12)
    # in-plane block against the closed form
    t, b_ = 0.25, None
    u = 0.25  # mu/(lam+2mu) = 1/4
    ut = u * t
    b_ = 1.0 - math.sqrt(1 - ut) * math.sqrt(1 - t)
    expected = (2.0 / b_) * np.array([
        [ut * math.sqrt(1 - t), -1j * (b_ - ut)],
        [1j * (b_ - t), t * math.sqrt(1 - ut)],
    ])
    np.testing.assert_allclose(iq[:2, :2], expected, atol=1e-10 * np.abs(expected).max())
    # spectrum strictly decaying
    eigs = np.linalg.eigvals(sf.q)
    assert np.all(eigs.imag < 0)
    assert min(abs(eigs.imag) / (1 + abs(eigs))) >= sf.spectral_margin - 1e-12


def test_spectral_factor_single_eigensolve(unit_iso, std_frame, monkeypatch):
    # the ellipticity test and the eigen route read one companion eigensolve
    calls = []
    eig = np.linalg.eig

    def counting(m):
        calls.append(m.shape)
        return eig(m)

    monkeypatch.setattr(np.linalg, "eig", counting)
    assert spectral_factor(unit_pencil(unit_iso, std_frame, 2.0)).method == "eigen"
    assert len(calls) == 1


def test_spectral_factor_requires_elliptic(unit_iso, std_frame):
    with pytest.raises(NonEllipticError):
        spectral_factor(unit_pencil(unit_iso, std_frame, 0.5))


def test_integral_route_f0_properties(aniso, rng):
    frame = random_frame(rng)
    p = build_pencil(aniso, frame, 3e-4)
    assert is_elliptic(p).elliptic
    intf = factor_integral(p)
    f0 = intf.f0
    assert np.abs(f0.imag).max() < 1e-10 * np.abs(f0).max()
    assert np.abs(intf.f1.imag).max() < 1e-10 * max(np.abs(intf.f1).max(), 1.0)
    sym = 0.5 * (f0 + f0.T)
    assert np.linalg.eigvalsh(sym)[0] > 0


def test_factor_routes_agree_on_random_pencils():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mat = random_isotropic(rng) if rng.uniform() < 0.5 else synthetic_anisotropic(
            int(rng.integers(0, 1000)))
        frame = random_frame(rng)
        mu_proxy = np.linalg.eigvalsh(mat.stiffness.mandel())[0]
        c_min = math.sqrt(mu_proxy / mat.density)
        ximag = rng.uniform(1.5, 20.0) / c_min
        p = build_pencil(mat, frame, ximag)
        if not is_elliptic(p).elliptic:
            continue
        sf = spectral_factor(p)
        intf = factor_integral(p)
        rel = np.linalg.norm(sf.q - intf.q) / np.linalg.norm(sf.q)
        assert rel < 1e-8


def test_factor_residuals_exact_and_perturbed(unit_iso, std_frame):
    p = unit_pencil(unit_iso, std_frame, 2.0)
    q = spectral_factor(p).q
    solvency, factor_max = factor_residual_rows(p, q)
    assert solvency < 1e-10 and factor_max < 1e-10
    bumped_solvency, _ = factor_residual_rows(p, q + 1e-3 * np.linalg.norm(q) / 3.0)
    assert bumped_solvency > 1e-4


def test_residuals_broadcast_over_rows(aniso, rng):
    # stacked rows give the per-row residuals of the scalar functions
    frame = random_frame(rng)
    pencils = [build_pencil(aniso, frame, x) for x in (4e-4, 8e-4, 1.6e-3)]
    qs = np.stack([spectral_factor(p).q for p in pencils])
    stacked = QuadraticPencil(a=pencils[0].a, a1=np.stack([p.a1 for p in pencils]),
                              a2=np.stack([p.a2 for p in pencils]), rho=aniso.density)
    solvency, factor_max = factor_residual_rows(stacked, qs)
    zs = 1j * (stacked.a @ qs + stacked.a1)
    riccati = riccati_residual(zs, stacked)
    zdots = radial_derivative_z(zs, qs, aniso.density)
    for k, p in enumerate(pencils):
        one_solvency, one_factor_max = factor_residual_rows(p, qs[k])
        assert solvency[k] == pytest.approx(one_solvency, rel=1e-6, abs=1e-14)
        assert factor_max[k] == pytest.approx(one_factor_max, rel=1e-6, abs=1e-14)
        assert riccati[k] == pytest.approx(riccati_residual(zs[k], p), rel=1e-6, abs=1e-14)
        np.testing.assert_allclose(zdots[k], radial_derivative_z(zs[k], qs[k], aniso.density),
                                   rtol=1e-12, atol=1e-12 * np.linalg.norm(zdots[k]))


def test_factor_residual_rows_match_explicit_gap(aniso, rng):
    # the expanded gap s (b + a q + q* a) + c - q* a q against
    # |f(s) - (s - q*) a (s - q)| / |f(s)| formed at each of the five speeds
    frame = random_frame(rng)
    pencils = [build_pencil(aniso, frame, x) for x in (4e-4, 8e-4, 1.6e-3)]
    stacked = QuadraticPencil(a=pencils[0].a, a1=np.stack([p.a1 for p in pencils]),
                              a2=np.stack([p.a2 for p in pencils]), rho=aniso.density)
    exact = np.stack([spectral_factor(p).q for p in pencils])
    bump = 1e-3 * np.linalg.norm(exact, axis=(1, 2))[:, None, None] * rng.standard_normal((3, 3, 3))
    for qs in (exact, exact + bump):
        _, factor_max = factor_residual_rows(stacked, qs)
        assert factor_max.shape == (3,)
        for k, p in enumerate(pencils):
            scale = math.sqrt(np.linalg.norm(p.c) / np.linalg.norm(p.a))
            q_adj = qs[k].conj().T
            ref = max(np.linalg.norm(p(s) - (s * np.eye(3) - q_adj) @ p.a @ (s * np.eye(3) - qs[k]))
                      / np.linalg.norm(p(s)) for s in scale * np.array([-3.0, -1.0, 0.0, 1.0, 3.0]))
            # exact q leaves rounding noise (~1e-15) on both sides: abs floor
            assert factor_max[k] == pytest.approx(ref, rel=1e-10, abs=1e-14)


def test_residuals_invariant_under_direction_flip(aniso, rng):
    frame = random_frame(rng)
    flipped = SurfaceFrame(frame.nu, -frame.tangent)
    ximag = 4e-4
    p = build_pencil(aniso, frame, ximag)
    pf = build_pencil(aniso, flipped, ximag)
    q = spectral_factor(p).q
    r1 = factor_residual_rows(p, q)
    r2 = factor_residual_rows(pf, -np.conj(q))
    assert r1[0] == pytest.approx(r2[0], rel=1e-6, abs=1e-14)
    assert r1[1] == pytest.approx(r2[1], rel=1e-6, abs=1e-14)


def test_q_conjugation_under_flip(aniso, rng):
    # q(-xi) = -conj(q(xi)); forced by z(-xi) = conj z(xi) and spec(q) in Im<0
    frame = random_frame(rng)
    flipped = SurfaceFrame(frame.nu, -frame.tangent)
    ximag = 4e-4
    q = spectral_factor(build_pencil(aniso, frame, ximag)).q
    qf = spectral_factor(build_pencil(aniso, flipped, ximag)).q
    assert np.linalg.norm(qf + np.conj(q)) / np.linalg.norm(q) < 1e-9


def test_q_scaling_relation(aniso, rng):
    # spectrum of q at t*xi equals t times the spectrum at (xi, rho/t^2)
    frame = random_frame(rng)
    ximag, t = 4e-4, 3.0
    q_big = spectral_factor(build_pencil(aniso, frame, t * ximag)).q
    from surfimp.material import Material
    scaled_mat = Material(stiffness=aniso.stiffness, density=aniso.density / t ** 2,
                          name="scaled")
    q_small = spectral_factor(build_pencil(scaled_mat, frame, ximag)).q
    a = np.sort_complex(np.linalg.eigvals(q_big))
    b = np.sort_complex(t * np.linalg.eigvals(q_small))
    np.testing.assert_allclose(a, b, rtol=1e-9)


def test_eigen_solver_failure_is_distinct_error(unit_iso, std_frame, monkeypatch):
    from surfimp.polyfactor import EigenSolverError

    def boom(_):
        raise np.linalg.LinAlgError("no convergence")

    p = unit_pencil(unit_iso, std_frame, 2.0)
    monkeypatch.setattr(np.linalg, "eig", boom)
    with pytest.raises(EigenSolverError):
        spectral_factor(p)


def test_quadrature_nonconvergence_error(unit_iso, std_frame, monkeypatch):
    import surfimp.polyfactor as pf
    from surfimp.polyfactor import QuadratureError

    p = unit_pencil(unit_iso, std_frame, 2.0)
    monkeypatch.setattr(pf, "QUAD_RELTOL", 0.0)
    monkeypatch.setattr(pf, "QUAD_MAX_NODES", 128)
    with pytest.raises(QuadratureError):
        factor_integral(p)
