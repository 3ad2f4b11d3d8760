import math

import mpmath
import numpy as np
import pytest

from surfimp.impedance import impedance_tensor, radial_derivative_z, solve_zminus
from surfimp.cli import TWO_ROUTE_TOL
from surfimp.isotropic import (
    CurvatureData,
    build_Y,
    iso_blocks,
    iso_full,
    iso_kernel_vector,
    iso_scalar_derivatives,
    iso_state,
    iso_state_on_sigma,
    rayleigh_cubic_root,
    subprincipal_p,
    _zeta_forms,
)
from surfimp.polyfactor import NonEllipticError, build_pencil, spectral_factor
from surfimp.presets import isotropic_material
from surfimp import isotropic, selftest
from surfimp.selftest import richardson

from conftest import frame_rotation

T_LAM_EQ_MU = 0.84529946162074847     # cubic root at u = 1/3
T_INCOMPRESSIBLE = 0.91262197461572976  # u -> 0 limit


def bisect_quartic_oracle(u, lo=1e-12, hi=1.0 - 1e-12):
    """Independent root finder on ((t-2)^4 - 16(1-t)(1-ut))/t."""
    def f(t):
        return ((t - 2.0) ** 4 - 16.0 * (1.0 - t) * (1.0 - u * t)) / t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_cubic_root_against_independent_oracle():
    for u in (1.0 / 3.0, 0.25, 0.1, 0.49):
        t = rayleigh_cubic_root(u)
        assert t == pytest.approx(bisect_quartic_oracle(u), abs=1e-13)
        assert 0.0 < t < 1.0
        # the root zeroes the determinant bracket
        assert 4.0 * math.sqrt((1 - t) * (1 - u * t)) - (2 - t) ** 2 == pytest.approx(0.0, abs=1e-12)


def test_cubic_root_frozen_constants():
    assert rayleigh_cubic_root(1.0 / 3.0) == pytest.approx(T_LAM_EQ_MU, abs=1e-13)
    assert rayleigh_cubic_root(1e-12) == pytest.approx(T_INCOMPRESSIBLE, abs=1e-9)
    # incompressible limit satisfies (2-t)^4 = 16(1-t)
    t = rayleigh_cubic_root(1e-12)
    assert (2 - t) ** 4 == pytest.approx(16 * (1 - t), rel=1e-9)


def test_state_on_sigma_solves_the_cubic_once(monkeypatch):
    calls = []
    monkeypatch.setattr(isotropic, "rayleigh_cubic_root",
                        lambda u: calls.append(u) or rayleigh_cubic_root(u))
    st = iso_state_on_sigma(2e9, 1e9, 1000.0)
    assert calls == [0.25]
    assert st.t == rayleigh_cubic_root(0.25)
    assert st.c_r == math.sqrt(1e9 / 1000.0) * math.sqrt(st.t)


def test_subprincipal_solves_the_cubic_once(monkeypatch):
    # the on-variety check reads the root the state carries (sigma_s^2), so
    # the state and the symbol together solve Rayleigh's cubic once
    calls = []
    monkeypatch.setattr(isotropic, "rayleigh_cubic_root",
                        lambda u: calls.append(u) or rayleigh_cubic_root(u))
    subprincipal_p(iso_state_on_sigma(2e9, 1e9, 1000.0), CurvatureData())
    assert calls == [0.25]


@pytest.mark.parametrize("ratio", [-0.99999, -0.999999, -0.9999999, -0.99999999])
def test_cubic_root_to_the_last_bit(ratio):
    # near lam = -mu the root t ~ 2 (1 - u) is small, so a bisection stopped
    # at an absolute width in t would leave sqrt(t), hence c_r, far off
    u = 1.0 / (ratio + 2.0)
    with mpmath.workdps(50):
        um = mpmath.mpf(u)
        roots = mpmath.polyroots([1, -8, 24 - 16 * um, -16 * (1 - um)], maxsteps=200, extraprec=200)
        exact = mpmath.sqrt(min(r.real for r in roots))
        err = abs(mpmath.sqrt(rayleigh_cubic_root(u)) - exact) / exact
    assert err <= 1e-15


def test_cubic_root_domain():
    with pytest.raises(ValueError):
        rayleigh_cubic_root(1.0)
    with pytest.raises(ValueError):
        rayleigh_cubic_root(0.0)


@pytest.mark.parametrize("ratio", [0.0, -0.3, -0.9, -0.99])
def test_closed_forms_hold_down_to_lam_minus_mu(ratio):
    # lam / mu in (-1, 0]: u = mu / (lam + 2 mu) in [1/2, 1), where the cubic
    # still has its one root in (0, 1); the blocks, the speed and both
    # subprincipal routes agree with the general route as they do for lam > 0
    from surfimp.rayleigh import rayleigh_point
    rng = np.random.default_rng(61)
    mu, rho = 1.0, 1000.0
    lam = ratio * mu
    mat = isotropic_material(lam, mu, rho)
    on_sigma = iso_state_on_sigma(lam * 1e9, mu * 1e9, rho)
    assert 0.0 < on_sigma.c_r < on_sigma.c_s < on_sigma.c_p
    for _ in range(3):
        frame = selftest.random_frame(rng)
        xi = rng.uniform(1.05, 20.0) / on_sigma.c_s
        p = build_pencil(mat, frame, xi)
        sf = spectral_factor(p)
        data = impedance_tensor(p, sf)
        rot = frame_rotation(frame)
        iq, z = iso_full(iso_state(lam * 1e9, mu * 1e9, rho, xi))
        assert np.linalg.norm(rot.T @ data.z @ rot - z) <= 1e-10 * np.linalg.norm(data.z)
        assert np.linalg.norm(rot.T @ sf.q @ rot + 1j * iq) <= 1e-10 * np.linalg.norm(sf.q)
        assert rayleigh_point(mat, frame).c_r == pytest.approx(on_sigma.c_r, rel=1e-10)
        br = subprincipal_p(on_sigma, CurvatureData(*rng.uniform(-1.0, 1.0, 8)))
        assert np.isfinite(br.psub_direct)
        assert abs(br.psub_direct - br.psub_assembled) <= 1e-9 * (1.0 + abs(br.psub_direct))


@pytest.mark.parametrize("lam, mu", [(-1.0, 1.0), (-1.5, 1.0), (-2.0, 1.0), (1.0, -1.0), (-3.0, -1.0),
                                     (0.0, 0.0), (math.nan, 1.0)])
def test_states_outside_the_domain_raise_value_error(lam, mu):
    for make in (lambda: iso_state(lam, mu, 1.0, 2.0), lambda: iso_state_on_sigma(lam, mu, 1.0)):
        with pytest.raises(ValueError):
            make()


def test_blocks_unit_case():
    st = iso_state(1.0, 1.0, 1.0, 2.0)  # lam = mu = rho = 1, |xi| = 2
    blocks = iso_blocks(st)
    assert blocks.z22_scalar == pytest.approx(math.sqrt(3.0), rel=1e-14)
    z11 = blocks.z11
    assert z11[0, 0].imag == 0 and z11[1, 1].imag == 0
    assert z11[0, 1] == pytest.approx(np.conj(z11[1, 0]))
    # determinant display equals the product form
    det = np.linalg.det(z11).real
    assert blocks.detz11 == pytest.approx(det, rel=1e-12)


def test_blocks_require_elliptic():
    st = iso_state(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(NonEllipticError):
        iso_blocks(st)
    with pytest.raises(NonEllipticError):
        iso_scalar_derivatives(st)


@pytest.mark.parametrize("xi_mag", [0.0, -2.0, math.nan])
def test_nonpositive_xi_mag_is_a_value_error(unit_iso, std_frame, xi_mag):
    with pytest.raises(ValueError, match="xi_mag"):
        iso_state(2.0, 1.0, 1.0, xi_mag)
    with pytest.raises(ValueError, match="xi_mag"):
        build_pencil(unit_iso, std_frame, xi_mag)


def test_subprincipal_needs_an_on_variety_state():
    with pytest.raises(ValueError, match="characteristic variety"):
        subprincipal_p(iso_state(2.0, 1.0, 1.0, 2.0), CurvatureData())


def test_blocks_match_general_route():
    assert selftest._check_iso_blocks(8, 50) < 1e-10


@pytest.mark.parametrize("forms, entry", [("_kappa_forms", k) for k in range(4)]
                         + [("_zeta_forms", k) for k in range(3)])
def test_block_check_sees_an_error_in_the_differentiated_forms(monkeypatch, forms, entry):
    # the forms that iso_scalar_derivatives complex-steps are the ones
    # criterion 1 compares with the general route, so a slip in one shows
    original = getattr(isotropic, forms)

    def perturbed(*args):
        out = list(original(*args))
        out[entry] = out[entry] * (1.0 + 1e-3)
        return tuple(out)

    monkeypatch.setattr(isotropic, forms, perturbed)
    assert selftest._check_iso_blocks(8, 5) > 1e-6


def test_kernel_vector_on_variety():
    st = iso_state_on_sigma(2.0e9, 1.0e9, 1000.0)
    t = st.t
    b = st.b
    # on the variety 2(2b - t) = t(2 - t)
    assert 2 * (2 * b - t) == pytest.approx(t * (2 - t), rel=1e-12)
    blocks = iso_blocks(st)
    assert abs(blocks.detz11) <= 1e-11 * np.linalg.norm(blocks.z11) ** 2
    v = iso_kernel_vector(t)
    _, z = iso_full(st)
    assert np.linalg.norm(z @ v) <= 1e-9 * np.linalg.norm(z)
    assert v[1].imag == 0 and v[1].real > 0


def test_speed_ordering():
    rng = np.random.default_rng(4)
    for _ in range(20):
        lam = rng.uniform(0.1, 100.0) * 1e9
        mu = rng.uniform(0.1, 100.0) * 1e9
        st = iso_state_on_sigma(lam, mu, rng.uniform(500.0, 12000.0))
        assert 0.0 < st.c_r < st.c_s < st.c_p


def test_kernel_vector_matches_general_route(soft_iso, std_frame):
    from surfimp.rayleigh import rayleigh_point
    pt = rayleigh_point(soft_iso, std_frame)
    st = iso_state_on_sigma(2.0e9, 1.0e9, 1000.0)
    rot = frame_rotation(std_frame)
    np.testing.assert_allclose(pt.kernel, rot @ iso_kernel_vector(st.t), atol=1e-8)


def test_derivatives_match_finite_differences():
    assert selftest._check_derivatives(17, 8) < 1e-7


def test_radial_derivative_consistent_with_rescaling():
    st = iso_state(3.0e9, 1.5e9, 2000.0, 2.0 * math.sqrt(2000.0 / 1.5e9))
    derivs = iso_scalar_derivatives(st)
    # evaluate at s|xi| and differentiate in s at s=1
    def f(s):
        return np.array([float(v) for v in
                         _zeta_forms(st.lam, st.mu, st.rho, s * st.xi_mag)[:3]])
    fd = richardson(f, 1.0, 1e-6)
    np.testing.assert_allclose(derivs.zeta_dot, fd, rtol=1e-7)


def test_joint_scaling_relation():
    # zeta_j(lam, mu, rho, s|xi|) re-evaluated directly vs state at scaled xi
    st1 = iso_state(3.0e9, 1.5e9, 2000.0, 3.0 * math.sqrt(2000.0 / 1.5e9))
    st2 = iso_state(3.0e9, 1.5e9, 2000.0, 2.0 * st1.xi_mag)
    direct = np.array([float(v) for v in
                       _zeta_forms(st1.lam, st1.mu, st1.rho, 2.0 * st1.xi_mag)[:3]])
    blocks2 = iso_blocks(st2)
    np.testing.assert_allclose(
        direct, [blocks2.z11[0, 0].real, blocks2.z11[1, 0].imag, blocks2.z11[1, 1].real],
        rtol=1e-12)


def sigma_state():
    return iso_state_on_sigma(3.7e9, 1.3e9, 2100.0)


def sample_curvature():
    return CurvatureData(s22=0.31, trS=0.74, grad_lambda_t=0.21, grad_mu_t=-0.13,
                         grad_rho_t=0.09, dn_lambda=-0.41, dn_mu=0.17, dn_rho=0.23)


def test_build_Y_zero_curvature():
    st = sigma_state()
    y1, y2, y3 = build_Y(st, CurvatureData())
    assert np.all(y1 == 0) and np.all(y2 == 0) and np.all(y3 == 0)


def test_build_Y_row_vectors_unit_material():
    st = iso_state_on_sigma(1.0, 1.0, 1.0)
    t, ut, b = st.t, st.ut, st.b
    br = subprincipal_p(st, sample_curvature())
    np.testing.assert_allclose(
        br.w1, [(ut - b) * math.sqrt(1 - t), -1j * (b - ut)], rtol=1e-14)
    np.testing.assert_allclose(
        br.w2, [1j * (b - t), math.sqrt(1 - ut) - math.sqrt(1 - t)], rtol=1e-14)


def test_build_Y_linearity():
    st = sigma_state()
    curv = sample_curvature()
    y = build_Y(st, curv)
    for alpha in (2.0, -1.0, 10.0):
        ys = build_Y(st, curv.scaled(alpha))
        for a, b in zip(ys, y):
            np.testing.assert_allclose(a, alpha * b, rtol=1e-12, atol=1e-30)


def test_Y2_consistent_with_tangential_coefficient():
    # rebuild Y2 from (div_X c)(nu) + <C,S> restricted to the frame block
    st = sigma_state()
    curv = sample_curvature()
    _, y2, _ = build_Y(st, curv)
    nu = np.array([0.0, 0.0, 1.0])
    xihat = np.array([1.0, 0.0, 0.0])
    perp = np.array([0.0, 1.0, 0.0])
    grad_lam = curv.grad_lambda_t * xihat
    grad_mu = curv.grad_mu_t * xihat
    # shape operator with <xihat, S xihat> = s22, trace trS, nu in its kernel
    S = np.diag([curv.s22, curv.trS - curv.s22, 0.0])
    # (div_X c)(nu) = grad_lambda (x) nu + (grad_mu (x) nu)^T + <nu, grad_mu> Id
    # <C, S> = (lam + mu) S + (mu tr S) Id
    div = np.outer(grad_lam, nu) + np.outer(nu, grad_mu) + float(nu @ grad_mu) * np.eye(3)
    a1m = div + (st.lam + st.mu) * S + st.mu * np.trace(S) * np.eye(3)
    rot = np.column_stack([nu, xihat, perp])
    a1m_block = (rot.T @ a1m @ rot)[:2, :2]
    K = iso_blocks(st).iq11
    np.testing.assert_allclose(a1m_block @ K, y2, rtol=1e-12)


def test_subprincipal_flat_is_zero():
    br = subprincipal_p(sigma_state(), CurvatureData())
    assert br.psub_direct == 0.0
    assert br.psub_assembled == 0.0
    assert br.re_zminus_vv == 0.0 and br.im_trace == 0.0
    assert np.all(br.X == 0)


@pytest.mark.parametrize("rho", [1e200, 1e240, 1e250])
def test_subprincipal_routes_agree_where_m_cubed_overflows(rho):
    # lam = mu = 1e-10 Pa: m^3 overflows from rho = 1e240, but the assembly
    # runs at m's binary scale, so both routes stay finite and agree
    br = subprincipal_p(iso_state_on_sigma(1e-10, 1e-10, rho), CurvatureData(0.1, 0.2))
    assert math.isfinite(br.psub_direct) and math.isfinite(br.psub_assembled)
    assert abs(br.psub_direct - br.psub_assembled) <= TWO_ROUTE_TOL * (1.0 + abs(br.psub_direct))


def test_subprincipal_two_routes_and_linearity():
    _, worst_lin, worst_route, worst_herm = selftest._check_subprincipal(23, 30)
    assert worst_herm <= 1e-12
    assert worst_route <= 1e-9
    assert worst_lin <= 1e-9


def test_subprincipal_radial_slope_against_general_route(soft_iso, std_frame):
    # gamma^2 (zdot v | v) from the impedance route equals the closed form
    st = iso_state_on_sigma(2.0e9, 1.0e9, 1000.0)
    p = build_pencil(soft_iso, std_frame, st.xi_mag)
    sf = spectral_factor(p)
    data = impedance_tensor(p, sf)
    zdot = radial_derivative_z(data.z, sf.q, soft_iso.density)
    rot = frame_rotation(std_frame)
    v = rot @ iso_kernel_vector(st.t)
    gamma = st.m * st.t / 2.0 * math.hypot(2.0 - st.t, 2.0 * math.sqrt(1.0 - st.t))
    lhs = gamma ** 2 * float(np.vdot(v, zdot @ v).real)
    br = subprincipal_p(st, CurvatureData())
    assert lhs == pytest.approx(br.gamma2_lambda0dot, rel=1e-8)


def test_subprincipal_radial_slope_against_finite_difference():
    # gamma^2 lambda0dot equals the FD radial derivative of gamma^2 lambda0
    st = iso_state_on_sigma(3.7e9, 1.3e9, 2100.0)
    def lam0(scale):
        s = iso_state(st.lam, st.mu, st.rho, scale * st.xi_mag)
        z11 = iso_blocks(s).z11
        w = np.linalg.eigvalsh(z11)
        return w[np.argmin(np.abs(w))]
    blocks = iso_blocks(st)
    gamma2 = blocks.z11[0, 0].real ** 2 + blocks.z11[1, 0].imag ** 2
    h = 1e-6
    fd = gamma2 * (lam0(1 + h) - lam0(1 - h)) / (2 * h)
    br = subprincipal_p(st, CurvatureData())
    assert fd == pytest.approx(br.gamma2_lambda0dot, rel=1e-8)


def test_zminus_block_route_matches_hermitian_solve():
    # assemble the frame-block right-hand side of the subprincipal relation,
    # solve the full equation, symmetrize, compare with the Hermitian solve
    st = sigma_state()
    curv = sample_curvature()
    br = subprincipal_p(st, curv)
    derivs = iso_scalar_derivatives(st)
    y1, y2, y3 = build_Y(st, curv, derivs)
    a2m_block = st.xi_mag * np.diag([curv.grad_mu_t,
                                     curv.grad_lambda_t + 2.0 * curv.grad_mu_t])
    y11 = 1j * (y1 + y2 - y3) - a2m_block
    y_full = np.zeros((3, 3), dtype=complex)
    y_full[:2, :2] = y11
    q_full = -1j * iso_full(st)[0]
    zm = solve_zminus(q_full, y_full)
    x_full = (zm + zm.conj().T)[:2, :2]
    np.testing.assert_allclose(x_full, br.X, rtol=1e-9, atol=1e-12 * np.linalg.norm(br.X))
