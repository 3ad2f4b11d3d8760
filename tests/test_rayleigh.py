import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import surfimp.polyfactor as polyfactor
import surfimp.rayleigh as rayleigh
import surfimp.selftest as selftest
from surfimp.cli import RES_KERNEL_TOL, RES_RICCATI_TOL
from surfimp.impedance import impedance_from_factor, impedance_tensor, radial_derivative_z, riccati_residual
from surfimp.material import (
    Material,
    StiffnessTensor,
    SurfaceFrame,
    isotropic_stiffness,
    rotate_stiffness,
    validate_stiffness,
)
from surfimp.polyfactor import QuadraticPencil, build_pencil, spectral_factor
from surfimp.rayleigh import (
    SCAN_CSV_HEADER,
    eval_p,
    rayleigh_point,
    scan_directions,
    tangent_basis,
)
from surfimp.isotropic import iso_kernel_vector, rayleigh_cubic_root
from surfimp.presets import isotropic_material, poisson_solid, synthetic_anisotropic
from surfimp.selftest import richardson

from conftest import (
    c_lim_reference,
    count_newton_min,
    frame_rotation,
    orthotropic_rayleigh_speed,
    random_frame,
)

RAYLEIGH_RATIO_LAM_EQ_MU = 0.91940168676196612


def test_limiting_speed_isotropic(soft_iso, std_frame):
    cs = math.sqrt(1.0e9 / 1000.0)
    assert abs(rayleigh_point(soft_iso, std_frame).c_lim - cs) <= 1e-12 * cs


def test_limiting_speed_even(aniso, rng):
    # rows k and k + 24 of a 48-direction scan have opposite tangents
    mats = [aniso] + [synthetic_anisotropic(int(rng.integers(1 << 30)), strength=0.9)
                      for _ in range(20)]
    for mat in mats:
        c_lim = scan_directions(mat, random_frame(rng).nu, 48).c_lim
        assert np.all(np.abs(c_lim[:24] - c_lim[24:]) <= 1e-12 * c_lim[24:])


def test_rayleigh_point_poisson_ratio(poisson):
    frame = SurfaceFrame(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    pt = rayleigh_point(poisson, frame)
    cs = math.sqrt(30.0e9 / poisson.density)
    assert pt.exists
    assert pt.c_r / cs == pytest.approx(RAYLEIGH_RATIO_LAM_EQ_MU, rel=1e-9)
    assert 0 < pt.c_r < pt.c_lim
    assert pt.slope > 0


def test_rayleigh_point_kernel_structure(soft_iso, std_frame):
    pt = rayleigh_point(soft_iso, std_frame)
    p = build_pencil(soft_iso, std_frame, 1.0 / pt.c_r)
    q = spectral_factor(p).q
    z = 1j * (p.a @ q + p.a1)
    z = 0.5 * (z + z.conj().T)
    eigs = np.linalg.eigvalsh(z)
    scale = np.linalg.norm(z)
    assert min(abs(eigs)) < 1e-7 * scale
    assert np.sum(eigs > 1e-7 * scale) == 2
    assert pt.res_kernel < 1e-7


def test_rayleigh_point_even(aniso, rng):
    frame = random_frame(rng)
    flipped = SurfaceFrame(frame.nu, -frame.tangent)
    a = rayleigh_point(aniso, frame)
    b = rayleigh_point(aniso, flipped)
    assert a.exists and b.exists
    assert a.c_r == pytest.approx(b.c_r, rel=1e-10)


def test_kernel_matches_isotropic_section(soft_iso, std_frame):
    pt = rayleigh_point(soft_iso, std_frame)
    u = 2.0 / 4.0 * 0.5  # mu/(lam+2mu) = 1/4
    t = rayleigh_cubic_root(0.25)
    v_iso_frame = iso_kernel_vector(t)
    rot = frame_rotation(std_frame)
    v_iso_lab = rot @ v_iso_frame
    # both vectors carry the same phase convention (tangent component real > 0)
    np.testing.assert_allclose(pt.kernel, v_iso_lab, atol=1e-8)


def test_eval_p_homogeneity(soft_iso, std_frame):
    xi = 3.7 * std_frame.tangent
    p1 = eval_p(soft_iso, std_frame, xi)
    p2 = eval_p(soft_iso, std_frame, 2.0 * xi)
    assert p2 == pytest.approx(2.0 * p1, rel=1e-12)
    # p = c_r |xi|
    pt = rayleigh_point(soft_iso, std_frame)
    assert p1 == pytest.approx(pt.c_r * 3.7, rel=1e-10)


def test_eval_p_unit_on_variety(soft_iso, std_frame):
    pt = rayleigh_point(soft_iso, std_frame)
    xi = std_frame.tangent / pt.c_r
    assert eval_p(soft_iso, std_frame, xi) == pytest.approx(1.0, rel=1e-10)
    p = build_pencil(soft_iso, std_frame, 1.0 / pt.c_r)
    z = 1j * (p.a @ spectral_factor(p).q + p.a1)
    g = np.linalg.det(0.5 * (z + z.conj().T)).real
    assert abs(g) < 1e-6 * np.linalg.norm(z) ** 3


def test_scan_isotropic_constant(soft_iso):
    scan = scan_directions(soft_iso, np.array([0.0, 0.0, 1.0]), 32)
    assert scan.e1_satisfied
    spread = (scan.c_r.max() - scan.c_r.min()) / scan.c_r.min()
    assert spread < 1e-9
    assert np.all(scan.c_r < scan.c_lim)
    assert np.all(scan.slope > 0)
    assert np.all(scan.res_kernel < 1e-7)
    assert np.all(scan.res_riccati < 1e-8)


def test_scan_antipodal_symmetry(aniso):
    n = 16
    scan = scan_directions(aniso, np.array([0.0, 0.0, 1.0]), n)
    assert scan.e1_satisfied
    half = n // 2
    np.testing.assert_allclose(scan.c_r[half:], scan.c_r[:half], rtol=1e-9)


def test_scan_matches_scalar_api(aniso):
    nu = np.array([0.0, 0.0, 1.0])
    n = 8
    scan = scan_directions(aniso, nu, n)
    e1, e2 = tangent_basis(nu)
    for k in (0, 3, 5):
        th = scan.thetas[k]
        d = math.cos(th) * e1 + math.sin(th) * e2
        pt = rayleigh_point(aniso, SurfaceFrame(nu, d))
        assert pt.c_r == pytest.approx(scan.c_r[k], rel=1e-10)
        assert pt.c_lim == pytest.approx(scan.c_lim[k], rel=1e-8)
        assert pt.slope == pytest.approx(scan.slope[k], rel=1e-8)


def _unit(v):
    return v / np.linalg.norm(v)


def _circle(nu, thetas):
    e1, e2 = tangent_basis(nu)
    return np.cos(thetas)[:, None] * e1 + np.sin(thetas)[:, None] * e2


def test_eigmin_derivatives_match_richardson():
    # Hellmann-Feynman f' and f'' of f = eig_min c(e + sigma nu) against
    # Richardson differences of f, at rows whose lowest eigenvalue is simple
    rng = np.random.default_rng(31)
    nu = _unit(rng.standard_normal(3))
    engine = rayleigh._Engine(synthetic_anisotropic(5, strength=0.9))
    pre = engine.prepare(nu, _circle(nu, rng.uniform(0.0, 2.0 * np.pi, 32)))
    sigma = rng.uniform(-2.0, 2.0, 32)
    mats = (pre["c_ee"] + sigma[:, None, None] * pre["mid"]
            + (sigma * sigma)[:, None, None] * pre["a"])
    lam = np.linalg.eigvalsh(mats)
    clear = lam[:, 1] - lam[:, 0] > 0.05 * lam[:, 0]
    assert np.count_nonzero(clear) >= 16
    f, d1, d2 = engine._eigmin_along(pre, sigma, np.arange(32)).T
    np.testing.assert_allclose(f, lam[:, 0], rtol=1e-13)

    def f_of(x):
        return engine._eigmin_along(pre, x, np.arange(32))[:, 0]

    h = 1e-3
    fd1 = richardson(f_of, sigma, h)
    fd2 = richardson(lambda x: richardson(f_of, x, h), sigma, h)
    assert np.all(np.abs(d1 - fd1)[clear] <= 1e-8 * f[clear])
    assert np.all(np.abs(d2 - fd2)[clear] <= 1e-6 * f[clear])


def test_isotropic_c_lim_is_c_s():
    # the Newton start sigma = -tr mid / (2 tr a) is 0, the argmin, for
    # isotropic media, where the lowest eigenvalue is double; c_lim equals c_s
    rng = np.random.default_rng(41)
    for lam_gpa, mu_gpa, rho in ((30.0, 12.0, 2500.0), (100.0, 310.0, 2500.0)):
        nu = _unit(rng.standard_normal(3))
        engine = rayleigh._Engine(isotropic_material(lam_gpa, mu_gpa, rho))
        c_lim = engine.limiting_speeds(engine.prepare(nu, _circle(nu, rng.uniform(0.0, 2.0 * np.pi, 64))),
                                       np.full(64, np.nan))[0]
        cs = math.sqrt(mu_gpa * 1e9 / rho)
        assert np.all(np.abs(c_lim - cs) <= 1e-12 * cs)


def test_point_c_lim_is_the_scan_c_lim():
    # a point is a scan row of a batch of one, c_lim included; on a fast
    # isotropic material it is c_s, where limiting_speed sits about 6e-9 low
    rng = np.random.default_rng(43)
    for strength in (0.35, 0.7, 0.9):
        mat = synthetic_anisotropic(int(rng.integers(1 << 30)), strength=strength)
        nu = _unit(rng.standard_normal(3))
        scan = scan_directions(mat, nu, 12)
        for k in (2, 7):
            pt = rayleigh_point(mat, SurfaceFrame(nu, scan.directions[k]))
            assert abs(pt.c_lim - scan.c_lim[k]) <= 1e-13 * scan.c_lim[k]
    cs = math.sqrt(310.0e9 / 2500.0)
    pt = rayleigh_point(isotropic_material(100.0, 310.0, 2500.0), random_frame(rng))
    assert abs(pt.c_lim - cs) <= 1e-12 * cs


def test_point_solves_non_convex_elliptic_material():
    # lam = -0.9 GPa, mu = 1 GPa: negative bulk modulus, but strongly elliptic
    mat = isotropic_material(-0.9, 1.0, 1000.0)
    assert not validate_stiffness(mat.stiffness).convex
    pt = rayleigh_point(mat, SurfaceFrame(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])))
    assert pt.exists
    assert pt.c_r == pytest.approx(425.34048711746806, rel=1e-10)


@pytest.mark.parametrize("ratio", [-1.5, -1.0001])
def test_no_root_where_the_static_impedance_is_indefinite(ratio, std_frame):
    # lam in (-2 mu, -mu): strongly elliptic, Poisson ratio above 1, and
    # lambda_min z < 0 at every speed below c_lim, so no Rayleigh root
    mat = isotropic_material(ratio, 1.0, 1000.0)
    assert validate_stiffness(mat.stiffness).elliptic
    assert not rayleigh_point(mat, std_frame).exists
    assert not scan_directions(mat, std_frame.nu, 8).exists.any()


def test_scan_c_lim_matches_limiting_speed():
    # the scan's c_lim against the 30-digit reference; isotropic scans are
    # held to c_s itself, and on a fast medium (c_s = 11 km/s) so is the
    # reference
    rng = np.random.default_rng(37)
    for strength in (0.35, 0.7, 0.9):
        mat = synthetic_anisotropic(int(rng.integers(1 << 30)), strength=strength)
        nu = _unit(rng.standard_normal(3))
        scan = scan_directions(mat, nu, 12)
        sigma_max = rayleigh._Engine(mat).sigma_max
        for k in range(12):
            ref = c_lim_reference(mat, nu, scan.directions[k], sigma_max)
            assert abs(scan.c_lim[k] - ref) <= 1e-12 * ref
    mat = isotropic_material(30.0, 12.0, 2500.0)
    scan = scan_directions(mat, _unit(rng.standard_normal(3)), 32)
    cs = math.sqrt(12.0e9 / 2500.0)
    assert np.all(np.abs(scan.c_lim - cs) <= 1e-12 * cs)
    mat = isotropic_material(100.0, 310.0, 2500.0)
    nu = _unit(rng.standard_normal(3))
    scan = scan_directions(mat, nu, 8)
    sigma_max = rayleigh._Engine(mat).sigma_max
    cs = math.sqrt(310.0e9 / 2500.0)
    for k in (0, 3):
        ref = c_lim_reference(mat, nu, scan.directions[k], sigma_max)
        assert abs(ref - cs) <= 1e-15 * cs
        assert abs(scan.c_lim[k] - ref) <= 1e-12 * ref


def test_scan_c_lim_finds_valley_beside_best(monkeypatch):
    # rows 11 and 35: the Newton steps from the trace-minimiser start settle
    # in a valley above the deepest one; the certificate rejects both
    # estimates and one recertification round refines the deepest valley
    mat = synthetic_anisotropic(642159816, strength=0.7)
    nu = _unit(np.array([-0.0642, -0.9910, 0.1177]))
    calls = count_newton_min(monkeypatch)
    scan = scan_directions(mat, nu, 48)
    assert len(calls) == 2
    assert {11, 35} <= set(calls[1].tolist())
    sigma_max = rayleigh._Engine(mat).sigma_max
    for k in (11, 35):
        ref = c_lim_reference(mat, nu, scan.directions[k], sigma_max)
        assert abs(scan.c_lim[k] - ref) <= 1e-12 * ref


@pytest.mark.parametrize("n", [536, 632])
def test_recertification_does_not_crawl(monkeypatch, n):
    # a row of these anchored scans converges into a shallow valley and is
    # restarted on the slope down into the deepest one; a first bisection
    # that lands beyond the ridge must not lead its Newton steps back, or
    # each restart lowers the minimum by only the certificate's offset
    # (1 137 _newton_min calls at 536 directions, 432 at 632)
    mat = synthetic_anisotropic(561807780, strength=0.7)
    nu = np.array([-0.22607182562841371, 0.13018959573193606, 0.9653715340842566])
    calls = count_newton_min(monkeypatch)
    scan = scan_directions(mat, nu, n, threads=1)
    assert len(calls) <= 8
    assert scan.e1_satisfied


def test_recertified_c_lim_matches_reference(monkeypatch):
    # the certificate's nearly real root seeds the Newton refinement of a
    # valley the start missed; the first recertified row of each scan
    # matches the 30-digit reference
    rng = np.random.default_rng(53)
    calls = count_newton_min(monkeypatch)
    checked = 0
    for _ in range(20):
        mat = synthetic_anisotropic(int(rng.integers(1 << 30)), strength=0.9)
        nu = _unit(rng.standard_normal(3))
        calls.clear()
        scan = scan_directions(mat, nu, 48)
        if len(calls) < 2:
            continue
        k = int(calls[1][0])
        ref = c_lim_reference(mat, nu, scan.directions[k], rayleigh._Engine(mat).sigma_max)
        assert abs(scan.c_lim[k] - ref) <= 1e-12 * ref
        checked += 1
    assert checked >= 10


def test_lowest_impedance_eigenvalue_decreases_along_rays():
    # the premise of the Newton root: below c_lim the lowest eigenvalue of
    # z(e / c), and c times it, fall strictly as c rises, from 1e-3 c_lim to
    # 1 - 1e-6 c_lim
    rng = np.random.default_rng(47)
    mats = [synthetic_anisotropic(int(rng.integers(1 << 30)), strength=s) for s in (0.35, 0.7, 0.9)]
    mats.append(isotropic_material(*rng.uniform(1.0, 100.0, 2), rng.uniform(1000.0, 8000.0)))
    fractions = 1.0 - np.geomspace(1.0 - 1e-3, 1e-6, 40)
    for mat in mats:
        nu = _unit(rng.standard_normal(3))
        engine = rayleigh._Engine(mat)
        pre = engine.prepare(nu, _circle(nu, rng.uniform(0.0, 2.0 * np.pi, 8)))
        c_lim = engine.limiting_speeds(pre, np.full(8, np.nan))[0]
        speeds = (c_lim[:, None] * fractions).ravel()
        q, a1, a2, z, s = engine.impedance_at(pre, speeds, rows=np.repeat(np.arange(8), fractions.size))
        lam_min = np.linalg.eigvalsh(z)[:, 0].reshape(8, fractions.size)
        assert np.all(np.diff(lam_min, axis=1) < 0.0)
        assert np.all(np.diff(speeds.reshape(8, fractions.size) * lam_min, axis=1) < 0.0)


def test_root_newton_rows_per_direction(monkeypatch):
    # the Newton steps on c lambda_min z in t = sqrt(1 - c / c_lim) take few
    # impedance rows per direction: the rounds, the last of which is the root;
    # existence reads the row that certified c_lim, which is not counted here
    rows = []
    impedance_at = rayleigh._Engine.impedance_at

    def counted(self, pre, speeds, *args, **kwargs):
        rows.append(speeds.size)
        return impedance_at(self, pre, speeds, *args, **kwargs)

    monkeypatch.setattr(rayleigh._Engine, "impedance_at", counted)
    scan_directions(synthetic_anisotropic(11), np.array([0.0, 0.0, 1.0]), 720)
    assert sum(rows) <= 7.25 * 720
    rows.clear()
    rng = np.random.default_rng(59)
    for strength in (0.35, 0.7, 0.9):
        for _ in range(4):
            mat = synthetic_anisotropic(int(rng.integers(1 << 30)), strength=strength)
            scan_directions(mat, _unit(rng.standard_normal(3)), 48)
    assert sum(rows) <= 7.25 * 12 * 48


def test_companion_rows_per_direction(monkeypatch):
    # each speed of a row is eigensolved once: the eigensolve that certifies
    # c_lim also serves the existence test, and the last Newton round is the
    # evaluation at c_r; every companion row is counted, certification too.
    # In these positive definite media existence costs no row of its own, so
    # the count stays within 5.5 rows per direction as well as 6.5.  The
    # 48-direction scans have no interior rows, so every row starts at 0.95 c_lim
    rows = []
    eig = rayleigh._Engine._eig

    def counted(self, pre, speeds, *args, **kwargs):
        rows.append(speeds.size)
        return eig(self, pre, speeds, *args, **kwargs)

    monkeypatch.setattr(rayleigh._Engine, "_eig", counted)
    scan_directions(synthetic_anisotropic(11), np.array([0.0, 0.0, 1.0]), 720)
    assert sum(rows) <= 6.5 * 720
    assert sum(rows) <= 5.5 * 720
    # 720 directions are anchored: rows between anchors start their Newton
    # steps next to the root (3.597 rows per direction measured with a
    # four-anchor start, 3.275 with the six-anchor one)
    assert sum(rows) <= 3.75 * 720
    # at 10 000 directions the six-anchor start of an interior row lies
    # within ROOT_RTOL of its root, so the row stops after one root round
    # (2.380 rows per direction measured; a four-anchor start takes 3.255)
    rows.clear()
    scan_directions(synthetic_anisotropic(11), np.array([0.0, 0.0, 1.0]), 10000)
    assert sum(rows) <= 2.5 * 10000
    for seed in (59, 1, 4, 5):
        rows.clear()
        rng = np.random.default_rng(seed)
        for strength in (0.35, 0.7, 0.9):
            for _ in range(4):
                mat = synthetic_anisotropic(int(rng.integers(1 << 30)), strength=strength)
                scan_directions(mat, _unit(rng.standard_normal(3)), 48)
        assert sum(rows) <= 6.5 * 12 * 48, seed
        assert sum(rows) <= 5.5 * 12 * 48, seed


def _orthotropic_voigt(rng):
    # positive definite orthotropic Voigt matrix in its symmetry axes (Pa)
    while True:
        v = np.zeros((6, 6))
        diag = rng.uniform(50.0, 250.0, 3)
        v[:3, :3] = np.diag(diag)
        for (i, j), frac in zip(((0, 1), (0, 2), (1, 2)), rng.uniform(-0.3, 0.6, 3)):
            v[i, j] = v[j, i] = frac * math.sqrt(diag[i] * diag[j])
        v[3:, 3:] = np.diag(rng.uniform(20.0, 90.0, 3))
        if np.linalg.eigvalsh(v)[0] > 0.0:
            return 1e9 * v


def test_orthotropic_oracle_on_interior_rows():
    # each orthotropic medium is turned about nu = z so that its axis 1 lies
    # along an interior row k of the smallest anchored scan (k not a multiple
    # of the anchor stride), where the closed form gives c_r and, when its
    # root lies above c_lim, the absence of one
    rng = np.random.default_rng(7)
    n, rho, nu = rayleigh._MIN_ANCHORED_ROWS, 3000.0, np.array([0.0, 0.0, 1.0])
    outcomes = set()
    for _ in range(10):
        voigt = _orthotropic_voigt(rng)
        k = int(rng.integers(n))
        k += k % rayleigh._ANCHOR_STRIDE == 0
        th = 2.0 * math.pi * k / n
        turn = np.array([[math.cos(th), -math.sin(th), 0.0], [math.sin(th), math.cos(th), 0.0],
                         [0.0, 0.0, 1.0]])
        mat = Material(rotate_stiffness(StiffnessTensor(voigt), turn), rho)
        scan = scan_directions(mat, nu, n)
        root = orthotropic_rayleigh_speed(voigt, rho)
        exists = root is not None and root < scan.c_lim[k]
        assert bool(scan.exists[k]) == exists
        if exists:
            assert scan.c_r[k] == pytest.approx(root, rel=1e-12)
        outcomes.add(exists)
    assert outcomes == {True, False}


def test_orthotropic_oracle_reproduces_rayleigh_cubic():
    lam = mu = 30e9
    c_r = orthotropic_rayleigh_speed(isotropic_stiffness(lam, mu).voigt, 2700.0)
    assert c_r == pytest.approx(math.sqrt(mu / 2700.0) * RAYLEIGH_RATIO_LAM_EQ_MU, rel=1e-15)


def _all_anchor_scan(monkeypatch, *args):
    with monkeypatch.context() as m:
        m.setattr(rayleigh, "_ANCHOR_STRIDE", 1)
        return scan_directions(*args)


@pytest.mark.parametrize("mat, normal, n, edge", [
    (synthetic_anisotropic(11), (0.0, 0.0, 1.0), 720, None),
    (synthetic_anisotropic(27, strength=0.75), (0.3, -0.5, 0.8), 256, "hugging"),
    (synthetic_anisotropic(27, strength=0.75), (0.0, 0.0, 1.0), 720, "rootless"),
    (poisson_solid(), (1.0, 2.0, 3.0), 64, None),
], ids=["aniso-11", "aniso-27-hugging", "aniso-27-rootless", "poisson"])
def test_anchored_scan_matches_all_anchor_path(monkeypatch, mat, normal, n, edge):
    # interior rows start their c_lim Newton steps at the interpolated anchor
    # sigma*, and their roots at the interpolated anchor c_r or, next to a
    # rootless anchor, at 0.95 c_lim; c_lim moves only within the Newton stop
    # rule on rho c^2 (_NEWTON_FTOL), and c_r within the root's.  Scans from
    # 64 directions on are anchored here, below the speed threshold
    monkeypatch.setattr(rayleigh, "_MIN_ANCHORED_ROWS", 64)
    scan = scan_directions(mat, normal, n)
    ref = _all_anchor_scan(monkeypatch, mat, normal, n)
    assert np.array_equal(scan.exists, ref.exists)
    assert np.all(np.abs(scan.c_lim - ref.c_lim) <= 1e-13 * ref.c_lim)
    rows = scan.exists
    assert np.all(np.abs(scan.c_r[rows] - ref.c_r[rows]) <= 1e-12 * ref.c_r[rows])
    stride = rayleigh._ANCHOR_STRIDE
    interior = np.flatnonzero(rows & (np.arange(n) % stride != 0))
    if edge == "hugging":  # an interior root within 1e-4 of c_lim
        assert np.any(scan.c_lim[interior] - scan.c_r[interior] < 1e-4 * scan.c_lim[interior])
    if edge == "rootless":  # an interior root read next to a rootless anchor
        anchor_exists = scan.exists[::stride]
        read = (interior // stride + np.arange(-1, 3)[:, None]) % anchor_exists.size
        assert not np.all(anchor_exists[read])


@pytest.mark.parametrize("n", [64, 65, 100, 1001])
def test_anchored_scan_threads_byte_equal(aniso, monkeypatch, n):
    # each block solves its rows with the anchors they interpolate through;
    # the block edges and the 2 pi wrap must not change a byte.  With 16
    # workers the blocks have _MIN_CHUNKED_ROWS = 64 rows, so n = 64 is one
    # block and n = 1001 sixteen.  Scans from 64 directions on are anchored here
    monkeypatch.setattr(rayleigh.os, "cpu_count", lambda: 16)
    monkeypatch.setattr(rayleigh, "_MIN_ANCHORED_ROWS", 64)
    nu = np.array([0.0, 0.0, 1.0])
    texts = {threads: scan_directions(aniso, nu, n, threads=threads).to_csv() for threads in (1, 2, 4, 16)}
    assert texts[1] == texts[2] == texts[4] == texts[16]


def test_c_lim_rows_per_direction(monkeypatch):
    # anchored scans start the interior rows' c_lim Newton steps at the
    # anchors' interpolated sigma*, where most rows stop after one eigh row;
    # measured 2.43 and 2.94 rows per direction, against 4.61 and 6.85 when
    # every row started from the trace minimiser
    rows = []
    eigmin_along = rayleigh._Engine._eigmin_along

    def counted(self, pre, sigma, *args, **kwargs):
        rows.append(sigma.size)
        return eigmin_along(self, pre, sigma, *args, **kwargs)

    monkeypatch.setattr(rayleigh._Engine, "_eigmin_along", counted)
    for mat, normal, n, bound in ((synthetic_anisotropic(11), (0.0, 0.0, 1.0), 720, 2.75),
                                  (synthetic_anisotropic(5, strength=0.9), (1.0, 2.0, 3.0), 512, 3.25)):
        rows.clear()
        scan_directions(mat, normal, n, threads=1)
        assert sum(rows) <= bound * n, (n, sum(rows) / n)


def test_wrong_valley_interior_starts_are_recertified(monkeypatch):
    # the material of test_scan_c_lim_finds_valley_beside_best, with every
    # interior row's c_lim Newton steps started at 0.9 sigma_max instead of
    # the anchors' interpolated sigma*: the certificate rejects the rows that
    # settle in a valley above the deepest one, and the recertification round
    # refines the deepest, so c_lim and existence do not rest on the start
    mat = synthetic_anisotropic(642159816, strength=0.7)
    nu = _unit(np.array([-0.0642, -0.9910, 0.1177]))
    limiting_speeds = rayleigh._Engine.limiting_speeds

    def far(self, pre, start):
        if np.isfinite(start).any():  # the interior rows; the anchors start from nan
            start = np.full(start.shape, 0.9 * self.sigma_max)
        return limiting_speeds(self, pre, start)

    monkeypatch.setattr(rayleigh, "_MIN_ANCHORED_ROWS", 64)
    calls = count_newton_min(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(rayleigh._Engine, "limiting_speeds", far)
        scan = scan_directions(mat, nu, 256, threads=1)
    # anchors, their recertification, interior rows, theirs: a quarter or
    # more of the interior rows started in a wrong valley
    assert len(calls) == 4 and calls[3].size >= calls[2].size // 4
    ref = _all_anchor_scan(monkeypatch, mat, nu, 256)
    assert np.array_equal(scan.exists, ref.exists)
    assert np.all(np.abs(scan.c_lim - ref.c_lim) <= 1e-13 * ref.c_lim)
    rows = scan.exists
    assert np.all(np.abs(scan.c_r[rows] - ref.c_r[rows]) <= 1e-12 * ref.c_r[rows])


def test_scan_solves_each_row_once_in_two_passes(aniso, monkeypatch):
    # pass 1 cuts the 126 anchors of a 1001-row scan into blocks, pass 2 cuts
    # the 1001 rows into blocks that solve their other rows, each by the rule
    # min(_BLOCK_ROWS, max(_MIN_CHUNKED_ROWS, ceil(count / threads))); a block
    # is one _scan_chunk and one prepare, so every row is prepared exactly
    # once.  A multi-block scan builds one pool for both passes, a 1-thread
    # scan none, and a point is one block of one row
    chunks, prepared, pools = [], [], []
    scan_chunk, prepare = rayleigh._scan_chunk, rayleigh._Engine.prepare

    def counted_prepare(self, nu, dirs):
        prepared.append(dirs.shape[0])
        return prepare(self, nu, dirs)

    class CountedPool(rayleigh.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(rayleigh, "_scan_chunk", lambda *args: chunks.append(1) or scan_chunk(*args))
    monkeypatch.setattr(rayleigh._Engine, "prepare", counted_prepare)
    monkeypatch.setattr(rayleigh, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(rayleigh.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(rayleigh, "_MIN_ANCHORED_ROWS", 64)
    nu = np.array([0.0, 0.0, 1.0])
    # per case: the anchors of each pass-1 block, then the other rows of each
    # pass-2 block (blocks of 501 and 500 rows, of 1001, of 256 .. 256 and 233)
    for block_rows, threads, anchor_blocks, other_blocks in ((1024, 2, [64, 62], [438, 437]),
                                                             (1024, 1, [126], [875]),
                                                             (256, 2, [64, 62], [224, 224, 224, 203]),
                                                             (256, 1, [126], [224, 224, 224, 203])):
        monkeypatch.setattr(rayleigh, "_BLOCK_ROWS", block_rows)
        scan_directions(aniso, nu, 1001, threads=threads)
        assert sum(prepared) == 1001, (block_rows, threads, prepared)
        assert len(chunks) == len(prepared) == len(anchor_blocks) + len(other_blocks), (block_rows, threads)
        k = len(anchor_blocks)
        assert sorted(prepared[:k]) == sorted(anchor_blocks), prepared
        assert sorted(prepared[k:]) == sorted(other_blocks), prepared
        assert pools == [threads] * (threads > 1), (block_rows, threads, pools)
        chunks.clear()
        prepared.clear()
        pools.clear()
    rayleigh_point(aniso, SurfaceFrame(nu, np.array([1.0, 0.0, 0.0])))
    assert (len(chunks), prepared, pools) == (1, [1], [])


def test_scan_bytes_do_not_depend_on_blocks_or_threads(monkeypatch):
    # one block, blocks of 512 rows, and blocks of 200, which is not a
    # multiple of the anchor stride, at 1 and 2 threads: pass 2's blocks of
    # 200 rows start off the stride, so their rows interpolate through
    # anchors that pass 1 solved in other blocks
    monkeypatch.setattr(rayleigh.os, "cpu_count", lambda: 2)
    mat, nu = synthetic_anisotropic(11), np.array([0.0, 0.0, 1.0])
    texts = set()
    for block_rows in (2048, 512, 200):
        monkeypatch.setattr(rayleigh, "_BLOCK_ROWS", block_rows)
        for threads in (1, 2):
            texts.add(scan_directions(mat, nu, 2048, threads=threads).to_csv())
    assert len(texts) == 1


@pytest.mark.parametrize("threads", [1, 2])
def test_scan_memory_is_flat_in_n(monkeypatch, threads):
    # in blocks of 256 rows a scan holds its output columns (about 121 bytes
    # a row: theta, direction, c_lim, exists, c_r, slope, kernel and two
    # residuals) and the arrays of the blocks in flight, so its tracemalloc
    # peak grows with n by the extra rows' columns, 130 bytes a row, plus a
    # slack of 256 kB.  The two workers' block peaks coincide in some scans
    # and not in others, so at 2 threads the slack is 2 MB, one more block's
    # working set (about 1.3 MB) with room; one batch per worker grows by 15 MB
    monkeypatch.setattr(rayleigh, "_BLOCK_ROWS", 256, raising=False)
    monkeypatch.setattr(rayleigh.os, "cpu_count", lambda: 2)
    mat, nu = synthetic_anisotropic(11), np.array([0.0, 0.0, 1.0])
    scan_directions(mat, nu, 1024, threads=threads)
    peaks = {}
    for n in (1024, 4096):
        tracemalloc.start()
        try:
            scan_directions(mat, nu, n, threads=threads)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4096] - peaks[1024] <= 130 * (4096 - 1024) + {1: 256 * 1024, 2: 2 << 20}[threads], peaks


def test_anchor_starts_wrap_through_anchor_zero():
    # n = 100 is not a multiple of the stride 8: anchors are rows 0, 8, .., 96,
    # and rows 97..99 interpolate through anchors 80, 88, 96, 0, 8 and 16,
    # shifted by 2 pi
    n, stride = 100, 8
    thetas = 2.0 * np.pi * np.arange(n) / n
    c_r = 3000.0 + 100.0 * np.cos(thetas[::stride]) + 50.0 * np.sin(2.0 * thetas[::stride])
    interior = np.flatnonzero(np.arange(n) % stride)
    starts = rayleigh._anchor_starts(thetas, stride, c_r, interior)
    assert starts.shape == interior.shape
    nodes = np.array([thetas[80], thetas[88], thetas[96], 2.0 * np.pi,
                      2.0 * np.pi + thetas[8], 2.0 * np.pi + thetas[16]])
    values = c_r[[10, 11, 12, 0, 1, 2]]
    expected = np.polyval(np.polyfit(nodes - 2.0 * np.pi, values, 5), thetas[97:] - 2.0 * np.pi)
    assert np.allclose(starts[-3:], expected, rtol=1e-12, atol=0.0)
    # a rootless anchor 0 leaves no start exactly at the rows that read it
    rootless = c_r.copy()
    rootless[0] = np.nan
    reads_zero = (interior < 24) | (interior > 80)  # rows 1-23 and 81-99
    assert np.array_equal(np.isnan(rayleigh._anchor_starts(thetas, stride, rootless, interior)), reads_zero)
    # a subset of the rows, as a pass-2 block passes them, gets the same
    # bits, nan included: the wrap through anchor 0, and a run of a block's rows
    for column in (c_r, rootless):
        every = rayleigh._anchor_starts(thetas, stride, column, interior)
        for subset in (np.arange(97, 100), np.arange(40, 61)):
            rows = subset[subset % stride != 0]
            part = rayleigh._anchor_starts(thetas, stride, column, rows)
            assert part.tobytes() == every[np.searchsorted(interior, rows)].tobytes()


@pytest.mark.parametrize("mat, normal, convex", [
    (synthetic_anisotropic(27, strength=0.75), (0.3, -0.5, 0.8), True),
    (isotropic_material(-0.9, 1.0, 1000.0), (1.0, 2.0, 3.0), False)])
def test_solve_rows_on_a_subset_matches_all_rows(mat, normal, convex):
    # a row's eight columns depend only on its own direction and starts, not
    # on the other rows prepared with it: scan blocks and thread counts rest
    # on this.  Where the medium is not convex, existence reads the static
    # impedance
    n = 24
    nu = _unit(np.array(normal))
    engine = rayleigh._Engine(mat)
    dirs = _circle(nu, 2.0 * np.pi * np.arange(n) / n)
    pre, none = engine.prepare(nu, dirs), np.full(n, np.nan)
    c_lim, exists, sigma, c_r = rayleigh._solve_rows(engine, pre, none, none)[:4]
    assert engine.convex == convex and np.all(exists)
    # finite starts near each row's own sigma* and c_r, with nan sigma0 at
    # some rows and c0 above the bracket (so 0.95 c_lim) at others
    sigma0, c0 = sigma + 1e-3 * engine.sigma_max, (1.0 - 1e-6) * c_r
    sigma0[::5] = np.nan
    c0[1::7] = 2.0 * c_lim[1::7]
    for starts in ((none, none), (sigma0, c0)):
        whole = rayleigh._solve_rows(engine, pre, *starts)
        for rows in (np.arange(3, 11), np.array([20, 1, 7]), np.arange(n)[::-1]):
            part = rayleigh._solve_rows(engine, engine.prepare(nu, dirs[rows]), *(s[rows] for s in starts))
            assert len(part) == 8
            for col, ref in zip(part, whole):
                assert col.tobytes() == ref[rows].tobytes()
    empty = rayleigh._solve_rows(engine, engine.prepare(nu, dirs[:0]), none[:0], none[:0])
    assert len(empty) == 8 and all(col.shape[0] == 0 for col in empty)


@pytest.mark.parametrize("mat, convex", [(synthetic_anisotropic(11), True), (poisson_solid(), True),
                                         (isotropic_material(-0.9, 1.0, 1000.0), False)],
                         ids=["aniso-11", "poisson", "nonconvex"])
def test_mixed_normal_batch_matches_one_row_calls(mat, convex, rng):
    # one engine over 32 frames, each row with its own normal, gives bit for
    # bit the one-row results: c_lim, exists and sigma*, then q and z.  The
    # non-convex medium reads existence from the static impedance
    frames = [random_frame(rng) for _ in range(32)]
    engine = rayleigh._Engine(mat)
    pre = engine.prepare(np.array([f.nu for f in frames]), np.array([f.tangent for f in frames]))
    every = np.arange(32)
    limits = engine.limiting_speeds(pre, np.full(32, np.nan))
    speeds = np.concatenate([0.5 * limits[0], 0.9 * limits[0]])
    q, _, _, z, _ = engine.impedance_at(pre, speeds, np.tile(every, 2))
    assert engine.convex == convex
    for k, frame in enumerate(frames):
        one = engine.prepare(frame.nu, frame.tangent[None, :])
        for col, ref in zip(engine.limiting_speeds(one, np.full(1, np.nan)), limits):
            assert col.tobytes() == ref[k:k + 1].tobytes()
        q1, _, _, z1, _ = engine.impedance_at(one, speeds[[k, k + 32]], np.zeros(2, dtype=int))
        assert q1.tobytes() == q[[k, k + 32]].tobytes() and z1.tobytes() == z[[k, k + 32]].tobytes()


def test_static_rows_keep_density_zero_on_the_fallback_route(monkeypatch):
    # existence in a non-convex medium reads z of the pencils at unit speed
    # and density 0; re-factored on the integral route (COND_LIMIT = 0), they
    # must keep density 0, or z moves by about 4e-7
    mat = isotropic_material(-0.9, 1.0, 1000.0)
    nu = _unit(np.array([1.0, 2.0, 3.0]))
    engine = rayleigh._Engine(mat)
    pre = engine.prepare(nu, _circle(nu, 2.0 * np.pi * np.arange(16) / 16))
    static = []
    impedance_at = rayleigh._Engine.impedance_at

    def spy(self, pre, speeds, rows):
        out = impedance_at(self, pre, speeds, rows)
        if np.all(speeds == 1.0):
            static.append(out[3])
        return out

    monkeypatch.setattr(rayleigh._Engine, "impedance_at", spy)
    exists = [engine.limiting_speeds(pre, np.full(16, np.nan))[1]]
    monkeypatch.setattr(polyfactor, "COND_LIMIT", 0.0)
    exists.append(engine.limiting_speeds(pre, np.full(16, np.nan))[1])
    assert not engine.convex and np.all(exists[0]) and np.all(exists[1])
    eigen, fallback = static
    assert eigen.shape == (16, 3, 3)
    gap = np.linalg.norm(fallback - eigen, axis=(1, 2)) / np.linalg.norm(eigen, axis=(1, 2))
    assert np.max(gap) <= 1e-8


@pytest.mark.parametrize("ratio", [-0.9999999, -0.99999999])
def test_roots_below_a_thousandth_of_c_lim(ratio, std_frame):
    # isotropic, lam -> -mu: c_r / c_lim = 4.5e-4 and 1.4e-4.  c_r is asserted
    # only to 1e-4 of Rayleigh's cubic, the root engine's precision there
    mat = isotropic_material(ratio, 1.0, 1000.0)
    c_r = math.sqrt(1e9 / 1000.0) * math.sqrt(rayleigh_cubic_root(1.0 / (ratio + 2.0)))
    pt = rayleigh_point(mat, std_frame)
    scan = scan_directions(mat, std_frame.nu, 8)
    for c_lim, exists, root, res_kernel, res_riccati in (
            (pt.c_lim, pt.exists, pt.c_r, pt.res_kernel, pt.res_riccati),
            *zip(scan.c_lim, scan.exists, scan.c_r, scan.res_kernel, scan.res_riccati)):
        assert exists and root < 1e-3 * c_lim
        assert root == pytest.approx(c_r, rel=1e-4)
        assert res_kernel <= RES_KERNEL_TOL and res_riccati <= RES_RICCATI_TOL


def test_scan_needs_four_directions(aniso):
    with pytest.raises(ValueError, match="at least 4"):
        scan_directions(aniso, [0.0, 0.0, 1.0], 3)


@pytest.mark.parametrize("n", [48.0, 48.5, 600.0])
def test_scan_needs_an_integer_count(aniso, n):
    with pytest.raises(ValueError, match="must be an integer"):
        scan_directions(aniso, [0.0, 0.0, 1.0], n)


def test_scan_takes_a_numpy_integer_count(aniso):
    nu = np.array([0.0, 0.0, 1.0])
    assert scan_directions(aniso, nu, np.int64(8)).to_csv() == scan_directions(aniso, nu, 8).to_csv()


def _root_evaluation_step(mat, nu, scan):
    # evaluating again at c_r, with the factor-residual bounds, must give the
    # scan's kernel, residuals and slope; returns the Newton step at c_r
    rows = np.flatnonzero(scan.exists)
    assert rows.size
    engine = rayleigh._Engine(mat)
    pre = engine.prepare(nu, scan.directions)
    c_r, c_lim, a = scan.c_r[rows], scan.c_lim[rows], pre["a"][rows]
    q, a1, a2, z, s = engine.impedance_at(pre, c_r, rows)
    p = QuadraticPencil(a, a1, a2, engine.rho)
    polyfactor.integral_fallback(p, q, s, polyfactor.residual_breaches(p, q)[0])
    z = impedance_from_factor(a, a1, q)[1]
    w, u = np.linalg.eigh(z)
    kernel = scan.kernels[rows]
    v = u[np.arange(rows.size), :, np.argmin(np.abs(w), axis=1)]
    phase = np.einsum("mi,mi->m", v.conj(), kernel)
    assert np.max(np.abs(v * (phase / np.abs(phase))[:, None] - kernel)) <= 1e-12
    res_kernel = (np.linalg.norm(np.einsum("mij,mj->mi", z, kernel), axis=1)
                  / np.linalg.norm(z, axis=(1, 2)))
    assert np.max(np.abs(res_kernel - scan.res_kernel[rows])) <= 1e-12
    res_riccati = riccati_residual(z, p)
    assert np.max(np.abs(res_riccati - scan.res_riccati[rows])) <= 1e-12
    zdot = radial_derivative_z(z, q, mat.density, s)
    cof = np.stack([w[:, 1] * w[:, 2], w[:, 0] * w[:, 2], w[:, 0] * w[:, 1]], axis=1)
    slope = np.einsum("mik,mk,mjk,mji->m", u, cof, u.conj(), zdot).real
    assert np.all(np.abs(slope - scan.slope[rows]) <= 1e-12 * np.abs(slope))
    f, u0 = w[:, 0], u[:, :, 0]
    d = c_r * f / (np.einsum("mi,mij,mj->m", u0.conj(), zdot, u0).real - f)
    return d * (1.0 - d / (4.0 * (c_lim - c_r)))


def test_scan_root_is_its_evaluation(poisson, rng):
    # c_r is the speed of the last Newton round, whose evaluation gives the
    # kernel, residuals and slope, and whose step is within ROOT_RTOL
    for mat in (synthetic_anisotropic(int(rng.integers(1 << 30)), strength=0.9), poisson):
        nu = _unit(rng.standard_normal(3))
        scan = scan_directions(mat, nu, 48)
        step = _root_evaluation_step(mat, nu, scan)
        assert np.all(np.abs(step) <= rayleigh.ROOT_RTOL * scan.c_r[scan.exists])


@pytest.mark.parametrize("mat", [synthetic_anisotropic(11), synthetic_anisotropic(27, strength=0.75),
                                 poisson_solid(), isotropic_material(35.0, 27.0, 2600.0)],
                         ids=["aniso-11", "aniso-27", "poisson", "iso-35-27"])
@pytest.mark.parametrize("normal", [(0.0, 0.0, 1.0), (0.3, -0.5, 0.8), (1.0, 2.0, 3.0)])
def test_scalar_path_reproduces_engine_rows(mat, normal):
    # build_pencil -> spectral_factor -> impedance_tensor at xi_mag = 1 / c
    # gives bit for bit the engine row's pencil, q and z at speed c, so the
    # identities the selftest checks on the scalar path hold for scan rows
    nu = _unit(np.array(normal))
    engine = rayleigh._Engine(mat)
    dirs = _circle(nu, 2.0 * np.pi * np.arange(16) / 16)
    pre = engine.prepare(nu, dirs)
    c_lim = engine.limiting_speeds(pre, np.full(16, np.nan))[0]
    for fraction in (0.3, 0.7, 0.95):
        speeds = fraction * c_lim
        q, a1, a2, z, _ = engine.impedance_at(pre, speeds, np.arange(16))
        for k in range(dirs.shape[0]):
            p = build_pencil(mat, SurfaceFrame(nu, dirs[k]), 1.0 / speeds[k])
            np.testing.assert_array_equal(p.a, pre["a"][k])
            np.testing.assert_array_equal(p.a1, a1[k])
            np.testing.assert_array_equal(p.a2, a2[k])
            sf = spectral_factor(p)
            np.testing.assert_array_equal(sf.q, q[k])
            np.testing.assert_array_equal(impedance_tensor(p, sf).z, z[k])


def test_root_factor_residual_breach_refactors_the_row(aniso, monkeypatch):
    # a root whose q breaks the factor-residual bounds is re-factored by
    # the integral route, and its kernel, slope and residuals follow the new q;
    # the residual gate and the integral route both see a pencil with rho
    # raised by 1e-6, so that every root's q breaks the gate and any quantity
    # left from the old q shows
    nu = _unit(np.array([0.3, -0.2, 1.0]))
    reference = scan_directions(aniso, nu, 8)
    factored = []

    def raised(p):
        return dataclasses.replace(p, rho=p.rho * (1.0 + 1e-6))

    def perturbed(p, integral=polyfactor.factor_integral):
        factored.append(p)
        return integral(raised(p))

    def gate(p, q, breaches=polyfactor.residual_breaches):
        return breaches(raised(p), q)

    monkeypatch.setattr(polyfactor, "residual_breaches", gate)
    monkeypatch.setattr(rayleigh, "residual_breaches", gate)
    monkeypatch.setattr(polyfactor, "factor_integral", perturbed)
    scan = scan_directions(aniso, nu, 8)
    assert len(factored) == np.count_nonzero(reference.exists) > 0
    np.testing.assert_array_equal(scan.c_r, reference.c_r)
    assert np.min(scan.res_riccati[reference.exists]) > 1e-8
    _root_evaluation_step(aniso, nu, scan)

def test_slope_matches_finite_difference(aniso, rng):
    # slope is d/dt det z(t xi) at t = 1 on the variety, xi = tangent / c_r
    frame = random_frame(rng)
    pt = rayleigh_point(aniso, frame)
    assert pt.exists
    ximag = 1.0 / pt.c_r
    h = 1e-6
    p_plus = build_pencil(aniso, frame, (1 + h) * ximag)
    p_minus = build_pencil(aniso, frame, (1 - h) * ximag)
    def detz(p):
        q = spectral_factor(p).q
        z = 1j * (p.a @ q + p.a1)
        return np.linalg.det(0.5 * (z + z.conj().T)).real
    fd = (detz(p_plus) - detz(p_minus)) / (2 * h)
    assert pt.slope == pytest.approx(fd, rel=1e-5)


def test_scan_csv_schema(soft_iso):
    scan = scan_directions(soft_iso, np.array([0.0, 0.0, 1.0]), 8)
    text = scan.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 9
    row = lines[1].split(",")
    assert len(row) == 13
    assert row[2] == "true"
    float(row[3])  # c_r parses


def test_scan_thread_determinism(aniso):
    nu = np.array([0.0, 0.0, 1.0])
    s1 = scan_directions(aniso, nu, 96, threads=1)
    s4 = scan_directions(aniso, nu, 96, threads=4)
    assert s1.to_csv() == s4.to_csv()


def test_scan_env_threads(aniso, monkeypatch):
    monkeypatch.setenv("RAYLEIGH_THREADS", "2")
    s = scan_directions(aniso, np.array([0.0, 0.0, 1.0]), 64)
    assert s.e1_satisfied


def test_scan_workers_capped_at_cpu_count(aniso, monkeypatch):
    # RAYLEIGH_THREADS beyond the CPU count starts one worker per CPU; a
    # serial stand-in for the pool records the request and starts no thread
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(rayleigh, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(rayleigh.os, "cpu_count", lambda: 3)
    monkeypatch.setenv("RAYLEIGH_THREADS", "1000")
    assert rayleigh.resolve_threads(None) == 3
    assert rayleigh.resolve_threads(1000) == 3
    nu = np.array([0.0, 0.0, 1.0])
    scan = scan_directions(aniso, nu, 96)
    assert workers == [3]
    assert scan.to_csv() == scan_directions(aniso, nu, 96, threads=1).to_csv()


@pytest.mark.parametrize("nu", [[0.0, 0.0, 0.0], [0.0, math.nan, 1.0], [0.0, 0.0, math.inf]])
def test_scan_rejects_normals_without_a_direction(aniso, nu):
    with pytest.raises(ValueError, match="normal") as err:
        scan_directions(aniso, nu, 8)
    assert not isinstance(err.value, np.linalg.LinAlgError)


def test_extreme_magnitudes_keep_their_direction(aniso, std_frame):
    # |v| overflows at 1e200 and underflows at 1e-320; scaling by a power of
    # two first keeps each direction, bit for bit where the plain norm is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = scan_directions(aniso, [0.0, 0.0, 1e200], 8)
        tiny = scan_directions(aniso, [1e-320, 1e-320, 0.0], 8)
        p = eval_p(aniso, std_frame, 1e200 * std_frame.tangent)
    assert big.to_csv() == scan_directions(aniso, [0.0, 0.0, 1.0], 8).to_csv()
    ref = scan_directions(aniso, [1.0, 1.0, 0.0], 8)
    np.testing.assert_allclose(tiny.c_lim, ref.c_lim, rtol=1e-12)
    np.testing.assert_allclose(tiny.c_r, ref.c_r, rtol=1e-12)
    assert p == 1e200 * rayleigh_point(aniso, std_frame).c_r


def test_holonomy_isotropic_trivial(soft_iso):
    nu = np.array([0.0, 0.0, 1.0])
    scan = scan_directions(soft_iso, nu, 64)
    phase = scan.holonomy_phase
    assert abs(phase) < 1e-6
    assert abs(scan_directions(soft_iso, nu, 128).holonomy_phase - phase) < 1e-6
    # no transport gap: every consecutive kernel overlap stays at least 0.9
    vs = scan.kernels
    assert min(abs(np.vdot(vs[k], vs[(k + 1) % 64])) for k in range(64)) >= 0.9


def test_holonomy_overlap_improves(aniso):
    nu = np.array([0.0, 0.0, 1.0])
    worst = []
    for n in (256, 512, 1024):
        scan = scan_directions(aniso, nu, n)
        vs = scan.kernels
        overlaps = [abs(np.vdot(vs[k], vs[(k + 1) % n])) for k in range(n)]
        worst.append(min(overlaps))
    # simple-eigenvector continuity: the per-step overlap tends to 1
    assert worst[0] <= worst[1] + 1e-12 <= worst[2] + 2e-12
    assert worst[-1] > 0.9999


def test_monotone_determinant_along_rays():
    rng = np.random.default_rng(3)
    from surfimp.selftest import monotonicity_samples
    for mat in (isotropic_material(2.0, 1.0, 1000.0), synthetic_anisotropic(11)):
        _, gs, has_roots = monotonicity_samples(mat, [random_frame(rng) for _ in range(4)])
        for g, has_root in zip(gs, has_roots):
            assert np.all(np.diff(g) > 0)
            crossings = int(np.sum(np.sign(g[1:]) != np.sign(g[:-1])))
            assert crossings == (1 if has_root else 0)


@pytest.mark.parametrize("mat", [isotropic_material(25.0, 18.0, 3000.0), synthetic_anisotropic(12),
                                 synthetic_anisotropic(27, 0.75), isotropic_material(-0.9, 1.0, 1000.0)],
                         ids=["iso", "aniso12", "aniso27", "nonconvex"])
def test_monotonicity_batch_equals_each_ray(monkeypatch, mat):
    # six rays of different normals in one prepare and one _solve_rows call
    # give each ray's c_lim, existence and root, and its det z samples, bit
    # for bit as rayleigh_point and a one-row prepare do (the non-convex
    # medium reads existence from the static impedance)
    solved = []
    solve_rows = selftest._solve_rows
    monkeypatch.setattr(selftest, "_solve_rows", lambda *a: solved.append(solve_rows(*a)) or solved[-1])
    rng = np.random.default_rng(5)
    frames = [random_frame(rng) for _ in range(6)]
    speeds, g, exists = selftest.monotonicity_samples(mat, frames)
    c_lim, _, _, c_r = solved[0][:4]
    engine = rayleigh._Engine(mat)
    for k, frame in enumerate(frames):
        pt = rayleigh_point(mat, frame)
        assert (c_lim[k], exists[k]) == (pt.c_lim, pt.exists)
        assert c_r[k] == pt.c_r if pt.exists else np.isnan(c_r[k])
        hi = 0.98 * pt.c_lim
        if pt.exists and pt.c_r >= hi:
            hi = np.sqrt(pt.c_r * pt.c_lim)
        ray = np.geomspace(hi, 1e-3 * pt.c_lim, 20)
        z = engine.impedance_at(engine.prepare(frame.nu, frame.tangent[None, :]), ray, np.zeros(20, dtype=int))[3]
        np.testing.assert_array_equal(speeds[k], ray)
        np.testing.assert_array_equal(g[k], np.linalg.det(z).real)


def test_monotonicity_check_builds_one_engine_per_material(monkeypatch):
    built = []
    init = rayleigh._Engine.__init__
    monkeypatch.setattr(rayleigh._Engine, "__init__", lambda self, mat: built.append(mat) or init(self, mat))
    assert selftest._check_monotonicity(0, 6) == (0, 12)
    assert len(built) == 2


def test_radial_sign_validation_sphere_collar():
    # model check for d_r |xi| = -s22 |xi|: great-circle covector on a sphere
    # of radius R, collar coordinate r (negative inward), metric pulled back
    # from the ball; |xi|^2(r) = 1/(R+r)^2 and s22 = 1/R at r=0
    R = 2.37
    def ximag2(r):
        return 1.0 / (R + r) ** 2
    h = 1e-6
    fd = (ximag2(h) - ximag2(-h)) / (2 * h)
    s22 = 1.0 / R
    assert fd == pytest.approx(-2.0 * s22 * ximag2(0.0), rel=1e-9)
