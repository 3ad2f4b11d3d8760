"""Deterministic identity suite over built-in materials.

Each criterion mirrors one acceptance check: closed-form block equivalence,
the Rayleigh-speed oracle, the impedance identity residuals, eigen-vs-integral
factor agreement, determinant monotonicity, the subprincipal two-route
equality, dual-number-vs-finite-difference derivatives, and the Sylvester
integral oracle.  Results are plain data; payload bytes depend only on the
seed and the build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec
from scipy.linalg import expm

from .impedance import impedance_tensor, radial_derivative_z, sylvester_solve
from .isotropic import (
    CurvatureData,
    iso_impedance_full,
    iso_iq_full,
    iso_scalar_derivatives,
    iso_state,
    iso_state_on_sigma,
    rayleigh_cubic_root,
    subprincipal_p,
    _zeta_forms,
)
from .material import SurfaceFrame
from .polyfactor import build_pencil, factor_integral, spectral_factor
from .presets import isotropic_material, poisson_solid, random_isotropic, synthetic_anisotropic
from .rayleigh import _Engine, limiting_speed, rayleigh_point

RAYLEIGH_RATIO_LAM_EQ_MU = 0.91940168676196612  # sqrt of the cubic root at u = 1/3


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    tolerance: float
    worst: float

    @property
    def margin(self) -> float | None:
        return float(self.tolerance / self.worst) if self.worst > 0.0 else None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "tolerance": float(self.tolerance),
            "worst": float(self.worst),
            "margin": self.margin,
        }


def _builtin_materials():
    return [
        poisson_solid(),
        isotropic_material(2.0, 1.0, 1000.0, name="soft-iso"),
        synthetic_anisotropic(11),
        synthetic_anisotropic(12),
        synthetic_anisotropic(13),
    ]


def _random_frame(rng) -> SurfaceFrame:
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    t = rng.standard_normal(3)
    t -= (t @ n) * n
    t /= np.linalg.norm(t)
    return SurfaceFrame(n, t)


def _frame_rotation(frame: SurfaceFrame) -> np.ndarray:
    return np.column_stack([frame.nu, frame.tangent, frame.perp])


def _check_iso_blocks(seed: int, tol: float, draws: int = 20) -> CriterionResult:
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for _ in range(draws):
        mat = random_isotropic(rng)
        frame = _random_frame(rng)
        lam = mat.stiffness.voigt[0, 1]
        mu = mat.stiffness.voigt[3, 3]
        cs = np.sqrt(mu / mat.density)
        xi = rng.uniform(1.05, 20.0) / cs
        p = build_pencil(mat, frame, xi)
        data = impedance_tensor(p, spectral_factor(p))
        st = iso_state(lam, mu, mat.density, xi)
        rot = _frame_rotation(frame)
        z_err = np.linalg.norm(rot.T @ data.z @ rot - iso_impedance_full(st))
        q_err = np.linalg.norm(rot.T @ data.q @ rot - (-1j) * iso_iq_full(st))
        worst = max(worst, z_err / np.linalg.norm(data.z), q_err / np.linalg.norm(data.q))
    return CriterionResult("iso_block_equivalence", worst < tol, tol, worst)


def _check_rayleigh_oracle(seed: int, tol: float, draws: int = 8) -> CriterionResult:
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(draws):
        mat = random_isotropic(rng)
        frame = _random_frame(rng)
        mu = mat.stiffness.voigt[3, 3]
        lam = mat.stiffness.voigt[0, 1]
        cs = np.sqrt(mu / mat.density)
        expected = cs * np.sqrt(rayleigh_cubic_root(mu / (lam + 2 * mu)))
        pt = rayleigh_point(mat, frame)
        worst = max(worst, abs(pt.c_r - expected) / expected)
    # frozen oracle constant for lam = mu
    mat = poisson_solid()
    pt = rayleigh_point(mat, SurfaceFrame(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])))
    cs = np.sqrt(mat.stiffness.voigt[3, 3] / mat.density)
    worst = max(worst, abs(pt.c_r / cs - RAYLEIGH_RATIO_LAM_EQ_MU))
    return CriterionResult("rayleigh_speed_oracle", worst < tol, tol, worst)


def _elliptic_points(rng, mats, per_mat):
    for mat in mats:
        for _ in range(per_mat):
            frame = _random_frame(rng)
            c_lim = limiting_speed(mat, frame)
            speed = rng.uniform(0.05, 0.95) * c_lim
            yield mat, frame, 1.0 / speed


def _check_identities(seed: int, tol: float, herm_tol: float, per_mat: int = 8):
    rng = np.random.default_rng([seed, 3])
    worst_res = 0.0
    worst_herm = 0.0
    worst_q = 0.0
    structure_failures = 0
    for mat, frame, xi in _elliptic_points(rng, _builtin_materials(), per_mat):
        p = build_pencil(mat, frame, xi)
        sf = spectral_factor(p)
        intf = factor_integral(p, check=False)
        data = impedance_tensor(p, sf, f0=intf.f0)
        d = data.diagnostics
        res = sf.residual_factorization
        worst_res = max(worst_res, d.riccati, d.solvency, res, d.barnett_lothe)
        worst_herm = max(worst_herm, d.hermiticity)
        worst_q = max(
            worst_q, np.linalg.norm(sf.q - intf.q) / np.linalg.norm(sf.q)
        )
        zdot = radial_derivative_z(data, mat.density)
        ok = (
            d.re_z_positive_definite
            and np.linalg.eigvalsh(zdot - data.z)[0] > 0.0
            and d.nonpositive_eigenvalues <= 1
        )
        structure_failures += 0 if ok else 1
    return [
        CriterionResult("identity_residuals", worst_res < tol, tol, worst_res),
        CriterionResult("impedance_hermiticity", worst_herm < herm_tol, herm_tol, worst_herm),
        CriterionResult("definiteness_and_uniqueness",
                        structure_failures == 0, 0.5, float(structure_failures)),
        CriterionResult("factor_route_agreement", worst_q < tol, tol, worst_q),
    ]


def monotonicity_samples(mat, frame, n: int = 20):
    """det z along the ray at n speeds covering the root (when present).

    The ceiling sits at 0.98 c_lim, or at the geometric mean of c_r and c_lim
    when the root hugs the elliptic boundary; very close to c_lim the
    determinant approaches zero non-monotonically for isotropic-like media,
    while transversality only holds through the crossing itself.
    """
    pt = rayleigh_point(mat, frame)
    c_lim = pt.c_lim
    hi = 0.98 * c_lim
    if pt.exists and pt.c_r >= hi:
        hi = np.sqrt(pt.c_r * c_lim)
    speeds = np.geomspace(hi, 1e-3 * c_lim, n)
    engine = _Engine(mat, frame.nu)
    pre = engine.prepare(frame.tangent[None, :])
    g = engine.detz(pre, speeds, rows=np.zeros(n, dtype=int))
    return speeds, g, pt.exists


def _check_monotonicity(seed: int, rays: int = 6) -> CriterionResult:
    rng = np.random.default_rng([seed, 4])
    offending = 0
    for mat in (_builtin_materials()[1], _builtin_materials()[2]):
        for _ in range(rays):
            frame = _random_frame(rng)
            _, g, has_root = monotonicity_samples(mat, frame)
            increasing = np.all(np.diff(g) > 0.0)  # increasing in 1/c
            crossings = int(np.sum(np.sign(g[1:]) != np.sign(g[:-1])))
            if not increasing or crossings != (1 if has_root else 0):
                offending += 1
    return CriterionResult("determinant_monotonicity", offending == 0, 0.5, float(offending))


def _random_curvature(rng) -> CurvatureData:
    return CurvatureData(*rng.uniform(-1.0, 1.0, size=8))


def _check_subprincipal(seed: int, tol: float, draws: int = 25) -> CriterionResult:
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    st = iso_state_on_sigma(2.0e9, 1.0e9, 1000.0)
    flat = subprincipal_p(st, CurvatureData.zero())
    worst = max(worst, abs(flat.psub_direct), abs(flat.psub_assembled))
    for _ in range(draws):
        lam = rng.uniform(0.1, 100.0) * 1e9
        mu = rng.uniform(0.1, 100.0) * 1e9
        rho = rng.uniform(500.0, 12000.0)
        st = iso_state_on_sigma(lam, mu, rho)
        curv = _random_curvature(rng)
        br = subprincipal_p(st, curv)
        scale = 1.0 + abs(br.psub_direct)
        worst = max(worst, abs(br.psub_direct - br.psub_assembled) / scale)
        for alpha in (2.0, -1.0, 10.0):
            scaled = subprincipal_p(st, curv.scaled(alpha))
            worst = max(
                worst,
                abs(scaled.psub_direct - alpha * br.psub_direct) / (1.0 + abs(alpha * br.psub_direct)),
            )
    return CriterionResult("subprincipal_two_route", worst < tol, tol, worst)


def _richardson_fd(f, x: float, h: float) -> float:
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _check_derivatives(seed: int, tol: float, states: int = 5) -> CriterionResult:
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for _ in range(states):
        lam = rng.uniform(0.5, 50.0) * 1e9
        mu = rng.uniform(0.5, 50.0) * 1e9
        rho = rng.uniform(500.0, 12000.0)
        cs = np.sqrt(mu / rho)
        xi = rng.uniform(1.2, 10.0) / cs
        st = iso_state(lam, mu, rho, xi)
        derivs = iso_scalar_derivatives(st)
        args = [lam, mu, rho, xi]
        f0 = np.array([float(v) for v in _zeta_forms(*args)[:3]])
        for j in range(4):
            def f(x, j=j):
                a = list(args)
                a[j] = x
                return np.array([float(v) for v in _zeta_forms(*a)[:3]])
            fd = _richardson_fd(f, args[j], 1e-6 * abs(args[j]))
            # denominator: derivative magnitude or the per-parameter function
            # scale, whichever is larger; the FD rounding floor is
            # eps |f| / (2h) and would otherwise dominate for nearly flat
            # parameter directions
            scale = np.maximum(np.abs(fd), np.abs(f0) / abs(args[j]))
            worst = max(worst, float(np.max(np.abs(derivs.zeta_partials[:, j] - fd) / scale)))
    return CriterionResult("derivative_fd_agreement", worst < tol, tol, worst)


def _check_sylvester(seed: int, tol: float, systems: int = 5) -> CriterionResult:
    rng = np.random.default_rng([seed, 7])
    worst = 0.0
    for _ in range(systems):
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        shift = 0.5 + max(0.0, -np.min(np.linalg.eigvals(raw).real))
        a = raw + shift * np.eye(3)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = sylvester_solve(a, b)
        oracle, _ = quad_vec(
            lambda r: expm(-r * a).conj().T @ b @ expm(-r * a),
            0.0, 60.0, epsabs=1e-12, epsrel=1e-12,
        )
        worst = max(worst, np.linalg.norm(x - oracle) / np.linalg.norm(oracle))
    return CriterionResult("sylvester_integral_oracle", worst < tol, tol, worst)


def run_selftest(seed: int = 0, strict: bool = False) -> list[CriterionResult]:
    f = 0.01 if strict else 1.0
    results = [
        _check_iso_blocks(seed, 1e-9 * f),
        _check_rayleigh_oracle(seed, 1e-9 * f),
    ]
    results.extend(_check_identities(seed, 1e-8 * f, 1e-9 * f))
    results.append(_check_monotonicity(seed))
    results.append(_check_subprincipal(seed, 1e-9 * f))
    results.append(_check_derivatives(seed, 1e-7 * f))
    results.append(_check_sylvester(seed, 1e-7 * f))
    return results
