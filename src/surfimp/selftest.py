"""Deterministic identity suite: the single implementation of each criterion.

Each `_check_*` function measures one acceptance criterion and returns its
worst values: closed-form block equivalence, the Rayleigh-speed oracle, the
impedance identity residuals with eigen-vs-integral factor agreement,
determinant monotonicity, the subprincipal two-route equality,
complex-step-vs-finite-difference derivatives, and the Sylvester integral
oracle.  A check draws its data from the generator [seed, k] with its own k
and takes the draw count as an argument.  `run_selftest` (the `surfimp
selftest` command) and the release gate `tests/test_acceptance.py` call the
same functions with their own seeds and counts, and each applies its own
tolerances.  Results are plain data; payload bytes depend only on the seed
and the build.  The Sylvester oracle is the exponential integral in closed
form (`_exp_integral`), so the suite, like the rest of `surfimp`, needs only
NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .impedance import barnett_lothe_residual, impedance_tensor, radial_derivative_z, sylvester_solve
from .isotropic import (
    CurvatureData,
    iso_full,
    iso_scalar_derivatives,
    iso_state,
    iso_state_on_sigma,
    rayleigh_cubic_root,
    subprincipal_p,
    _kappa_forms,
    _zeta_forms,
)
from .material import GPA, SurfaceFrame
from .polyfactor import build_pencil, factor_integral, spectral_factor
from .presets import isotropic_material, poisson_solid, synthetic_anisotropic
from .rayleigh import _Engine, _solve_rows, rayleigh_point

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


def random_frame(rng) -> SurfaceFrame:
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    t = rng.standard_normal(3)
    t -= (t @ n) * n
    t /= np.linalg.norm(t)
    return SurfaceFrame(n, t)


def frame_rotation(frame: SurfaceFrame) -> np.ndarray:
    """Columns (nu, tangent, perp): maps frame coordinates to lab coordinates."""
    return np.column_stack([frame.nu, frame.tangent, frame.perp])


def richardson(f, x: float, h: float):
    """Central difference of f at x, Richardson-extrapolated from steps h and h/2."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _isotropic_draws(seed: int, draws: int):
    """lam, mu in [0.1, 100] GPa, rho in [500, 12000], a frame and a multiple
    of 1/c_s in [1.05, 20]; criteria 1 and 2 share this stream."""
    rng = np.random.default_rng([seed, 1])
    for _ in range(draws):
        lam = rng.uniform(0.1, 100.0)
        mu = rng.uniform(0.1, 100.0)
        rho = rng.uniform(500.0, 12000.0)
        yield lam, mu, rho, random_frame(rng), rng.uniform(1.05, 20.0)


def _check_iso_blocks(seed: int, draws: int) -> float:
    """Worst relative gap of z and q between the general route and the closed forms."""
    worst = 0.0
    for lam, mu, rho, frame, xi_scale in _isotropic_draws(seed, draws):
        xi = xi_scale / math.sqrt(mu * GPA / rho)
        p = build_pencil(isotropic_material(lam, mu, rho), frame, xi)
        sf = spectral_factor(p)
        data = impedance_tensor(p, sf)
        st = iso_state(lam * GPA, mu * GPA, rho, xi)
        rot = frame_rotation(frame)
        iq, z = iso_full(st)
        z_err = np.linalg.norm(rot.T @ data.z @ rot - z)
        q_err = np.linalg.norm(rot.T @ sf.q @ rot + 1j * iq)
        worst = max(worst, z_err / np.linalg.norm(data.z), q_err / np.linalg.norm(sf.q))
    return worst


def _lam_eq_mu_ratio() -> float:
    """c_r / c_s at lam = mu by bisection on the quartic, independent of the cubic."""
    def quartic(t, u=1.0 / 3.0):
        return ((t - 2.0) ** 4 - 16.0 * (1.0 - t) * (1.0 - u * t)) / t

    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if quartic(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return math.sqrt(0.5 * (lo + hi))


def _check_rayleigh_oracle(seed: int, draws: int) -> tuple[float, float]:
    """Worst relative c_r error against the cubic, and the gap between the
    frozen lam = mu ratio and its bisection oracle."""
    worst = 0.0
    for lam, mu, rho, frame, _ in _isotropic_draws(seed, draws):
        u = mu / (lam + 2.0 * mu)
        expected = math.sqrt(mu * GPA / rho) * math.sqrt(rayleigh_cubic_root(u))
        pt = rayleigh_point(isotropic_material(lam, mu, rho), frame)
        worst = max(worst, abs(pt.c_r - expected) / expected)
    ratio = _lam_eq_mu_ratio()
    mat = poisson_solid()
    pt = rayleigh_point(mat, SurfaceFrame(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])))
    cs = math.sqrt(mat.stiffness.voigt[3, 3] / mat.density)
    worst = max(worst, abs(pt.c_r / cs - ratio))
    return worst, abs(ratio - RAYLEIGH_RATIO_LAM_EQ_MU)


def _check_identities(seed: int, per_mat: int) -> tuple[float, float, int, float]:
    """Identity residuals at elliptic points of one isotropic and three
    synthetic anisotropic materials.

    Returns the worst Riccati/solvency/factorization/Barnett-Lothe residual
    (f0 from the integral route, whose q the eigen route is compared with),
    the worst hermiticity defect, the number of points failing Re z > 0,
    zdot - z > 0 or uniqueness, and the worst eigen-vs-integral gap of q.
    """
    rng = np.random.default_rng([seed, 3])
    mats = [isotropic_material(35.0, 27.0, 2600.0),
            synthetic_anisotropic(11), synthetic_anisotropic(12), synthetic_anisotropic(13)]
    worst_res = worst_herm = worst_q = 0.0
    structure_failures = 0
    for mat in mats:
        draws = [(random_frame(rng), rng.uniform(0.05, 0.95)) for _ in range(per_mat)]
        engine = _Engine(mat)
        pre = engine.prepare(np.array([f.nu for f, _ in draws]), np.array([f.tangent for f, _ in draws]))
        c_lim = engine.limiting_speeds(pre, np.full(per_mat, np.nan))[0]
        for (frame, fraction), top in zip(draws, c_lim):
            p = build_pencil(mat, frame, 1.0 / (fraction * top))
            sf = spectral_factor(p)
            intf = factor_integral(p)
            data = impedance_tensor(p, sf)
            worst_res = max(worst_res, data.riccati, sf.residual_solvency,
                            sf.residual_factorization, barnett_lothe_residual(data.z, intf.f0))
            worst_herm = max(worst_herm, data.hermiticity)
            worst_q = max(worst_q, np.linalg.norm(sf.q - intf.q) / np.linalg.norm(sf.q))
            zdot = radial_derivative_z(data.z, sf.q, mat.density)
            ok = (data.re_z_positive_definite
                  and np.linalg.eigvalsh(zdot - data.z)[0] > 0.0
                  and data.nonpositive_eigenvalues <= 1)
            structure_failures += 0 if ok else 1
    return worst_res, worst_herm, structure_failures, worst_q


def monotonicity_samples(mat, frames, n: int = 20):
    """Speeds and det z, both (k, n), along the rays of k frames, and exists (k,).

    One engine, one prepare, one _solve_rows (c_lim, exists, c_r) and one
    impedance_at call serve every ray.  Speeds fall from 0.98 c_lim, or from
    the geometric mean of c_r and c_lim when the root hugs the elliptic
    boundary, to 1e-3 c_lim: very close to c_lim the determinant approaches
    zero non-monotonically for isotropic-like media, while transversality
    only holds through the crossing itself.
    """
    k = len(frames)
    engine = _Engine(mat)
    pre = engine.prepare(np.array([f.nu for f in frames]), np.array([f.tangent for f in frames]))
    none = np.full(k, np.nan)
    c_lim, exists, _, c_r = _solve_rows(engine, pre, none, none)[:4]
    hi = np.where(exists & (c_r >= 0.98 * c_lim), np.sqrt(c_r * c_lim), 0.98 * c_lim)
    speeds = np.geomspace(hi, 1e-3 * c_lim, n, axis=1)
    z = engine.impedance_at(pre, speeds.ravel(), np.repeat(np.arange(k), n))[3]
    return speeds, np.linalg.det(z).real.reshape(k, n), exists


def _check_monotonicity(seed: int, rays: int) -> tuple[int, int]:
    """Rays per material on which det z is not increasing in 1/c or does not
    cross zero exactly once where a root exists; returns (offending, total)."""
    rng = np.random.default_rng([seed, 5])
    offending, mats = 0, (isotropic_material(25.0, 18.0, 3000.0), synthetic_anisotropic(12))
    for mat in mats:
        _, g, has_root = monotonicity_samples(mat, [random_frame(rng) for _ in range(rays)])
        increasing = np.all(np.diff(g, axis=1) > 0.0, axis=1)
        crossings = np.sum(np.sign(g[:, 1:]) != np.sign(g[:, :-1]), axis=1)
        offending += int(np.sum(~increasing | (crossings != has_root)))
    return offending, len(mats) * rays


def _check_subprincipal(seed: int, draws: int) -> tuple[float, float, float, float]:
    """Largest flat-space term, worst linearity gap under curvature scaling,
    worst direct-vs-assembled gap and worst relative hermiticity defect of X
    over random on-variety states."""
    rng = np.random.default_rng([seed, 6])
    st = iso_state_on_sigma(2.0e9, 1.0e9, 1000.0)
    flat = subprincipal_p(st, CurvatureData())
    flat_terms = max(abs(flat.psub_direct), abs(flat.psub_assembled),
                     abs(flat.re_zminus_vv) / st.mu, abs(flat.im_trace) / st.mu,
                     float(np.abs(flat.X).max()) / st.mu)
    worst_lin = worst_route = worst_herm = 0.0
    for _ in range(draws):
        lam = rng.uniform(0.1, 100.0) * GPA
        mu = rng.uniform(0.1, 100.0) * GPA
        rho = rng.uniform(500.0, 12000.0)
        st = iso_state_on_sigma(lam, mu, rho)
        curv = CurvatureData(*rng.uniform(-1.0, 1.0, size=8))
        br = subprincipal_p(st, curv)
        worst_route = max(worst_route,
                          abs(br.psub_direct - br.psub_assembled) / (1 + abs(br.psub_direct)))
        worst_herm = max(worst_herm, np.linalg.norm(br.X - br.X.conj().T) / np.linalg.norm(br.X))
        for alpha in (2.0, -1.0, 10.0):
            scaled = subprincipal_p(st, curv.scaled(alpha))
            ref = alpha * br.psub_direct
            worst_lin = max(worst_lin, abs(scaled.psub_direct - ref) / (1 + abs(ref)))
    return flat_terms, worst_lin, worst_route, worst_herm


def _fd_gap(forms, args, j: int, got: np.ndarray, weight: float = 1.0) -> float:
    """Worst relative gap of got against weight * d forms / d args[j] by Richardson.

    The denominator is the derivative magnitude or the per-parameter function
    scale, whichever is larger; the FD rounding floor is eps |f| / (2h) and
    would otherwise dominate for nearly flat parameter directions.
    """
    def f(x):
        a = list(args)
        a[j] = x
        return np.array(forms(*a))

    fd = weight * richardson(f, args[j], 1e-6 * abs(args[j]))
    scale = np.maximum(np.abs(fd), np.abs(f(args[j])) / abs(args[j]) * weight)
    return float(np.max(np.abs(got - fd) / scale))


def _check_derivatives(seed: int, states: int) -> float:
    """Worst gap of the complex-step zeta partials and speed/radial kappa
    derivatives against finite differences."""
    rng = np.random.default_rng([seed, 7])
    worst = 0.0
    for _ in range(states):
        lam = rng.uniform(0.5, 80.0) * GPA
        mu = rng.uniform(0.5, 80.0) * GPA
        rho = rng.uniform(500.0, 12000.0)
        xi = rng.uniform(1.2, 10.0) / math.sqrt(mu / rho)
        st = iso_state(lam, mu, rho, xi)
        derivs = iso_scalar_derivatives(st)
        for j in range(4):
            worst = max(worst, _fd_gap(_zeta_forms, [lam, mu, rho, xi], j,
                                       derivs.zeta_partials[:, j]))
        for j, k in enumerate((derivs.Ks, derivs.Kp, derivs.Kdot)):
            got = np.array([k[0, 0].real, -k[0, 1].imag, k[1, 0].imag, k[1, 1].real])
            weight = xi if j == 2 else 1.0  # Kdot is the radial form |xi| d/d|xi|
            worst = max(worst, _fd_gap(_kappa_forms, [st.c_s, st.c_p, xi], j, got, weight))
    return worst


def _exp_integral(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X = int_0^inf exp(-rA)* B exp(-rA) dr, exact in the eigenbasis of A.

    With A = W diag(lam) W^-1 diagonalisable and Re lam > 0, the integrand is
    W^-* [exp(-r(conj lam_j + lam_k)) (W* B W)_jk] W^-1, whose integral
    divides (W* B W)_jk by conj lam_j + lam_k (Bartels & Stewart 1972).
    """
    lam, w = np.linalg.eig(a)
    w_inv = np.linalg.inv(w)
    c = w.conj().T @ b @ w / (lam.conj()[:, None] + lam[None, :])
    return w_inv.conj().T @ c @ w_inv


def _check_sylvester(seed: int, systems: int) -> float:
    """Worst relative gap of sylvester_solve against its exponential integral."""
    rng = np.random.default_rng([seed, 8])
    worst = 0.0
    for _ in range(systems):
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = raw + (0.5 + max(0.0, -np.linalg.eigvals(raw).real.min())) * np.eye(3)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = sylvester_solve(a, b)
        oracle = _exp_integral(a, b)
        worst = max(worst, np.linalg.norm(x - oracle) / np.linalg.norm(oracle))
    return worst


def _below(name: str, worst: float, tol: float) -> CriterionResult:
    return CriterionResult(name, worst < tol, tol, float(worst))


def run_selftest(seed: int = 0, strict: bool = False) -> list[CriterionResult]:
    f = 0.01 if strict else 1.0
    oracle, constant_gap = _check_rayleigh_oracle(seed, 8)
    residuals, hermiticity, structure_failures, q_gap = _check_identities(seed, 8)
    offending, _ = _check_monotonicity(seed, 6)
    return [
        _below("iso_block_equivalence", _check_iso_blocks(seed, 20), 1e-9 * f),
        _below("rayleigh_speed_oracle", max(oracle, constant_gap), 1e-9 * f),
        _below("identity_residuals", residuals, 1e-8 * f),
        _below("impedance_hermiticity", hermiticity, 1e-9 * f),
        _below("definiteness_and_uniqueness", structure_failures, 0.5),
        _below("factor_route_agreement", q_gap, 1e-8 * f),
        _below("determinant_monotonicity", offending, 0.5),
        _below("subprincipal_two_route", max(_check_subprincipal(seed, 25)), 1e-9 * f),
        _below("derivative_fd_agreement", _check_derivatives(seed, 5), 1e-7 * f),
        _below("sylvester_integral_oracle", _check_sylvester(seed, 5), 1e-7 * f),
    ]
