"""Closed forms for the isotropic elastic half-space.

Everything the general route computes numerically has an explicit expression
here — the impedance blocks in the (nu, xi-hat) frame, the Rayleigh cubic,
the kernel section — so this module doubles as the oracle for the anisotropic
machinery.  Each closed form is written once: iso_blocks evaluates the forms
that the subprincipal derivatives complex-step, so criterion 1 (block
equivalence with the general route) certifies them.  It also implements the
curvature-driven subprincipal correction of the scalar Rayleigh operator:
boundary curvature and tangential/normal material gradients enter through
three 2x2 matrices Y1, Y2, Y3, a Hermitian 2x2 Sylvester solve, and two
independently assembled scalar outputs that must agree.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import astuple, dataclass

import numpy as np

from .impedance import sylvester_solve
from .polyfactor import NonEllipticError

ON_SIGMA_TOL = 1e-9
COMPLEX_STEP = 1e-20  # relative; complex step has no cancellation, so any tiny step works


def rayleigh_cubic_root(u: float) -> float:
    """Unique root t in (0,1) of t^3 - 8t^2 + (24-16u)t - 16(1-u) = 0.

    This is Rayleigh's cubic: (t-2)^4 = 16(1-t)(1-ut) divided by the spurious
    root at t = 0.  The root also zeroes 4 sqrt((1-t)(1-ut)) - (2-t)^2, and
    c_r = c_s sqrt(t).  With u = mu / (lam + 2 mu) in (0, 1), that is mu > 0
    and lam > -mu, the cubic is -16(1-u) < 0 at t = 0 and 1 at t = 1.
    """
    if not (0.0 < u < 1.0):
        raise ValueError(f"u must lie in (0, 1), got {u}")

    def h(t):
        return t * t * t - 8.0 * t * t + (24.0 - 16.0 * u) * t - 16.0 * (1.0 - u)

    # bisect until the midpoint rounds to an end: lo and hi are then adjacent floats
    lo, mid, hi = 0.0, 0.5, 1.0
    while lo < mid < hi:
        if h(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid


@dataclass(frozen=True)
class IsoSurfaceState:
    """Material + tangential frequency state; dimensionless shortcuts cached.

    t = (c_s |xi|)^-2 and u = (c_s/c_p)^2 drive every closed form;
    sigma_s, sigma_p, tau_s, tau_p and m = mu |xi| / b are the on-variety
    combinations (t = sigma_s^2 exactly when the state lies on it).
    """

    lam: float
    mu: float
    rho: float
    xi_mag: float
    t: float
    u: float
    b: float
    c_s: float
    c_p: float
    c_r: float
    sigma_s: float
    sigma_p: float
    tau_s: float
    tau_p: float
    m: float

    @property
    def ut(self) -> float:
        return self.u * self.t

    @property
    def elliptic(self) -> bool:
        return 0.0 < self.t < 1.0


def _b(t, ut):
    """b = 1 - sqrt(1-ut) sqrt(1-t), cancellation-free; np.sqrt lets complex steps through."""
    return (ut + t - ut * t) / (1.0 + np.sqrt(1.0 - ut) * np.sqrt(1.0 - t))


def _state(lam, mu, rho, xi_mag, t, t_sigma=None) -> IsoSurfaceState:
    """The state at t; t_sigma, the cubic root for this u, is solved for unless given."""
    u = mu / (lam + 2.0 * mu)
    c_s = math.sqrt(mu / rho)
    c_p = math.sqrt((lam + 2.0 * mu) / rho)
    if t_sigma is None:
        t_sigma = rayleigh_cubic_root(u)
    c_r = c_s * math.sqrt(t_sigma)
    sigma_s = c_r / c_s
    sigma_p = c_r / c_p
    b = _b(t, u * t) if 0.0 < t < 1.0 else math.nan  # block formulas refuse a non-elliptic t
    return IsoSurfaceState(
        lam=float(lam), mu=float(mu), rho=float(rho), xi_mag=float(xi_mag),
        t=float(t), u=float(u), b=float(b),
        c_s=c_s, c_p=c_p, c_r=c_r,
        sigma_s=sigma_s, sigma_p=sigma_p,
        tau_s=math.sqrt(1.0 - sigma_s * sigma_s),
        tau_p=math.sqrt(1.0 - sigma_p * sigma_p),
        m=float(mu * xi_mag / b),
    )


def _require_domain(lam, mu, rho) -> None:
    """ValueError unless mu > 0, lam > -mu and rho > 0: c_p > c_s, and a Rayleigh root exists."""
    if not (mu > 0.0 and lam > -mu and rho > 0.0):
        raise ValueError(f"isotropic closed forms need mu > 0, lam > -mu and rho > 0, "
                         f"got lam = {lam!r} Pa, mu = {mu!r} Pa, rho = {rho!r} kg/m^3")


def iso_state(lam: float, mu: float, rho: float, xi_mag: float) -> IsoSurfaceState:
    """State at tangential covector magnitude xi_mag (elliptic iff c_s xi > 1)."""
    _require_domain(lam, mu, rho)
    if not xi_mag > 0.0:
        raise ValueError(f"xi_mag must be positive, got {xi_mag!r}")
    t = rho / (mu * xi_mag * xi_mag)
    return _state(lam, mu, rho, xi_mag, t)


def iso_state_on_sigma(lam: float, mu: float, rho: float) -> IsoSurfaceState:
    """State on the characteristic variety: |xi| = 1/c_r, t the cubic root.

    t is set to the cubic root to full precision rather than recomputed from
    |xi|; the subprincipal formulas contain removable singularities there and
    an exact-on-variety t avoids catastrophic cancellation.
    """
    _require_domain(lam, mu, rho)
    u = mu / (lam + 2.0 * mu)
    t = rayleigh_cubic_root(u)
    c_r = math.sqrt(mu / rho) * math.sqrt(t)
    return _state(lam, mu, rho, 1.0 / c_r, t, t_sigma=t)


# --- scalar closed forms, real or complex-stepped ---------------------------


def _zeta_forms(lam, mu, rho, xi):
    """zeta_1, zeta_2, zeta_3 of the impedance block z11."""
    t = rho / (mu * xi * xi)
    ut = rho / ((lam + 2.0 * mu) * xi * xi)
    b = _b(t, ut)
    m = mu * xi / b
    return m * t * np.sqrt(1.0 - t), m * (2.0 * b - t), m * t * np.sqrt(1.0 - ut)


def _kappa_forms(cs, cp, xi):
    """kappa_11, kappa_12, kappa_21, kappa_22 of the decay-factor block (iq)_11."""
    t = 1.0 / (cs * cs * xi * xi)
    ut = 1.0 / (cp * cp * xi * xi)
    b = _b(t, ut)
    f = xi / b
    return f * ut * np.sqrt(1.0 - t), f * (b - ut), f * (b - t), f * t * np.sqrt(1.0 - ut)


def _kappa_matrix(k11, k12, k21, k22) -> np.ndarray:
    return np.array([[k11, -1j * k12], [1j * k21, k22]])


def _zeta_matrix(z1, z2, z3) -> np.ndarray:
    return np.array([[z1, -1j * z2], [1j * z2, z3]])


@dataclass(frozen=True)
class IsoBlocks:
    iq11: np.ndarray      # 2x2 complex in the (nu, xi-hat) frame
    z11: np.ndarray       # 2x2 complex Hermitian
    detz11: float
    z22_scalar: float     # mu |xi| sqrt(1-t) on the out-of-plane line


def iso_blocks(st: IsoSurfaceState) -> IsoBlocks:
    """Impedance and decay-factor blocks in the (nu, xi-hat, perp) frame."""
    if not st.elliptic:
        raise NonEllipticError(f"state not elliptic: t = {st.t}")
    t, ut, b, xi, mu = st.t, st.ut, st.b, st.xi_mag, st.mu
    sq_t = math.sqrt(1.0 - t)
    sq_ut = math.sqrt(1.0 - ut)
    iq11 = _kappa_matrix(*_kappa_forms(st.c_s, st.c_p, xi))
    z11 = _zeta_matrix(*_zeta_forms(st.lam, mu, st.rho, xi))
    detz11 = mu * mu * xi * xi / b * (4.0 * sq_t * sq_ut - (2.0 - t) ** 2)
    return IsoBlocks(iq11=iq11, z11=z11, detz11=float(detz11), z22_scalar=float(mu * xi * sq_t))


def iso_full(st: IsoSurfaceState) -> tuple[np.ndarray, np.ndarray]:
    """Full 3x3 iq = diag(iq11, |xi| sqrt(1-t)) and impedance z = diag(z11,
    mu |xi| sqrt(1-t)) in the (nu, xi-hat, perp) frame."""
    blocks = iso_blocks(st)
    iq, z = np.zeros((2, 3, 3), dtype=complex)
    iq[:2, :2], iq[2, 2] = blocks.iq11, st.xi_mag * math.sqrt(1.0 - st.t)
    z[:2, :2], z[2, 2] = blocks.z11, blocks.z22_scalar
    return iq, z


def iso_kernel_vector(t_on_sigma: float) -> np.ndarray:
    """Unit kernel section (i(2-t) nu + 2 sqrt(1-t) xi-hat) / norm on the variety.

    The xi-hat component is real positive, matching the scan phase convention.
    """
    t = float(t_on_sigma)
    v = np.array([1j * (2.0 - t), 2.0 * math.sqrt(1.0 - t), 0.0])
    return v / np.linalg.norm(v)


# --- derivative records -----------------------------------------------------


@dataclass(frozen=True)
class IsoDerivatives:
    """Complex-step derivatives of the closed forms at one state.

    zeta_partials[j] holds d zeta_j / d(lam, mu, rho, |xi|).  Radial
    derivatives are |xi| * d/d|xi| at fixed material.  Ks, Kp differentiate
    the decay-factor block with respect to the wave speeds at fixed |xi|.
    """

    zeta_partials: np.ndarray   # (3, 4)
    zeta_dot: np.ndarray        # (3,) radial
    Ks: np.ndarray              # (2, 2) complex, d(iq)_11 / d c_s
    Kp: np.ndarray              # (2, 2) complex, d(iq)_11 / d c_p
    Kdot: np.ndarray            # (2, 2) complex, radial derivative of (iq)_11


def _complex_step(forms, args) -> np.ndarray:
    """Column j holds d forms / d args[j] as Im forms(x + ih) / h, exact to rounding."""
    columns = []
    for j, x in enumerate(args):
        h = COMPLEX_STEP * (abs(x) or 1.0)  # absolute where x = 0 (lam may be 0)
        stepped = [complex(a, h) if i == j else a for i, a in enumerate(args)]
        columns.append(np.imag(forms(*stepped)) / h)
    return np.column_stack(columns)


def iso_scalar_derivatives(st: IsoSurfaceState) -> IsoDerivatives:
    if not st.elliptic:
        raise NonEllipticError(f"state not elliptic: t = {st.t}")
    zp = _complex_step(_zeta_forms, (st.lam, st.mu, st.rho, st.xi_mag))
    kspeed = _complex_step(_kappa_forms, (st.c_s, st.c_p, st.xi_mag))
    return IsoDerivatives(
        zeta_partials=zp,
        zeta_dot=st.xi_mag * zp[:, 3],
        Ks=_kappa_matrix(*kspeed[:, 0]),
        Kp=_kappa_matrix(*kspeed[:, 1]),
        Kdot=_kappa_matrix(*(st.xi_mag * kspeed[:, 2])),
    )


# --- curvature / gradient data ----------------------------------------------


@dataclass(frozen=True)
class CurvatureData:
    """Boundary shape-operator entries and material gradients in the frame.

    s22 = <xi-hat, S xi-hat>, trS the full trace of the shape operator;
    grad_*_t are tangential xi-hat components of the material gradients,
    dn_* the normal derivatives.  The zero record is a flat homogeneous
    half-space.
    """

    s22: float = 0.0
    trS: float = 0.0
    grad_lambda_t: float = 0.0
    grad_mu_t: float = 0.0
    grad_rho_t: float = 0.0
    dn_lambda: float = 0.0
    dn_mu: float = 0.0
    dn_rho: float = 0.0

    def scaled(self, alpha: float) -> "CurvatureData":
        return CurvatureData(*(alpha * x for x in astuple(self)))

    @classmethod
    def from_json(cls, text: str) -> "CurvatureData":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("curvature record must be a JSON object")
        grad, dn = doc.get("grad_t", {}), doc.get("dn", {})
        if not (isinstance(grad, dict) and isinstance(dn, dict)):
            raise ValueError("curvature 'grad_t' and 'dn' must be JSON objects")
        # field order: s22, trS, grad_*_t, dn_* with * = lambda, mu, rho
        values = [doc.get("s22", 0.0), doc.get("trS", 0.0),
                  *(part.get(k, 0.0) for part in (grad, dn) for k in ("lambda", "mu", "rho"))]
        if any(not isinstance(x, (int, float)) or isinstance(x, bool) for x in values):
            raise ValueError("curvature entries must be numbers")
        if not all(abs(x) <= sys.float_info.max for x in values):  # NaN, inf, ints beyond floats
            raise ValueError("curvature entries must be finite")
        return cls(*map(float, values))


def build_Y(st: IsoSurfaceState, curv: CurvatureData, derivs: IsoDerivatives | None = None):
    """The three curvature/gradient source matrices of the subprincipal solve.

    Y1 collects tr(S) z11 plus the collar derivative of z11 (chain rule over
    normal material derivatives and the metric stretch d_r |xi| = -s22 |xi|);
    Y2 is the tangential first-order coefficient correction times (iq)_11;
    Y3 contracts vertical against horizontal derivatives of the decay factor.
    All three are jointly linear in the curvature data.
    """
    if derivs is None:
        derivs = iso_scalar_derivatives(st)
    return _source_terms(st, curv, derivs)[:3]


def _source_terms(st: IsoSurfaceState, curv: CurvatureData, derivs: IsoDerivatives):
    """Y1, Y2, Y3 of build_Y and the blocks K, A, M, w1, w2 they are built from."""
    lam, mu, xi = st.lam, st.mu, st.xi_mag
    t, ut, b = st.t, st.ut, st.b
    blocks = iso_blocks(st)
    K = blocks.iq11

    dn = np.array([curv.dn_lambda, curv.dn_mu, curv.dn_rho])
    dr_zeta = derivs.zeta_partials[:, :3] @ dn + derivs.zeta_partials[:, 3] * (-curv.s22 * xi)
    Y1 = curv.trS * blocks.z11 + _zeta_matrix(*dr_zeta)

    a1m = np.array([
        [mu * curv.trS, curv.grad_mu_t],
        [curv.grad_lambda_t, mu * curv.trS + (lam + mu) * curv.s22],
    ])
    Y2 = a1m @ K

    gcs = 0.5 * st.c_s * (curv.grad_mu_t / mu - curv.grad_rho_t / st.rho)
    gcp = 0.5 * st.c_p * ((curv.grad_lambda_t + 2.0 * curv.grad_mu_t) / (lam + 2.0 * mu)
                          - curv.grad_rho_t / st.rho)
    sq_t = math.sqrt(1.0 - t)
    sq_ut = math.sqrt(1.0 - ut)
    M = np.array([[0.0, (ut - b) * sq_t], [(ut - b) * sq_t, 1j * (ut - t)]])
    w1 = np.array([(ut - b) * sq_t, -1j * (b - ut)])
    w2 = np.array([1j * (b - t), sq_ut - sq_t])
    A = np.diag([lam + 2.0 * mu, mu])
    Y3 = 1j * (derivs.Kdot.conj().T @ A @ ((gcs / xi) * derivs.Ks + (gcp / xi) * derivs.Kp
                                           + (curv.s22 / b) * M)) \
        + 1j * (mu * xi / (b * b)) * (curv.trS - curv.s22) * np.outer(w2.conj(), w1)
    return Y1, Y2, Y3, K, A, M, w1, w2


@dataclass(frozen=True)
class SubprincipalBreakdown:
    """All intermediates of the subprincipal evaluation at one state."""

    Y1: np.ndarray
    Y2: np.ndarray
    Y3: np.ndarray
    K: np.ndarray
    A: np.ndarray
    M: np.ndarray
    Kdot: np.ndarray
    Ks: np.ndarray
    Kp: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    X: np.ndarray
    re_zminus_vv: float       # Re(z_minus w | w) with w the scaled kernel
    im_trace: float           # gamma^2-scaled imaginary trace term
    gamma2_lambda0dot: float  # gamma^2-scaled radial eigenvalue slope
    N: float
    psub_direct: float
    psub_assembled: float


def subprincipal_p(st: IsoSurfaceState, curv: CurvatureData) -> SubprincipalBreakdown:
    """Subprincipal symbol of the Rayleigh operator at an on-variety state.

    Two routes are evaluated and returned: the closed-form display
    (psub_direct) and the assembly Re(z_minus w|w) + imaginary-trace term over
    the radial eigenvalue slope (psub_assembled), with w = (mt/2)(i(2-t) nu +
    2 sqrt(1-t) xi-hat) the scaled kernel vector.  They agree to rounding;
    a gap signals broken ingredients.
    """
    T = st.sigma_s ** 2  # the cubic root the state was built on
    if abs(st.t - T) > ON_SIGMA_TOL * (1.0 + T):
        raise ValueError(
            f"state must lie on the characteristic variety: t = {st.t}, root = {T}"
        )
    derivs = iso_scalar_derivatives(st)
    Y1, Y2, Y3, K, A, M, w1, w2 = _source_terms(st, curv, derivs)
    rhs = -2.0 * Y1 - Y2 - Y2.conj().T + Y3 + Y3.conj().T
    X = sylvester_solve(K, rhs)

    t = st.t
    mu, c_r = st.mu, st.c_r
    m = st.m
    ss2 = st.sigma_s ** 2
    tau_s, tau_p = st.tau_s, st.tau_p
    zdot2, zdot3 = derivs.zeta_dot[1], derivs.zeta_dot[2]
    s22, trS = curv.s22, curv.trS

    # the assembly runs at m's binary scale 2^e, in range for any units: w,
    # re_zminus_vv, im_trace and gamma2_lambda0dot are scaled exactly by 2^-e,
    # 2^-2e, 2^-3e and 2^-3e (the cube is m ** 3 scaled where that is a normal
    # float), so results in the float range keep every bit
    e = math.frexp(m)[1]
    w = (math.ldexp(m, -e) * t / 2.0) * np.array([1j * (2.0 - t), 2.0 * math.sqrt(1.0 - t)])
    re_zminus_vv = 0.5 * float(np.vdot(w, X @ w).real)
    with np.errstate(over="ignore", under="ignore"):
        cube = np.float64(m) ** 3
        cube = np.ldexp(cube, -3 * e) if sys.float_info.min <= cube < np.inf else math.ldexp(m, -e) ** 3
        im_trace = (
            cube / mu * c_r ** 2 * ss2 ** 3 * (4.0 - ss2) * (2.0 - ss2)
            * (2.0 * tau_s * zdot3 - (2.0 - ss2) * zdot2) * s22
            + 2.0 * cube * c_r * ss2 ** 3 * (2.0 - ss2)
            * (5.0 * ss2 - 4.0 - ss2 * ss2) * (trS - s22)
        ) / 16.0
        N = tau_s * (tau_p / tau_s + st.u * tau_s / tau_p + ss2 - 2.0)
        gamma2_lambda0dot = cube * ss2 ** 3 * (4.0 - ss2) * N
        psub_assembled = (np.ldexp(re_zminus_vv, -e) + im_trace) / gamma2_lambda0dot
        re_zminus_vv, im_trace, gamma2_lambda0dot = np.ldexp(
            [re_zminus_vv, im_trace, gamma2_lambda0dot], [2 * e, 3 * e, 3 * e])

    x11 = float(X[0, 0].real)
    x22 = float(X[1, 1].real)
    x12 = complex(X[0, 1])
    psub_direct = (
        (c_r / (2.0 * mu)) * (x11 * (2.0 - ss2) ** 2 + 4.0 * x22 * (1.0 - ss2)
                              + 4.0 * x12.imag * (2.0 - ss2) * tau_s)
        + (c_r ** 2 / mu) * (2.0 - ss2) * (2.0 * tau_s * zdot3 - (2.0 - ss2) * zdot2) * s22
        + 2.0 * c_r / (4.0 - ss2) * (2.0 - ss2) * (5.0 * ss2 - 4.0 - ss2 * ss2) * (trS - s22)
    ) / (16.0 * N)

    return SubprincipalBreakdown(
        Y1=Y1, Y2=Y2, Y3=Y3, K=K, A=A, M=M,
        Kdot=derivs.Kdot, Ks=derivs.Ks, Kp=derivs.Kp,
        w1=w1, w2=w2, X=X,
        re_zminus_vv=float(re_zminus_vv),
        im_trace=float(im_trace),
        gamma2_lambda0dot=float(gamma2_lambda0dot),
        N=float(N),
        psub_direct=float(psub_direct),
        psub_assembled=float(psub_assembled),
    )
