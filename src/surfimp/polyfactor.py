"""Quadratic matrix pencil f(s) = a s^2 + (a1+a1^T) s + a2 - rho and its
spectral factorization f(s) = (s - q*) a (s - q), spec(q) in the lower
half-plane.

Two independent routes compute q: collecting the decaying eigenpairs of the
companion linearization (fast, primary), and a contour-free integral
representation a q f0 = -pi i Id + f1 built from f(s)^{-1} over the real
line (derivative-free, robust fallback and cross-check), one periodic
trapezoid sum in theta = arctan(s / scale).
The eigen route has one batched implementation, companion_eig then
factor_from_eig, in a batch of one (spectral_factor) or of many (the
Rayleigh scan engine), and so has the rule that accepts a q: a row failing
factor_from_eig's guard or residual_breaches is re-factored by
integral_fallback.  build_pencil at xi_mag = 1 / c gives the engine row at
speed c, so q and z agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .material import Material, SurfaceFrame, _norm, _readonly, acoustic_tensor, norm_ratio

ELLIPTICITY_MARGIN = 1e-8
RESIDUAL_TOL = 1e-8
COND_LIMIT = 1e8
QUAD_RELTOL = 1e-10
QUAD_MAX_NODES = 16384
# sample speeds of the factorization residual, in units of sqrt(|c| / |a|)
_RESIDUAL_SPEEDS = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])


class NonEllipticError(ValueError):
    """Pencil has (near-)real spectrum or indefinite f(0); no factorization."""


class EigenSolverError(RuntimeError):
    """The dense eigensolver failed to converge on the companion matrix."""


class FactorizationError(RuntimeError):
    """Both factorization routes missed the residual tolerance."""


class QuadratureError(RuntimeError):
    """Node-doubling quadrature did not reach the requested tolerance."""


@dataclass(frozen=True)
class QuadraticPencil:
    """Coefficients a = c(nu), a1 = c(nu, xi), a2 = c(xi), and density rho."""

    a: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    rho: float

    def __post_init__(self):
        for name in ("a", "a1", "a2"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def b(self) -> np.ndarray:
        """First-order coefficient a1 + a1^T."""
        return self.a1 + np.swapaxes(self.a1, -1, -2)

    @property
    def c(self) -> np.ndarray:
        """Zeroth-order coefficient a2 - rho Id."""
        return self.a2 - self.rho * np.eye(3)

    def __call__(self, s) -> np.ndarray:
        """Evaluate f(s); selfadjoint with real coefficients for real s."""
        return self.a * s * s + self.b * s + self.c


def build_pencil(mat: Material, frame: SurfaceFrame, xi_mag: float) -> QuadraticPencil:
    """Pencil of the half-space problem at tangential covector xi = xi_mag * tangent.

    a1 = c(nu, tangent) xi_mag and a2 = c(tangent) (xi_mag xi_mag): bit for bit
    the scan engine's row at speed 1 / xi_mag.
    """
    if not xi_mag > 0:
        raise ValueError(f"xi_mag must be positive, got {xi_mag}")
    c4 = mat.tensor()
    a = acoustic_tensor(c4, frame.nu)
    if np.linalg.eigvalsh(a)[0] <= 0.0:
        raise ValueError("c(nu) is not positive definite; material is not strongly elliptic")
    return QuadraticPencil(a=a, a1=acoustic_tensor(c4, frame.nu, frame.tangent) * xi_mag,
                           a2=acoustic_tensor(c4, frame.tangent) * (xi_mag * xi_mag), rho=mat.density)


def root_margins(values: np.ndarray) -> np.ndarray:
    """|Im s| / (max_j |s_j| + |s|) per root s of one or more spectra (last axis), free of the units of s."""
    mag = np.abs(values)
    return np.abs(values.imag) / (mag.max(axis=-1, keepdims=True) + mag)


def companion_eig(a_inv: np.ndarray, a1: np.ndarray, a2: np.ndarray, rho: float):
    """Eigenpairs of the first companion forms of a^{-1} f, one per row of a1, a2.

    Returns (values, vectors) of shapes (m, 6) and (m, 6, 6); the top half
    of each eigenvector is the pencil's.  a is positive definite, so the
    companion form is stable.
    """
    comp = np.zeros((a1.shape[0], 6, 6))
    comp[:, :3, 3:] = np.eye(3)
    comp[:, 3:, :3] = -a_inv @ (a2 - rho * np.eye(3))
    comp[:, 3:, 3:] = -a_inv @ (a1 + np.swapaxes(a1, -1, -2))
    try:
        return np.linalg.eig(comp)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"companion eigensolver failed: {exc}") from exc


def factor_from_eig(vals: np.ndarray, vecs: np.ndarray):
    """q, spec(q) and the eigen-route guard per row from companion eigenpairs.

    q V = V diag(s) on the three lowest roots.  A row passes the guard when
    exactly three roots have Im s < 0, the spectral margin exceeds
    ELLIPTICITY_MARGIN, and |V|_F |V^-1|_F <= COND_LIMIT on unit columns
    (this Frobenius product never sits below cond_2).
    """
    order = np.argsort(vals.imag, axis=1)[:, :3]
    idx = np.arange(len(vals))[:, None]
    s3 = vals[idx, order]
    v = vecs[idx, :3, order].transpose(0, 2, 1)
    v_inv = np.linalg.inv(v)
    q = (v * s3[:, None, :]) @ v_inv
    # V D^-1 has unit columns for D = diag(|v_j|), so its cond_2 is at
    # most |V D^-1|_F |D V^-1|_F = sqrt(3) |D V^-1|_F
    cond_sq = 3.0 * np.einsum("mij,mjk->m", np.abs(v) ** 2, np.abs(v_inv) ** 2)
    # a real matrix has a conjugation-closed spectrum: when the three
    # lowest roots lie below the real axis, exactly three do
    ok = ((s3[:, 2].imag < 0.0)
          & (root_margins(vals).min(axis=1) > ELLIPTICITY_MARGIN)
          & (cond_sq <= COND_LIMIT ** 2))
    return q, s3, ok


@dataclass(frozen=True)
class EllipticityResult:
    elliptic: bool
    margin: float


def is_elliptic(p: QuadraticPencil) -> EllipticityResult:
    """f(s) positive definite for all real s, with a relative spectral margin.

    Equivalent check: the pencil spectrum stays off the real axis (margin
    above ELLIPTICITY_MARGIN) and f(0) is positive definite.
    """
    return _ellipticity(p, companion_eig(np.linalg.inv(p.a), p.a1[None], p.a2[None], p.rho)[0])


def _ellipticity(p: QuadraticPencil, vals: np.ndarray) -> EllipticityResult:
    """is_elliptic from the (1, 6) eigenvalues of the pencil's companion form."""
    margin = float(root_margins(vals[0]).min())
    f0_pd = bool(np.linalg.eigvalsh(0.5 * (p.c + p.c.T))[0] > 0.0)
    return EllipticityResult(elliptic=bool(margin > ELLIPTICITY_MARGIN) and f0_pd, margin=margin)


@dataclass(frozen=True)
class SpectralFactor:
    """Factor q with spec(q) in the lower half-plane, plus residual diagnostics."""

    q: np.ndarray
    method: str                      # "eigen" or "integral"
    residual_solvency: float
    residual_factorization: float
    spectral_margin: float


def _root_scale(a: np.ndarray, c: np.ndarray):
    """sqrt(|c| / |a|), the pencil's root magnitude, over a leading row axis of c.

    The exponents of _norm are combined after the square root, so nothing
    underflows or overflows; where the unscaled norms are normal floats, the
    result is bit for bit sqrt(norm(c) / norm(a)) over the same axes.
    """
    (norm_c, e_c), (norm_a, e_a) = _norm(c), _norm(a)
    e = e_c - e_a
    return np.ldexp(np.sqrt(np.ldexp(norm_c / norm_a, e % 2)), e // 2)


def factor_residual_rows(p: QuadraticPencil, q: np.ndarray):
    """(solvency, factor_max) of q, one entry per row over a leading row axis of q, a1 and a2, if any.

    solvency   = |a q^2 + (a1+a1^T) q + a2 - rho| / |a2|
    factor_max = max over s in {-3,-1,0,1,3} * _root_scale of
                 |f(s) - (s-q*) a (s-q)| / |f(s)|
    The factorization gap f(s) - (s-q*) a (s-q) = s (b + a q + q* a) + c - q* a q
    is evaluated at the five speeds at once.
    """
    a, b, c = p.a, p.b, p.c
    solvency = norm_ratio(a @ q @ q + b @ q + c, p.a2)
    q_adj_a = np.swapaxes(q.conj(), -1, -2) @ a
    lin = (b + a @ q + q_adj_a)[..., None, :, :]
    const = (c - q_adj_a @ q)[..., None, :, :]
    s = (_RESIDUAL_SPEEDS * _root_scale(a, c)[..., None])[..., None, None]
    a, b, c = a[..., None, :, :], b[..., None, :, :], c[..., None, :, :]
    f = a * s * s + b * s + c
    return solvency, np.max(norm_ratio(s * lin + const, f), axis=-1)


def _integrate_f0_f1(p: QuadraticPencil, n: int):
    """f0, f1 by the n-node trapezoid rule over theta in [0, pi), s = scale tan(theta).

    f(s) = sec^2(theta) D with D = (scale sin)^2 a + scale sin cos b + cos^2 c,
    so f0 = scale int D^-1 and, less the odd Id s / (s^2 + scale^2), f1 =
    int [(scale^2 a - c) sin cos - scale sin^2 b] D^-1: smooth pi-periodic
    integrands.  scale^2 a is formed as scale (scale a), of size |c|.
    """
    scale = float(_root_scale(p.a, p.c))
    theta = math.pi * np.arange(n) / n
    sin, cos = np.sin(theta)[:, None, None], np.cos(theta)[:, None, None]
    a, b = scale * (scale * p.a), scale * p.b
    d_inv = np.linalg.inv(sin * sin * a + sin * cos * b + cos * cos * p.c)
    f0 = (scale * math.pi / n) * d_inv.sum(axis=0)
    f1 = (math.pi / n) * np.einsum("mij,mjk->ik", sin * cos * (a - p.c) - sin * sin * b, d_inv)
    return f0, f1


@dataclass(frozen=True)
class IntegralFactor:
    f0: np.ndarray
    f1: np.ndarray
    q: np.ndarray
    nodes: int


def factor_integral(p: QuadraticPencil) -> IntegralFactor:
    """Integral route: f0 = int f(s)^{-1} ds (Hermitian positive definite),
    f1 = lim_R int_-R^R s a f(s)^{-1} ds, and q = a^{-1} (-pi i Id + f1) f0^{-1}.

    The pencil must be elliptic (is_elliptic); this is not checked here.
    Nodes per period double (64, 128, ...) until each factor of q, f0 and
    f1 - pi i Id, changes by less than QUAD_RELTOL of its own norm (norm_ratio,
    free of units); past QUAD_MAX_NODES, after at most 64 + 128 + ... + 16384
    = 32704 3x3 inversions, QuadratureError is raised.
    """
    n = 64
    prev = None
    while n <= QUAD_MAX_NODES:
        f0, f1 = _integrate_f0_f1(p, n)
        factors = np.stack([f0, f1 - 1j * math.pi * np.eye(3)])
        if prev is not None and norm_ratio(factors - prev, factors).max() < QUAD_RELTOL:
            break
        prev = factors
        n *= 2
    else:
        raise QuadratureError(
            f"f0/f1 quadrature did not converge below {QUAD_RELTOL} with {QUAD_MAX_NODES} nodes"
        )
    q = np.linalg.solve(p.a, factors[1] @ np.linalg.inv(f0))
    return IntegralFactor(f0=f0, f1=f1, q=q, nodes=n)


def residual_breaches(p: QuadraticPencil, q: np.ndarray):
    """(breach, solvency, factor_max): rows of q breaking RESIDUAL_TOL, NaN included, and their residuals."""
    solvency, factor_max = factor_residual_rows(p, q)
    return ~(np.maximum(solvency, factor_max) <= RESIDUAL_TOL), solvency, factor_max


def integral_fallback(p: QuadraticPencil, q: np.ndarray, s: np.ndarray, rows: np.ndarray):
    """Re-factor q and s = spec(q) in place by factor_integral on the rows in the mask rows.

    Over a leading row axis of p, q and s; each pencil row must be elliptic, and
    FactorizationError is raised where a new q breaches RESIDUAL_TOL.
    """
    for k in np.flatnonzero(rows):
        row = QuadraticPencil(p.a[k], p.a1[k], p.a2[k], p.rho)
        q[k] = factor_integral(row).q
        breach, solvency, factor_max = residual_breaches(row, q[k])
        if breach:
            raise FactorizationError(f"both routes exceeded residual tolerance: solvency {solvency:.3e}, "
                                     f"factorization {factor_max:.3e}")
        s[k] = np.linalg.eigvals(q[k])


def spectral_factor(p: QuadraticPencil) -> SpectralFactor:
    """Unique q with f(s) = (s - q*) a (s - q) and spec(q) in Im < 0.

    One companion eigensolve gives the ellipticity test and the primary
    route, q V = V diag(S) on the three decaying eigenpairs; a q failing
    factor_from_eig's guard or residual_breaches comes from integral_fallback.
    """
    vals, vecs = companion_eig(np.linalg.inv(p.a), p.a1[None], p.a2[None], p.rho)
    ell = _ellipticity(p, vals)
    if not ell.elliptic:
        raise NonEllipticError(f"pencil is not elliptic (margin {ell.margin:.3e})")
    q, s3, ok = factor_from_eig(vals, vecs)
    breach, solvency, factor_max = residual_breaches(p, q[0])
    integral = not ok[0] or breach
    if integral:
        integral_fallback(QuadraticPencil(p.a[None], p.a1[None], p.a2[None], p.rho), q, s3, [True])
        _, solvency, factor_max = residual_breaches(p, q[0])
    return SpectralFactor(q[0], "integral" if integral else "eigen", float(solvency), float(factor_max),
                          ell.margin)
