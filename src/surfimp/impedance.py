"""Surface impedance tensor z = i(a q + a1) with its identity diagnostics,
and small dense Sylvester solves.

On the elliptic region z is Hermitian with positive definite real part; it
satisfies the Riccati identity (z + i a1*) a^{-1} (z - i a1) = a2 - rho and
the Barnett-Lothe relation Re z = pi f0^{-1}, with f0 the integral-route
moment of `polyfactor.factor_integral`.  Both are exposed as relative
residuals rather than assumptions, taken with `material.norm_ratio` and so
free of the units of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .material import _norm, norm_ratio
from .polyfactor import QuadraticPencil, SpectralFactor, FactorizationError

HERMITICITY_FAIL = 1e-6
NONPOSITIVE_EIG_TOL = 1e-9  # lambda <= tol * |z| counts as non-positive
SEPARATION_TOL = 1e-10


class SpectralSeparationError(RuntimeError):
    """Sylvester operator is (near-)singular: spectra are not separated."""


@dataclass(frozen=True)
class ImpedanceData:
    """Hermitian-symmetrized impedance z with the relative residuals of its identities.

    The factor q it was built from is the caller's, in the SpectralFactor
    passed to impedance_tensor.
    """

    z: np.ndarray          # (3,3) complex, Hermitian part of i(aq + a1)
    hermiticity: float
    riccati: float
    re_z_positive_definite: bool
    nonpositive_eigenvalues: int  # of z itself; uniqueness needs <= 1


def riccati_residual(z: np.ndarray, p: QuadraticPencil) -> float | np.ndarray:
    """|(z + i a1^T) a^{-1} (z - i a1) - (a2 - rho)| / |a2 - rho|.

    Broadcasts over a leading row axis of z, a1 and a2, returning one
    residual per row.
    """
    lhs = (z + 1j * np.swapaxes(p.a1, -1, -2)) @ np.linalg.solve(p.a, z - 1j * p.a1)
    res = norm_ratio(lhs - p.c, p.c)
    return float(res) if res.ndim == 0 else res


def barnett_lothe_residual(z: np.ndarray, f0: np.ndarray) -> float:
    """|Re z - pi f0^{-1}| / |z|, with f0 from `polyfactor.factor_integral`."""
    return float(norm_ratio(z.real - np.pi * np.linalg.inv(f0), z))


def impedance_from_factor(a: np.ndarray, a1: np.ndarray, q: np.ndarray):
    """(z_raw, z): z_raw = i(a q + a1) and its Hermitian part, over a leading row axis of a1 and q."""
    z_raw = 1j * (a @ q + a1)
    return z_raw, 0.5 * (z_raw + np.swapaxes(z_raw.conj(), -1, -2))


def impedance_tensor(p: QuadraticPencil, sf: SpectralFactor) -> ImpedanceData:
    """Impedance z = i(a q + a1), Hermitian-symmetrized by impedance_from_factor.

    The raw hermiticity defect is kept as a diagnostic; a defect above 1e-6
    signals a broken factorization upstream and raises.  It and the bound of
    a non-positive eigenvalue are relative to one unit-free _norm(z_raw).  The
    Barnett-Lothe identity needs f0, which only the integral route computes: a
    caller holding `factor_integral(p).f0` checks it with `barnett_lothe_residual`.
    """
    z_raw, z = impedance_from_factor(p.a, p.a1, sf.q)
    (norm_d, e_d), (norm_z, e_z) = _norm(z_raw - z_raw.conj().T), _norm(z_raw)
    defect = float(np.ldexp(norm_d / norm_z, e_d - e_z))
    if defect > HERMITICITY_FAIL:
        raise FactorizationError(
            f"impedance hermiticity defect {defect:.3e} exceeds {HERMITICITY_FAIL}; "
            "spectral factorization is unreliable at this point"
        )
    eig_z = np.ldexp(np.linalg.eigvalsh(z), -e_z)  # scaled by 2^-e_z, as norm_z is
    return ImpedanceData(
        z=z,
        hermiticity=defect,
        riccati=riccati_residual(z, p),
        re_z_positive_definite=bool(np.linalg.eigvalsh(z.real)[0] > 0.0),
        nonpositive_eigenvalues=int(np.sum(eig_z <= NONPOSITIVE_EIG_TOL * norm_z)),
    )


def sylvester_solve(a: np.ndarray, b: np.ndarray, lam: np.ndarray | None = None) -> np.ndarray:
    """Solve A* X + X A = B by the dense Kronecker system.

    Broadcasts over a leading row axis of A and B.  Requires the spectra of
    A and -A* to be separated in every row; for A = i q with spec(q) in the
    lower half-plane the separation is automatic and the integral
    representation X = int_0^inf exp(-rA)* B exp(-rA) dr applies, so
    Hermitian positive definite B yields Hermitian positive definite X.
    The separation min |lam_j + conj lam_k| must exceed SEPARATION_TOL max |lam_j|,
    free of units, on lam, the eigenvalues of A (shape A.shape[:-1]) when the
    caller already has them, else on eigvals(A).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[-1]
    if lam is None:
        lam = np.linalg.eigvals(a)
    sep = np.min(np.abs(lam[..., :, None] + lam.conj()[..., None, :]), axis=(-2, -1))
    bad = sep <= SEPARATION_TOL * np.abs(lam).max(axis=-1)
    if np.any(bad):
        raise SpectralSeparationError(
            f"spec(A) and spec(-A*) too close: separation {np.min(sep[bad]):.3e}"
        )
    # Row-major vec: vec(A* X) = (A* x I) vec X, vec(X A) = (I x A^T) vec X.
    op = np.zeros(a.shape[:-2] + (n, n, n, n), dtype=complex)
    for k in range(n):
        op[..., :, k, :, k] += a.conj().swapaxes(-1, -2)
        op[..., k, :, k, :] += a.swapaxes(-1, -2)
    op = op.reshape(*a.shape[:-2], n * n, n * n)
    x = np.linalg.solve(op, b.reshape(*b.shape[:-2], n * n, 1))
    return x.reshape(b.shape)


def radial_derivative_z(z: np.ndarray, q: np.ndarray, rho: float,
                        s: np.ndarray | None = None) -> np.ndarray:
    """Radial derivative zdot = (d/dt)|_{t=1} z(t xi) of the impedance z with factor q.

    zdot - z solves (iq)*(zdot - z) + (zdot - z)(iq) = 2 rho Id and is
    therefore positive definite; in particular det z is strictly increasing
    through its zero along each radial line.  Broadcasts over a leading row
    axis of z and q.  s, the eigenvalues of q when the caller has them,
    gives sylvester_solve the spectrum i s of iq for its separation check.
    """
    lam = None if s is None else 1j * np.asarray(s)
    x = sylvester_solve(1j * q, np.broadcast_to(2.0 * rho * np.eye(3), np.shape(q)), lam)
    return z + x


def solve_zminus(q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the subprincipal-impedance relation z_minus q - q* z_minus = rhs.

    The right-hand side carries boundary curvature and material-gradient data
    assembled by the caller.  With A = i q this is A* X + X A = i rhs, solved
    by `sylvester_solve`; the separation it requires holds because spec(q)
    and spec(q*) lie in opposite half-planes.
    """
    return sylvester_solve(1j * np.asarray(q), 1j * np.asarray(rhs))
