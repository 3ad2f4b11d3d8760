"""Built-in materials and seeded generators for tests and the selftest CLI."""

from __future__ import annotations

import numpy as np

from .material import (
    GPA,
    Material,
    StiffnessTensor,
    isotropic_stiffness,
    rotate_stiffness,
)


def isotropic_material(lam_gpa: float, mu_gpa: float, density: float, name: str = "") -> Material:
    return Material(
        stiffness=isotropic_stiffness(lam_gpa * GPA, mu_gpa * GPA),
        density=density,
        name=name or f"iso(lam={lam_gpa}GPa, mu={mu_gpa}GPa)",
    )


def poisson_solid(density: float = 2700.0) -> Material:
    """lam = mu benchmark material (c_r / c_s = 0.9194...)."""
    return isotropic_material(30.0, 30.0, density, name="poisson-solid")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def synthetic_anisotropic(seed: int, strength: float = 0.35, density: float = 4000.0) -> Material:
    """Rotated perturbation of an isotropic Voigt matrix, kept strongly convex.

    The perturbation is scaled so the smallest Kelvin eigenvalue keeps a
    (1 - strength) fraction of its isotropic value.
    """
    rng = np.random.default_rng(seed)
    lam = rng.uniform(20.0, 80.0) * GPA
    mu = rng.uniform(10.0, 50.0) * GPA
    base = isotropic_stiffness(lam, mu)
    pert = rng.standard_normal((6, 6))
    pert = 0.5 * (pert + pert.T)
    w = np.diag([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])
    eig_min = np.linalg.eigvalsh(base.mandel())[0]
    pert *= strength * eig_min / np.linalg.norm(w @ pert @ w, 2)
    stiff = StiffnessTensor(base.voigt + pert)
    stiff = rotate_stiffness(stiff, random_rotation(rng))
    mat = Material(stiffness=stiff, density=density, name=f"aniso-{seed}")
    assert np.linalg.eigvalsh(stiff.voigt)[0] > 0.0
    return mat


def random_isotropic(rng: np.random.Generator) -> Material:
    """Draw lam, mu in [0.1, 100] GPa and rho in [500, 12000] kg/m^3."""
    lam = rng.uniform(0.1, 100.0)
    mu = rng.uniform(0.1, 100.0)
    rho = rng.uniform(500.0, 12000.0)
    return isotropic_material(lam, mu, rho)
