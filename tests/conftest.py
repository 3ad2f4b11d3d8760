import numpy as np
import pytest

from surfimp.material import Material, SurfaceFrame, isotropic_stiffness
from surfimp.presets import isotropic_material, poisson_solid, synthetic_anisotropic
from surfimp.selftest import frame_rotation, random_frame  # noqa: F401  (shared by the test modules)


@pytest.fixture
def std_frame():
    return SurfaceFrame(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))


@pytest.fixture
def unit_iso():
    """lam = 2, mu = 1, rho = 1 in raw units; handy for closed-form checks."""
    return Material(stiffness=isotropic_stiffness(2.0, 1.0), density=1.0, name="unit-iso")


@pytest.fixture
def soft_iso():
    return isotropic_material(2.0, 1.0, 1000.0, name="soft-iso")


@pytest.fixture
def poisson():
    return poisson_solid()


@pytest.fixture
def aniso():
    return synthetic_anisotropic(1)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
