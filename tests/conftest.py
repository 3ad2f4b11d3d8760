import mpmath
import numpy as np
import pytest

import surfimp.rayleigh as rayleigh
from surfimp.material import Material, SurfaceFrame, isotropic_stiffness
from surfimp.presets import isotropic_material, poisson_solid, synthetic_anisotropic
from surfimp.selftest import frame_rotation, random_frame  # noqa: F401  (shared by the test modules)


def count_newton_min(monkeypatch) -> list:
    """Record the rows of every _Engine._newton_min call.  The first call of a
    c_lim batch refines every row of the batch from its start, and each
    further call is a recertification round of the rows the certificate
    rejected.  An unanchored scan is one batch, from the trace minimiser; an
    anchored scan chunk runs two, its anchors and then its other rows, from
    the anchors' interpolated sigma*."""
    calls = []
    newton_min = rayleigh._Engine._newton_min
    monkeypatch.setattr(rayleigh._Engine, "_newton_min",
                        lambda self, pre, rows, *a, **kw: calls.append(rows) or newton_min(self, pre, rows, *a, **kw))
    return calls


REFERENCE_NODES = 4001
REFERENCE_DPS = 30


def c_lim_reference(mat, nu, e, sigma_max) -> float:
    """c_lim along tangent e from 30-digit eigenvalues (mpmath).

    rho c_lim^2 = min over sigma of lam_min M(sigma), M = c(e + sigma nu).
    Every local minimum of lam_min on a REFERENCE_NODES-node float grid over
    [-sigma_max, sigma_max] seeds a bisection, between the seed's neighbouring
    nodes, on the sign of the Hellmann-Feynman derivative v0.M'(sigma) v0;
    the smallest value found is the minimum.
    """
    with mpmath.workdps(REFERENCE_DPS):
        c4 = mpmath.matrix(mat.tensor().reshape(9, 9).tolist())

        def contract(u, w):  # c(u, w)_ik = C_ijkl u_j w_l
            return mpmath.matrix([[mpmath.fsum(c4[3 * i + j, 3 * k + l] * u[j] * w[l]
                                               for j in range(3) for l in range(3))
                                   for k in range(3)] for i in range(3)])

        e, nu = [mpmath.mpf(x) for x in e], [mpmath.mpf(x) for x in nu]
        c_ee, mid, a = contract(e, e), contract(e, nu) + contract(nu, e), contract(nu, nu)

        def lowest(sigma):
            vals, vecs = mpmath.eigsy(c_ee + sigma * mid + sigma**2 * a)
            v0 = vecs[:, 0]
            return vals[0], (v0.T * (mid + 2 * sigma * a) * v0)[0]

        sigmas = np.linspace(-sigma_max, sigma_max, REFERENCE_NODES)
        s = sigmas[:, None, None]
        c_ee_f, mid_f, a_f = (np.array(m.tolist(), dtype=float) for m in (c_ee, mid, a))
        lam = np.linalg.eigvalsh(c_ee_f + s * mid_f + s * s * a_f)[:, 0]
        seeds = [i for i in range(1, sigmas.size - 1) if lam[i] <= min(lam[i - 1], lam[i + 1])]
        best = mpmath.inf
        tol = mpmath.mpf("1e-12")
        for i in seeds:
            lo, hi = mpmath.mpf(sigmas[i - 1]), mpmath.mpf(sigmas[i + 1])
            while hi - lo > tol * (1 + abs(lo)):
                x = (lo + hi) / 2
                if lowest(x)[1] < 0:
                    lo = x
                else:
                    hi = x
            best = min(best, lowest((lo + hi) / 2)[0], lowest(mpmath.mpf(sigmas[i]))[0])
        return float(mpmath.sqrt(best / mat.density))


def orthotropic_rayleigh_speed(voigt, rho) -> float | None:
    """Closed-form Rayleigh speed of an orthotropic medium, normal along axis 3
    and propagation along axis 1 (Chadwick & Smith 1977), or None.

    The sagittal motion decouples there, and X = rho c_r^2 is the root in
    (0, min(c11, c55)) of c33 c55 (c11 - X) X^2 = (c33 (c11 - X) - c13^2)^2 (c55 - X)
    whose unsquared form holds, c33 (c11 - X) - c13^2 > 0; the cubic is solved
    in 40-digit arithmetic (mpmath).
    """
    with mpmath.workdps(40):
        c11, c33, c13, c55 = (mpmath.mpf(float(voigt[i][j])) for i, j in ((0, 0), (2, 2), (0, 2), (4, 4)))
        a = c33 * c11 - c13**2
        # c33 c55 (c11 - X) X^2 - (a - c33 X)^2 (c55 - X), highest power first
        coeffs = [c33**2 - c33 * c55, c33 * c55 * c11 - c33**2 * c55 - 2 * a * c33,
                  2 * a * c33 * c55 + a**2, -a**2 * c55]
        top = min(c11, c55)
        roots = [r.real for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=80)
                 if abs(r.imag) <= mpmath.mpf("1e-30") * top and 0 < r.real < top and a - c33 * r.real > 0]
        assert len(roots) <= 1
        return float(mpmath.sqrt(roots[0] / rho)) if roots else None


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
