"""Rayleigh-wave speeds on the characteristic variety det z = 0.

Along each radial line in the elliptic region the impedance determinant
crosses zero at most once, transversally; the crossing speed c_r is the
Rayleigh speed, strictly below the limiting speed c_lim at the boundary of
the elliptic region.

One vectorized engine per material finds every root, each row with its own
normal nu (a scan's rows share one); a single point is a batch of one.
c_lim comes from the smallest eigenvalue of c(e + sigma nu) over sigma:
safeguarded Newton steps (Hellmann-Feynman derivatives from one batched eigh
per round) start at the minimiser of tr c(e + sigma nu).  The companion
eigensolve at the root bracket's upper end certifies the minimum; a nearly
real root s there marks a valley the steps missed, at sigma = Re(s) c, which
the same steps refine before the row is certified again.  Below c_lim the
root is the zero of g(c) = c lambda_min z(e / c), which falls with
dg/dc = -u0* X u0, X = zdot - z positive definite (zdot the radial
derivative); safeguarded Newton steps on g in t = sqrt(1 - c / c_lim), where
the square-root branch of z at c_lim is smooth, converge inside the bracket
(0, 1 - 1e-6] c_lim.  The certificate of c_lim also decides whether a root
exists (_Engine.limiting_speeds).  Each speed is eigensolved once: c_r is
the speed of the last Newton round, whose evaluation gives the kernel,
residuals and radial slope.
Rows failing polyfactor.factor_from_eig's guard, and roots whose q fails
polyfactor.residual_breaches, are re-factored by polyfactor.integral_fallback.
c_r and the argmin sigma* are smooth functions of the direction in the
elliptic region, so in a scan of at least _MIN_ANCHORED_ROWS directions the
anchors, rows 0, _ANCHOR_STRIDE, 2 _ANCHOR_STRIDE, ..., are solved first,
their c_lim from the trace minimiser and their roots from 0.95 c_lim.  Each
other row then starts its c_lim Newton steps at the quintic interpolant, in
theta and wrapped by 2 pi, of its six nearest anchors' sigma*, and its
root's at that of their c_r, or at 0.95 c_lim where one of them has no
root.  In smaller scans every row is an anchor.  A scan runs in two passes,
the anchors and then the other rows, each cut into blocks of one
share per RAYLEIGH_THREADS worker clamped to [_MIN_CHUNKED_ROWS, _BLOCK_ROWS]
rows, which the workers of one pool take from one queue (numpy releases the
GIL inside LAPACK).  A block is one prepare and one _solve_rows call
(_scan_chunk), so each row is solved once and memory grows with the block,
not with n.  A row depends only on itself and its anchors' columns, so no
byte of a scan depends on the block size or the worker count.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import polyfactor
from .material import Material, SurfaceFrame, acoustic_tensor, norm_ratio, unit_vector, validate_stiffness
from .impedance import impedance_from_factor, radial_derivative_z, riccati_residual
from .polyfactor import (
    QuadraticPencil,
    companion_eig,
    factor_from_eig,
    integral_fallback,
    residual_breaches,
    root_margins,
)

ROOT_RTOL = 1e-12
START_OFFSET = 1e-6
_GAP_RTOL = 1e-8
_NEWTON_FTOL = 1e-13
_ROOT_MAX_ROUNDS = 100
_NEWTON_MIN_MAX_ROUNDS = 60
_ANCHOR_STRIDE = 8
# smaller scans solve every row as an anchor: there the anchors lie too far
# apart for the interior rows' shorter Newton runs to repay a second root pass
_MIN_ANCHORED_ROWS = 512
_MIN_CHUNKED_ROWS = 64  # the smallest block: a pass of at most this many rows is one block, a scan of them no pool
_BLOCK_ROWS = 1024  # the largest block, a multiple of _ANCHOR_STRIDE; it bounds a scan's memory
KERNEL_PHASE_CUTOFF = 1e-6

SCAN_CSV_HEADER = (
    "theta_rad,c_lim_mps,exists,c_r_mps,slope,"
    "v_re_0,v_im_0,v_re_1,v_im_1,v_re_2,v_im_2,res_kernel,res_riccati"
)


class BracketError(RuntimeError):
    """The material is not strongly elliptic, or a c_lim cannot be certified."""


@dataclass(frozen=True)
class RayleighPoint:
    """Rayleigh-root data along one radial line (exists=False is a result)."""

    direction: np.ndarray
    c_lim: float
    exists: bool
    c_r: float | None = None
    kernel: np.ndarray | None = None
    slope: float | None = None
    res_kernel: float | None = None
    res_riccati: float | None = None


def rayleigh_point(mat: Material, frame: SurfaceFrame) -> RayleighPoint:
    """Root of det z(tangent / c) on (0, c_lim), with kernel and radial slope.

    Runs the scan pipeline on a batch of one, c_lim included: Newton steps
    on c lambda_min z in t = sqrt(1 - c / c_lim) from 0.95 c_lim, inside
    (0, 1 - 1e-6] c_lim.  c_r is the last iterate, whose step falls to
    relative 1e-12 and whose evaluation gives the kernel, slope and residuals.
    exists=False when lambda_min z > 0 at (1 - 1e-6) c_lim or <= 0 at c -> 0.
    """
    dirs, none = frame.tangent[None, :], np.full(1, np.nan)
    c_lim, exists, _, *rest = _scan_chunk(_Engine(mat), frame.nu, dirs, none, none)
    return DirectionScan(np.zeros(1), c_lim, exists, *rest, directions=dirs).point(0)


def eval_p(mat: Material, frame: SurfaceFrame, xi) -> float:
    """Degree-one homogeneous p with p = 1 exactly on the variety det z = 0.

    p(xi) = |xi| * c_r(xi / |xi|); raises when no Rayleigh root exists along
    the ray.
    """
    direction, mag = unit_vector(xi, "xi")
    pt = rayleigh_point(mat, SurfaceFrame(frame.nu, direction))
    if not pt.exists:
        raise BracketError("no Rayleigh root along this ray (E1 fails here)")
    return mag * pt.c_r


# --- vectorized direction-scan engine --------------------------------------


class _Engine:
    """Batched impedance evaluations of one material; each prepare holds its rows' normals and tangents.

    Raises BracketError unless the material is strongly elliptic.
    """

    def __init__(self, mat: Material):
        report = validate_stiffness(mat.stiffness)
        if not report.elliptic:
            raise BracketError("material is not strongly elliptic")
        # with delta at least half the sampled ellipticity constant,
        # c(e + sigma nu) >= delta (1 + sigma^2) exceeds lam_max >= eig_min c(e)
        # beyond sigma_max, so every minimum over sigma lies in [-sigma_max, sigma_max]
        lam_max = float(np.linalg.eigvalsh(mat.stiffness.mandel())[-1])
        self.sigma_max = math.sqrt(lam_max / (0.5 * report.ellipticity_constant)) + 1.0
        self.convex = report.convex
        self.c4 = mat.tensor()
        self.rho = mat.density

    def prepare(self, nu: np.ndarray, dirs: np.ndarray) -> dict:
        """a = c(nu), a^-1, c_ee = c(e), c_ne = c(nu, e) and mid = c_ne + c_ne^T per row e of dirs.

        nu is one normal per row, or one for all, whose a is one matrix broadcast over the rows.
        """
        a = acoustic_tensor(self.c4, nu)
        c_ne = acoustic_tensor(self.c4, nu, dirs)
        shape = (len(dirs), 3, 3)
        return {"dirs": dirs, "a": np.broadcast_to(a, shape), "a_inv": np.broadcast_to(np.linalg.inv(a), shape),
                "c_ee": acoustic_tensor(self.c4, dirs), "c_ne": c_ne, "mid": c_ne + c_ne.transpose(0, 2, 1)}

    def _eigmin_along(self, pre: dict, sigma: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(m, 3) columns f, f', f'' of f = smallest eigenvalue of M = c(e + sigma nu) at the rows of pre.

        One batched eigh gives them by Hellmann-Feynman, with M' = mid + 2 sigma a (the row's a):
        f' = v0.M'v0 and f'' = 2 v0.a v0 + 2 sum_k (v_k.M'v0)^2 / (f - lam_k).
        f'' is nan where the lowest gap is degenerate (below _GAP_RTOL lam_max).
        """
        s, a, mid = sigma[:, None, None], pre["a"][rows], pre["mid"][rows]
        lam, vec = np.linalg.eigh(s * mid + pre["c_ee"][rows] + (s * s) * a)
        v0 = vec[:, :, 0]
        coupling = np.einsum("mik,mij,mj->mk", vec, 2.0 * s * a + mid, v0)
        gap = lam[:, 1:] - lam[:, :1]
        ok = gap[:, 0] > _GAP_RTOL * lam[:, 2]
        curv = 2.0 * np.einsum("mi,mij,mj->m", v0, a, v0)
        # the squared couplings are summed at the spectrum's binary scale 2^e,
        # exact and in range for any units of the input
        e = np.frexp(lam[:, 2:])[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.sum(np.ldexp(coupling[:, 1:], -e) ** 2 / np.ldexp(gap, -e), axis=1)
        d2 = curv - 2.0 * np.ldexp(scaled, e[:, 0])
        return np.stack([lam[:, 0], coupling[:, 0], np.where(ok, d2, np.nan)], axis=1)

    def limiting_speeds(self, pre: dict, start: np.ndarray):
        """c_lim, exists and sigma* of each row of pre, from min over sigma of eig_min c(e + sigma nu).

        The minimum value over the line equals rho * c_lim^2: smaller speeds
        keep c(xi + s nu) - rho |xi|^-2-scaled positive definite for all real s.
        Safeguarded Newton steps (_newton_min) start at start, one entry per
        row, where it is finite, else (nan) at the minimiser of tr c(e + sigma nu),
        sigma = -tr mid / (2 tr a), which is 0 and the argmin for isotropic
        media, inside a bracket that covers [-sigma_max, sigma_max].  Each
        estimate is certified at the root bracket's upper end
        (1 - START_OFFSET) c_lim, where every root of the pencil must keep a
        margin relative to the spectrum (root_margins) above
        ELLIPTICITY_MARGIN.  A row that fails has a nearly real root s,
        so the steps missed a valley near sigma = Re(s) c: the same refinement
        runs from there, and the row is certified again.  Below c_lim the
        eigenvalues of z fall as c rises and at most one is not positive, so
        a Rayleigh root exists exactly when lambda_min z > 0 at low speed, as
        for every positive definite c (Barnett & Lothe), and <= 0 at the
        certified speed, read from the eigensolve that certified the row;
        where c is not positive definite, the low-speed sign is read from the
        static impedance (c -> 0).  sigma* is the sigma of each row's minimum.
        BracketError is raised when a minimum is not positive, or when a round
        does not strictly lower a failing row's minimum.
        """
        m = len(pre["dirs"])
        sigma = -np.trace(pre["mid"], axis1=1, axis2=2) / (2.0 * np.trace(pre["a"], axis1=1, axis2=2))
        sigma = np.where(np.isfinite(start), start, sigma)
        todo = np.arange(m)
        fmin, argmin, lowest = np.full(m, np.inf), np.empty(m), np.empty(m)
        while True:
            f, x = self._newton_min(pre, todo, sigma, self.sigma_max + np.abs(sigma))
            if np.any(f >= fmin[todo]):
                raise BracketError("c_lim not certified: refining the valley below the estimate "
                                   "did not lower it")
            if not np.all(f > 0.0):
                raise BracketError("c(e + sigma nu) is not positive definite along some direction; "
                                   "material is not strongly elliptic")
            fmin[todo], argmin[todo] = f, x
            c = (1.0 - START_OFFSET) * np.sqrt(f / self.rho)
            vals, vecs, a, a1, a2 = self._eig(pre, c, todo)
            margin = root_margins(vals)
            ok = margin.min(axis=1) > polyfactor.ELLIPTICITY_MARGIN
            z = self._factor(vals[ok], vecs[ok], a[ok], a1[ok], a2[ok])[3]
            lowest[todo[ok]] = np.linalg.eigvalsh(z)[:, 0]
            if np.all(ok):
                break
            bad = ~ok
            # c^2 f(s) = c(e + sigma nu) - rho c^2 at sigma = s c, so the
            # nearly real root marks a valley below the estimate
            todo, c = todo[bad], c[bad]
            sigma = vals[bad, np.argmin(margin[bad], axis=1)].real * c
        exists = lowest <= 0.0
        if not self.convex:  # f may be negative at every speed: test c f at c -> 0
            k, static = np.flatnonzero(exists), copy.copy(self)
            static.rho = 0.0  # c z(e / c) -> z of the pencil at unit speed without inertia
            exists[k] = np.linalg.eigvalsh(static.impedance_at(pre, np.ones(k.size), k)[3])[:, 0] > 0.0
        return np.sqrt(fmin / self.rho), exists, argmin

    def _newton_min(self, pre, rows, x, h):
        """Smallest f seen on each bracket [x - h, x + h] by safeguarded Newton on f', and where.

        Starts from the centre x; h = sigma_max + |x| makes the bracket cover
        [-sigma_max, sigma_max].  Each round evaluates f, f', f'' at every
        live row, shrinks the bracket to the side where f' points downhill,
        and steps by Newton when f'' > 0 and the step lands inside the
        bracket, else bisects.  An iterate whose f exceeds the start's takes
        no Newton step and cannot stop the row; it becomes the bracket end on
        its side of the best point.  Otherwise a search started on the slope
        into a deep valley, whose first bisection lands beyond a ridge, would
        follow Newton steps into a shallower valley and return its own start.
        A row stops when the predicted decrease |f' step| falls to
        _NEWTON_FTOL f, so its result does not depend on the other rows of
        its batch.  Returns fmin and the iterate that gave it.
        """
        lo, hi, x = x - h, x + h, x.copy()
        fmin, argmin = np.full(rows.size, np.inf), x.copy()
        live = np.arange(rows.size)
        for it in range(_NEWTON_MIN_MAX_ROUNDS):
            if live.size == 0:
                break
            f, d1, d2 = self._eigmin_along(pre, x[live], rows[live]).T
            xl = x[live]
            if it == 0:
                fstart = f  # every row is live in the first round
            fmin[live] = np.minimum(fmin[live], f)
            argmin[live] = np.where(f == fmin[live], xl, argmin[live])
            up = f > fstart[live]
            # an iterate above the start takes its slope to point away from the best point
            d1 = np.where(up, xl - argmin[live], d1)
            lo[live] = np.where(d1 < 0.0, xl, lo[live])
            hi[live] = np.where(d1 > 0.0, xl, hi[live])
            with np.errstate(divide="ignore", invalid="ignore"):
                xn = xl - d1 / d2
            newton = ~up & (d2 > 0.0) & (xn > lo[live]) & (xn < hi[live])
            xn = np.where(newton, xn, 0.5 * (lo[live] + hi[live]))
            done = ~up & (np.abs(d1 * (xn - xl)) <= _NEWTON_FTOL * f)
            x[live] = xn
            live = live[~done]
        return fmin, argmin

    def _eig(self, pre: dict, speeds: np.ndarray, rows: np.ndarray):
        """Companion eigenpairs of a^{-1} f at xi = e / c of the rows of pre, with a, a1 and a2."""
        inv_c = 1.0 / speeds
        a1 = pre["c_ne"][rows] * inv_c[:, None, None]
        a2 = pre["c_ee"][rows] * (inv_c * inv_c)[:, None, None]
        return (*companion_eig(pre["a_inv"][rows], a1, a2, self.rho), pre["a"][rows], a1, a2)

    def _factor(self, vals, vecs, a, a1, a2):
        """q, a1, a2, z (Hermitian part) and spec(q) from companion eigenpairs.

        A row failing polyfactor.factor_from_eig's guard (three decaying
        roots, spectral margin, eigenvector conditioning) goes straight to
        integral_fallback, which gives it the spec(q) of its new q.
        """
        q, s3, ok = factor_from_eig(vals, vecs)
        if not np.all(ok):
            integral_fallback(QuadraticPencil(a, a1, a2, self.rho), q, s3, ~ok)
        return q, a1, a2, impedance_from_factor(a, a1, q)[1], s3

    def impedance_at(self, pre: dict, speeds: np.ndarray, rows: np.ndarray):
        """Batched q, a1, a2, z (Hermitian part) and spec(q) at xi = e / c: _eig, then _factor."""
        return self._factor(*self._eig(pre, speeds, rows))


def csv_row(theta: float, pt: RayleighPoint) -> str:
    """One line of the scan CSV (SCAN_CSV_HEADER columns) for a point."""
    fields = [f"{theta:.17g}", f"{pt.c_lim:.17g}"]
    if pt.exists:
        v = pt.kernel
        fields += ["true", f"{pt.c_r:.17g}", f"{pt.slope:.17g}",
                   *(f"{comp:.17g}" for i in range(3) for comp in (v[i].real, v[i].imag)),
                   f"{pt.res_kernel:.17g}", f"{pt.res_riccati:.17g}"]
    else:
        fields += ["false"] + [""] * 10
    return ",".join(fields) + "\n"


@dataclass(frozen=True)
class DirectionScan:
    """Per-direction Rayleigh data over a circle of tangents."""

    thetas: np.ndarray
    c_lim: np.ndarray
    exists: np.ndarray
    c_r: np.ndarray          # nan where exists is False
    slope: np.ndarray
    kernels: np.ndarray      # (n, 3) complex, nan rows where absent
    res_kernel: np.ndarray
    res_riccati: np.ndarray
    directions: np.ndarray = field(repr=False, default=None)

    @property
    def e1_satisfied(self) -> bool:
        return bool(np.all(self.exists))

    @property
    def holonomy_phase(self) -> float | None:
        """Phase mismatch on carrying the kernel once around the closed loop of rows.

        Zero (mod sampling error) is necessary for the kernel bundle over the
        circle to admit a global phase choice.  None without E1 or where a
        step overlap <w, v_next> vanishes.
        """
        if not self.e1_satisfied:
            return None
        w = self.kernels[0]
        for nxt in (*self.kernels[1:], self.kernels[0]):
            d = complex(np.vdot(w, nxt))
            if d == 0.0:
                return None
            w = nxt * (d.conjugate() / abs(d))
        return float(np.angle(np.vdot(self.kernels[0], w)))

    def point(self, k: int) -> RayleighPoint:
        """Row k as a RayleighPoint."""
        if not self.exists[k]:
            return RayleighPoint(direction=self.directions[k], c_lim=float(self.c_lim[k]), exists=False)
        return RayleighPoint(
            direction=self.directions[k],
            c_lim=float(self.c_lim[k]),
            exists=True,
            c_r=float(self.c_r[k]),
            kernel=self.kernels[k],
            slope=float(self.slope[k]),
            res_kernel=float(self.res_kernel[k]),
            res_riccati=float(self.res_riccati[k]),
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(SCAN_CSV_HEADER + "\n")
        for k in range(self.thetas.size):
            buf.write(csv_row(self.thetas[k], self.point(k)))
        return buf.getvalue()


def tangent_basis(nu: np.ndarray):
    """Right-handed orthonormal (e1, e2) spanning the plane orthogonal to nu."""
    nu = unit_vector(nu, "the normal")[0]
    pick = np.argmin(np.abs(nu))
    e1 = np.zeros(3)
    e1[pick] = 1.0
    e1 -= (e1 @ nu) * nu
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(nu, e1)


def _solve_rows(engine: _Engine, pre: dict, sigma0: np.ndarray, c0: np.ndarray):
    """c_lim, exists, sigma*, c_r, slope, kernels, res_kernel and res_riccati of each row of pre.

    c_lim, exists and sigma* come from limiting_speeds, whose Newton steps
    start at sigma0, one entry per row, where it is finite, else (nan) at
    the trace minimiser.  Where a root exists it is the one zero of
    f(c) = lambda_min z(e / c) below c_lim.  Safeguarded Newton steps on
    g = c f, which has the sign of f and dg/dc = -u0* X u0 with X = zdot - z
    from the Sylvester solve, run in t = sqrt(1 - c / c_lim) inside
    (0, 1 - START_OFFSET] c_lim; a step that leaves the bracket is replaced
    by its midpoint in c.  A row starts at c0 where that lies in
    (0, (1 - START_OFFSET) c_lim), else (nan included) at 0.95 c_lim.  The
    round whose step falls to ROOT_RTOL c gives c_r, its own speed, and the
    kernel, slope and residuals (_post); each round's separation check reads
    spec(q) from impedance_at.  The root columns are nan where exists is
    False.  Each row's columns depend only on its own pre row and starts.
    """
    c_lim, exists, sigma = engine.limiting_speeds(pre, sigma0)
    m = len(pre["dirs"])
    c_r, slope, res_kernel, res_riccati = np.full((4, m), np.nan)
    kernels = np.full((m, 3), np.nan, dtype=complex)
    solve = np.flatnonzero(exists)
    top = c_lim[solve]
    lo, hi = np.zeros(solve.size), (1.0 - START_OFFSET) * top
    start = c0[solve]
    x = np.where((start > 0.0) & (start < hi), start, 0.95 * top)
    live = np.arange(solve.size)
    finished = []
    for it in range(_ROOT_MAX_ROUNDS):
        if live.size == 0:
            break
        xl = x[live]
        q, a1, a2, z, s = engine.impedance_at(pre, xl, solve[live])
        w, u = np.linalg.eigh(z)
        f, u0 = w[:, 0], u[:, :, 0]
        zdot = radial_derivative_z(z, q, engine.rho, s)
        # g = c f has dg/dc = f - u0* zdot u0 = -u0* X u0, with X = zdot - z
        xuu = np.einsum("mi,mij,mj->m", u0.conj(), zdot, u0).real - f
        lo[live] = np.where(f > 0.0, xl, lo[live])
        hi[live] = np.where(f > 0.0, hi[live], xl)
        # Newton on g in t = sqrt(1 - c / c_lim), t <- t - g / (2 t c_lim u0* X u0),
        # moves c by d (1 - d / (4 (c_lim - c))), with d = g / u0* X u0 the
        # Newton step on g in c; the new t is positive when d < 2 (c_lim - c)
        d = xl * f / xuu
        gap = top[live] - xl
        step = d * (1.0 - d / (4.0 * gap))
        xn = xl + step
        inside = (d < 2.0 * gap) & (xn > lo[live]) & (xn < hi[live])
        x[live] = np.where(inside, xn, 0.5 * (lo[live] + hi[live]))
        # the round whose step falls to ROOT_RTOL c is the row's evaluation at
        # c_r; rows are post-processed together, as _post costs much per call
        done = (np.abs(step) <= ROOT_RTOL * xl) | (it == _ROOT_MAX_ROUNDS - 1)
        finished.append([r[done] for r in (solve[live], xl, q, a1, a2, z, s, w, u, zdot)])
        live = live[~done]
    if solve.size:
        k, c, *state = [np.concatenate(col) for col in zip(*finished)]
        del finished  # the rounds' copies, before _post's temporaries
        c_r[k] = c
        kernels[k], slope[k], res_kernel[k], res_riccati[k] = _post(engine, pre, k, *state)
    return c_lim, exists, sigma, c_r, slope, kernels, res_kernel, res_riccati


def _post(engine: _Engine, pre: dict, rows, q, a1, a2, z, s, w, u, zdot):
    """Kernel, slope and residuals at the roots of the rows of pre; q breaching RESIDUAL_TOL is re-factored."""
    a, dirs = pre["a"][rows], pre["dirs"][rows]
    p = QuadraticPencil(a, a1, a2, engine.rho)
    bad = residual_breaches(p, q)[0]
    if np.any(bad):
        integral_fallback(p, q, s, bad)
        z[bad] = impedance_from_factor(a[bad], a1[bad], q[bad])[1]
        w[bad], u[bad] = np.linalg.eigh(z[bad])
        zdot[bad] = radial_derivative_z(z[bad], q[bad], engine.rho, s[bad])
    kmin = np.argmin(np.abs(w), axis=1)
    v = np.take_along_axis(u, kmin[:, None, None], axis=2)[:, :, 0]
    # phase rule: tangent component real positive unless tiny, else the
    # largest-magnitude component
    comp = np.einsum("mi,mi->m", v, dirs.astype(complex))
    small = np.abs(comp) <= KERNEL_PHASE_CUTOFF
    comp[small] = v[small, np.argmax(np.abs(v[small]), axis=1)]
    v = v * (comp.conj() / np.abs(comp))[:, None]
    res_kernel = norm_ratio(z @ v[:, :, None], z)
    # radial slope of det z: tr(adj(z) zdot), its cofactors formed at the binary scale 2^e of max |w|
    e = np.frexp(np.abs(w).max(axis=1))[1]
    ws = np.ldexp(w, -e[:, None])
    cof = np.stack([ws[:, 1] * ws[:, 2], ws[:, 0] * ws[:, 2], ws[:, 0] * ws[:, 1]], axis=1)
    adj = (u * cof[:, None, :]) @ u.conj().transpose(0, 2, 1)
    with np.errstate(over="ignore"):
        slope = np.ldexp(np.einsum("mij,mji->m", adj, zdot).real, 2 * e)
    return v, slope, res_kernel, riccati_residual(z, p)


def _scan_chunk(engine: _Engine, nu, dirs: np.ndarray, sigma0: np.ndarray, c0: np.ndarray):
    """One block of a scan, or a point: the _solve_rows columns of the directions dirs on one prepare."""
    return _solve_rows(engine, engine.prepare(nu, dirs), sigma0, c0)


def _anchor_starts(thetas: np.ndarray, stride: int, column: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Newton starts of the scan rows indexed by rows, none a multiple of stride, from the anchors' column.

    The anchors are rows 0, stride, 2 stride, ...; column holds one value per
    anchor (c_r or sigma*), nan where there is none.  A row between anchors j
    and j + 1 gets the quintic Lagrange interpolant through anchors j - 2 .. j + 3
    at their thetas, wrapped by 2 pi, so rows after the last anchor
    interpolate through anchor 0 whether or not stride divides n.  It is nan
    where one of its anchors' values is.
    """
    m = column.size
    j = rows // stride + np.arange(-2, 4)[:, None]
    nodes = thetas[(j % m) * stride] + 2.0 * np.pi * (j // m)
    values = column[j % m]
    x = thetas[rows]
    interp = np.zeros(rows.size)
    for i in range(6):
        basis = values[i]
        for l in range(6):
            if l != i:
                basis = basis * (x - nodes[l]) / (nodes[i] - nodes[l])
        interp += basis
    return interp


def resolve_threads(threads: int | None) -> int:
    """Scan workers: threads, else RAYLEIGH_THREADS (default 1), in [1, os.cpu_count()]."""
    if threads is None:
        text = os.environ.get("RAYLEIGH_THREADS", "1")
        try:
            threads = int(text)
        except ValueError:
            raise ValueError(f"RAYLEIGH_THREADS must be an integer, got {text!r}") from None
    return max(1, min(threads, os.cpu_count() or 1))


def scan_directions(mat: Material, nu, n: int, threads: int | None = None) -> DirectionScan:
    """Rayleigh data for n equally spaced tangential directions, n an integer of at least 4.

    Anchored from _MIN_ANCHORED_ROWS directions on: pass 1 solves the anchors
    from nan starts, as rayleigh_point solves a direction, and pass 2 the
    other rows from _anchor_starts; an unanchored scan is pass 1 alone.  A pass
    of count rows runs in blocks of min(_BLOCK_ROWS, max(_MIN_CHUNKED_ROWS,
    ceil(count / threads))) rows from one pool's queue (none at 1 thread or in
    one block), and the calling thread writes each block's columns in order.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"the direction count must be an integer, got {n!r}") from None
    if n < 4:
        raise ValueError("direction scan needs at least 4 directions")
    nu = unit_vector(nu, "the normal")[0]
    e1, e2 = tangent_basis(nu)
    thetas = 2.0 * np.pi * np.arange(n) / n
    dirs = np.cos(thetas)[:, None] * e1[None, :] + np.sin(thetas)[:, None] * e2[None, :]
    engine = _Engine(mat)
    threads = resolve_threads(threads)
    stride = _ANCHOR_STRIDE if n >= _MIN_ANCHORED_ROWS else 1
    at = np.empty((2, -(-n // stride)))  # sigma* and c_r by anchor, from pass 1
    columns = [np.empty(n), np.empty(n, dtype=bool), np.empty(n), np.empty(n),
               np.empty((n, 3), dtype=complex), np.empty(n), np.empty(n)]

    def anchor_block(lo, hi):
        rows, none = np.arange(lo, hi) * stride, np.full(hi - lo, np.nan)
        return rows, _scan_chunk(engine, nu, dirs[rows], none, none)

    def other_block(lo, hi):
        rows = lo + np.flatnonzero(np.arange(lo, hi) % stride)
        # a start within ROOT_RTOL of c_r stops after one round and reports
        # its own speed as c_r, from its own evaluation, as every row does
        return rows, _scan_chunk(engine, nu, dirs[rows], _anchor_starts(thetas, stride, at[0], rows),
                                 _anchor_starts(thetas, stride, at[1], rows))

    def run(block, count):
        """block(lo, hi) over range(count) in blocks, each block's columns written as map yields them."""
        size = min(_BLOCK_ROWS, max(_MIN_CHUNKED_ROWS, -(-count // threads)))
        for rows, (c_lim, exists, sigma, *rest) in (pool.map if pool else map)(
                lambda lo: block(lo, min(lo + size, count)), range(0, count, size)):
            for column, part in zip(columns, (c_lim, exists, *rest)):
                column[rows] = part
            if block is anchor_block:
                at[:, rows // stride] = sigma, rest[0]

    with (ThreadPoolExecutor(max_workers=threads) if threads > 1 and n > _MIN_CHUNKED_ROWS
          else contextlib.nullcontext()) as pool:
        run(anchor_block, at.shape[1])
        if stride > 1:
            run(other_block, n)
    return DirectionScan(thetas, *columns, directions=dirs)
