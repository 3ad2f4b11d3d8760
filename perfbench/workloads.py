"""Workloads of the surfimp benchmark.

Each workload builds its inputs from the benchmark seed, runs one program
call per operation, and checks the outputs after the timed loop.  All four
are closed loops with one caller: the next operation starts when the
previous one has returned.

Program calls go through module attributes (``rayleigh.scan_directions``,
not a name imported into this file), so the traced run can wrap them.
"""

from __future__ import annotations

import math

import numpy as np

import surfimp.material as material
import surfimp.presets as presets
import surfimp.rayleigh as rayleigh
import surfimp.selftest as selftest

# Output limits; the residual limits are those of `surfimp rayleigh`, the
# agreement limits those of the scan-vs-scalar and Rayleigh-oracle tests.
RES_KERNEL_TOL = 1e-7
RES_RICCATI_TOL = 1e-8
ISO_ORACLE_RTOL = 1e-9
C_R_RTOL = 1e-10
C_LIM_RTOL = 1e-8

# Material mix of scan_coarse and point_mix: synthetic strengths, then
# None for a random isotropic material.
MIX_KINDS = (0.35, 0.7, 0.9, None)


def rayleigh_ratio_sq(u: float) -> float:
    """(c_r / c_s)^2 for an isotropic solid with u = (c_s / c_p)^2.

    Root in (0, 1) of x^3 - 8x^2 + (24 - 16u)x - 16(1 - u), by bisection;
    the cubic is -16(1 - u) < 0 at x = 0 and 1 at x = 1.
    """
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ((mid - 8.0) * mid + 24.0 - 16.0 * u) * mid - 16.0 * (1.0 - u) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def iso_rayleigh_speed(mat) -> float:
    """Rayleigh speed of an isotropic material from its Lame constants."""
    lam = mat.stiffness.voigt[0, 1]
    mu = mat.stiffness.voigt[3, 3]
    return math.sqrt(mu / mat.density * rayleigh_ratio_sq(mu / (lam + 2.0 * mu)))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def material_mix(rng, count: int):
    """(material, is_isotropic) pairs cycling through MIX_KINDS."""
    out = []
    for i in range(count):
        strength = MIX_KINDS[i % len(MIX_KINDS)]
        if strength is None:
            out.append((presets.random_isotropic(rng), True))
        else:
            seed = int(rng.integers(2**31))
            out.append((presets.synthetic_anisotropic(seed, strength=strength), False))
    return out


def point_problems(pt, mat, iso: bool) -> list[str]:
    """Residual and isotropic-oracle checks on one RayleighPoint."""
    bad = []
    if pt.exists:
        if not pt.res_kernel <= RES_KERNEL_TOL:
            bad.append(f"res_kernel {pt.res_kernel:.3e}")
        if not pt.res_riccati <= RES_RICCATI_TOL:
            bad.append(f"res_riccati {pt.res_riccati:.3e}")
    if iso:
        if not pt.exists:
            bad.append("isotropic material without a Rayleigh root")
        elif not (err := _rel(pt.c_r, iso_rayleigh_speed(mat))) <= ISO_ORACLE_RTOL:
            bad.append(f"c_r misses the Rayleigh cubic by {err:.3e}")
    return bad


class _ScanChecks:
    """Checks shared by the scan workloads.

    Rows are checked against the residual limits and, for isotropic
    materials, the Rayleigh cubic.  A seeded sample of rows is re-solved by
    ``rayleigh_point``; references are computed once per (input, row).
    """

    def __init__(self):
        self._refs = {}

    def _reference(self, key, mat, nu, direction):
        if key not in self._refs:
            frame = material.SurfaceFrame(nu / np.linalg.norm(nu), direction)
            self._refs[key] = rayleigh.rayleigh_point(mat, frame)
        return self._refs[key]

    def scan_problems(self, k, scan, mat, iso, nu, rows) -> list[str]:
        bad = []
        ex = scan.exists
        if not np.all(scan.res_kernel[ex] <= RES_KERNEL_TOL):
            bad.append(f"res_kernel {np.nanmax(scan.res_kernel[ex]):.3e}")
        if not np.all(scan.res_riccati[ex] <= RES_RICCATI_TOL):
            bad.append(f"res_riccati {np.nanmax(scan.res_riccati[ex]):.3e}")
        if iso:
            if not np.all(ex):
                bad.append("isotropic material with rows without a Rayleigh root")
            else:
                c_r = iso_rayleigh_speed(mat)
                err = np.max(np.abs(scan.c_r - c_r)) / c_r
                if not err <= ISO_ORACLE_RTOL:
                    bad.append(f"c_r misses the Rayleigh cubic by {err:.3e}")
        for r in rows:
            ref = self._reference((k, int(r)), mat, nu, scan.directions[r])
            if bool(scan.exists[r]) != ref.exists:
                bad.append(f"row {r}: exists differs from rayleigh_point")
            elif ref.exists and not _rel(scan.c_r[r], ref.c_r) <= C_R_RTOL:
                bad.append(f"row {r}: c_r differs from rayleigh_point by {_rel(scan.c_r[r], ref.c_r):.3e}")
            if not _rel(scan.c_lim[r], ref.c_lim) <= C_LIM_RTOL:
                bad.append(f"row {r}: c_lim differs from rayleigh_point by {_rel(scan.c_lim[r], ref.c_lim):.3e}")
        return bad


class ScanDense(_ScanChecks):
    """The 10 000-direction baseline scan: synthetic_anisotropic(11), nu = z.

    Operations alternate threads=1 and threads=2.  The input is the same for
    every seed: across synthetic materials the walk alone ranges from 35k to
    109k det z rows, which would swamp the bound.  The seed picks the rows
    checked against rayleigh_point; scan_coarse varies the material.
    """

    name = "scan_dense"
    sample_rows = 16

    def __init__(self, seed: int, n: int = 10000):
        super().__init__()
        self.mat = presets.synthetic_anisotropic(11)
        self.nu = np.array([0.0, 0.0, 1.0])
        self.n = n
        self.rows = np.random.default_rng([seed, 1]).choice(n, self.sample_rows, replace=False)
        self.n_ops = 2

    def threads(self, k: int) -> int:
        return 1 + k % 2

    def label(self, k: int) -> str:
        return f"{self.threads(k)}t"

    def warmup(self):
        for threads in (1, 2):
            rayleigh.scan_directions(self.mat, self.nu, 128, threads=threads)

    def op(self, k: int):
        return rayleigh.scan_directions(self.mat, self.nu, self.n, threads=self.threads(k))

    def problems(self, results) -> dict[int, list[str]]:
        ok = [(i, k, out) for i, (k, out) in enumerate(results) if not isinstance(out, Exception)]
        reference_csv = next((out.to_csv() for _, k, out in ok if self.threads(k) == 1), None)
        bad = {}
        for i, k, out in ok:
            bad[i] = self.scan_problems(0, out, self.mat, False, self.nu, self.rows)
            if reference_csv is None:
                bad[i].append("no threads=1 scan to compare the CSV bytes with")
            elif out.to_csv() != reference_csv:
                bad[i].append(f"CSV at threads={self.threads(k)} differs from threads=1")
        return bad

    def summary(self, best: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        """Issue-named metrics from the median raw repeat of each input, per label."""
        out = {"scan_dirs_per_s": (self.n / best["1t"][0], "1/s")}
        if best.get("2t"):
            out["scan_dirs_per_s_2t"] = (self.n / best["2t"][0], "1/s")
        return out


class ScanCoarse(_ScanChecks):
    """Many small scans over the material mix, each with a random normal."""

    name = "scan_coarse"

    def __init__(self, seed: int, scans: int = 128, n: int = 48, sampled: int = 32):
        super().__init__()
        rng = np.random.default_rng([seed, 2])
        self.inputs = [(mat, iso, _unit(rng)) for mat, iso in material_mix(rng, scans)]
        self.n = n
        self.n_ops = scans
        picks = rng.choice(scans, min(sampled, scans), replace=False)
        self.rows = {int(k): [int(rng.integers(n))] for k in picks}

    def label(self, k: int) -> str:
        return "1t"

    def warmup(self):
        self.op(0)

    def op(self, k: int):
        mat, _, nu = self.inputs[k]
        return rayleigh.scan_directions(mat, nu, self.n, threads=1)

    def problems(self, results) -> dict[int, list[str]]:
        bad = {}
        for i, (k, out) in enumerate(results):
            if not isinstance(out, Exception):
                mat, iso, nu = self.inputs[k]
                bad[i] = self.scan_problems(k, out, mat, iso, nu, self.rows.get(k, ()))
        return bad

    def summary(self, best):
        ms = 1e3 * np.asarray(best["1t"])
        return {"coarse_scan_p50_ms": (float(np.percentile(ms, 50)), "ms"),
                "coarse_scan_p90_ms": (float(np.percentile(ms, 90)), "ms")}


class PointMix:
    """Single-direction solves over the material mix with random frames."""

    name = "point_mix"

    def __init__(self, seed: int, points: int = 200):
        rng = np.random.default_rng([seed, 3])
        self.inputs = []
        for mat, iso in material_mix(rng, points):
            nu = _unit(rng)
            t = rng.standard_normal(3)
            t -= (t @ nu) * nu
            self.inputs.append((mat, iso, material.SurfaceFrame(nu, t / np.linalg.norm(t))))
        self.n_ops = points

    def label(self, k: int) -> str:
        return "1t"

    def warmup(self):
        self.op(0)

    def op(self, k: int):
        mat, _, frame = self.inputs[k]
        return rayleigh.rayleigh_point(mat, frame)

    def problems(self, results) -> dict[int, list[str]]:
        return {i: point_problems(out, self.inputs[k][0], self.inputs[k][1])
                for i, (k, out) in enumerate(results) if not isinstance(out, Exception)}

    def summary(self, best):
        ms = 1e3 * np.asarray(best["1t"])
        return {"point_p50_ms": (float(np.percentile(ms, 50)), "ms"),
                "point_p95_ms": (float(np.percentile(ms, 95)), "ms")}


class Certify:
    """The built-in identity suite, run_selftest(seed)."""

    name = "certify"

    def __init__(self, seed: int):
        self.seed = seed
        self.n_ops = 1
        self._warm = PointMix(seed, points=1)

    def label(self, k: int) -> str:
        return "1t"

    def warmup(self):
        # One scalar solve warms the same LAPACK paths without paying for a
        # whole suite during set-up.
        self._warm.op(0)

    def op(self, k: int):
        return selftest.run_selftest(self.seed)

    def problems(self, results) -> dict[int, list[str]]:
        return {i: [f"criterion {c.name} failed (worst {c.worst:.3e})" for c in out if not c.passed]
                for i, (_, out) in enumerate(results) if not isinstance(out, Exception)}

    def summary(self, best):
        return {"selftest_s": (best["1t"][0], "s")}


WORKLOADS = {cls.name: cls for cls in (ScanDense, ScanCoarse, PointMix, Certify)}
