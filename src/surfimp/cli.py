"""Command-line surface: validate, rayleigh, scan, subprincipal, selftest.

Exit codes: 0 success, 1 input error, 2 numerical failure (residual or
tolerance breach, linear-algebra non-convergence, floating-point range
error), 3 existence failure (no Rayleigh root where one was demanded).  A
failing command writes one `error:` line to stderr and no numpy warning.
Single-point commands print JSON; scans write CSV plus a JSON summary.
Randomized commands take --seed and are bit-reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

import numpy as np

from . import selftest as _selftest_mod
from .material import (Material, MaterialError, SurfaceFrame, isotropic_stiffness, norm_ratio,
                       parse_material, unit_vector, validate_stiffness)
from .isotropic import (
    CurvatureData,
    iso_state_on_sigma,
    subprincipal_p,
)
from .impedance import SpectralSeparationError
from .polyfactor import EigenSolverError, FactorizationError, NonEllipticError, QuadratureError
from .rayleigh import (
    BracketError,
    SCAN_CSV_HEADER,
    csv_row,
    rayleigh_point,
    resolve_threads,
    scan_directions,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_EXISTENCE = 3

RES_KERNEL_TOL = 1e-7
RES_RICCATI_TOL = 1e-8
TWO_ROUTE_TOL = 1e-9

# what the solvers raise when a factor, a quadrature, a c_lim, an eigensolve
# or a float's range fails
_NUMERICAL_ERRORS = (BracketError, EigenSolverError, FactorizationError, NonEllipticError,
                     QuadratureError, SpectralSeparationError, np.linalg.LinAlgError,
                     ArithmeticError)


def _pairs(x):
    """An array as nested [re, im] pairs of its entries; anything else passes through."""
    return np.stack([x.real, x.imag], axis=-1).tolist() if isinstance(x, np.ndarray) else x


def _emit(payload: dict) -> None:
    # strict JSON: every NaN or infinite value, at any depth, round-trips to null
    payload = json.loads(json.dumps(payload), parse_constant=lambda token: None)
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _fail(message: str, code: int) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_vector(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise MaterialError("schema", f"expected 'x,y,z', got {text!r}")
    vec = np.array([float(x) for x in parts])
    if not np.all(np.isfinite(vec)):
        raise MaterialError("schema", f"vector components must be finite, got {text!r}")
    return vec


def _load_material(path: str) -> Material:
    return parse_material(_read_file(path))


def cmd_validate(args) -> int:
    mat = _load_material(args.material)
    report = validate_stiffness(mat.stiffness)
    payload = dataclasses.asdict(report)
    payload["voigt_eigenvalues"] = report.voigt_eigenvalues.tolist()
    payload["density_kg_m3"] = mat.density
    payload["density_positive"] = mat.density > 0
    payload["name"] = mat.name
    _emit(payload)
    return EXIT_OK


def _point_payload(pt, frame: SurfaceFrame) -> dict:
    payload = {
        "direction": [float(x) for x in pt.direction],
        "normal": [float(x) for x in frame.nu],
        "frame_defect": frame.orthonormalization_defect,
        "c_lim_mps": pt.c_lim,
        "exists": bool(pt.exists),
    }
    if pt.exists:
        payload.update({
            "c_r_mps": pt.c_r,
            "slope": pt.slope,
            "kernel": _pairs(pt.kernel),
            "res_kernel": pt.res_kernel,
            "res_riccati": pt.res_riccati,
        })
    return payload


def cmd_rayleigh(args) -> int:
    mat = _load_material(args.material)
    frame = SurfaceFrame.from_vectors(_parse_vector(args.normal), _parse_vector(args.tangent))
    pt = rayleigh_point(mat, frame)
    if args.csv:
        sys.stdout.write(SCAN_CSV_HEADER + "\n" + csv_row(0.0, pt))
    else:
        _emit(_point_payload(pt, frame))
    if not pt.exists:
        return _fail("no Rayleigh root along this direction (E1 fails)", EXIT_EXISTENCE)
    return _check_residuals(pt.res_kernel, pt.res_riccati)


def _check_residuals(res_kernel: float, res_riccati: float) -> int:
    """EXIT_NUMERICAL, with a message, when a residual exceeds its tolerance or is NaN."""
    if not (res_kernel <= RES_KERNEL_TOL and res_riccati <= RES_RICCATI_TOL):
        return _fail(
            f"residuals exceed tolerance: kernel {res_kernel:.3e}, "
            f"riccati {res_riccati:.3e}",
            EXIT_NUMERICAL,
        )
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.count < 4:
        return _fail("--count must be at least 4", EXIT_INPUT)
    mat = _load_material(args.material)
    normal = _parse_vector(args.normal)
    if not np.any(normal):
        raise MaterialError("schema", "normal must be nonzero")
    threads = resolve_threads(None)
    if args.out:  # an unwritable path fails before the scan, which leaves an existing file as it was
        open(args.out, "a", encoding="utf-8").close()
    scan = scan_directions(mat, normal, args.count, threads=threads)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            out.write(scan.to_csv())
    found = scan.exists.any()
    summary = {
        "e1_satisfied": bool(scan.e1_satisfied),
        "c_r_min": float(np.nanmin(scan.c_r)) if found else None,
        "c_r_max": float(np.nanmax(scan.c_r)) if found else None,
        "res_kernel_max": float(np.max(scan.res_kernel[scan.exists])) if found else None,
        "res_riccati_max": float(np.max(scan.res_riccati[scan.exists])) if found else None,
        "holonomy_phase": scan.holonomy_phase,
    }
    _emit(summary)
    if found:
        code = _check_residuals(summary["res_kernel_max"], summary["res_riccati_max"])
        if code != EXIT_OK:
            return code
    if args.require_e1 and not scan.e1_satisfied:
        return _fail("some directions carry no Rayleigh root (E1 fails)", EXIT_EXISTENCE)
    return EXIT_OK


def _isotropic_parameters(mat: Material):
    """Fit (lam, mu) and reject materials that are not isotropic."""
    v = mat.stiffness.voigt
    mu = float(np.mean([v[3, 3], v[4, 4], v[5, 5]]))
    lam = float(np.mean([v[0, 1], v[0, 2], v[1, 2]]))
    model = isotropic_stiffness(lam, mu).voigt
    if v.any() and not norm_ratio(v - model, v) <= 1e-8:
        return None
    return lam, mu


def cmd_subprincipal(args) -> int:
    mat = _load_material(args.material)
    curv = CurvatureData.from_json(_read_file(args.curvature))
    xi_dir = unit_vector(_parse_vector(args.xi_dir), "xi-dir")[0]
    params = _isotropic_parameters(mat)
    if params is None:
        return _fail("anisotropic subprincipal unsupported", EXIT_INPUT)
    lam, mu = params
    st = iso_state_on_sigma(lam, mu, mat.density)
    br = subprincipal_p(st, curv)  # a NaN route fails the two-route check below
    payload = {f.name: _pairs(getattr(br, f.name)) for f in dataclasses.fields(br)}
    payload.update({
        "xi_dir": [float(x) for x in xi_dir],
        "lam_pa": lam,
        "mu_pa": mu,
        "density_kg_m3": mat.density,
        "c_r_mps": st.c_r,
    })
    _emit(payload)
    gap = abs(br.psub_direct - br.psub_assembled)
    if not gap <= TWO_ROUTE_TOL * (1.0 + abs(br.psub_direct)):  # a NaN route fails too
        return _fail(
            f"two-route disagreement: direct {br.psub_direct!r} vs assembled "
            f"{br.psub_assembled!r}",
            EXIT_NUMERICAL,
        )
    return EXIT_OK


def cmd_selftest(args) -> int:
    if args.seed < 0:
        return _fail("--seed must be non-negative", EXIT_INPUT)
    results = _selftest_mod.run_selftest(seed=args.seed, strict=args.strict)
    payload = {
        "seed": args.seed,
        "strict": bool(args.strict),
        "criteria": [r.to_dict() for r in results],
        "all_passed": bool(all(r.passed for r in results)),
    }
    _emit(payload)
    return EXIT_OK if payload["all_passed"] else EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error, which main reports
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="surfimp",
        description="Surface impedance, Rayleigh speeds, and subprincipal symbols "
                    "for elastic half-spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a material file")
    p.add_argument("--material", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rayleigh", help="single-direction Rayleigh solve")
    p.add_argument("--material", required=True)
    p.add_argument("--normal", required=True, metavar="x,y,z")
    p.add_argument("--tangent", required=True, metavar="x,y,z")
    p.add_argument("--csv", action="store_true", help="print a CSV row instead of JSON")
    p.set_defaults(func=cmd_rayleigh)

    p = sub.add_parser("scan", help="Rayleigh scan over tangential directions")
    p.add_argument("--material", required=True)
    p.add_argument("--normal", required=True, metavar="x,y,z")
    p.add_argument("--count", required=True, type=int, metavar="N")
    p.add_argument("--out", metavar="FILE.csv")
    p.add_argument("--require-e1", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("subprincipal", help="isotropic subprincipal symbol")
    p.add_argument("--material", required=True)
    p.add_argument("--curvature", required=True)
    p.add_argument("--xi-dir", required=True, metavar="x,y,z")
    p.set_defaults(func=cmd_subprincipal)

    p = sub.add_parser("selftest", help="run the identity suite on built-in materials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true",
                   help="tighten every tolerance by a factor of 100")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    # the warnings filters, unlike np.errstate, reach the scan's worker threads
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except _NUMERICAL_ERRORS as exc:  # first: some of them are ValueErrors
            return _fail(str(exc), EXIT_NUMERICAL)
        except (OSError, MaterialError, ValueError, KeyError) as exc:
            return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
