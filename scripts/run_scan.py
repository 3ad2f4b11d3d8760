#!/usr/bin/env python3
"""Scan Rayleigh data over tangential directions and summarize anisotropy.

Example:
    python scripts/run_scan.py --seed 11 --count 720 --out scan.csv
scans a synthetic convex anisotropic material; pass --material FILE to use a
material JSON instead.
"""

import argparse
import sys
from pathlib import Path
import time

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from surfimp.material import MaterialError, parse_material, unit_vector
from surfimp.presets import synthetic_anisotropic
from surfimp.rayleigh import resolve_threads, scan_directions


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--material", help="material JSON (default: synthetic anisotropic)")
    ap.add_argument("--seed", type=int, default=11, help="seed for the synthetic material")
    ap.add_argument("--count", type=int, default=720)
    ap.add_argument("--normal", default="0,0,1")
    ap.add_argument("--out", default=None, help="write the per-direction CSV here")
    ap.error = lambda message: sys.exit(f"error: {message}")  # a usage error is an input error: exit 1
    args = ap.parse_args()

    # malformed input ends in one error line and exit status 1, as in `surfimp scan`;
    # errors of the scan itself keep their traceback
    if args.count < 4:
        sys.exit("error: --count must be at least 4")
    try:
        if args.material:
            with open(args.material) as fh:
                mat = parse_material(fh.read())
        else:
            mat = synthetic_anisotropic(args.seed)
        nu = np.array([float(x) for x in args.normal.split(",")])
        if nu.shape != (3,):
            raise MaterialError("schema", f"--normal must be 'x,y,z', got {args.normal!r}")
        unit_vector(nu, "the normal")
        threads = resolve_threads(None)
        if args.out:  # an unwritable path fails before the scan, which leaves an existing file as it was
            open(args.out, "a").close()
    except (OSError, ValueError) as exc:
        sys.exit(f"error: {exc}")
    start = time.perf_counter()
    scan = scan_directions(mat, nu, args.count, threads=threads)
    elapsed = time.perf_counter() - start

    print(f"material: {mat.name}   directions: {args.count}   wall: {elapsed:.2f} s")
    print(f"E1 satisfied: {scan.e1_satisfied}")
    if scan.exists.any():
        c = scan.c_r[scan.exists]
        aniso = (c.max() - c.min()) / c.min()
        kmin = int(np.nanargmin(scan.c_r))
        kmax = int(np.nanargmax(scan.c_r))
        print(f"c_r range: {c.min():.2f} .. {c.max():.2f} m/s "
              f"(anisotropy {100 * aniso:.2f}%)")
        print(f"slowest direction theta = {scan.thetas[kmin]:.4f} rad, "
              f"fastest theta = {scan.thetas[kmax]:.4f} rad")
        print(f"worst kernel residual: {np.nanmax(scan.res_kernel):.2e}, "
              f"worst riccati residual: {np.nanmax(scan.res_riccati):.2e}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(scan.to_csv())
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
