#!/usr/bin/env python3
"""Sweep the subprincipal correction against boundary curvature.

For a family of Poisson ratios, evaluates the curvature-driven subprincipal
symbol of the Rayleigh operator on a spherical boundary of varying radius
(shape operator S = Id/R on the tangent plane, homogeneous material) and
prints both assembly routes.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from surfimp.isotropic import CurvatureData, iso_state_on_sigma, subprincipal_p


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu-gpa", type=float, default=30.0)
    ap.add_argument("--rho", type=float, default=2700.0)
    args = ap.parse_args()

    mu = args.mu_gpa * 1e9
    print(f"{'lam/mu':>8} {'R [m]':>10} {'psub direct':>14} {'psub assembled':>14} {'rel diff':>10}")
    for ratio in (0.5, 1.0, 2.0, 4.0):
        lam = ratio * mu
        st = iso_state_on_sigma(lam, mu, args.rho)
        for radius in (1.0, 10.0, 100.0):
            # sphere: s22 = 1/R, trS = 2/R, homogeneous material
            curv = CurvatureData(s22=1.0 / radius, trS=2.0 / radius)
            br = subprincipal_p(st, curv)
            rel = abs(br.psub_direct - br.psub_assembled) / (1 + abs(br.psub_direct))
            print(f"{ratio:8.1f} {radius:10.1f} {br.psub_direct:14.6e} "
                  f"{br.psub_assembled:14.6e} {rel:10.1e}")


if __name__ == "__main__":
    main()
