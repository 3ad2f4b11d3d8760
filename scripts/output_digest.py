#!/usr/bin/env python3
"""Print one `name sha256` line per reference output of the solver.

Example, comparing two checkouts byte for byte:
    python3 scripts/output_digest.py > change.txt
    cp scripts/output_digest.py ../parent/scripts/
    python3 ../parent/scripts/output_digest.py > parent.txt
    diff parent.txt change.txt

The script imports the package from the `src` directory beside it, so each
copy digests its own checkout.  The outputs are scan CSVs of two materials
(synthetic_anisotropic(11) with normal z, and synthetic_anisotropic(27, 0.75)
with normal (0.3, -0.5, 0.8)) at sizes below, at and above the anchored-scan
threshold, the 10 000-direction scan at 1 and 2 threads, an anchored
600-direction scan of a strongly elliptic but not convex isotropic medium
(lam = -0.9 mu, normal (1, 2, 3)), where existence is read from the static
impedance, an anchored 536-direction scan of
synthetic_anisotropic(561807780, 0.7) whose c_lim certificate restarts rows
from a valley the first Newton steps missed, the anchored 536- to
1 024-direction scans again at 2 threads (each line must equal its 1-thread
line), 40 rayleigh_point CSV rows on random frames of aniso11 and aniso27,
the `surfimp selftest --seed 0` JSON, the release gate's criterion 3 and 4
values (`selftest._check_identities(20240817, 50)` as a JSON list of floats),
and the JSON of three more CLI commands on input files written to a
temporary directory: `validate` of
aniso11's Voigt matrix (in GPa) with entry (0, 1) times 1 + 3e-14, `rayleigh`
of the Poisson solid with normal z and tangent x, and `subprincipal` of the
Poisson solid with curvature {"s22": 0.1, "trS": 0.2} and xi-dir x.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from surfimp import cli
from surfimp.material import GPA, material_to_json
from surfimp.presets import isotropic_material, poisson_solid, synthetic_anisotropic
from surfimp.rayleigh import csv_row, rayleigh_point, scan_directions
from surfimp.selftest import _check_identities, random_frame

MATERIALS = {"aniso11": (synthetic_anisotropic(11), (0.0, 0.0, 1.0)),
             "aniso27": (synthetic_anisotropic(27, strength=0.75), (0.3, -0.5, 0.8)),
             "nonconvex": (isotropic_material(-0.9, 1.0, 1000.0), (1.0, 2.0, 3.0)),
             "aniso561807780": (synthetic_anisotropic(561807780, strength=0.7),
                                (-0.22607182562841371, 0.13018959573193606, 0.9653715340842566))}
# (material, directions, threads)
SCANS = [("aniso11", 10000, 1), ("aniso11", 10000, 2), ("aniso11", 720, 1), ("aniso11", 1001, 1),
         ("aniso11", 513, 1), ("aniso11", 48, 1), ("aniso27", 512, 1), ("aniso27", 1024, 1),
         ("aniso27", 48, 1), ("nonconvex", 600, 1), ("aniso561807780", 536, 1),
         ("aniso11", 1001, 2), ("aniso27", 1024, 2), ("nonconvex", 600, 2), ("aniso561807780", 536, 2)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scan_csv(name: str, n: int, threads: int) -> str:
    mat, normal = MATERIALS[name]
    return scan_directions(mat, np.array(normal), n, threads=threads).to_csv()


def point_rows(count: int = 40) -> str:
    """CSV rows of rayleigh_point on default_rng(5) frames, alternating the anisotropic materials."""
    rng = np.random.default_rng(5)
    mats = [MATERIALS[name][0] for name in ("aniso11", "aniso27")]
    return "".join(csv_row(0.0, rayleigh_point(mats[k % 2], random_frame(rng))) for k in range(count))


def cli_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue()


def cli_payloads() -> dict:
    """stdout of validate, rayleigh and subprincipal, by name, on input files in a temporary directory."""
    matrix = (synthetic_anisotropic(11).stiffness.voigt / GPA).tolist()
    matrix[0][1] *= 1.0 + 3e-14
    texts = {"skewed": json.dumps({"name": "aniso11-skewed", "density_kg_m3": 4000.0,
                                   "stiffness": {"format": "voigt_gpa", "matrix": matrix}}),
             "poisson": material_to_json(poisson_solid()),
             "curvature": json.dumps({"s22": 0.1, "trS": 0.2})}
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: str(Path(tmp) / f"{name}.json") for name in texts}
        for name, text in texts.items():
            Path(path[name]).write_text(text)
        return {"validate-aniso11-skewed": cli_stdout("validate", "--material", path["skewed"]),
                "rayleigh-poisson-z-x": cli_stdout("rayleigh", "--material", path["poisson"],
                                                   "--normal", "0,0,1", "--tangent", "1,0,0"),
                "subprincipal-poisson": cli_stdout("subprincipal", "--material", path["poisson"],
                                                   "--curvature", path["curvature"], "--xi-dir", "1,0,0")}


def main() -> None:
    for name, n, threads in SCANS:
        print(f"scan-{name}-{n}-t{threads} {digest(scan_csv(name, n, threads))}")
    print(f"points-rng5 {digest(point_rows())}")
    print(f"selftest-seed0 {digest(cli_stdout('selftest', '--seed', '0'))}")
    print(f"identities-20240817-50 {digest(json.dumps([float(v) for v in _check_identities(20240817, 50)]))}")
    for name, text in cli_payloads().items():
        print(f"{name} {digest(text)}")


if __name__ == "__main__":
    main()
