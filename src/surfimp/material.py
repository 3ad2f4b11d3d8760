"""Elasticity tensors, acoustic (Christoffel) tensors, and material I/O.

Stiffness is stored in Voigt 6x6 form with pair order (11, 22, 33, 23, 13, 12)
in the stress-strain convention (no factor-of-2 weighting).  Internal units are
SI (Pa, kg/m^3); file I/O accepts GPa and converts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

GPA = 1.0e9

VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

# Voigt index of the pair (i, j), symmetric in i and j; its inverse, the
# (i, j) rows of VOIGT_PAIRS, reads a Voigt matrix back out of C^{ijkl}
_VOIGT_INDEX = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
_VOIGT_PAIR_IJ = np.array(VOIGT_PAIRS).T

# Kelvin/Mandel weights: sqrt(2) on the shear pairs makes the 6x6 matrix
# represent C as a quadratic form on symmetric tensors (tensor inner product).
_MANDEL_W = np.diag([1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0), math.sqrt(2.0)])

SYMMETRY_TOL = 1e-12
FRAME_TOL = 1e-12


class MaterialError(ValueError):
    """Invalid material input.  ``code`` distinguishes the failure mode."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, order="C")  # a copy: the caller's array stays writeable
    a.flags.writeable = False
    return a


def _norm(x: np.ndarray):
    """(|x 2^-e|_F, e) over the last two axes, e the binary exponent of x's peak.

    Nothing overflows, and |x|_F is the first entry times 2^e.  Where the sums
    of squares are normal floats it is bit for bit np.linalg.norm(x, axis=(-2, -1));
    with no axis numpy takes a dot product, which differs in the last bit on
    about a fifth of random complex 3x3 matrices.  x* x 2^-2e is formed in
    place in one copy of x (np.ldexp rejects complex arrays), and e is kept
    above -1022 so that 2^-e is finite.
    """
    e = np.maximum(np.frexp(np.abs(x).max(axis=(-2, -1)))[1], -1021)
    scale = np.ldexp(1.0, -e)[..., None, None]
    square = np.conjugate(x)  # a copy even for real x, whose x.conj() is x
    square *= scale
    square *= x
    square *= scale
    return np.sqrt(np.add.reduce(square.real, axis=(-2, -1))), e


def norm_ratio(x: np.ndarray, y: np.ndarray):
    """|x|_F / |y|_F over the last two axes, free of the units of x and y (see _norm)."""
    (norm_x, e_x), (norm_y, e_y) = _norm(x), _norm(y)
    return np.ldexp(norm_x / norm_y, e_x - e_y)


@dataclass(frozen=True)
class StiffnessTensor:
    """Rank-4 elasticity tensor in Voigt 6x6 storage (Pa)."""

    voigt: np.ndarray
    symmetry_defect: float = field(default=0.0, compare=False)

    def __post_init__(self):
        v = np.asarray(self.voigt, dtype=float)
        if v.shape != (6, 6):
            raise MaterialError("schema", f"voigt matrix must be 6x6, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise MaterialError("nonfinite", "stiffness entries must be finite in Pa")
        defect = norm_ratio(v - v.T, v) if v.any() else 0.0
        if defect > SYMMETRY_TOL:
            raise MaterialError(
                "asymmetric_stiffness",
                f"voigt matrix asymmetric: relative defect {defect:.3e} > {SYMMETRY_TOL}",
            )
        object.__setattr__(self, "voigt", _readonly(0.5 * (v + v.T)))
        object.__setattr__(self, "symmetry_defect", float(defect))

    def tensor(self) -> np.ndarray:
        """Full C^{ijkl} with minor symmetries restored from the Voigt packing."""
        return self.voigt[_VOIGT_INDEX[:, :, None, None], _VOIGT_INDEX]

    def mandel(self) -> np.ndarray:
        """Kelvin/Mandel-weighted 6x6; its spectrum is the tensor spectrum."""
        return _MANDEL_W @ self.voigt @ _MANDEL_W


def stiffness_from_tensor(c: np.ndarray) -> StiffnessTensor:
    """Voigt packing of C^{ijkl}, read at the pairs of VOIGT_PAIRS."""
    i, j = _VOIGT_PAIR_IJ
    return StiffnessTensor(np.asarray(c, dtype=float)[i[:, None], j[:, None], i, j])


def isotropic_stiffness(lam: float, mu: float) -> StiffnessTensor:
    """Isotropic stiffness with C11 = lam + 2 mu, C12 = lam, C44 = mu (Pa)."""
    v = np.zeros((6, 6))
    v[:3, :3] = lam
    v[0, 0] = v[1, 1] = v[2, 2] = lam + 2.0 * mu
    v[3, 3] = v[4, 4] = v[5, 5] = mu
    return StiffnessTensor(v)


@dataclass(frozen=True)
class Material:
    """Stiffness plus mass density (SI units)."""

    stiffness: StiffnessTensor
    density: float
    name: str = ""

    def __post_init__(self):
        if not math.isfinite(self.density):
            raise MaterialError("nonfinite", f"density must be finite, got {self.density}")
        if not (self.density > 0.0):
            raise MaterialError("nonpositive_density", f"density must be > 0, got {self.density}")

    def tensor(self) -> np.ndarray:
        return self.stiffness.tensor()


def unit_vector(v, name: str) -> tuple[np.ndarray, float]:
    """(v / |v|, |v|) for a finite nonzero vector, with no overflow or underflow in the norm.

    v is scaled by 2^-e, e the binary exponent of max|v|, before the norm.
    The scaling is exact, so the unit vector is bit for bit v / np.linalg.norm(v)
    wherever that norm is finite and nonzero; |v| is inf beyond the float range.
    Raises MaterialError("frame"), naming the vector, unless v is finite and nonzero.
    """
    v = np.asarray(v, dtype=float)
    peak = np.max(np.abs(v))
    if not 0.0 < peak < np.inf:
        raise MaterialError("frame", f"{name} must be a finite nonzero vector")
    e = int(np.frexp(peak)[1])
    w = np.ldexp(v, -e)
    norm = np.linalg.norm(w)
    with np.errstate(over="ignore"):
        return w / norm, float(np.ldexp(norm, e))


@dataclass(frozen=True)
class SurfaceFrame:
    """Unit exterior conormal ``nu`` and unit tangent ``tangent``, orthogonal."""

    nu: np.ndarray
    tangent: np.ndarray
    orthonormalization_defect: float = field(default=0.0, compare=False)

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        tg = np.asarray(self.tangent, dtype=float)
        # written as not (... <= tol), so that a NaN entry fails the check
        if not (abs(np.linalg.norm(nu) - 1.0) <= FRAME_TOL and abs(np.linalg.norm(tg) - 1.0) <= FRAME_TOL):
            raise MaterialError("frame", "frame vectors must be finite and unit length")
        if not abs(float(nu @ tg)) <= FRAME_TOL:
            raise MaterialError("frame", "frame vectors must be orthogonal")
        object.__setattr__(self, "nu", _readonly(nu))
        object.__setattr__(self, "tangent", _readonly(tg))

    @property
    def perp(self) -> np.ndarray:
        """Completes (nu, tangent) to a right-handed orthonormal triple."""
        return np.cross(self.nu, self.tangent)

    @classmethod
    def from_vectors(cls, normal, tangent) -> "SurfaceFrame":
        """Build a frame from raw vectors, re-orthonormalizing the tangent.

        The projection defect is recorded on the result; a tangent (anti)parallel
        to the normal is rejected as degenerate.
        """
        nu = unit_vector(normal, "normal")[0]
        t = unit_vector(tangent, "tangent")[0]
        proj = t - (t @ nu) * nu
        pn = np.linalg.norm(proj)
        if pn < 1e-10:
            raise MaterialError("degenerate_frame", "tangent is parallel to the normal")
        defect = float(np.linalg.norm(t - proj / pn))
        frame = cls(nu, proj / pn)
        object.__setattr__(frame, "orthonormalization_defect", defect)
        return frame


def acoustic_tensor(stiffness: StiffnessTensor | np.ndarray, xi, eta=None) -> np.ndarray:
    """Acoustic tensor c(xi, eta) with entries C^{ijkl} xi_j eta_l: the one contraction of C.

    Leading axes of xi and eta broadcast; each row is bit for bit the one-row
    result.  With eta omitted returns c(xi) = c(xi, xi) made exactly symmetric,
    0.5 (c + c^T): the Christoffel matrix, with eigenvalues rho (phase speed)^2 along xi.
    """
    c4 = stiffness.tensor() if isinstance(stiffness, StiffnessTensor) else np.asarray(stiffness)
    xi = np.asarray(xi, dtype=float)
    c = np.einsum("ijkl,...j,...l->...ik", c4, xi, xi if eta is None else np.asarray(eta, float))
    return 0.5 * (c + np.swapaxes(c, -1, -2)) if eta is None else c


def fibonacci_sphere(n: int) -> np.ndarray:
    """n roughly equidistributed unit vectors (golden-angle spiral)."""
    k = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@dataclass(frozen=True)
class StiffnessReport:
    """validate_stiffness output: flags, never exceptions."""

    symmetry_defect: float
    voigt_eigenvalues: np.ndarray
    min_voigt_eigenvalue: float
    convex: bool
    ellipticity_constant: float  # min over sampled unit eta of min eig c(eta)
    elliptic: bool


N_ELLIPTICITY_SAMPLES = 50
_ELLIPTICITY_DIRS = _readonly(fibonacci_sphere(N_ELLIPTICITY_SAMPLES))


def validate_stiffness(stiffness: StiffnessTensor) -> StiffnessReport:
    """Symmetry, convexity, and ellipticity diagnostics for a stiffness tensor.

    The ellipticity constant delta is the minimum eigenvalue of c(eta) over
    50 Fibonacci-sphere directions; for strongly convex C it is positive and
    bounds c(eta) >= delta |eta|^2 from below (up to sampling).
    """
    delta = float(np.min(np.linalg.eigvalsh(acoustic_tensor(stiffness, _ELLIPTICITY_DIRS))))
    eigs = np.linalg.eigvalsh(stiffness.voigt)
    return StiffnessReport(
        symmetry_defect=stiffness.symmetry_defect,
        voigt_eigenvalues=eigs,
        min_voigt_eigenvalue=float(eigs[0]),
        convex=bool(eigs[0] > 0.0),
        ellipticity_constant=delta,
        elliptic=bool(delta > 0.0),
    )


ROTATION_TOL = 1e-10


def rotate_stiffness(stiffness: StiffnessTensor, rotation: np.ndarray) -> StiffnessTensor:
    """Rotate the material frame: C'^{ijkl} = R^i_p R^j_q R^k_r R^l_s C^{pqrs}."""
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3) or np.linalg.norm(r @ r.T - np.eye(3)) > ROTATION_TOL:
        raise MaterialError("rotation", "rotation must be orthogonal 3x3")
    if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
        raise MaterialError("rotation", "rotation must be proper (det = 1)")
    c4 = np.einsum("ip,jq,kr,ls,pqrs->ijkl", r, r, r, r, stiffness.tensor())
    return stiffness_from_tensor(c4)


# --- JSON I/O -------------------------------------------------------------
#
# Schema (keys bit-exact):
#   {"name": str, "density_kg_m3": num,
#    "stiffness": {"format": "voigt_gpa", "matrix": [[6x6]]}}
# or
#   {"name": str, "density_kg_m3": num,
#    "isotropic": {"lambda_gpa": num, "mu_gpa": num}}


def parse_material(text: str) -> Material:
    """Parse the material JSON schema into SI units."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MaterialError("schema", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MaterialError("schema", "material document must be a JSON object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise MaterialError("schema", "'name' must be a string")
    if "density_kg_m3" not in doc:
        raise MaterialError("schema", "missing 'density_kg_m3'")
    density = _number(doc, "density_kg_m3")

    if "isotropic" in doc:
        iso = doc["isotropic"]
        if not isinstance(iso, dict) or set(iso) != {"lambda_gpa", "mu_gpa"}:
            raise MaterialError("schema", "'isotropic' needs exactly lambda_gpa and mu_gpa")
        stiff = isotropic_stiffness(_number(iso, "lambda_gpa") * GPA, _number(iso, "mu_gpa") * GPA)
    elif "stiffness" in doc:
        st = doc["stiffness"]
        if not isinstance(st, dict) or st.get("format") != "voigt_gpa":
            raise MaterialError("schema", "'stiffness.format' must be 'voigt_gpa'")
        try:
            matrix = np.asarray(st["matrix"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise MaterialError("schema", f"bad stiffness matrix: {exc}") from exc
        if matrix.shape != (6, 6):
            raise MaterialError("schema", f"stiffness matrix must be 6x6, got {matrix.shape}")
        stiff = StiffnessTensor(matrix * GPA)
    else:
        raise MaterialError("schema", "need 'isotropic' or 'stiffness' section")
    return Material(stiffness=stiff, density=density, name=name)


def _number(doc: dict, key: str) -> float:
    """doc[key] as a float; a JSON bool, null, string or container is a schema error."""
    value = doc[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise MaterialError("schema", f"'{key}' must be a number")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise MaterialError("nonfinite", f"'{key}' must be finite") from exc


def material_to_json(mat: Material) -> str:
    """Serialize a material to the voigt_gpa schema (round-trips parse_material)."""
    doc = {
        "name": mat.name,
        "density_kg_m3": mat.density,
        "stiffness": {"format": "voigt_gpa", "matrix": (mat.stiffness.voigt / GPA).tolist()},
    }
    return json.dumps(doc, indent=2, sort_keys=True)
