import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfimp.material import (
    VOIGT_PAIRS,
    Material,
    MaterialError,
    StiffnessTensor,
    SurfaceFrame,
    acoustic_tensor,
    isotropic_stiffness,
    material_to_json,
    parse_material,
    rotate_stiffness,
    stiffness_from_tensor,
    validate_stiffness,
)
from surfimp.presets import random_rotation, synthetic_anisotropic

unit_vectors = st.integers(0, 2).map(lambda i: np.eye(3)[i])
finite_vec = st.tuples(*[st.floats(-3, 3) for _ in range(3)]).map(np.array)


def test_isotropic_voigt_pattern():
    c = isotropic_stiffness(2.0, 1.0).voigt
    assert c[0, 0] == 4.0 and c[0, 1] == 2.0 and c[3, 3] == 1.0
    c0 = isotropic_stiffness(0.0, 1.0).voigt
    assert c0[0, 0] == 2.0 and c0[0, 1] == 0.0 and c0[3, 3] == 1.0


def test_isotropic_strong_convexity():
    # positive definiteness is mu > 0 and 3 lam + 2 mu > 0
    assert validate_stiffness(isotropic_stiffness(2.0, 1.0)).convex
    assert validate_stiffness(isotropic_stiffness(-0.5, 1.0)).convex  # 3(-0.5) + 2 = 0.5 > 0
    assert not validate_stiffness(isotropic_stiffness(-1.0, 1.0)).convex


def test_acoustic_isotropic_axis():
    c = isotropic_stiffness(2.0, 1.0)
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(acoustic_tensor(c, e1), np.diag([4.0, 1.0, 1.0]), atol=1e-14)


def test_acoustic_matches_lame_form(rng):
    lam, mu = 2.0, 1.0
    c = isotropic_stiffness(lam, mu)
    rows = []
    for _ in range(10):
        xi = rng.standard_normal(3)
        eta = rng.standard_normal(3)
        expected = lam * np.outer(xi, eta) + mu * np.outer(eta, xi) + mu * (xi @ eta) * np.eye(3)
        np.testing.assert_allclose(acoustic_tensor(c, xi, eta), expected, atol=1e-12)
        rows.append((xi, eta))
    # stacked vectors, also broadcast against one vector, give bit for bit
    # the one-row results
    xis, etas = (np.array(col) for col in zip(*rows))
    np.testing.assert_array_equal(acoustic_tensor(c, xis, etas),
                                  [acoustic_tensor(c, xi, eta) for xi, eta in rows])
    np.testing.assert_array_equal(acoustic_tensor(c, xis[0], etas),
                                  [acoustic_tensor(c, xis[0], eta) for eta in etas])
    np.testing.assert_array_equal(acoustic_tensor(c, xis), [acoustic_tensor(c, xi) for xi in xis])


def test_acoustic_eigenvalues_isotropic(rng):
    lam, mu = 2.0, 1.0
    c = isotropic_stiffness(lam, mu)
    xi = rng.standard_normal(3)
    evs = np.sort(np.linalg.eigvalsh(acoustic_tensor(c, xi)))
    n2 = xi @ xi
    np.testing.assert_allclose(evs, [mu * n2, mu * n2, (lam + 2 * mu) * n2], rtol=1e-12)


@given(finite_vec, finite_vec)
@settings(max_examples=30, deadline=None)
def test_acoustic_transpose_symmetry(xi, eta):
    c = synthetic_anisotropic(3).stiffness
    left = acoustic_tensor(c, xi, eta).T
    right = acoustic_tensor(c, eta, xi)
    np.testing.assert_allclose(left, right, atol=1e-6 * max(1.0, np.abs(left).max()))
    # c(xi) = c(xi, xi) comes exactly symmetric
    for v in (xi, eta):
        c_v = acoustic_tensor(c, v)
        np.testing.assert_array_equal(c_v, c_v.T)


@given(st.floats(0.1, 4.0), finite_vec, finite_vec)
@settings(max_examples=30, deadline=None)
def test_acoustic_homogeneity(t, xi, eta):
    c = isotropic_stiffness(2.0, 1.0)
    scaled = acoustic_tensor(c, t * xi, t * eta)
    base = acoustic_tensor(c, xi, eta)
    np.testing.assert_allclose(scaled, t * t * base, rtol=1e-12, atol=1e-12)


def test_validate_isotropic_delta():
    report = validate_stiffness(isotropic_stiffness(1.0, 1.0))
    assert report.convex and report.elliptic
    # min eigenvalue of c(eta) over unit eta is mu
    assert report.ellipticity_constant >= 1.0 - 1e-9
    assert report.ellipticity_constant <= 1.0 + 1e-9


def test_validate_negative_mu_not_convex():
    report = validate_stiffness(isotropic_stiffness(1.0, -1.0))
    assert not report.convex


def test_validate_negative_voigt_eigenvalue_not_convex():
    v = isotropic_stiffness(2.0, 1.0).voigt.copy()
    v[5, 5] = -0.1
    report = validate_stiffness(StiffnessTensor(v))
    assert not report.convex


def test_rotate_identity(aniso):
    rotated = rotate_stiffness(aniso.stiffness, np.eye(3))
    np.testing.assert_allclose(rotated.voigt, aniso.stiffness.voigt, rtol=1e-14)


def test_rotate_isotropic_invariant(rng):
    c = isotropic_stiffness(2.0, 1.0)
    rotated = rotate_stiffness(c, random_rotation(rng))
    np.testing.assert_allclose(rotated.voigt, c.voigt, atol=1e-12)


def test_rotate_preserves_kelvin_spectrum(rng):
    # the tensor-inner-product spectrum (Kelvin/Mandel weighting) is the
    # rotation invariant; plain Voigt eigenvalues are not
    c = synthetic_anisotropic(7).stiffness
    r = random_rotation(rng)
    before = np.sort(np.linalg.eigvalsh(c.mandel()))
    after = np.sort(np.linalg.eigvalsh(rotate_stiffness(c, r).mandel()))
    np.testing.assert_allclose(after, before, rtol=1e-10)


def test_rotate_rejects_non_orthogonal():
    c = isotropic_stiffness(2.0, 1.0)
    with pytest.raises(MaterialError):
        rotate_stiffness(c, np.eye(3) + 0.01)
    with pytest.raises(MaterialError):
        rotate_stiffness(c, -np.eye(3))  # improper


def test_voigt_tensor_roundtrip(aniso):
    c4 = aniso.stiffness.tensor()
    back = stiffness_from_tensor(c4)
    np.testing.assert_allclose(back.voigt, aniso.stiffness.voigt, rtol=1e-15)


def test_tensor_symmetries_and_loop_reference(rng):
    # the fancy-indexed tensor() against a loop over the Voigt pairs
    for _ in range(20):
        v = rng.standard_normal((6, 6))
        stiff = StiffnessTensor(v + v.T)
        c4 = stiff.tensor()
        ref = np.empty((3, 3, 3, 3))
        for a, (i, j) in enumerate(VOIGT_PAIRS):
            for b, (k, l) in enumerate(VOIGT_PAIRS):
                v_ab = stiff.voigt[a, b]
                ref[i, j, k, l] = ref[j, i, k, l] = ref[i, j, l, k] = ref[j, i, l, k] = v_ab
        assert np.array_equal(c4, ref)
        assert np.array_equal(c4, c4.transpose(1, 0, 2, 3))  # minor symmetries
        assert np.array_equal(c4, c4.transpose(0, 1, 3, 2))
        assert np.array_equal(c4, c4.transpose(2, 3, 0, 1))  # major symmetry
        assert np.array_equal(stiffness_from_tensor(c4).voigt, stiff.voigt)


def test_parse_isotropic_record():
    text = json.dumps({"name": "m", "density_kg_m3": 1000,
                       "isotropic": {"lambda_gpa": 2, "mu_gpa": 1}})
    mat = parse_material(text)
    assert mat.stiffness.voigt[0, 0] == pytest.approx(4.0e9)
    assert mat.density == 1000.0


def test_parse_roundtrip(aniso):
    again = parse_material(material_to_json(aniso))
    np.testing.assert_allclose(again.stiffness.voigt, aniso.stiffness.voigt, rtol=1e-12)
    assert again.density == aniso.density


def test_parse_error_codes():
    with pytest.raises(MaterialError) as err:
        parse_material("not json")
    assert err.value.code == "schema"
    with pytest.raises(MaterialError) as err:
        parse_material(json.dumps({"name": "m", "density_kg_m3": 0,
                                   "isotropic": {"lambda_gpa": 2, "mu_gpa": 1}}))
    assert err.value.code == "nonpositive_density"
    bad = np.eye(6).tolist()
    bad[0][1] = 0.5
    with pytest.raises(MaterialError) as err:
        parse_material(json.dumps({"name": "m", "density_kg_m3": 1.0,
                                   "stiffness": {"format": "voigt_gpa", "matrix": bad}}))
    assert err.value.code == "asymmetric_stiffness"
    iso = {"lambda_gpa": 2, "mu_gpa": 1}
    for doc, message in [
        ([], "JSON object"),
        ({"name": 1, "density_kg_m3": 1.0, "isotropic": iso}, "'name'"),
        ({"name": "m", "isotropic": iso}, "density_kg_m3"),
        ({"density_kg_m3": 1.0, "isotropic": {"lambda_gpa": 2}}, "exactly lambda_gpa and mu_gpa"),
        ({"density_kg_m3": 1.0, "stiffness": {"format": "kelvin", "matrix": np.eye(6).tolist()}},
         "voigt_gpa"),
        ({"density_kg_m3": 1.0, "stiffness": {"format": "voigt_gpa", "matrix": [[1, 2], [3]]}},
         "bad stiffness matrix"),
        ({"density_kg_m3": 1.0, "stiffness": {"format": "voigt_gpa", "matrix": np.eye(5).tolist()}},
         "6x6"),
        ({"density_kg_m3": 1.0}, "'isotropic' or 'stiffness'"),
    ]:
        with pytest.raises(MaterialError, match=message) as err:
            parse_material(json.dumps(doc))
        assert err.value.code == "schema"
    with pytest.raises(MaterialError, match="6x6") as err:
        StiffnessTensor(np.eye(5))
    assert err.value.code == "schema"


def test_symmetry_check_survives_overflowing_norms():
    # above ~1e154 Pa the Frobenius norms of the matrix overflow to inf
    big = np.eye(6) * 1e169
    skew = big.copy()
    skew[0, 1] = 1e169
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert StiffnessTensor(big).symmetry_defect == 0.0
        with pytest.raises(MaterialError) as err:
            StiffnessTensor(skew)
    assert err.value.code == "asymmetric_stiffness"


def test_material_rejects_nonpositive_density():
    with pytest.raises(MaterialError):
        Material(stiffness=isotropic_stiffness(2.0, 1.0), density=-1.0)


def test_frame_validation():
    with pytest.raises(MaterialError):
        SurfaceFrame(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(MaterialError):
        SurfaceFrame(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.1, 1.0]) / math.sqrt(1.01))


@pytest.mark.parametrize("nu, tangent", [
    ([math.nan, 0.0, 0.0], [0.0, 1.0, 0.0]),
    ([0.0, 0.0, 1.0], [1.0, math.nan, 0.0]),
    ([0.0, 0.0, math.inf], [1.0, 0.0, 0.0]),
    ([0.0, 0.0, 1.0], [-math.inf, 0.0, 0.0]),
])
def test_non_finite_frames_are_rejected(nu, tangent):
    # a NaN entry makes every tolerance comparison false, so the checks must
    # reject what fails them rather than accept what passes
    for make in (SurfaceFrame, SurfaceFrame.from_vectors):
        with pytest.raises(MaterialError) as err:
            make(np.array(nu), np.array(tangent))
        assert err.value.code == "frame"


@pytest.mark.parametrize("scale", [1e200, 1e-320])
def test_frame_from_vectors_of_extreme_magnitude(scale):
    # |v| overflows at 1e200 and underflows at 1e-320; the frame is that of
    # the same directions at unit scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame = SurfaceFrame.from_vectors([0.0, 0.0, scale], [2.0 * scale, 0.0, scale])
    ref = SurfaceFrame.from_vectors([0.0, 0.0, 1.0], [2.0, 0.0, 1.0])
    np.testing.assert_allclose(frame.nu, ref.nu, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(frame.tangent, ref.tangent, rtol=0.0, atol=1e-15)
    assert frame.orthonormalization_defect == pytest.approx(ref.orthonormalization_defect, rel=1e-12)


def test_frame_from_vectors_reorthonormalizes():
    frame = SurfaceFrame.from_vectors([0, 0, 2.0], [1.0, 0, 0.3])
    assert abs(frame.nu @ frame.tangent) < 1e-14
    assert frame.orthonormalization_defect > 0
    with pytest.raises(MaterialError) as err:
        SurfaceFrame.from_vectors([0, 0, 1.0], [0, 0, -3.0])
    assert err.value.code == "degenerate_frame"
