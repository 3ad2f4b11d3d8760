import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surfimp.cli as cli
import surfimp.rayleigh as rayleigh
from surfimp import polyfactor
from surfimp.cli import RES_KERNEL_TOL, RES_RICCATI_TOL, main
from surfimp.material import Material, StiffnessTensor, isotropic_stiffness, material_to_json
from surfimp.presets import synthetic_anisotropic
from surfimp.rayleigh import SCAN_CSV_HEADER, DirectionScan


@pytest.fixture
def iso_file(tmp_path):
    path = tmp_path / "iso.json"
    path.write_text(json.dumps({
        "name": "iso", "density_kg_m3": 1000.0,
        "isotropic": {"lambda_gpa": 2.0, "mu_gpa": 1.0},
    }))
    return str(path)


@pytest.fixture
def aniso_file(tmp_path):
    path = tmp_path / "aniso.json"
    path.write_text(material_to_json(synthetic_anisotropic(1)))
    return str(path)


@pytest.fixture
def curv_file(tmp_path):
    path = tmp_path / "curv.json"
    path.write_text(json.dumps({
        "s22": 0.31, "trS": 0.74,
        "grad_t": {"lambda": 0.21, "mu": -0.13, "rho": 0.09},
        "dn": {"lambda": -0.41, "mu": 0.17, "rho": 0.23},
    }))
    return str(path)


@pytest.fixture
def zero_curv_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "s22": 0, "trS": 0,
        "grad_t": {"lambda": 0, "mu": 0, "rho": 0},
        "dn": {"lambda": 0, "mu": 0, "rho": 0},
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_loads_no_scipy():
    # a fresh interpreter, since this session has imported SciPy already
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys, surfimp, surfimp.cli, surfimp.selftest; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


def test_selftest_runs_without_scipy():
    # a fresh interpreter in which any SciPy import fails
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys; sys.modules['scipy'] = None; from surfimp import cli; "
            "sys.exit(cli.main(['selftest', '--seed', '0']))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True


def test_validate_ok(capsys, iso_file):
    code, out, _ = run(capsys, "validate", "--material", iso_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["convex"] is True


def test_validate_reports_nonconvex(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "density_kg_m3": 1000.0,
        "isotropic": {"lambda_gpa": 2.0, "mu_gpa": -1.0},
    }))
    code, out, _ = run(capsys, "validate", "--material", str(path))
    assert code == 0  # validation reports, it does not fail
    assert json.loads(out)["convex"] is False


def test_validate_malformed_exits_1(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{{{")
    code, _, err = run(capsys, "validate", "--material", str(path))
    assert code == 1
    assert "error" in err


def test_rayleigh_matches_oracle(capsys, iso_file):
    code, out, _ = run(capsys, "rayleigh", "--material", iso_file,
                       "--normal", "0,0,1", "--tangent", "1,0,0")
    assert code == 0
    doc = json.loads(out)
    from surfimp.isotropic import rayleigh_cubic_root
    cs = np.sqrt(1.0e9 / 1000.0)
    expected = cs * np.sqrt(rayleigh_cubic_root(0.25))
    assert doc["c_r_mps"] == pytest.approx(expected, rel=1e-9)
    assert doc["exists"] is True


def test_rayleigh_csv_mode(capsys, iso_file):
    code, out, _ = run(capsys, "rayleigh", "--material", iso_file,
                       "--normal", "0,0,1", "--tangent", "1,0,0", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 2


def test_rayleigh_degenerate_frame(capsys, iso_file):
    code, _, err = run(capsys, "rayleigh", "--material", iso_file,
                       "--normal", "0,0,1", "--tangent", "0,0,2")
    assert code == 1
    assert "parallel" in err


def test_rayleigh_fuzz_frames_never_crash(capsys, aniso_file):
    rng = np.random.default_rng(2)
    for _ in range(12):
        n = rng.standard_normal(3)
        t = rng.standard_normal(3)
        code, _, _ = run(capsys, "rayleigh", "--material", aniso_file,
                         "--normal=" + ",".join(map(str, n)),
                         "--tangent=" + ",".join(map(str, t)))
        assert code in (0, 1, 3)


def test_scan_summary_and_csv(capsys, iso_file, tmp_path):
    out_csv = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--material", iso_file,
                       "--normal", "0,0,1", "--count", "360", "--out", str(out_csv))
    assert code == 0
    doc = json.loads(out)
    assert doc["e1_satisfied"] is True
    assert doc["c_r_max"] - doc["c_r_min"] < 1e-9 * doc["c_r_min"]
    assert abs(doc["holonomy_phase"]) < 1e-6
    assert 0.0 <= doc["res_kernel_max"] <= RES_KERNEL_TOL
    assert 0.0 <= doc["res_riccati_max"] <= RES_RICCATI_TOL
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 361


def test_scan_residual_breach_exits_2(capsys, iso_file, monkeypatch):
    # every row with a root breaches a zero tolerance; the summary is still printed
    monkeypatch.setattr(cli, "RES_RICCATI_TOL", 0.0)
    code, out, err = run(capsys, "scan", "--material", iso_file, "--normal", "0,0,1", "--count", "8")
    assert code == 2
    assert "residuals exceed tolerance" in err
    assert json.loads(out)["res_riccati_max"] > 0.0


def test_scan_without_roots_reports_null_residuals(capsys, iso_file, monkeypatch):
    def rootless(mat, nu, n, threads=None):
        nan = np.full(n, np.nan)
        return DirectionScan(np.zeros(n), np.ones(n), np.zeros(n, dtype=bool), nan, nan,
                             np.full((n, 3), np.nan, dtype=complex), nan, nan,
                             directions=np.tile([1.0, 0.0, 0.0], (n, 1)))

    monkeypatch.setattr(cli, "scan_directions", rootless)
    code, out, _ = run(capsys, "scan", "--material", iso_file, "--normal", "0,0,1", "--count", "8")
    doc = json.loads(out)
    assert code == 0
    assert doc["res_kernel_max"] is None and doc["res_riccati_max"] is None
    assert doc["c_r_min"] is None and doc["e1_satisfied"] is False


def test_scan_count_too_small(capsys, iso_file):
    code, _, err = run(capsys, "scan", "--material", iso_file,
                       "--normal", "0,0,1", "--count", "3")
    assert code == 1


def test_scan_malformed_thread_count_is_input_error(capsys, iso_file, monkeypatch):
    monkeypatch.setenv("RAYLEIGH_THREADS", "two")
    code, out, err = run(capsys, "scan", "--material", iso_file,
                         "--normal", "0,0,1", "--count", "8")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "RAYLEIGH_THREADS" in err


@pytest.mark.parametrize("argv", [
    ("scan", "--normal", "0,0,0", "--count", "8"),
    ("scan", "--normal", "nan,0,1", "--count", "8"),
    ("rayleigh", "--normal", "inf,0,1", "--tangent", "1,0,0"),
    ("rayleigh", "--normal", "0,0,1", "--tangent", "nan,0,0"),
    ("rayleigh", "--normal", "0,1", "--tangent", "1,0,0"),
])
def test_non_finite_or_zero_vectors_are_input_errors(capsys, iso_file, argv):
    code, out, err = run(capsys, argv[0], "--material", iso_file, *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("scale", ["1e200", "1e-320"])
def test_vectors_whose_norm_overflows_or_underflows(capsys, iso_file, scale):
    # |(0, s, s)| is inf at s = 1e200 and 0 at s = 1e-320, yet each vector
    # has the direction of (0, 1, 1), and the commands take it
    def both(normal, tangent):
        scan = run(capsys, "scan", "--material", iso_file, "--normal", normal, "--count", "8")
        point = run(capsys, "rayleigh", "--material", iso_file, "--normal", normal,
                    "--tangent", tangent)
        assert scan[0] == point[0] == 0 and scan[2] == point[2] == ""
        return json.loads(scan[1]), json.loads(point[1])

    for got, ref in zip(both(f"0,{scale},{scale}", f"{scale},0,0"), both("0,1,1", "1,0,0")):
        assert got.keys() == ref.keys()
        for key, value in ref.items():
            if value is None or isinstance(value, bool):
                assert got[key] == value
            else:
                np.testing.assert_allclose(got[key], value, rtol=1e-12, atol=1e-12)
    code, out, err = run(capsys, "rayleigh", "--material", iso_file, "--normal", f"0,{scale},{scale}",
                         "--tangent", f"0,{scale},{scale}")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "parallel" in err


_ISO_TEXT = '{"name": "m", "density_kg_m3": %s, "isotropic": {"lambda_gpa": %s, "mu_gpa": 1.0}}'
_NAN_VOIGT = json.dumps({"name": "m", "density_kg_m3": 1000.0, "stiffness": {
    "format": "voigt_gpa", "matrix": np.where(np.eye(6) == 1.0, np.nan, 0.0).tolist()}})


@pytest.mark.parametrize("command, material, curvature", [
    ("validate", _ISO_TEXT % ("Infinity", "2.0"), None),
    ("rayleigh", _NAN_VOIGT, None),
    ("validate", _ISO_TEXT % ("1000.0", "NaN"), None),
    ("rayleigh", _ISO_TEXT % ("1000.0", "1e300"), None),  # overflows to inf in Pa
    ("subprincipal", _ISO_TEXT % ("1000.0", "2.0"), '{"s22": NaN, "trS": 0.2}'),
    ("subprincipal", _ISO_TEXT % ("1000.0", "2.0"), '{"s22": 0.1, "dn": {"mu": 1e400}}'),
    ("rayleigh", _ISO_TEXT % ("1000.0", "null"), None),
    ("validate", _ISO_TEXT % ("1000.0", '"x"'), None),
    ("validate", _ISO_TEXT.replace('"mu_gpa": 1.0', '"mu_gpa": true') % ("1000.0", "2.0"), None),
    ("validate", _ISO_TEXT % ("1" + "0" * 400, "2.0"), None),  # an int beyond the float range
    ("subprincipal", _ISO_TEXT % ("1000.0", "2.0"), "[1, 2]"),
    ("subprincipal", _ISO_TEXT % ("1000.0", "2.0"), '{"s22": 0.1, "grad_t": 5}'),
    ("subprincipal", _ISO_TEXT % ("1000.0", "2.0"), '{"s22": null}'),
    ("subprincipal", _ISO_TEXT % ("1000.0", "2.0"), '{"trS": 1%s}' % ("0" * 400)),
], ids=["inf-density", "nan-voigt", "nan-lambda", "huge-lambda", "nan-curvature", "huge-curvature",
        "null-lambda", "string-lambda", "bool-mu", "huge-int-density", "array-curvature",
        "scalar-grad-curvature", "null-curvature", "huge-int-curvature"])
def test_non_finite_input_numbers_are_input_errors(capsys, tmp_path, command, material, curvature):
    # json reads NaN, Infinity, overflowing literals and values of any JSON
    # type; the records accept only finite numbers where they expect one
    mat_file, curv_file = tmp_path / "mat.json", tmp_path / "curv.json"
    mat_file.write_text(material)
    curv_file.write_text(curvature or "{}")
    extra = {"validate": (), "rayleigh": ("--normal", "0,0,1", "--tangent", "1,0,0"),
             "subprincipal": ("--curvature", str(curv_file), "--xi-dir", "1,0,0")}[command]
    code, out, err = run(capsys, command, "--material", str(mat_file), *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("lam_gpa", ["-0.9999999", "-0.99999999"])
def test_roots_below_a_thousandth_of_c_lim_exit_0(capsys, tmp_path, lam_gpa):
    path = tmp_path / "iso.json"
    path.write_text(_ISO_TEXT % ("1000.0", lam_gpa))
    code, out, err = run(capsys, "rayleigh", "--material", str(path), "--normal", "0,0,1",
                         "--tangent", "1,0,0")
    payload = json.loads(out)
    assert code == 0 and err == ""
    assert payload["exists"] and payload["c_r_mps"] < 1e-3 * payload["c_lim_mps"]
    code, out, err = run(capsys, "scan", "--material", str(path), "--normal", "0,0,1",
                         "--count", "8", "--require-e1")
    assert code == 0 and err == ""
    assert json.loads(out)["e1_satisfied"]


def test_no_root_below_lam_minus_mu_exits_3(capsys, tmp_path):
    # lam = -1.5 mu is strongly elliptic, but its impedance is indefinite at every speed
    path = tmp_path / "iso.json"
    path.write_text(_ISO_TEXT % ("1000.0", "-1.5"))
    code, out, err = run(capsys, "rayleigh", "--material", str(path), "--normal", "0,0,1",
                         "--tangent", "1,0,0")
    assert code == 3 and not json.loads(out)["exists"]
    assert err == "error: no Rayleigh root along this direction (E1 fails)\n"
    code, out, err = run(capsys, "scan", "--material", str(path), "--normal", "0,0,1",
                         "--count", "8", "--require-e1")
    assert code == 3 and json.loads(out)["c_r_min"] is None
    assert err == "error: some directions carry no Rayleigh root (E1 fails)\n"


def test_scan_unwritable_out_fails_before_the_scan(capsys, iso_file, tmp_path, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran although --out cannot be written")

    monkeypatch.setattr(cli, "scan_directions", no_scan)
    code, out, err = run(capsys, "scan", "--material", iso_file, "--normal", "0,0,1",
                         "--count", "8", "--out", str(tmp_path / "missing" / "scan.csv"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_failing_scan_leaves_out_as_it_was(capsys, iso_file, tmp_path):
    # the scan of a medium that is not strongly elliptic fails (exit 2) after
    # --out was checked; the CSV of an earlier scan keeps its bytes
    out_csv = tmp_path / "scan.csv"
    assert run(capsys, "scan", "--material", iso_file, "--normal", "0,0,1", "--count", "8",
               "--out", str(out_csv))[0] == 0
    before = out_csv.read_bytes()
    path = tmp_path / "bad.json"
    path.write_text(_ISO_TEXT % ("1000.0", "-3.0"))
    code, out, err = run(capsys, "scan", "--material", str(path), "--normal", "0,0,1", "--count", "8",
                         "--out", str(out_csv))
    assert code == 2 and out == ""
    assert err == "error: material is not strongly elliptic\n"
    assert len(before) > 0 and out_csv.read_bytes() == before


@pytest.mark.parametrize("argv", [("scan", "--normal", "0,0,1", "--count", "abc"),
                                  ("scan", "--normal", "0,0,1"),
                                  ("scan", "--normal", "0,0,1", "--count", "8", "--unknown"),
                                  ("unknown",)],
                         ids=["count-abc", "count-missing", "unknown-option", "unknown-command"])
def test_usage_errors_are_input_errors(capsys, iso_file, argv):
    # one error line and exit 1, not argparse's usage block and exit 2
    code, out, err = run(capsys, argv[0], "--material", iso_file, *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_0_on_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--help"])
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.out.startswith("usage: surfimp scan") and out.err == ""


def test_subprincipal_zero_curvature(capsys, iso_file, zero_curv_file):
    code, out, _ = run(capsys, "subprincipal", "--material", iso_file,
                       "--curvature", zero_curv_file, "--xi-dir", "1,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["psub_direct"] == 0.0
    assert doc["psub_assembled"] == 0.0


def test_subprincipal_linearity(capsys, iso_file, curv_file, tmp_path):
    code, out, _ = run(capsys, "subprincipal", "--material", iso_file,
                       "--curvature", curv_file, "--xi-dir", "1,0,0")
    assert code == 0
    base = json.loads(out)["psub_direct"]
    doubled = json.loads((lambda p: p)(open(curv_file).read()))
    doubled = {k: ({kk: 2 * vv for kk, vv in v.items()} if isinstance(v, dict) else 2 * v)
               for k, v in doubled.items()}
    dbl_file = tmp_path / "curv2.json"
    dbl_file.write_text(json.dumps(doubled))
    code, out, _ = run(capsys, "subprincipal", "--material", iso_file,
                       "--curvature", str(dbl_file), "--xi-dir", "1,0,0")
    assert code == 0
    assert json.loads(out)["psub_direct"] == pytest.approx(2.0 * base, rel=1e-9)


@pytest.mark.parametrize("lam_gpa, code", [("0.0", 0), ("-0.9", 0), ("-1.0", 1), ("-1.5", 1)])
def test_subprincipal_isotropic_domain(capsys, tmp_path, curv_file, lam_gpa, code):
    # mu = 1 GPa: a Rayleigh root exists for lam > -mu, which rayleigh also
    # solves; outside it the fit is an input error, not a traceback
    mat_file = tmp_path / "mat.json"
    mat_file.write_text(_ISO_TEXT % ("1000.0", lam_gpa))
    got, out, err = run(capsys, "subprincipal", "--material", str(mat_file),
                        "--curvature", curv_file, "--xi-dir", "1,0,0")
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        doc = json.loads(out)
        assert abs(doc["psub_direct"] - doc["psub_assembled"]) <= 1e-9 * (1.0 + abs(doc["psub_direct"]))


def test_subprincipal_rejects_anisotropic(capsys, aniso_file, curv_file):
    code, _, err = run(capsys, "subprincipal", "--material", aniso_file,
                       "--curvature", curv_file, "--xi-dir", "1,0,0")
    assert code == 1
    assert "anisotropic subprincipal unsupported" in err


def test_subprincipal_nan_route_exits_2(capsys, iso_file, curv_file, monkeypatch):
    # a NaN route fails the two-route check, and the JSON stays strict
    real = cli.subprincipal_p
    monkeypatch.setattr(cli, "subprincipal_p",
                        lambda st, curv: dataclasses.replace(real(st, curv), psub_direct=np.nan))
    code, out, err = run(capsys, "subprincipal", "--material", iso_file,
                         "--curvature", curv_file, "--xi-dir", "1,0,0")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the JSON"))
    assert doc["psub_direct"] is None


def test_subprincipal_nested_nan_is_null(capsys, tmp_path):
    # curvature near the float limit overflows X and Y2 to NaN matrices: the
    # run fails its two-route check, and the JSON stays strict at every depth
    mat_file, curv_file = tmp_path / "rock.json", tmp_path / "curv.json"
    mat_file.write_text('{"name": "rock", "density_kg_m3": 2700.0, '
                        '"isotropic": {"lambda_gpa": 30.0, "mu_gpa": 30.0}}')
    curv_file.write_text('{"s22": 1e300, "trS": 1e300}')
    with np.errstate(all="ignore"):
        code, out, _ = run(capsys, "subprincipal", "--material", str(mat_file),
                           "--curvature", str(curv_file), "--xi-dir", "1,0,0")
    assert code == 2
    doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the JSON"))
    for name in ("X", "Y2"):
        assert np.array(doc[name], dtype=object).ravel().tolist() == [None] * 8, name


def test_subprincipal_overflow_writes_one_error_line(tmp_path):
    # the curvature of test_subprincipal_nested_nan_is_null in a fresh
    # interpreter: numpy's overflow and invalid-value warnings stay off stderr
    mat_file, curv_file = tmp_path / "rock.json", tmp_path / "curv.json"
    mat_file.write_text('{"name": "rock", "density_kg_m3": 2700.0, '
                        '"isotropic": {"lambda_gpa": 30.0, "mu_gpa": 30.0}}')
    curv_file.write_text('{"s22": 1e300, "trS": 1e300}')
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "surfimp.cli", "subprincipal", "--material", str(mat_file),
                           "--curvature", str(curv_file), "--xi-dir", "1,0,0"],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: two-route disagreement: direct nan vs assembled nan\n"


def test_selftest_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--seed", "7")
    code2, out2, _ = run(capsys, "selftest", "--seed", "7")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["all_passed"] is True
    assert len(doc["criteria"]) == 10


def test_selftest_negative_seed_is_input_error(capsys):
    code, out, err = run(capsys, "selftest", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_selftest_strict_shrinks_margins(capsys):
    _, out, _ = run(capsys, "selftest", "--seed", "3")
    _, strict_out, _ = run(capsys, "selftest", "--seed", "3", "--strict")
    base = {c["name"]: c for c in json.loads(out)["criteria"]}
    strict = {c["name"]: c for c in json.loads(strict_out)["criteria"]}
    assert set(base) == set(strict)
    for name, c in base.items():
        if c["margin"] is not None:
            assert strict[name]["margin"] == pytest.approx(0.01 * c["margin"], rel=1e-9)


def _failing_eig(_):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


_RAYLEIGH_ARGV = ("rayleigh", "--normal", "0,0,1", "--tangent", "1,0,0")
_SCAN_ARGV = ("scan", "--normal", "0,0,1", "--count", "8")


@pytest.mark.parametrize("argv, fault", [
    pytest.param(_RAYLEIGH_ARGV, "cond_limit", id="argv0"),
    pytest.param(_SCAN_ARGV, "cond_limit", id="argv1"),
    pytest.param(_RAYLEIGH_ARGV, "eig", id="argv0-eig"),
    pytest.param(_SCAN_ARGV, "eig", id="argv1-eig"),
])
def test_factor_failures_exit_2(capsys, tmp_path, monkeypatch, argv, fault):
    # cond_limit: with every eigenvector basis rejected and the integral
    # route held to a tolerance it never meets, its QuadratureError ends in
    # exit 2.  eig: a companion eigensolver failure ends in exit 2 as well.
    # Neither ends in a traceback.
    path = tmp_path / "poisson.json"
    path.write_text(json.dumps({
        "name": "poisson", "density_kg_m3": 2700.0,
        "isotropic": {"lambda_gpa": 30.0, "mu_gpa": 30.0},
    }))
    if fault == "cond_limit":
        monkeypatch.setattr(polyfactor, "COND_LIMIT", 0.0)
        monkeypatch.setattr(polyfactor, "QUAD_RELTOL", 0.0)
    else:
        monkeypatch.setattr(np.linalg, "eig", _failing_eig)
    code, out, err = run(capsys, argv[0], "--material", str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("rayleigh", "--normal", "0,0,1", "--tangent", "1,0,0"),
    ("scan", "--normal", "0,0,1", "--count", "8"),
])
def test_nan_residual_exits_2(capsys, iso_file, monkeypatch, argv):
    # a NaN residual on a row with a root breaches its tolerance, and the
    # JSON on stdout stays strict: null, not NaN
    monkeypatch.setattr(rayleigh, "riccati_residual", lambda z, p: np.full(len(z), np.nan))
    code, out, err = run(capsys, argv[0], "--material", iso_file, *argv[1:])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the JSON"))
    assert doc["res_riccati" if argv[0] == "rayleigh" else "res_riccati_max"] is None


@pytest.mark.parametrize("density, moduli_gpa, argv, threads, code", [
    ("1e-300", "30.0", ("rayleigh", "--normal", "0,0,1", "--tangent", "1,0,0"), "1", 2),
    ("1e-300", "30.0", ("scan", "--normal", "0,0,1", "--count", "600"), "2", 2),
    ("1e-300", "30.0", ("subprincipal", "--xi-dir", "1,0,0"), "1", 0),
    ("2700.0", "3e290", ("subprincipal", "--xi-dir", "1,0,0"), "1", 0),
    ("1e300", "30.0", ("subprincipal", "--xi-dir", "1,0,0"), "1", 0),
    ("1e300", "30.0", ("rayleigh", "--normal", "0,0,1", "--tangent", "1,0,0"), "1", 0),
    ("2700.0", "3e290", ("scan", "--normal", "0,0,1", "--count", "600"), "2", 0),
    ("2700.0", "1e-300", ("rayleigh", "--normal", "0,0,1", "--tangent", "1,0,0"), "1", 0),
    ("1e250", "1e-19", ("subprincipal", "--xi-dir", "1,0,0"), "1", 0),
], ids=["tiny-density-rayleigh", "tiny-density-scan", "tiny-density-subprincipal",
        "huge-moduli-subprincipal", "huge-density-subprincipal", "huge-density-rayleigh",
        "huge-moduli-scan", "tiny-moduli-rayleigh", "tiny-moduli-huge-density-subprincipal"])
def test_extreme_scales_end_in_one_error_line(tmp_path, density, moduli_gpa, argv, threads, code):
    # a fresh interpreter, since pytest captures warnings in-process; the scan
    # runs two workers, whose warnings np.errstate in the main thread would not reach
    mat_file, curv_file = tmp_path / "mat.json", tmp_path / "curv.json"
    mat_file.write_text(json.dumps({"name": "m", "density_kg_m3": float(density), "isotropic": {
        "lambda_gpa": float(moduli_gpa), "mu_gpa": float(moduli_gpa)}}))
    curv_file.write_text('{"s22": 0.31, "trS": 0.74}')
    extra = ("--curvature", str(curv_file)) if argv[0] == "subprincipal" else ()
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "surfimp.cli", argv[0], "--material", str(mat_file),
                           *extra, *argv[1:]], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src), "RAYLEIGH_THREADS": threads})
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        key = {"scan": "e1_satisfied", "rayleigh": "exists", "subprincipal": "psub_assembled"}[argv[0]]
        assert json.loads(proc.stdout)[key]  # null where a route left the float range
        return
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    if "residuals exceed tolerance" in proc.stderr:  # the payload is printed before the check
        json.loads(proc.stdout, parse_constant=lambda name: pytest.fail(f"{name} in the JSON"))
    else:
        assert proc.stdout == ""


@pytest.mark.parametrize("peak_pa", [1e-290, 1e290])
def test_isotropic_fit_at_extreme_moduli(capsys, tmp_path, curv_file, peak_pa):
    # the norms of the Voigt matrix underflow or overflow at these moduli;
    # the fit takes them of the matrix scaled to a unit peak
    v = synthetic_anisotropic(11).stiffness.voigt
    aniso = Material(StiffnessTensor(v * (peak_pa / np.abs(v).max())), 4000.0)
    lam, mu = 0.5 * peak_pa, 0.25 * peak_pa
    assert cli._isotropic_parameters(aniso) is None
    fit = cli._isotropic_parameters(Material(isotropic_stiffness(lam, mu), 4000.0))
    assert fit == pytest.approx((lam, mu), rel=1e-15)
    mat_file = tmp_path / "aniso.json"
    mat_file.write_text(material_to_json(aniso))
    code, out, err = run(capsys, "subprincipal", "--material", str(mat_file),
                         "--curvature", curv_file, "--xi-dir", "1,0,0")
    assert code == 1 and out == ""
    assert err == "error: anisotropic subprincipal unsupported\n"
