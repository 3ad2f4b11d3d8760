import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from surfimp.rayleigh import SCAN_CSV_HEADER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_scan_script(tmp_path):
    out = tmp_path / "scan.csv"
    text = run_script("run_scan.py", "--count", "8", "--out", str(out))
    assert "E1 satisfied: True" in text
    lines = out.read_text().splitlines()
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 9


# the first four ids predate the env parameter and are kept
@pytest.mark.parametrize("argv, env", [(("--normal", "0,0,0"), {}), (("--normal", "nan,0,1"), {}),
                                       (("--normal", "1,2"), {}), (("--count", "3"), {}),
                                       ((), {"RAYLEIGH_THREADS": "abc"}), (("--count", "abc"), {})],
                         ids=["argv0", "argv1", "argv2", "argv3", "threads-env", "count-abc"])
def test_run_scan_script_input_errors(argv, env):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_scan.py"), "--count", "8", *argv],
                          capture_output=True, text=True, timeout=120, env={**os.environ, **env})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_run_scan_script_out_is_checked_before_the_scan(tmp_path):
    # a --out in a missing directory is an input error: one error line, no summary
    argv = [sys.executable, str(SCRIPTS / "run_scan.py"), "--count", "8", "--out"]
    proc = subprocess.run([*argv, str(tmp_path / "missing" / "scan.csv")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    # a writable --out whose scan fails (the medium is not strongly elliptic)
    # keeps the bytes of an earlier scan
    out = tmp_path / "scan.csv"
    run_script("run_scan.py", "--count", "8", "--out", str(out))
    before = out.read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "m", "density_kg_m3": 1000.0, "isotropic": {"lambda_gpa": -3.0, "mu_gpa": 1.0}}')
    proc = subprocess.run([*argv, str(out), "--material", str(bad)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and "not strongly elliptic" in proc.stderr
    assert len(before) > 0 and out.read_bytes() == before


def test_subprincipal_sweep_script():
    header, *rows = run_script("subprincipal_sweep.py").splitlines()
    assert header.split()[-2:] == ["rel", "diff"]
    assert len(rows) == 12  # four Poisson ratios, three radii
    assert all(float(row.split()[-1]) <= 1e-9 for row in rows)


def _load_script(name, scripts=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, scripts / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_is_reproducible():
    # at 2 threads the anchored 513- and 600-direction scans run each pass in
    # two blocks; the 600-direction medium is not convex, so existence is read
    # from the static impedance
    output_digest = _load_script("output_digest")
    for name, n in (("aniso11", 513), ("nonconvex", 600)):
        assert (name, n, 1) in output_digest.SCANS
        digests = [output_digest.digest(output_digest.scan_csv(name, n, threads)) for threads in (1, 1, 2)]
        assert len(set(digests)) == 1, name


def _benchmark_tree(root, files):
    root.mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"paths": ["bench", "extra.py"]}))
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_bench_pairs_compares_benchmark_files(tmp_path):
    differing = _load_script("bench_pairs").differing_benchmark_files
    files = {"bench/run.py": "run", "bench/tests/test_run.py": "test", "extra.py": "x",
             "elsewhere.py": "not a benchmark file"}
    parent = _benchmark_tree(tmp_path / "parent", files)
    change = _benchmark_tree(tmp_path / "change", {**files, "elsewhere.py": "edited",
                                                   "bench/__pycache__/run.pyc": "bytes"})
    assert differing(parent, change) == []
    (change / "bench/tests/test_run.py").write_text("edited")
    (change / "bench/new.py").write_text("added")
    (change / "extra.py").unlink()
    assert differing(parent, change) == ["bench/new.py", "bench/tests/test_run.py", "extra.py"]


def test_bench_pairs_refuses_other_benchmark_files(tmp_path):
    # the parent side below shares no benchmark file with this checkout, so
    # the script must stop before running anything or writing BENCH_<label>.json
    parent = _benchmark_tree(tmp_path / "parent", {"bench/run.py": "run", "extra.py": "x"})
    label = "refusal_check"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench_pairs.py"), "--label", label,
                           "--workload", "scan_coarse", "--parent-dir", str(parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "BENCHMARK.json" in proc.stderr
    assert "bench/run.py" in proc.stderr and "perfbench/run.py" in proc.stderr
    assert not (SCRIPTS.parent / f"BENCH_{label}.json").exists()


def _git_checkout(root, files):
    # a one-commit git repository holding files; returns its short HEAD
    _benchmark_tree(root, files)
    for argv in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=bench", "-c", "user.email=bench@example.org",
                  "commit", "-q", "-m", "parent side"]):
        subprocess.run(["git", *argv], cwd=root, check=True, capture_output=True)
    return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_bench_pairs_reads_the_parent_commit_from_parent_dir(tmp_path):
    # the script runs from a copy in a one-commit checkout of its own, so that
    # "this checkout" is a git repository even where the suite's tree is not
    change = tmp_path / "change"
    _git_checkout(change, {"scripts/bench_pairs.py": (SCRIPTS / "bench_pairs.py").read_text()})
    bench_pairs = _load_script("bench_pairs", change / "scripts")
    parent = tmp_path / "parent"
    head = _git_checkout(parent, {"bench/run.py": "run"})
    assert bench_pairs.checkout_commit(parent, None) == head
    # an explicit revision resolves in this checkout, whose HEAD is another commit
    with pytest.raises(bench_pairs.Refused, match="not the commit checked out"):
        bench_pairs.checkout_commit(parent, "HEAD")
    with pytest.raises(bench_pairs.Refused, match="not the top of a git checkout"):
        bench_pairs.checkout_commit(parent / "bench", None)
    with pytest.raises(bench_pairs.Refused, match="not a commit of this checkout"):
        bench_pairs.checkout_commit(parent, "no-such-revision")
    # a path with a space is one path
    spaced = tmp_path / "parent checkout"
    spaced_head = _git_checkout(spaced, {"run.py": "run"})
    assert bench_pairs.checkout_commit(spaced, None) == spaced_head


def test_bench_pairs_refuses_a_parent_revision_other_than_parent_dir(tmp_path):
    # the parent side carries this checkout's benchmark files, so only the
    # commit check can stop the script before any run
    root = SCRIPTS.parent
    files = {path.relative_to(root).as_posix(): path.read_text()
             for path in [root / "BENCHMARK.json", *sorted((root / "perfbench").rglob("*"))]
             if path.is_file() and "__pycache__" not in path.parts}
    parent = tmp_path / "parent"
    _git_checkout(parent, files)
    label = "parent_commit_check"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench_pairs.py"), "--label", label,
                           "--workload", "scan_coarse", "--pairs", "1", "--seconds", "0.5",
                           "--parent", "HEAD", "--parent-dir", str(parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --parent HEAD ") and proc.stderr.count("\n") == 1
    assert not (root / f"BENCH_{label}.json").exists()
