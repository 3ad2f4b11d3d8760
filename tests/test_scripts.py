import subprocess
import sys
from pathlib import Path

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


def test_subprincipal_sweep_script():
    header, *rows = run_script("subprincipal_sweep.py").splitlines()
    assert header.split()[-2:] == ["rel", "diff"]
    assert len(rows) == 12  # four Poisson ratios, three radii
    assert all(float(row.split()[-1]) <= 1e-9 for row in rows)
