"""Tests of the benchmark harness at tiny input sizes.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402

run._import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

import surfimp.polyfactor as polyfactor  # noqa: E402
import surfimp.rayleigh as rayleigh  # noqa: E402
import surfimp.selftest as selftest  # noqa: E402

TINY = {
    "scan_dense": {"n": 128},
    "scan_coarse": {"scans": 4, "sampled": 2},
    "point_mix": {"points": 4},
    "certify": {},
}


def _declared(kind):
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_prints_every_metric_with_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name,
                        functools.partial(workloads.WORKLOADS[name], **TINY[name]))
    assert run.main(["--workload", name, "--seconds", "0.1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {ln.split()[1]: ln.split()[-1] for ln in lines[:-1] if ln.startswith(f"{name} ")}
    for metric, unit in declared.items():
        assert printed[metric] == unit


def _scaled_c_r(out):
    return dataclasses.replace(out, c_r=out.c_r * (1.0 + 1e-6))


def _first_criterion_failed(out):
    return [dataclasses.replace(out[0], passed=False), *out[1:]]


@pytest.mark.parametrize("name, corrupt", [
    ("scan_dense", _scaled_c_r),
    ("scan_coarse", _scaled_c_r),
    ("point_mix", _scaled_c_r),
    ("certify", _first_criterion_failed),
])
def test_corrupted_result_counts_as_failed(name, corrupt):
    wl = workloads.WORKLOADS[name](0, **TINY[name])
    clean = wl.op
    wl.op = lambda k: corrupt(clean(k))
    _, results, _ = run.closed_loop(wl, 0.0, min_ops=wl.n_ops)
    assert run.count_failures(wl, results) > 0


def test_speedometer_removes_handler_time_and_normalises():
    speed = hostspeed.Speedometer()
    speed.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            hostspeed.python_kernel(100)
        t1 = time.perf_counter()
    finally:
        speed.stop()
    assert len(speed.samples) >= 5
    inside = [d for s, d in speed.samples if t0 <= s < t1]
    # The handler calls the kernel twice and times the second call.
    assert speed.handler_seconds(t0, t1) > sum(inside) > 0
    assert speed.net(t0, t1) == pytest.approx(t1 - t0 - speed.handler_seconds(t0, t1))
    kernel_s = sum(d for _, d in speed.samples) / len(speed.samples)
    assert speed.normalised(t0, t1) == pytest.approx(
        speed.net(t0, t1) * hostspeed.REF_KERNEL_S / kernel_s)


def test_rayleigh_cubic_oracle():
    # lam = mu: c_r / c_s = 0.9194016867619661
    assert workloads.rayleigh_ratio_sq(1.0 / 3.0) == pytest.approx(0.9194016867619661**2, rel=1e-15)


def test_tracer_wraps_every_binding_and_restores():
    original = polyfactor.spectral_factor
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = polyfactor.spectral_factor
        assert wrapped is not original
        assert rayleigh.spectral_factor is wrapped and selftest.spectral_factor is wrapped
    finally:
        tracer.uninstall()
    assert polyfactor.spectral_factor is original and rayleigh.spectral_factor is original


def test_tracer_reports_absent_names(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("rayleigh", "_detz_renamed", None),
        ("rayleigh", "_GoneEngine.limiting_speeds", None),
        ("gone_module", "anything", None),
    ))
    tracer = spans.Tracer()
    tracer.install()
    try:
        rayleigh.scan_directions(workloads.presets.poisson_solid(), [0.0, 0.0, 1.0], 8, threads=1)
        ops = [tracer.take()]
    finally:
        tracer.uninstall()
    assert tracer.absent == ["rayleigh._detz_renamed", "rayleigh._GoneEngine.limiting_speeds",
                             "gone_module.anything"]
    assert spans.layer_metrics(ops)["rayleigh.c_lim_eig_calls"] == 221


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "point_mix", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
