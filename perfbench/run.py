#!/usr/bin/env python3
"""surfimp benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload scan_dense --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run times operations for ``--seconds`` and
reports the end-to-end metrics, normalised to reference host speed (see
``hostspeed.py``).  With ``--trace 1`` it runs each input
untraced and then traced, in whole passes, and reports the per-layer
metrics.  Outputs are checked after the timed loop.  The last line of
stdout is the JSON result; ``--workload all`` runs every workload in turn.
"""

import os

# Single-threaded BLAS before numpy is imported: scan threads are the only
# parallelism, and they are passed explicitly.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
OUT_DIR = ROOT / ".perfbench_out"


def _import_program():
    src = ROOT / "src"
    if not (src / "surfimp" / "__init__.py").is_file():
        sys.exit(f"error: no surfimp sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import surfimp

    if Path(surfimp.__file__).resolve().parent != src / "surfimp":
        sys.exit(f"error: imported surfimp from {surfimp.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh interpreters of import, input generation and warm-up.

    Each probe samples host speed from its first statement and prints the
    mean reference-kernel time and the handler's total; the probe's wall
    time, without the handler's share, is normalised to reference speed.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--setup-probe"], cwd=ROOT, check=True, timeout=120,
                              stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        kernel_s, handler_s = json.loads(proc.stdout.splitlines()[-1])
        times.append((wall - handler_s) * hostspeed.REF_KERNEL_S / kernel_s)
    return statistics.median(times)


def timed(wl, k):
    start = time.perf_counter()
    try:
        out = wl.op(k)
    except Exception as exc:  # a failed operation is a result of the run
        out = exc
    return start, time.perf_counter(), out


def count_failures(wl, results) -> int:
    problems = wl.problems(results)
    failed = 0
    for i, (k, out) in enumerate(results):
        reasons = [repr(out)] if isinstance(out, Exception) else problems.get(i, [])
        if reasons:
            failed += 1
            print(f"FAIL {wl.name} op {i} (input {k}): {'; '.join(reasons)}", file=sys.stderr)
    return failed


def closed_loop(wl, seconds: float, min_ops: int, speed=None):
    """Operations in input order until the deadline.

    Returns the (start, end) times per label and input, the (input, output)
    results, and the peak RSS after the first operation, before any
    threads=2 scan has run.  ``speed`` samples host speed during threads=1
    operations; it is paused during threads=2 scans, whose second thread
    runs on the other core.
    """
    times, results = {}, []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        k = i % wl.n_ops
        label = wl.label(k)
        if speed is not None and label != "1t":
            speed.pause()
        t0, t1, out = timed(wl, k)
        if speed is not None and label != "1t":
            speed.resume()
        times.setdefault(label, {}).setdefault(k, []).append((t0, t1))
        results.append((k, out))
        if i == 0:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        i += 1
    return times, results, rss_mb


def run_plain(wl, seed: int, seconds: float):
    """End-to-end metrics at reference host speed (see hostspeed.py).

    Each threads=1 operation is normalised by the host speed sampled within
    a second of it; an input is summarised by the median of its repeats and
    the percentiles run over inputs.  Raw wall times are printed beside them.
    """
    import numpy as np

    speed = hostspeed.Speedometer(hostspeed.ArrayKernel())
    speed.start()
    try:
        times, results, rss_mb = closed_loop(wl, seconds, min_ops=min(wl.n_ops, 2), speed=speed)
    finally:
        speed.stop()
    failed = count_failures(wl, results)
    norm = [statistics.median(speed.normalised(t0, t1) for t0, t1 in reps)
            for reps in times["1t"].values()]
    raw = {label: [statistics.median(t1 - t0 for t0, t1 in reps) for reps in per_input.values()]
           for label, per_input in times.items()}
    ms = 1e3 * np.asarray(norm)
    human = dict(wl.summary(raw))
    human["fail_frac"] = (failed / len(results), "ratio")
    metrics = {
        "op_p50_ms": (float(np.percentile(ms, 50)), "ms"),
        "setup_s": (setup_seconds(wl.name, seed), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    human.update(metrics)
    human["op_p90_ms"] = (float(np.percentile(ms, 90)), "ms")
    human["op_p50_raw_ms"] = (1e3 * float(np.percentile(raw["1t"], 50)), "ms")
    human["ref_kernel_ms"] = (1e3 * speed.kernel_seconds(), "ms")
    human["repeats_1t"] = (sum(map(len, times["1t"].values())), "count")
    return human, metrics, len(results), failed


def run_traced(wl, seed: int, seconds: float):
    """Per-layer metrics from whole passes over the inputs.

    Each input runs untraced and then traced, so the overhead compares
    operations a few seconds apart.  Passes repeat while another one fits
    in ``seconds``; counts are per operation and repeat exactly.
    """
    import numpy as np
    import spans

    tracer = spans.Tracer()
    results, best, traced = [], {}, {}
    untraced_total = traced_total = 0.0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for k in range(wl.n_ops):
            t0, t1, out = timed(wl, k)
            dt = t1 - t0
            untraced_total += dt
            results.append((k, out))
            best[k] = min(best.get(k, dt), dt)
            tracer.install()
            try:
                t0, t1, out = timed(wl, k)
            finally:
                tracer.uninstall()
            traced_total += t1 - t0
            results.append((k, out))
            traced.setdefault(wl.label(k), []).append(tracer.take())
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pass_start) > seconds:
            break

    failed = count_failures(wl, results)
    metrics = spans.layer_metrics(traced.get("1t", []))
    metrics["rayleigh.chunk_imbalance_s"] = spans.chunk_imbalance(traced.get("2t", []))
    metrics["bench.trace_overhead_frac"] = traced_total / untraced_total - 1.0
    by_label = {}
    for k, dt in best.items():
        by_label.setdefault(wl.label(k), []).append(dt)
    metrics["bench.op_p90_ms"] = 1e3 * float(np.percentile(by_label["1t"], 90))
    metrics["bench.scan_dirs_per_s_2t"] = wl.n / by_label["2t"][0] if "2t" in by_label else 0.0
    metrics["bench.absent_names"] = float(len(tracer.absent))
    for name in tracer.absent:
        print(f"absent: {name} is not defined by this version of surfimp", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans_{wl.name}_seed{seed}.json", "w") as fh:
        json.dump({"absent": tracer.absent, "fields": ["name", "start", "end", "parent", "value"],
                   "ops": traced}, fh)
    units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    metrics = {name: (value, units.get(name, "")) for name, value in metrics.items()}
    return metrics, metrics, len(results), failed


def _declared(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def run_workload(name: str, seed: int, seconds: float, trace: bool, **sizes):
    """Set up, run and check one workload; returns (human, metrics, attempted, failed)."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, **sizes)
    wl.warmup()
    return (run_traced if trace else run_plain)(wl, seed, seconds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        speed = hostspeed.Speedometer()
        speed.start(warm=False)

    _import_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        wl = workloads.WORKLOADS[names[0]](args.seed)
        wl.warmup()
        speed.stop()
        print(json.dumps([speed.kernel_seconds(), speed.handler_seconds(float("-inf"), float("inf"))]))
        return 0

    print("env " + json.dumps(environment(), sort_keys=True))
    declared = [m["name"] for m in _declared("per_layer" if args.trace else "end_to_end")]
    attempted = failed = 0
    merged = {}
    for name in names:
        human, metrics, n_att, n_fail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += n_att
        failed += n_fail
        for metric, (value, unit) in human.items():
            print(f"{name} {metric} = {value:.6g} {unit}")
        missing = set(declared) - set(metrics)
        if missing:
            sys.exit(f"error: {name} did not measure {sorted(missing)}")
        for metric in declared:
            value, unit = metrics[metric]
            key = metric if len(names) == 1 else f"{name}.{metric}"
            merged[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
