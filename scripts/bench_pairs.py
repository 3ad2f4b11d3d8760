#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised in BENCH_<label>.json.

Example:
    python3 scripts/bench_pairs.py --label pr8 --workload scan_coarse --seed 0 --pairs 10

Run from the root of a source checkout.  The change side is this checkout's
working tree; the parent side is a temporary `git worktree` of --parent
(default HEAD), or an existing git checkout given by --parent-dir, whose HEAD
is then the recorded parent commit; the script exits 1 before any run when
that directory is not the top of a git checkout, or when an explicit --parent
is not a commit or names another one.  Each pair
runs `python3 perfbench/run.py --workload W --seed S --trace 0` once per
side, each in a fresh interpreter, and pairs alternate which side runs
first.  Both sides must carry the same benchmark: the script exits 1 before
any run, naming the files that differ, unless BENCHMARK.json and every file
under its paths (__pycache__ aside) have equal SHA-256 digests on both.  The
file gets, per workload and seed, every run of the end-to-end metrics with
their medians and quartiles (statistics.quantiles, n=4), the pairs in which
the change was lower, the failed-operation counts, and how many runs per side
reported correct outputs.  Entries for other workloads or seeds already in the
file are kept.  Exits 1, after writing the file, when a
run of this invocation reported incorrect outputs or failed operations.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("op_p50_ms", "setup_s", "peak_rss_mb")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result JSON, env record) of one benchmark run in a fresh interpreter."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return json.loads(lines[-1]), env


def side_summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def summarise(workload: str, seed: int, results: dict) -> dict:
    """One BENCH workload entry from the per-side lists of run results."""
    entry = {"workload": workload, "seed": seed, "pairs": len(results["change"]),
             "failed": {"parent": sum(r["failed"] for r in results["parent"]),
                        "change": sum(r["failed"] for r in results["change"]),
                        "attempted_change": sum(r["attempted"] for r in results["change"])},
             "correct": {side: sum(r["correct"] is True for r in results[side])
                         for side in ("parent", "change")}}
    for name in METRICS:
        per_side = {side: [r["metrics"][name]["value"] for r in results[side]]
                    for side in ("parent", "change")}
        lower = sum(c < p for p, c in zip(per_side["parent"], per_side["change"]))
        parent, change = side_summary(per_side["parent"]), side_summary(per_side["change"])
        entry[name] = {"unit": results["change"][0]["metrics"][name]["unit"],
                       "parent": parent, "change": change,
                       "change_lower_in": f"{lower}/{len(per_side['change'])}",
                       "median_change_frac": change["median"] / parent["median"] - 1.0}
    return entry


class Refused(Exception):
    """The two sides cannot be compared; the message says why."""


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def git_or_none(*args: str, cwd: Path = ROOT) -> str | None:
    """git's output without its final newline, or None when git fails."""
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    return proc.stdout.removesuffix("\n") if proc.returncode == 0 else None


def benchmark_digests(checkout: Path) -> dict[str, str]:
    """SHA-256 of BENCHMARK.json and of each file under its paths, by relative path."""
    spec = checkout / "BENCHMARK.json"
    files = [spec]
    for entry in json.loads(spec.read_text())["paths"]:
        root = checkout / entry
        files += [root] if root.is_file() else sorted(
            f for f in root.rglob("*") if f.is_file() and "__pycache__" not in f.parts)
    return {f.relative_to(checkout).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in files}


def differing_benchmark_files(parent: Path, change: Path) -> list[str]:
    """Benchmark files whose digest differs between the checkouts, or that only one has."""
    a, b = benchmark_digests(parent), benchmark_digests(change)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def refuse_other_benchmark(parent: Path) -> None:
    """Refused, naming the benchmark files that differ between parent and this checkout."""
    differ = differing_benchmark_files(parent, ROOT)
    if differ:
        raise Refused("the parent and change sides carry different benchmark files: "
                      + ", ".join(differ))


def checkout_commit(parent_dir: Path, revision: str | None) -> str:
    """Short hash of the commit checked out at parent_dir.

    Refused when parent_dir is not the top of a git checkout, or when
    revision is not a commit of this checkout or names another commit.
    """
    top = git_or_none("rev-parse", "--show-toplevel", cwd=parent_dir)
    if top is None or Path(top).resolve() != parent_dir:
        raise Refused(f"--parent-dir {parent_dir} is not the top of a git checkout")
    head = git("rev-parse", "HEAD", cwd=parent_dir)
    if revision is not None:
        commit = git_or_none("rev-parse", "--verify", "--quiet", f"{revision}^{{commit}}")
        if commit is None:
            raise Refused(f"--parent {revision} is not a commit of this checkout")
        if commit != head:
            raise Refused(f"--parent {revision} is not the commit checked out at --parent-dir "
                          f"{parent_dir} ({head[:12]})")
    return git("rev-parse", "--short", "HEAD", cwd=parent_dir)


def run_pairs(parent: Path, args) -> tuple[list, dict]:
    """The BENCH entries and host record."""
    entries, env = [], {}
    for workload in args.workload:
        for seed in args.seed:
            results = {"parent": [], "change": []}
            for k in range(args.pairs):
                order = (("parent", parent), ("change", ROOT))
                for side, checkout in order if k % 2 == 0 else order[::-1]:
                    result, env = run_once(checkout, workload, seed, args.seconds)
                    results[side].append(result)
                    p50 = result["metrics"]["op_p50_ms"]["value"]
                    print(f"{workload} seed {seed} pair {k + 1}/{args.pairs} {side}: "
                          f"op_p50_ms {p50:.4g}, failed {result['failed']}", file=sys.stderr)
            entries.append(summarise(workload, seed, results))
    return entries, env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json at the root")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append", help="default 0; repeatable")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--parent", help="git revision of the parent side (default HEAD)")
    ap.add_argument("--parent-dir", type=Path,
                    help="existing git checkout of the parent side, used instead of a temporary "
                         "worktree; its HEAD is the parent commit")
    args = ap.parse_args()
    args.seed = args.seed or [0]
    try:
        if args.parent_dir is not None:
            parent = args.parent_dir.resolve()
            refuse_other_benchmark(parent)
            parent_commit = checkout_commit(parent, args.parent)
            entries, env = run_pairs(parent, args)
        else:
            revision = args.parent or "HEAD"
            parent_commit = git("rev-parse", "--short", revision)
            with tempfile.TemporaryDirectory() as tmp:
                tree = Path(tmp) / "parent"
                git("worktree", "add", "--detach", str(tree), revision)
                try:
                    refuse_other_benchmark(tree)
                    entries, env = run_pairs(tree, args)
                finally:
                    git("worktree", "remove", "--force", str(tree))
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    done = {(e["workload"], e["seed"]) for e in entries}
    kept = [e for e in doc.get("workloads", []) if (e["workload"], e["seed"]) not in done]
    doc.update({
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent_commit": parent_commit,
        "order": "pairs alternate which side runs first",
        "quartiles": "statistics.quantiles(runs, n=4)",
        "workloads": kept + entries,
        "host": env,
    })
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    broken = [f"{e['workload']} seed {e['seed']} {side}"
              for e in entries for side in ("parent", "change")
              if e["correct"][side] < e["pairs"] or e["failed"][side] > 0]
    if broken:
        print("error: incorrect outputs or failed operations: " + ", ".join(broken),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
