#!/usr/bin/env python3
"""gaugeNN benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 20 --trace 0

Run from the root of a gaugeNN checkout. The first run configures and
builds perfbench/ (and the gaugeNN libraries it links) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs rebuild
incrementally. The binary's output is passed through; its last line is the
JSON result {"correct", "attempted", "failed", "metrics"}. A traced run
(--trace 1) also writes a Chrome trace under <build dir>/traces/.

Exit codes: 0 when every correctness gate held, 1 when a gate failed or the
run broke, 2 when the checkout or the arguments are unusable.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("crawl", "infer", "serve_open", "serve_closed")


def run_timeout_s(seconds):
    """A run measures for --seconds; its set-ups, its gates and the pass or
    round that ends the window come on top."""
    return 2 * seconds + 60


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10)
            if commit.returncode == 0 and commit.stdout.strip():
                return commit.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir, env):
    """Configures once, then builds the perfbench target incrementally."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "a") as log:
        if not (build_dir / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=log, stderr=subprocess.STDOUT, env=env)
            if configure.returncode != 0:
                fail(f"configure failed, see {log_path}", 1)
        jobs = str(max(1, os.cpu_count() or 1))
        compiled = subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "perfbench",
             "-j", jobs],
            stdout=log, stderr=subprocess.STDOUT, env=env)
        if compiled.returncode != 0:
            fail(f"build failed, see {log_path}", 1)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within 1..600", 2)

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT} holds no gaugeNN sources to build", 2)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = [m["name"] for m in
                    spec["per_layer" if args.trace else "end_to_end"]]
    except (OSError, ValueError, KeyError) as error:
        fail(f"unreadable BENCHMARK.json: {error}", 2)

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    env = dict(os.environ)
    env["TMPDIR"] = str(target / "tmp")  # compiler scratch stays in the tree
    (target / "tmp").mkdir(parents=True, exist_ok=True)
    binary = build(build_dir, env)

    source = source_id()
    trace_path = target / "traces" / \
        f"{args.workload}-seed{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-out", str(trace_path),
               "--source", source]
    timeout = run_timeout_s(args.seconds)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout} s", 1)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} printed no result (exit {run.returncode})", 1)
    missing = [name for name in expected if name not in result["metrics"]]
    extra = [name for name in result["metrics"] if name not in expected]
    if missing or extra:
        sys.stdout.write(run.stdout)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}", 1)

    host = {
        "nproc": os.cpu_count(),
        "build_type": "Release",
        "source": source,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    results_dir = target / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"host": host, "output": lines[:-1],
                                "result": result}, indent=1) + "\n")
    print("\n".join(lines))
    sys.stdout.flush()
    return 0 if run.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
