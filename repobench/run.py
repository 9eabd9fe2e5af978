#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

Run from the root of a checkout:

    python3 repobench/run.py --workload <cli_warm|suite_hot|cold_start|
        serve_mixed|all> --seed N --seconds S --trace 0|1

The build (CMake, Release) goes to $CARGO_TARGET_DIR, or .bench_build
when it is unset; results and Chrome traces go to <build>/results. The
last line of standard output is the benchmark's JSON result.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ("CMakeLists.txt", "src", "tools", "repobench")


def source_digest():
    """SHA-256 over the files the benchmark builds, so that results from a
    checkout that is not a git repository still name their code."""
    digest = hashlib.sha256()
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build(build_dir):
    """Configures once, then rebuilds incrementally; output goes to stderr
    so the last stdout line stays the result."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"repobench: build failed: {error}", file=sys.stderr)
        return 1

    # Relative paths keep the daemon's unix socket path short.
    work_dir = os.path.relpath(os.path.join(build_dir, f"work-{os.getpid()}"))
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "repobench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--cli", os.path.join(build_dir, "graphalytics", "tools",
                              "graphalytics_cli"),
        "--work-dir", work_dir, "--out-dir", out_dir,
        "--commit", commit(), "--source-digest", source_digest(),
    ]
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
