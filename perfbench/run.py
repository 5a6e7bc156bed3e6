#!/usr/bin/env python3
"""End-to-end benchmark for SCUBA.

Builds the library and the benchmark program from source (Release, under
.bench_build/ at the repository root), then runs one workload:

    python3 perfbench/run.py --workload paper-20k --seed 1 --seconds 10 --trace 0

--workload is one of paper-20k, scale-50k-par, serve-20k-durable, run-20k,
or `all` (every workload, untraced and then traced). --trace 1 prints the
per-layer metrics and the layer ledger instead of the end-to-end metrics.
--self-check corrupts one round's result; the run must then fail.

Build output goes to standard error. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is non-zero when the build fails or any output differs from the exact
reference.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
WORKLOADS = ["paper-20k", "scale-50k-par", "serve-20k-durable", "run-20k", "all"]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    return p.parse_args()


def build():
    """Configures (once) and builds; returns the program path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def commit():
    # Only this checkout's own history: a parent directory's repository
    # would name the wrong commit.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """Digest of the library sources, to identify the code without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def main():
    args = parse_args()
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--commit", commit(),
           "--source", source_digest()]
    if args.self_check:
        cmd.append("--self-check")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
