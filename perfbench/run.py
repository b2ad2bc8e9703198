#!/usr/bin/env python3
"""Build and run the afpga benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_compile --seed 1 --seconds 20 --trace 0

Workloads: cold_compile and remote_rebuild, as listed in BENCHMARK.json.
The script configures and builds perfbench/ (a standalone CMake project
over ../src) as a Release build in $CARGO_TARGET_DIR, default
.bench_build, runs the helper self-test, then runs the benchmark program,
whose last stdout line is the JSON result; the exit code is non-zero on
any build, self-test or correctness failure.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_compile", "remote_rebuild")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, what, env):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build(build_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "cad", "flow.hpp")):
        fail("no afpga sources next to perfbench/ (expected src/cad/flow.hpp)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
              "cmake configure", env)
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], "cmake build", env)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(ROOT, build_dir), ROOT)
    # Compiler and program temporaries stay inside the build directory.
    tmp_dir = os.path.join(ROOT, build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    build(build_dir, env)

    program = os.path.join(ROOT, build_dir, "perfbench")
    selftest = os.path.join(ROOT, build_dir, "perfbench_selftest")
    run_quiet([selftest], "helper self-test", env)

    # Per-binary state: the QoR ledger compares runs of one build only.
    state_dir = os.path.join(build_dir, "state-" + file_digest(program))
    work_dir = os.path.join(build_dir, "work")
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--state-dir", state_dir]
    sys.stdout.flush()
    proc = subprocess.run(cmd, cwd=ROOT, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
