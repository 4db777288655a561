#!/usr/bin/env python3
"""Builds and runs the dnnperf benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the repository's src/ libraries plus the
benchmark) into .bench_build/ at the repository root, runs the benchmark's
self-tests once per build, then runs one workload. The benchmark's last
stdout line is the JSON result. Exits non-zero, printing no result, when
the sources are missing, the build or the self-tests fail, or the run does.

The benchmark runs with glibc malloc's mmap and trim thresholds fixed at
32 MiB and 64 MiB. By default glibc raises the mmap threshold as large
blocks are freed, so whether a tensor lands in the heap depends on the
allocation history and thread timing, and peak RSS on real_train varied by
20% between identical runs. With fixed thresholds it repeats within 1%.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BUILD_LOG = BUILD_DIR / "perfbench-build.log"
SELFTEST_STAMP = BUILD_DIR / "selftest.ok"
WORKLOADS = ["advisor_cold", "advisor_warm", "scale_survive", "real_train"]
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 175
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=67108864"


def fail(message, log=None):
    print(f"perfbench: {message}", file=sys.stderr)
    if log is not None and log.exists():
        lines = log.read_text(errors="replace").splitlines()
        print("\n".join(lines[-40:]), file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT).returncode


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"dnnperf sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        if run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_LOG) != 0:
            fail("cmake configure failed", BUILD_LOG)
    if run_logged(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS], BUILD_LOG) != 0:
        fail("build failed", BUILD_LOG)
    selftest = BUILD_DIR / "perfbench_selftest"
    if (not SELFTEST_STAMP.exists()
            or SELFTEST_STAMP.stat().st_mtime < selftest.stat().st_mtime
            or SELFTEST_STAMP.stat().st_mtime < (BUILD_DIR / "perfbench").stat().st_mtime):
        if run_logged([str(selftest)], BUILD_LOG) != 0:
            fail("benchmark self-tests failed", BUILD_LOG)
        SELFTEST_STAMP.touch()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    build()
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              env=dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
