#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from anywhere inside a checkout:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --manifest    # print BENCHMARK.json
  python3 perfbench/run.py --selftest    # test the benchmark's own helpers:
                                         # the runner's and repeat.py's

The first call configures a Release build of the library and the runner in
.bench_build/perfbench at the root of the checkout; later calls rebuild only
what changed. Build output goes to stderr, so the last line on stdout is the
runner's result object. Workloads, metrics and checks are described in
perfbench/runner.h and perfbench/runner.cpp.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")


def build(target):
    """Builds `target` and returns the path of its executable."""
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    marker = os.path.join(BUILD_DIR, "configured")
    if not os.path.exists(marker):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
        open(marker, "w").close()
    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                    "--parallel", str(max(1, min(jobs, 4)))],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(BUILD_DIR, target)


def main(argv):
    selftest = argv == ["--selftest"]
    try:
        binary = build("perfbench_test" if selftest else "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if not selftest:
        return subprocess.run([binary] + argv).returncode
    cpp = subprocess.run([binary]).returncode
    py = subprocess.run([sys.executable, os.path.join(HERE, "repeat.py"),
                         "--selftest"]).returncode
    return 1 if cpp or py else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
