#!/usr/bin/env python3
"""Request-level benchmark entry point (see perfbench/README.md).

Builds the benchmark driver and the analysis libraries it links from the
sources in this checkout (into .bench_build/perfbench), then runs one
workload and passes its output through; the last stdout line is the JSON
result. Run from the root of the checkout:

    python3 perfbench/run.py --workload n_sweep --seed 1 --seconds 15 --trace 0

Build output goes to stderr. Exit code: the driver's (0 = every output was
correct), or nonzero when the build fails or the run times out.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("compile_cold", "n_sweep", "service_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def step(cmd, timeout):
    """Runs one build command with its output on stderr; exits on failure."""
    env = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out: " + " ".join(cmd))
    except OSError as e:
        sys.exit("perfbench: cannot run %s: %s" % (cmd[0], e))
    if rc != 0:
        sys.exit("perfbench: failed (%d): %s" % (rc, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no analysis sources under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             BUILD_TIMEOUT_S)
    step(["cmake", "--build", BUILD, "--target", "adbench", "-j", str(os.cpu_count() or 1)],
         BUILD_TIMEOUT_S)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "adbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
