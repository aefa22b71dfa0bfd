#!/usr/bin/env python3
"""Build the analyzer and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to .bench_build (release
profile); the last stdout line is the result object.  See
perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("analyze-corpus", "explore-statespace", "serve-mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for path in ("dune-project", "lib", "bin/coanalyze.ml", "perfbench/dune"):
        if not os.path.exists(path):
            fail("no %s here: run from the root of a source checkout" % path, 2)
    if shutil.which("dune") is None:
        fail("dune is not on PATH", 2)

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release",
         "./perfbench/perfbench.exe", "./bin/coanalyze.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed", 3)

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    coanalyze = os.path.join(BUILD_DIR, "default", "bin", "coanalyze.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--coanalyze", coanalyze, "--expected", "perfbench/expected.json"]
    # its own process group, so a timeout also stops the serve daemon
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
