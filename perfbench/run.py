#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload sweep|rerun|whatif|mix4 \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the simulator
library and the perfbench binary from source into .bench_build (CMake,
Release); later runs rebuild incrementally. The binary's stderr (which
includes the simulator's own debug lines) goes to
.bench_build/logs/<workload>.stderr; stdout ends with one JSON result
line. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
JOBS = str(max(1, min(4, len(os.sched_getaffinity(0)))))


def _run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode


def build():
    """Configure (once) and build the binary; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    open(log, "w").close()
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if _run_logged(configure, log) != 0:
            return False, log
    rc = _run_logged(["cmake", "--build", BUILD, "-j", JOBS,
                      "--target", "perfbench"], log)
    if rc != 0 and os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        # A cache left by another source tree: configure afresh once.
        shutil.rmtree(BUILD)
        os.makedirs(BUILD)
        if _run_logged(configure, log) != 0:
            return False, log
        rc = _run_logged(["cmake", "--build", BUILD, "-j", JOBS,
                          "--target", "perfbench"], log)
    return rc == 0, log


def tail(path, lines=30):
    """Last lines of a log, without the simulator's retimer debug lines."""
    try:
        with open(path, errors="replace") as f:
            kept = [l for l in f if not l.startswith("PRUNE-")]
        return "".join(kept[-lines:])
    except OSError:
        return ""


def run_binary(args, stderr_path):
    """Run the built binary; returns (exit code, stdout text)."""
    with open(stderr_path, "w") as err:
        proc = subprocess.run([BINARY] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=err, text=True)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "rerun", "whatif", "mix4"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    ok, log = build()
    if not ok:
        sys.stderr.write("perfbench: build failed (%s)\n%s" % (log, tail(log)))
        return 1

    logs = os.path.join(BUILD, "logs")
    os.makedirs(logs, exist_ok=True)
    stderr_path = os.path.join(logs, args.workload + ".stderr")
    rc, out = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--expect", os.path.join("perfbench", "expected.tsv"),
         "--work-dir", os.path.join(".bench_build", "work")],
        stderr_path)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if rc != 0 or result is None:
        sys.stderr.write("perfbench: run failed (exit %d); stderr tail:\n%s"
                         % (rc, tail(stderr_path)))
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
