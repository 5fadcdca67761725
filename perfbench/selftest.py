#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py [--workloads sweep,rerun,whatif,mix4]

Run from the root of a checkout. Builds the perfbench binary like
run.py, then checks that:

 1. perfbench/expected.tsv equals a fresh --record of this tree;
 2. the deterministic per-layer metrics of a traced run (work counts,
    simulated-time ratios, accuracy figures) repeat exactly across two
    runs with one seed, and across 1 and 4 worker threads;
 3. a corrupted recorded checksum makes a run fail: failed > 0,
    fail_frac > 0 and "correct" false — the output check is live;
 4. in a directory holding only BENCHMARK.json and perfbench/ (no
    simulator sources), run.py exits non-zero without a result;
 5. every run prints exactly the metrics, with the units, that
    BENCHMARK.json lists for its mode.

Exits 0 when every check passes.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (the sibling entry point: build and binary paths)

WORK = os.path.join(run.BUILD, "selftest")

# Host-time figures, thread-count-dependent pool figures and cache-entry
# sizes (each entry stores the host seconds its simulation took) are
# not expected to repeat.
NONDETERMINISTIC_UNITS = {"s", "ns/op", "ns/cycle", "ns/call", "ns/edge",
                          "ns/edge-model", "bytes"}
NONDETERMINISTIC = {"sim.pool.util", "critpath.tracer.overhead",
                    "trace.overhead", "trace.span_overhead"}


with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    _BENCH = json.load(_f)
LISTED = {key: {m["name"]: m["unit"] for m in _BENCH[key]}
          for key in ("end_to_end", "per_layer")}


def invoke(args, tag):
    rc, out = run.run_binary(args, os.path.join(WORK, tag + ".stderr"))
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        sys.exit("selftest: perfbench failed (%s, exit %d)" % (tag, rc))
    result = json.loads(lines[-1])
    traced = args[args.index("--trace") + 1] == "1"
    listed = LISTED["per_layer" if traced else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != listed:
        sys.exit("selftest: %s prints other metrics than BENCHMARK.json "
                 "lists" % tag)
    return result


def traced(workload, seed, threads, expect, tag):
    return invoke(["--workload", workload, "--seed", str(seed),
                   "--seconds", "1", "--trace", "1", "--threads",
                   str(threads), "--expect", expect,
                   "--work-dir", os.path.join(WORK, "work")], tag)


def deterministic(result, drop=()):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in NONDETERMINISTIC_UNITS
            and k not in NONDETERMINISTIC and k not in drop}


def diff(a, b):
    return sorted(k for k in a if a[k] != b.get(k))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="sweep,rerun,whatif,mix4")
    workloads = parser.parse_args().workloads.split(",")

    ok, log = run.build()
    if not ok:
        sys.exit("selftest: build failed, see " + log)
    os.makedirs(WORK, exist_ok=True)
    expect = os.path.join(run.HERE, "expected.tsv")
    failures = []

    recorded = os.path.join(WORK, "expected.tsv")
    rc, _ = run.run_binary(["--record", recorded],
                           os.path.join(WORK, "record.stderr"))
    if rc != 0 or not filecmp.cmp(recorded, expect, shallow=False):
        failures.append("expected.tsv differs from a fresh --record")

    for w in workloads:
        first = traced(w, 7, 4, expect, w + "-a")
        second = traced(w, 7, 4, expect, w + "-b")
        single = traced(w, 7, 1, expect, w + "-t1")
        for r, tag in ((first, "a"), (second, "b"), (single, "t1")):
            if not r["correct"] or r["failed"] != 0:
                failures.append("%s run %s is not correct" % (w, tag))
        d1, d2 = deterministic(first), deterministic(second)
        if diff(d1, d2):
            failures.append("%s: not repeatable: %s" % (w, diff(d1, d2)))
        d4 = deterministic(first, drop={"sim.pool.threads"})
        dt = deterministic(single, drop={"sim.pool.threads"})
        if diff(d4, dt):
            failures.append("%s: 1 vs 4 threads differ: %s" % (w, diff(d4, dt)))
        print("selftest: %s: %d deterministic metrics repeat" % (w, len(d1)))

    # Corrupt one recorded checksum per workload family.
    with open(expect) as f:
        lines = f.readlines()
    corrupted = os.path.join(WORK, "corrupted.tsv")
    with open(corrupted, "w") as f:
        for line in lines:
            parts = line.split()
            if line.startswith(("point/crc/big/redsoc ", "mix/m1/0 ",
                                "whatif/crc/base ")):
                parts[-1] = str(int(parts[-1]) ^ 1)
                line = " ".join(parts) + "\n"
            f.write(line)
    for w in workloads:
        r = invoke(["--workload", w, "--seed", "3", "--seconds", "1",
                    "--trace", "0", "--expect", corrupted,
                    "--work-dir", os.path.join(WORK, "work")], w + "-bad")
        rt = traced(w, 3, 4, corrupted, w + "-bad-traced")
        if r["correct"] or r["failed"] == 0:
            failures.append("%s: corrupted checksum not detected" % w)
        if rt["metrics"]["fail_frac"]["value"] <= 0:
            failures.append("%s: corrupted checksum gave fail_frac 0" % w)
        print("selftest: %s: corrupted checksum -> failed %d of %d"
              % (w, r["failed"], r["attempted"]))

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("run.py without sources did not fail cleanly")
    print("selftest: without sources -> exit %d" % proc.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("selftest: FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
