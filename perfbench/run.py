#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds the perfbench
package (perfbench/CMakeLists.txt, Release) into .bench_build/ — or into
$CARGO_TARGET_DIR when that is set — then runs one measurement. The
binary's report goes to stdout; its last line is the JSON result, which
is printed only after its metric names and units have been checked
against BENCHMARK.json. Build output goes to stderr.

Exit codes: 0 success, 1 an output check failed, 2 bad arguments,
3 build failure, 4 the result does not match BENCHMARK.json, 5 timeout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-release")


def build(bdir):
    """Configure (once) and build the benchmark; False on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def check_result(line, trace):
    """Error message if the JSON result breaks the BENCHMARK.json contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON: %r" % line[:200]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected result keys %s" % sorted(result)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        return "metric names differ from BENCHMARK.json: %s" % sorted(
            set(got) ^ {m["name"] for m in want})
    for m in want:
        value = got[m["name"]]
        if value.get("unit") != m["unit"]:
            return "%s: unit %r, BENCHMARK.json says %r" % (
                m["name"], value.get("unit"), m["unit"])
        if not isinstance(value.get("value"), (int, float)):
            return "%s: value is not a number" % m["name"]
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    out = os.path.join(bdir, "traces")
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 5
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode not in (0, 1):
        print("perfbench: exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    error = check_result(lines[-1], args.trace)
    if error:
        print("perfbench: " + error, file=sys.stderr)
        return 4
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
