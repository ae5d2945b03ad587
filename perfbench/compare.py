#!/usr/bin/env python3
"""Collect benchmark runs and compare two result sets.

    # Run alternating pairs of two checkouts (each a tree holding
    # BENCHMARK.json and perfbench/), seeds 1..10, into one JSONL file:
    python3 perfbench/compare.py collect --side base=../parent \\
        --side change=. --workload sched_replay --seeds 1-10 \\
        --out runs.jsonl

    # One verdict per workload x metric: better, worse, unchanged or
    # unresolved, every ratio printed with its base:
    python3 perfbench/compare.py verdict runs.jsonl --base base \\
        --change change

    # Median and quartiles of every metric of one side (a baseline):
    python3 perfbench/compare.py summarize runs.jsonl --side base \\
        --json perfbench/baseline.json --commit $(git rev-parse HEAD)

Run length and metric definitions always come from the BENCHMARK.json
beside this script; each side runs the command of its own
BENCHMARK.json.

A JSONL record is {"side", "workload", "seed", "trace", "pair",
"order", "seconds", "result"}, where result is the JSON line the
benchmark printed. Pairs are the runs of both sides with the same
workload, trace setting and pair index; collect alternates which side
of a pair runs first.

The verdict follows the rules the benchmark was built for: a metric
is *better* only when the change wins at least 9 of every 10 pairs
(ties count for neither side, at least 10 pairs) and the medians
differ by more than the distance between the base's quartiles. It is
*worse* when its median is worse than the base's by more than the
metric's bound in BENCHMARK.json (per-layer metrics have no bound: by
the same pair rule as *better*, with the sides swapped). When the
base's own quartile spread is wider than the bound the metric is
*unresolved* rather than unchanged, unless every change run beats
every base run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(checkout=ROOT):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    """Run the benchmark in @checkout; returns (result, wall seconds)."""
    cmd = load_spec(checkout)["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        raise SystemExit("run failed: %s (exit %d) in %s"
                         % (" ".join(cmd), proc.returncode, checkout))
    return result, wall


def cmd_collect(args):
    sides = [s.split("=", 1) for s in args.side]
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for workload in workloads:
            for pair, seed in enumerate(parse_seeds(args.seeds)):
                order = sides if pair % 2 == 0 else sides[::-1]
                for position, (name, checkout) in enumerate(order):
                    result, wall = run_once(checkout, workload, seed,
                                            seconds, args.trace)
                    record = {"side": name, "workload": workload,
                              "seed": seed, "trace": args.trace,
                              "pair": pair, "order": position,
                              "seconds": seconds, "wall_s": wall,
                              "result": result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print("%-8s %-16s seed %-4d %6.1fs correct=%s"
                          % (name, workload, seed, wall,
                             result["correct"]), file=sys.stderr)


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_defs(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def series(records, side, workload, trace, name):
    """pair index -> metric value for one side."""
    out = {}
    for r in records:
        if (r["side"] == side and r["workload"] == workload
                and r["trace"] == trace):
            out[r["pair"]] = r["result"]["metrics"][name]["value"]
    return out


def cmd_summarize(args):
    spec = load_spec()
    records = load_records(args.records)
    workloads = sorted({r["workload"] for r in records
                        if r["side"] == args.side})
    summary = {}
    ok = True
    for workload in workloads:
        for trace in sorted({r["trace"] for r in records
                             if r["side"] == args.side
                             and r["workload"] == workload}):
            for m in metric_defs(spec, trace):
                values = list(series(records, args.side, workload, trace,
                                     m["name"]).values())
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else None
                entry = {"unit": m["unit"], "n": len(values),
                         "median": med, "q1": q1, "q3": q3,
                         "spread": spread}
                flag = ""
                if "bound" in m:
                    entry["bound"] = m["bound"]
                    spread = float("inf") if spread is None else spread
                    if spread > m["bound"]:
                        flag, ok = "  SPREAD > BOUND", False
                    elif spread > m["bound"] / 3:
                        flag = "  spread > bound/3"
                summary.setdefault(workload, {})[m["name"]] = entry
                print("%-16s %-34s median %-14.6g [q1 %.6g, q3 %.6g] "
                      "spread %s%s%s"
                      % (workload, m["name"], med, q1, q3,
                         "-" if spread is None else "%.3f" % spread,
                         " bound %.2f" % m["bound"] if "bound" in m
                         else "", flag))
    if args.json:
        mine = [r for r in records if r["side"] == args.side]
        doc = {"commit": args.commit, "build_type": "Release",
               "nproc": os.cpu_count(),
               "run_seconds": sorted({r["seconds"] for r in mine}),
               "seeds": sorted({r["seed"] for r in mine}),
               "runs": {w: {"trace%d" % t: sum(
                   1 for r in mine if r["workload"] == w
                   and r["trace"] == t) for t in (0, 1)}
                   for w in workloads},
               "metrics": summary}
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


def better_of(m, a, b):
    """+1 when b is better than a, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    lower = m["better"] == "lower"
    return 1 if (b < a) == lower else -1


def verdict(m, base, change):
    """(verdict, detail) for one metric given paired base/change runs."""
    pairs = sorted(set(base) & set(change))
    b = [base[p] for p in pairs]
    c = [change[p] for p in pairs]
    q1, b_med, q3 = quartiles(b)
    _, c_med, _ = quartiles(c)
    wins = sum(1 for p in pairs if better_of(m, base[p], change[p]) > 0)
    losses = sum(1 for p in pairs if better_of(m, base[p], change[p]) < 0)
    spread = q3 - q1
    enough = len(pairs) >= 10
    significant = abs(c_med - b_med) > spread
    if b_med:
        worse_by = (c_med - b_med) / abs(b_med)
        if m["better"] == "higher":
            worse_by = -worse_by
    else:
        worse_by = 0.0 if c_med == b_med else float("inf")
    detail = ("base median %.6g [q1 %.6g, q3 %.6g], change median %.6g, "
              "ratio %.4f of base %.6g, change won %d/%d pairs, lost %d"
              % (b_med, q1, q3, c_med,
                 c_med / b_med if b_med else float("nan"), b_med,
                 wins, len(pairs), losses))
    if enough and wins >= 0.9 * len(pairs) and significant:
        return "better", detail
    bound = m.get("bound")
    if bound is None:
        if enough and losses >= 0.9 * len(pairs) and significant:
            return "worse", detail
        if b == c:
            return "unchanged", detail
        return "unresolved", detail
    if worse_by > bound:
        return "worse", detail
    all_better = all(better_of(m, x, y) > 0 for x in b for y in c)
    if b_med and spread / abs(b_med) > bound and not all_better:
        return "unresolved", detail
    return "unchanged", detail


def cmd_verdict(args):
    spec = load_spec()
    records = load_records(args.records)
    worst = 0
    for workload in sorted({r["workload"] for r in records}):
        for trace in sorted({r["trace"] for r in records
                             if r["workload"] == workload}):
            for m in metric_defs(spec, trace):
                base = series(records, args.base, workload, trace,
                              m["name"])
                change = series(records, args.change, workload, trace,
                                m["name"])
                if not base or not change:
                    continue
                v, detail = verdict(m, base, change)
                if v == "worse" and "bound" in m:
                    worst = 1
                print("%-16s %-34s %-10s %s %s"
                      % (workload, m["name"], v.upper(), m["unit"],
                         detail))
    return worst


def main():
    p = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark into JSONL")
    c.add_argument("--side", action="append", required=True,
                   help="NAME=CHECKOUT; give one or two")
    c.add_argument("--workload", action="append")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    s = sub.add_parser("summarize", help="median and quartiles per metric")
    s.add_argument("records")
    s.add_argument("--side", required=True)
    s.add_argument("--json", help="also write the summary here")
    s.add_argument("--commit", help="commit measured, for --json")
    v = sub.add_parser("verdict", help="compare two sides pair by pair")
    v.add_argument("records")
    v.add_argument("--base", required=True)
    v.add_argument("--change", required=True)
    args = p.parse_args()
    return {"collect": cmd_collect, "summarize": cmd_summarize,
            "verdict": cmd_verdict}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
