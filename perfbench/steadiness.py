#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and records its steadiness.

For every end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) / median,
against the metric's bound from BENCHMARK.json, and checks that each seed
reproduces the same sim_ values when a previous record is given.

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/steadiness/set1.json
    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/steadiness/set2.json \\
        --compare perfbench/steadiness/set1.json

Run it from the repository root. The command comes from BENCHMARK.json, so
the first run builds the benchmark.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(command, workload, seed, seconds):
    start = time.time()
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=900)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["elapsed_s"] = round(time.time() - start, 2)
    return result


def summarise(runs, bounds):
    rows = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        rows[name] = {"median": median, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / median, "bound": bound}
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--out", required=True)
    ap.add_argument("--compare", default=None, help="an earlier record of the same seeds")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    earlier = json.load(open(args.compare))["workloads"] if args.compare else {}
    record = {"seeds": parse_seeds(args.seeds), "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in workloads:
        runs = [run_one(bench["command"], workload, s, bench["run_seconds"]) for s in record["seeds"]]
        rows = summarise(runs, bounds)
        record["workloads"][workload] = {"runs": runs, "summary": rows}
        for r in runs:
            ok &= r["failed"] == 0 and r["attempted"] >= 1000
        print(f"{workload}: attempted {min(r['attempted'] for r in runs)}..{max(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}")
        for name, row in rows.items():
            line = (f"  {name:22s} median {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                    f"spread {100 * row['spread']:.2f}% (bound {100 * row['bound']:.0f}%)")
            if name != "setup_s" and row["spread"] > row["bound"]:
                ok = False
                line += "  OVER BOUND"
            if workload in earlier:
                before = earlier[workload]["summary"][name]["median"]
                worse = (row["median"] - before) / before
                if name == "req_per_s":
                    worse = -worse
                line += f"  vs earlier {100 * worse:+.2f}%"
                if worse > row["bound"]:
                    ok = False
                    line += " WORSE THAN BOUND"
            print(line)
        if workload in earlier:
            for name in ("sim_write_lat_cycles", "sim_exec_cycles"):
                same = all(a["metrics"][name]["value"] == b["metrics"][name]["value"]
                           for a, b in zip(runs, earlier[workload]["runs"]))
                print(f"  {name} identical per seed across records: {same}")
                ok &= same
    json.dump(record, open(args.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
