"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--trace]
                               [--record FILE [--note TEXT]]

Reads ``BENCHMARK.json`` at the checkout root for the workloads, run
length and bounds.  For every workload it prints each metric with its
unit: median, first and third quartile over the seeds, and the spread
(quartile distance over median) next to its bound.  ``--record`` also
writes every run's result, with machine details, as JSON; ``--note``
says in that file what was measured, such as the commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds, trace):
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, done.returncode, done.stderr))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line[2:] for line in lines[:-1] if line.startswith("# ")]
    return result


def summarise(results, bounds):
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        rows.append({"name": name, "unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)})
    return rows


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"note": args.note, "command": spec["command"], "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            start = time.monotonic()
            result = run_once(spec["command"], workload, seed, args.seconds, args.trace)
            result["wall_s"] = time.monotonic() - start
            results.append(result)
            print("%s seed %d: correct=%s attempted=%d failed=%d wall %.1f s" % (
                workload, seed, result["correct"], result["attempted"], result["failed"],
                result["wall_s"]), file=sys.stderr)
        rows = summarise(results, bounds)
        print("== %s (%d seeds; %s)" % (workload, len(results), results[0]["notes"][1]))
        for row in rows:
            bound = "" if row["bound"] is None else "  bound %.2f%s" % (
                row["bound"], "" if row["spread"] < row["bound"] / 3 else "  WIDE")
            print("  %-40s %-9s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s" % (
                row["name"], row["unit"], row["median"], row["q1"], row["q3"], row["spread"], bound))
        record["workloads"][workload] = {"summary": rows, "runs": results}
        sys.stdout.flush()
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
