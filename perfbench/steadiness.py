#!/usr/bin/env python3
"""Steadiness report for the coderep benchmark.

Runs each workload of BENCHMARK.json ten times, with seeds 1 to 10 and
BENCHMARK.json's run_seconds, and prints the median and the interquartile
range as a share of the median (IQR/median, quartiles as Python's
statistics.quantiles(values, n=4) gives them) of every end-to-end metric,
normalized and raw, next to the metric's bound in BENCHMARK.json. Each
run's end-to-end values are printed as it ends.

Every spread at or above a third of its bound is flagged, setup_s's too,
and the script exits 1 when any metric but setup_s is flagged. setup_s is
a median of a few set-ups per run, each a single pass over the inputs, so
it spreads more than the metrics that average a whole run; the benchmark
contract bounds only how far its median moves between two sets of runs,
not its spread.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py
"""

import json
import statistics
import subprocess
import sys
import time

RUNS = 10
SEED_BASE = 1


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        norm, raw, walls = {}, {}, []
        for run in range(RUNS):
            seed = SEED_BASE + run
            cmd = bench["command"] + ["--workload", workload, "--seed",
                                      str(seed), "--seconds",
                                      str(bench["run_seconds"]), "--trace", "0"]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                print("%s seed %d: failed run\n%s" % (workload, seed,
                                                       proc.stderr[-2000:]))
                ok = False
            for name, m in result["metrics"].items():
                norm.setdefault(name, []).append(m["value"])
            print("%s seed %d (%.1f s): %s" % (
                workload, seed, walls[-1],
                " ".join("%s=%.6g" % (name, m["value"])
                         for name, m in result["metrics"].items())),
                flush=True)
            for line in proc.stderr.splitlines():
                if line.startswith("perfbench-raw: "):
                    for name, v in json.loads(line[15:]).items():
                        raw.setdefault(name, []).append(v)
        print("\n%s: %d runs, wall %.1f-%.1f s per run" %
              (workload, RUNS, min(walls), max(walls)))
        print("%-18s %14s %9s %7s %14s %9s" %
              ("metric", "median", "iqr/med", "bound", "raw median",
               "raw iqr"))
        for name, values in norm.items():
            med, iqr = spread(values)
            bound = bounds.get(name, 0)
            flag = ""
            if name in raw:
                rmed, riqr = spread(raw[name])
                rtxt = "%14.6g %8.1f%%" % (rmed, 100 * riqr)
            else:
                rtxt = "%14s %9s" % ("", "")
            if iqr >= bound / 3:
                flag = "  <-- over a third of the bound"
                ok = ok and name == "setup_s"
            print("%-18s %14.6g %8.1f%% %6.1f%% %s%s" %
                  (name, med, 100 * iqr, 100 * bound, rtxt, flag))
        if "ref_ms" in raw:
            rmed, riqr = spread(raw["ref_ms"])
            print("%-18s %14s %9s %7s %14.6g %8.1f%%" %
                  ("reference R", "", "", "", rmed, 100 * riqr))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
