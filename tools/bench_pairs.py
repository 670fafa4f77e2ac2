#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, recorded in a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload theorem-su2 --seeds 801-810 --seconds 18 --out BENCH_6.json

--parent and --change are two checkouts of the repository.  For each seed the
two sides run `perfbench/run.py --trace 0` one after the other, each in its
own process; the side that goes first alternates from pair to pair, so a
drift in machine speed does not favour one side.  Every run is appended to
--out (created when missing) with its workload, seed, side, order, every
end-to-end metric and its failed count.  The summary is then rebuilt from all
runs in the file: per workload and side, the median and quartiles of each
metric and the failed share, and per metric the number of pairs the change
won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str):
    """'801-810' or '1,2,5' as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarize(runs, end_to_end) -> dict:
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        sides = {}
        for side in ("parent", "change"):
            mine = [r for r in runs if r["workload"] == workload and r["side"] == side]
            if not mine:
                continue
            stats = {}
            for metric in end_to_end:
                values = [r["metrics"][metric["name"]] for r in mine]
                q = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else [values[0]] * 3)
                stats[metric["name"]] = {"median": q[1], "q1": q[0], "q3": q[2]}
            sides[side] = {
                "runs": len(mine),
                "failed_share": sum(r["failed"] for r in mine) / sum(r["attempted"] for r in mine),
                "all_correct": all(r["correct"] for r in mine),
                "metrics": stats,
            }
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        complete = [p for p in pairs.values() if len(p) == 2]
        wins = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            wins[name] = sum((p["change"][name] < p["parent"][name]) if lower
                             else (p["change"][name] > p["parent"][name]) for p in complete)
        summary[workload] = {"pairs": len(complete), "change_better_in": wins, **sides}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    record = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            checkout = args.parent if side == "parent" else args.change
            run = run_once(checkout, args.workload, seed, args.seconds)
            record["runs"].append({"workload": args.workload, "seed": seed, "side": side,
                                   "order": position + 1, **run})
            print(f"{args.workload} seed={seed} {side}: failed={run['failed']}/"
                  f"{run['attempted']} {run['metrics']}", flush=True)
        record["summary"] = summarize(record["runs"], end_to_end)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
