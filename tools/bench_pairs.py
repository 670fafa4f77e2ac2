#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, recorded in a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload theorem-su2 --seeds 801-810 --seconds 18 --out BENCH_6.json

--parent and --change are two checkouts of the repository.  For each seed the
two sides run `perfbench/run.py --trace 0` one after the other, each in its
own process; the side that goes first alternates from pair to pair, so a
drift in machine speed does not favour one side.  Every run is appended to
--out (created when missing) with its workload, seed, side, order, the
commit its checkout is at (`git rev-parse HEAD`, null outside a git
repository), every end-to-end metric, its failed count and the number of
passes that fit in the window (the run's `# passes=N` line).  A --seeds
range that names no seed, such as 810-801, is an error.  The summary is
then rebuilt from all runs in the file: per workload and side, the median
and quartiles of each metric, the failed share and the median number of
passes, and per metric the number of pairs the change won.  The pass count
matters because a run keeps every pass alive until its checks, so
peak_rss_mb grows with it.

When both sides have runs, the summary also gives the no-regression verdict:
per end-to-end metric with a `bound`, whether the change's median is worse
than the parent's by more than that bound, taken relative to the parent
median in the direction of `better`; whether the failed share rose; and
`no_regression`, true when neither happened and every change-side run
reported correct output.  Per such metric it also marks `unresolved`: the
parent's own runs spread wider than the bound (q3 - q1 above bound * |median|)
and not every change run is better than every parent run, so the medians
cannot tell a change from noise.  `no_regression` does not read it.
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


def checkout_commit(checkout: str):
    """The commit at HEAD of checkout; None when checkout is not the root of a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != 2 or not os.path.samefile(lines[0], checkout):
        return None
    return lines[1]


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One run's commit, metrics and passes; stops the script when the run printed no result.

    passes is None when the run printed no `# passes=N` line.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_pairs: no result line from {checkout}, workload {workload}, "
                         f"seed {seed} (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    passes = next((int(line.split()[1].split("=")[1]) for line in lines
                   if line.startswith("# passes=")), None)
    return {"commit": checkout_commit(checkout), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "passes": passes,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def worse_beyond_bound(metric, parent_median, change_median) -> bool:
    """Whether the change's median is worse than the parent's by more than metric's bound."""
    worse = change_median - parent_median
    if metric["better"] != "lower":
        worse = -worse
    return worse > metric["bound"] * abs(parent_median)


def unresolved(metric, parent_stats, parent_values, change_values) -> bool:
    """Whether the parent's quartiles spread beyond metric's bound and the sides overlap."""
    if metric["better"] == "lower":
        separated = max(change_values) < min(parent_values)
    else:
        separated = min(change_values) > max(parent_values)
    spread = parent_stats["q3"] - parent_stats["q1"]
    return spread > metric["bound"] * abs(parent_stats["median"]) and not separated


def summarize(runs, end_to_end) -> dict:
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        sides = {}
        values = {}  # (side, metric name) -> the side's run values
        for side in ("parent", "change"):
            mine = [r for r in runs if r["workload"] == workload and r["side"] == side]
            if not mine:
                continue
            stats = {}
            for metric in end_to_end:
                vals = values[side, metric["name"]] = [r["metrics"][metric["name"]] for r in mine]
                q = (statistics.quantiles(vals, n=4, method="inclusive")
                     if len(vals) > 1 else [vals[0]] * 3)
                stats[metric["name"]] = {"median": q[1], "q1": q[0], "q3": q[2]}
            passes = [r["passes"] for r in mine if r.get("passes") is not None]
            sides[side] = {
                "runs": len(mine),
                "passes_median": statistics.median(passes) if passes else None,
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
        if len(sides) == 2:
            parent, change = sides["parent"], sides["change"]
            worse = {m["name"]: worse_beyond_bound(m, parent["metrics"][m["name"]]["median"],
                                                   change["metrics"][m["name"]]["median"])
                     for m in end_to_end if "bound" in m}
            rose = change["failed_share"] > parent["failed_share"]
            spread = {m["name"]: unresolved(m, parent["metrics"][m["name"]],
                                            values["parent", m["name"]], values["change", m["name"]])
                      for m in end_to_end if "bound" in m}
            summary[workload].update(
                worse_beyond_bound=worse, unresolved=spread, failed_share_rose=rose,
                no_regression=change["all_correct"] and not rose and not any(worse.values()))
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
    seeds = parse_seeds(args.seeds)
    if not seeds:
        parser.error(f"--seeds {args.seeds} names no seed")

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    record = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            checkout = args.parent if side == "parent" else args.change
            run = run_once(checkout, args.workload, seed, args.seconds)
            record["runs"].append({"workload": args.workload, "seed": seed, "side": side,
                                   "order": position + 1, **run})
            print(f"{args.workload} seed={seed} {side}: failed={run['failed']}/"
                  f"{run['attempted']} passes={run['passes']} {run['metrics']}", flush=True)
        record["summary"] = summarize(record["runs"], end_to_end)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
