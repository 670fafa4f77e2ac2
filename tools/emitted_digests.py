#!/usr/bin/env python3
"""Digests of every text the benchmark's operations emit, for byte-identity checks.

    python3 tools/emitted_digests.py --checkout ../parent --workload theorem-su2 --seeds 1-2
    python3 tools/emitted_digests.py --checkout . --workload audit-su2 --workload sphere-forms

--checkout is a checkout of the repository.  Its perfbench/workloads.py and
its src/ are imported read-only: no bytecode is written, and BLAS/OpenMP
threads are pinned to 1 as in perfbench/run.py.  For each workload and seed
one untraced pass runs, and the script prints one JSON line per operation:

    {"workload": ..., "seed": ..., "op": index, "label": ..., "texts": count,
     "sha256": digest of the JSON array of the operation's emitted texts}

and then one line {"workload": ..., "seed": ..., "check": [[label, reason], ...]}
with the workload's own check of that pass, empty when every output is right.
Two checkouts emitted the same certificates, transcripts and reports exactly
when their outputs are equal line for line.  The exit code is 1 when a check
list is not empty.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from bench_pairs import parse_seeds


def digest(texts) -> str:
    return hashlib.sha256(json.dumps(list(texts)).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if not seeds:
        parser.error(f"--seeds {args.seeds} names no seed")

    sys.dont_write_bytecode = True
    checkout = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import run  # the benchmark's entry point; importing it runs nothing
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    import workloads

    unknown = [name for name in args.workload if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: {sorted(workloads.WORKLOADS)}")
    status = 0
    for name in args.workload:
        workload = workloads.WORKLOADS[name]
        for seed in seeds:
            inputs = workload.generate(seed)
            ops = workload.run_pass(inputs)
            for index, op in enumerate(ops):
                print(json.dumps({"workload": name, "seed": seed, "op": index, "label": op.label,
                                  "texts": len(op.texts), "sha256": digest(op.texts)}), flush=True)
            errors = [list(error) for error in workload.check(inputs, ops)]
            print(json.dumps({"workload": name, "seed": seed, "check": errors}), flush=True)
            status |= bool(errors)
    return status


if __name__ == "__main__":
    sys.exit(main())
