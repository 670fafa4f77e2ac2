#!/usr/bin/env python3
"""Digests of every text the benchmark's operations emit, for byte-identity checks.

    python3 tools/emitted_digests.py --checkout ../parent --workload theorem-su2 --seeds 1-2
    python3 tools/emitted_digests.py --checkout . --workload audit-su2 --workload sphere-forms
    python3 tools/emitted_digests.py --checkout ../parent --cli

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

--cli runs the fixed table CLI_CASES of `python -m envsos` commands instead
(or after the workloads), against --checkout's src/, one after the other in
a temporary directory that holds the instance and certificate files
INSTANCES they read.  Each case prints one JSON line

    {"case": name, "exit": exit code, "stdout_sha256": digest of stdout,
     "out_sha256": digest of the file the case writes with --out, null when none}

Stderr, which carries only progress notes, is left out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

from bench_pairs import parse_seeds


# (name, arguments of `python -m envsos`); "verify" reads the file "sos" wrote
CLI_CASES = [
    ("normalize", ["normalize", "--algebra", "su2", "--expr", "x2*x1"]),
    ("scan", ["scan", "--algebra", "su2", "--exprs", "1", "2 - H", "--alias", "H=-i*x1",
              "--lmax", "1"]),
    ("sos", ["sos", "--algebra", "su2", "--expr", "1 - x1^2 - x2^2 - x3^2", "--degree", "2",
             "--out", "cert.json"]),
    ("verify", ["verify", "--certificate", "cert.json"]),
    ("sos-infeasible", ["sos", "--algebra", "su2", "--expr=-1", "--degree", "0"]),
    ("theorem", ["theorem", "--instance", "instance.json"]),
    # theorem runs whose symbol check ends in a counterexample and in a nontrivial zero
    ("theorem-counterexample", ["theorem", "--instance", "counterexample.json"]),
    ("theorem-not-strictly-positive", ["theorem", "--instance", "boundary.json"]),
    # a theorem run on an abelian algebra, whose window is a list of points
    ("theorem-abelian-window", ["theorem", "--instance", "abelian-window.json"]),
    # a theorem run whose margin proof is restricted to a face on both Gram blocks
    ("theorem-two-generators", ["theorem", "--instance", "two-generators.json"]),
    ("audit-su2", ["audit", "--algebra", "su2", "--spins", "1/2"]),
    ("audit-abelian", ["audit", "--algebra", "abelian(2)", "--points", "1,2"]),
    # the two audit commands of the README
    ("audit-su2-sums", ["audit", "--algebra", "su2", "--spins", "1/2+1", "--spins", "1+2"]),
    ("audit-abelian-points", ["audit", "--algebra", "abelian(2)", "--points", "1,2",
                              "--points", "0,0"]),
    # scans whose windows hold non-members, so they print representation witnesses
    ("scan-witnesses", ["scan", "--algebra", "su2", "--exprs", "1", "1 + x1*x2 + x2*x1",
                        "--lmax", "2"]),
    ("scan-abelian-points", ["scan", "--algebra", "abelian(2)", "--exprs", "1", "1 + x1^2",
                             "--points", "0,0", "--points", "2,1"]),
    # a canonical commutative certificate, and the same with one Gram entry written "1.0"
    ("verify-commutative", ["verify", "--certificate", "commutative.json"]),
    ("verify-noncanonical", ["verify", "--certificate", "noncanonical.json"]),
]
# the commutative_sos certificate of t1^2 + t2^2 at level 0: the identity Gram
COMMUTATIVE_CERTIFICATE = {
    "schema_version": 2, "kind": "commutative_sos", "level": 0, "nvars": 2,
    "target": "t1^2 + t2^2",
    "target_coeffs": [{"exponents": [0, 2], "coeff": "1"}, {"exponents": [2, 0], "coeff": "1"}],
    "basis": [[1, 0], [0, 1]], "gram": [["1", "0"], ["0", "1"]]}
# the files the theorem and verify cases read, by file name
INSTANCES = {
    "instance.json": {"algebra": "su2", "c": "(1 - x1^2 - x2^2 - x3^2)^2", "f": ["1"],
                      "epsilon": "1", "n_max": 0, "d_max": 4},
    # symbol t1^4+t2^4+t3^4-3t1^2t2^2: positive on the axes, negative at (1, 1, 0)
    "counterexample.json": {"algebra": "abelian(3)", "c": "x1^4 + x2^4 + x3^4 - 3*x1^2*x2^2",
                            "f": ["1"], "epsilon": "1", "n_max": 0, "d_max": 4},
    # symbol (t1^2-t2^2)^2+t3^4: a sum of squares, zero at (1, 1, 0)
    "boundary.json": {"algebra": "abelian(3)", "c": "(x1^2 - x2^2)^2 + x3^4", "f": ["1"],
                      "epsilon": "1", "n_max": 0, "d_max": 4},
    "abelian-window.json": {"algebra": "abelian(1)", "c": "(1 - x1^2)^2", "f": ["1"],
                            "epsilon": "1/2", "n_max": 0, "d_max": 4,
                            "window_points": [["0"], ["1"], ["-1/2"]]},
    "two-generators.json": {"algebra": "su2", "aliases": {"H": "-i*x1"},
                            "c": "(1 - x1^2 - x2^2 - x3^2)^2", "f": ["1", "2 - H"],
                            "epsilon": "1", "n_max": 0, "d_max": 4},
    "commutative.json": COMMUTATIVE_CERTIFICATE,
    "noncanonical.json": dict(COMMUTATIVE_CERTIFICATE, gram=[["1.0", "0"], ["0", "1"]]),
}


def digest(texts) -> str:
    return hashlib.sha256(json.dumps(list(texts)).encode()).hexdigest()


def cli_lines(checkout: str):
    """One line per case of CLI_CASES, run by the interpreter running this script."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        for filename, instance in INSTANCES.items():
            with open(os.path.join(tmp, filename), "w", encoding="utf-8") as fh:
                json.dump(instance, fh)
        for name, argv in CLI_CASES:
            proc = subprocess.run([sys.executable, "-m", "envsos", *argv], cwd=tmp, env=env,
                                  capture_output=True, timeout=600, check=False)
            out = None
            path = os.path.join(tmp, argv[argv.index("--out") + 1]) if "--out" in argv else ""
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    out = hashlib.sha256(fh.read()).hexdigest()
            yield {"case": name, "exit": proc.returncode,
                   "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(), "out_sha256": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", required=True)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--cli", action="store_true", help="also run the CLI_CASES table")
    args = parser.parse_args(argv)
    if not (args.workload or args.cli):
        parser.error("give --workload or --cli")
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
    if args.cli:
        for line in cli_lines(checkout):
            print(json.dumps(line), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
