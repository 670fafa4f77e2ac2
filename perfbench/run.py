#!/usr/bin/env python3
"""Benchmark of envsos: time to an exactly verified verdict, end to end and per layer.

    python3 perfbench/run.py --workload su2-ladder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from a checkout of the repository (the package is imported from ./src).
One workload runs in this single process with BLAS/OpenMP threads pinned to
1.  It generates the inputs from the seed, repeats whole passes over them
until --seconds have passed, times the set-up (a fresh interpreter importing
the package and generating the inputs, nine times, median), then checks
every output with the benchmark's own arithmetic.  --trace 0 reports the end-to-end metrics; --trace 1 first runs
the same untraced window, then a traced one, and reports per-layer metrics
from spans recorded around calls into the package's modules.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output is
correct, 1 when a check failed and 2 when the checkout holds no sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("su2-ladder", "planted-batch", "theorem-su2", "sphere-forms", "audit-su2")
SETUP_REPEATS = 9
# one set-up, in a fresh interpreter: argv = perfbench dir, src dir, workload, seed
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import numpy, envsos, workloads
workloads.WORKLOADS[sys.argv[3]].generate(int(sys.argv[4]))
print(time.perf_counter() - start)
"""
UNITS = {"setup_s": "s", "wall_s": "s", "target_s_p50": "s", "certificates": "count",
         "cert_bytes": "bytes", "peak_rss_mb": "MB"}
# a 75th percentile is a tail only with ten samples beyond it
TAIL_SAMPLES = 40


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "envsos", "__init__.py")):
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import numpy
    import envsos
    import workloads
    if not os.path.abspath(envsos.__file__).startswith(SRC + os.sep):
        print(f"perfbench: envsos imported from {envsos.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    return run_workload(workloads.WORKLOADS[args.workload], args, env)


# -- one workload ------------------------------------------------------------------


class Pass:
    def __init__(self, wall, ops):
        self.wall = wall
        self.ops = ops


def run_pass(workload, inputs, tracer=None) -> Pass:
    start = time.perf_counter()
    ops = workload.run_pass(inputs, tracer)
    return Pass(time.perf_counter() - start, ops)


def setup_seconds(workload, seed) -> float:
    """Median set-up time of a fresh interpreter: imports plus input generation."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, HERE, SRC, workload.name,
                              str(seed)], stdout=subprocess.PIPE, text=True, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def run_window(workload, inputs, seconds, tracer=None) -> list[Pass]:
    """Whole passes until the window is over (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.run = len(passes)
        passes.append(run_pass(workload, inputs, tracer))
    return passes


def run_workload(workload, args, env) -> int:
    inputs = workload.generate(args.seed)
    passes = run_window(workload, inputs, args.seconds)
    traced, tracer = [], None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        traced = run_window(workload, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = check(workload, inputs, passes + traced)
    first = passes[0]
    bad_labels = {label for label, _ in errors}
    certificates = sum(ok and label not in bad_labels for op in first.ops
                       for (label, _), ok in zip(op.certificates, op.verified))
    attempted = sum(len(p.ops) for p in passes + traced)
    failed = sum(op.failed for p in passes + traced for op in p.ops)

    lines = ["# " + " ".join(f"{k}={v}" for k, v in env.items()),
             f"# passes={len(passes)} traced_passes={len(traced)} ops_per_pass={len(first.ops)}"
             f" attempted={attempted} failed={failed}"]
    lines += [f"# failed: {op.label}" for op in first.ops if op.failed]
    lines += [f"# CHECK FAILED {label}: {reason}" for label, reason in errors]

    if args.trace:
        metrics = {name: (value, spans.unit_of(name))
                   for name, value in spans.layer_metrics(tracer, len(traced)).items()}
        metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                       - statistics.median(p.wall for p in passes), "s")
        metrics["certs.den_bits"] = (den_bits(first), "bits")
        path, spent = spans.dominant_stage(tracer)
        lines.append(f"# dominant stage: {path} ({spent / len(traced):.3f}s per pass)")
        expected = spans.EXPECTED_DOMINANT.get(workload.name)
        if expected:
            verdict = "as expected" if expected(path) else "NOT the stage ROADMAP measured"
            lines.append(f"# dominant-stage cross-check: {verdict}")
        lines += ["# " + line for line in spans.op_breakdown(tracer, 0)]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}.spans.jsonl"), env)
    else:
        latencies = [op.latency for p in passes for op in p.ops if op.latency is not None]
        lines.append(f"# latency samples={len(latencies)}")
        if len(latencies) >= TAIL_SAMPLES:
            lines.append(f"# target_s_p75 = {quartiles(latencies)[1]} s")
        metrics = {
            "setup_s": setup_seconds(workload, args.seed),
            "wall_s": statistics.median(p.wall for p in passes),
            "target_s_p50": quartiles(latencies)[0],
            "certificates": certificates,
            "cert_bytes": sum(len(t.encode()) for op in first.ops for _, t in op.certificates),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (value, UNITS[name]) for name, value in metrics.items()}

    lines += [f"{name} = {value} {unit}" for name, (value, unit) in metrics.items()]
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "errors": errors, **result,
                   "ops": [[op.label, op.latency, op.failed] for op in first.ops]}, fh, indent=2)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if not errors else 1


def quartiles(values):
    """Median and 75th percentile, interpolated within the samples (no extrapolation)."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


def check(workload, inputs, passes) -> list[tuple[str, str]]:
    """(operation, reason) for every output that does not hold."""
    first = passes[0]
    errors = workload.check(inputs, first.ops)
    for p in passes:
        for op in p.ops:
            for (label, _), ok in zip(op.certificates, op.verified):
                if not ok:
                    errors.append((label, "verify_certificate_json rejected the certificate"))
    for p in passes[1:]:
        if [op.texts for op in p.ops] != [op.texts for op in first.ops]:
            errors.append(("pass", "a later pass emitted different text than the first"))
            break
    return errors


def den_bits(first: Pass) -> int:
    """Bit length of the largest Gram denominator among the emitted certificates."""
    bits = 0
    for op in first.ops:
        for _, text in op.certificates:
            data = json.loads(text)
            grams = [b["gram"] for b in data["blocks"]] if "blocks" in data else [data["gram"]]
            for gram in grams:
                bits = max(bits, oracle.gram_den_bits(gram))
    return bits


# -- every workload ----------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; prints their lines and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"# {name}: exited with {proc.returncode}")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
