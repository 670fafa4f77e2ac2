"""The benchmark's tracer (perfbench/spans.py) wraps package names given as strings.

A refactor that renames or removes one of them would only break
`perfbench/run.py --trace 1`; this test makes it fail here instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import spans
from envsos import auditor
tracer = spans.Tracer()
spans.install(tracer)
acc = auditor.EchelonAccumulator(2)
assert acc.insert([1, 2]) and acc.contains([2, 4]) and not acc.insert([3, 6])
assert [s[1] for s in tracer.spans] == ["exactla.echelon"] * 3
"""


def test_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", INSTALL], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
