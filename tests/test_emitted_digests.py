import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_emitted_digests_of_one_theorem_pass():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "emitted_digests.py"),
                           "--checkout", str(ROOT), "--workload", "theorem-su2", "--seeds", "1"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    *ops, check = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(op["workload"], op["seed"], op["op"]) for op in ops] == [("theorem-su2", 1, 0),
                                                                      ("theorem-su2", 1, 1)]
    assert ops[0]["label"] == "theorem a^2" and ops[0]["texts"] == 1
    assert all(re.fullmatch("[0-9a-f]{64}", op["sha256"]) for op in ops)
    assert check == {"workload": "theorem-su2", "seed": 1, "check": []}
