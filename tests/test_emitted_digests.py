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


# every case of the --cli table, in order, with its exit code
CLI_EXITS = {"normalize": 0, "scan": 0, "sos": 0, "verify": 0, "sos-infeasible": 1,
             "theorem": 0, "theorem-counterexample": 1, "theorem-not-strictly-positive": 1,
             "theorem-abelian-window": 0, "theorem-two-generators": 0, "audit-su2": 0, "audit-abelian": 0, "audit-su2-sums": 0,
             "audit-abelian-points": 0, "scan-witnesses": 0, "scan-abelian-points": 0,
             "verify-commutative": 0, "verify-noncanonical": 2}


def test_emitted_digests_of_the_cli_cases():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "emitted_digests.py"),
                           "--checkout", str(ROOT), "--cli"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(line["case"], line["exit"]) for line in lines] == list(CLI_EXITS.items())
    for line in lines:
        assert list(line) == ["case", "exit", "stdout_sha256", "out_sha256"]
        assert re.fullmatch("[0-9a-f]{64}", line["stdout_sha256"])
        # only "sos" writes --out; its certificate then goes to the file, not to stdout
        if line["case"] == "sos":
            assert re.fullmatch("[0-9a-f]{64}", line["out_sha256"])
        else:
            assert line["out_sha256"] is None
