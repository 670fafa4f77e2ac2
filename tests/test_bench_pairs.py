import importlib.util
import subprocess
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower"}, {"name": "certificates", "better": "higher"}]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("801-804") == [801, 802, 803, 804]
    assert bench_pairs.parse_seeds("1,2,5") == [1, 2, 5]
    assert bench_pairs.parse_seeds("7") == [7]


def _run(seed, side, wall, certificates=5, failed=0):
    return {"workload": "w", "seed": seed, "side": side, "order": 1, "correct": True,
            "attempted": 2, "failed": failed,
            "metrics": {"wall_s": wall, "certificates": certificates}}


def test_summarize_synthetic_record():
    runs = [_run(1, "parent", 4.0), _run(1, "change", 1.0),
            _run(2, "change", 2.0, certificates=6), _run(2, "parent", 3.0, failed=1),
            _run(3, "parent", 5.0), _run(3, "change", 6.0),
            _run(4, "parent", 1.0)]  # an unpaired run counts in its side only
    summary = bench_pairs.summarize(runs, END_TO_END)["w"]
    assert summary["pairs"] == 3
    assert summary["change_better_in"] == {"wall_s": 2, "certificates": 1}
    parent, change = summary["parent"], summary["change"]
    assert parent["runs"] == 4 and change["runs"] == 3
    assert parent["failed_share"] == 1 / 8 and change["failed_share"] == 0
    assert parent["metrics"]["wall_s"] == {"median": 3.5, "q1": 2.5, "q3": 4.25}
    assert change["metrics"]["wall_s"] == {"median": 2.0, "q1": 1.5, "q3": 4.0}
    assert change["all_correct"]


def test_run_without_result_line_names_checkout_workload_and_seed(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("print('# started')\n")
    with pytest.raises(SystemExit) as info:
        bench_pairs.run_once(str(tmp_path), "audit-su2", 17, 1.0)
    message = str(info.value)
    assert str(tmp_path) in message and "audit-su2" in message and "seed 17" in message


def test_run_records_the_number_of_passes(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('# passes=7 traced_passes=0 ops_per_pass=3')\n"
        "print('{\"correct\": true, \"attempted\": 21, \"failed\": 0,'"
        " ' \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}')\n")
    run = bench_pairs.run_once(str(tmp_path), "planted-batch", 3, 1.0)
    assert run["passes"] == 7 and run["metrics"] == {"wall_s": 1.5}
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}')\n")
    assert bench_pairs.run_once(str(tmp_path), "planted-batch", 3, 1.0)["passes"] is None


def test_summarize_reports_the_median_passes_per_side():
    runs = [dict(_run(1, "parent", 4.0), passes=6), dict(_run(1, "change", 2.0), passes=9),
            dict(_run(2, "parent", 4.0), passes=7), dict(_run(2, "change", 2.0), passes=10),
            dict(_run(3, "parent", 4.0), passes=5), _run(3, "change", 2.0)]  # a run without a count
    summary = bench_pairs.summarize(runs, END_TO_END)["w"]
    assert summary["parent"]["passes_median"] == 6
    assert summary["change"]["passes_median"] == 9.5
    assert bench_pairs.summarize([_run(1, "parent", 1.0)], END_TO_END)["w"]["parent"][
        "passes_median"] is None


def test_summarize_gives_the_no_regression_verdict():
    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.25},
                  {"name": "certificates", "better": "higher", "bound": 0.05}]
    # wall_s medians 4.0 -> 4.9 (+22.5%, within 25%); certificates 20 -> 19 (-5%, at the bound)
    runs = [_run(1, "parent", 4.0, certificates=20), _run(1, "change", 4.9, certificates=19),
            _run(2, "parent", 4.0, certificates=20), _run(2, "change", 4.9, certificates=19)]
    summary = bench_pairs.summarize(runs, end_to_end)["w"]
    assert summary["worse_beyond_bound"] == {"wall_s": False, "certificates": False}
    assert summary["failed_share_rose"] is False and summary["no_regression"] is True
    # wall_s 4.0 -> 5.1 (+27.5%), certificates 20 -> 18 (-10%), one failure more
    runs = [_run(1, "parent", 4.0, certificates=20), _run(1, "change", 5.1, certificates=18),
            _run(2, "parent", 4.0, certificates=20), _run(2, "change", 5.1, certificates=18,
                                                          failed=1)]
    summary = bench_pairs.summarize(runs, end_to_end)["w"]
    assert summary["worse_beyond_bound"] == {"wall_s": True, "certificates": True}
    assert summary["failed_share_rose"] is True and summary["no_regression"] is False
    # within every bound, but one change run reported a wrong output
    runs = [_run(1, "parent", 4.0), _run(1, "change", 4.0),
            _run(2, "parent", 4.0), dict(_run(2, "change", 4.0), correct=False)]
    summary = bench_pairs.summarize(runs, end_to_end)["w"]
    assert not any(summary["worse_beyond_bound"].values()) and not summary["failed_share_rose"]
    assert summary["no_regression"] is False
    # a gain never counts as worse, whichever way the metric is better
    runs = [_run(1, "parent", 4.0, certificates=20), _run(1, "change", 1.0, certificates=30)]
    summary = bench_pairs.summarize(runs, end_to_end)["w"]
    assert summary["worse_beyond_bound"] == {"wall_s": False, "certificates": False}
    # only one side: no verdict
    assert "no_regression" not in bench_pairs.summarize(runs[:1], end_to_end)["w"]


def test_summarize_marks_metrics_the_parent_spread_leaves_unresolved():
    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.25},
                  {"name": "certificates", "better": "higher", "bound": 0.05}]
    # parent wall_s 2, 3, 5, 6: q3 - q1 = 5.25 - 2.75 = 2.5 > 0.25 * 4.0; certificates steady
    parent = [_run(k, "parent", wall, certificates=20) for k, wall in enumerate([2, 3, 5, 6])]
    # every change run beats every parent run: resolved despite the spread
    faster = [_run(k, "change", wall, certificates=20)
              for k, wall in enumerate([1.0, 1.5, 1.8, 1.9])]
    summary = bench_pairs.summarize(parent + faster, end_to_end)["w"]
    assert summary["unresolved"] == {"wall_s": False, "certificates": False}
    # overlapping runs with a lower median: unresolved, and still no regression
    overlapping = [_run(k, "change", wall, certificates=20)
                   for k, wall in enumerate([1, 2.5, 4, 7])]
    summary = bench_pairs.summarize(parent + overlapping, end_to_end)["w"]
    assert summary["unresolved"] == {"wall_s": True, "certificates": False}
    assert summary["no_regression"] is True
    # a spread within the bound is resolved whatever the change does
    steady = [_run(k, "parent", wall) for k, wall in enumerate([4.0, 4.1, 4.2, 4.3])]
    summary = bench_pairs.summarize(steady + overlapping, end_to_end)["w"]
    assert summary["unresolved"]["wall_s"] is False
    # one run a side: no spread to read
    assert bench_pairs.summarize(parent[:1] + faster[:1], end_to_end)["w"]["unresolved"] == {
        "wall_s": False, "certificates": False}


def test_a_seed_range_that_names_no_seed_is_an_error(tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--workload", "planted-batch", "--seeds", "810-801", "--out", str(out)])
    assert info.value.code != 0
    assert "810-801 names no seed" in capsys.readouterr().err
    assert not out.exists()


def _fake_benchmark(root):
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(
        "print('{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}')\n")


def test_run_records_the_commit_of_its_checkout(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    _fake_benchmark(plain)
    assert bench_pairs.run_once(str(plain), "planted-batch", 1, 1.0)["commit"] is None
    repo = tmp_path / "repo"
    repo.mkdir()
    _fake_benchmark(repo)
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
    subprocess.run(git + ["add", "-A"], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "fake benchmark"], cwd=repo, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs.run_once(str(repo), "planted-batch", 1, 1.0)["commit"] == head
    # a directory inside a repository is not a checkout of it
    inner = repo / "perfbench"
    (inner / "perfbench").mkdir()
    (inner / "perfbench" / "run.py").write_text((repo / "perfbench" / "run.py").read_text())
    assert bench_pairs.run_once(str(inner), "planted-batch", 1, 1.0)["commit"] is None
