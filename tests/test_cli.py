import json

import pytest

from envsos.certs import verify_certificate_json
from envsos.cli import main
from envsos.lie import builtin, to_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--algebra", "su2", "--expr", "x2*x1")
    assert code == 0
    assert json.loads(out)["normal_form"] == "-x3 + x1*x2"


def test_normalize_canonical_element(capsys):
    code, out, _ = run(capsys, "normalize", "--algebra", "su2",
                       "--expr", "1 - x1^2 - x2^2 - x3^2")
    assert code == 0
    assert json.loads(out)["normal_form"] == "1 - x1^2 - x2^2 - x3^2"


def test_normalize_syntax_error(capsys):
    code, _, err = run(capsys, "normalize", "--algebra", "su2", "--expr", "x1**")
    assert code == 2
    assert "position" in err


def test_scan_with_alias(capsys):
    code, out, _ = run(capsys, "scan", "--algebra", "su2",
                       "--exprs", "1", "2 - H", "--alias", "H=-i*x1", "--lmax", "3")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["members"] == ["0", "1/2", "1", "3/2", "2"]


def test_scan_trivial(capsys):
    code, out, _ = run(capsys, "scan", "--algebra", "su2", "--exprs", "1", "--lmax", "2")
    assert code == 0
    data = json.loads(out)
    assert data["members"] == data["window"]


def test_scan_non_hermitean(capsys):
    code, _, err = run(capsys, "scan", "--algebra", "su2", "--exprs", "1", "x1", "--lmax", "1")
    assert code == 2


def test_sos_certificate_and_verify(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "sos", "--algebra", "su2",
                     "--expr", "1 - x1^2 - x2^2 - x3^2", "--degree", "2",
                     "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--certificate", str(cert))
    assert code == 0
    assert json.loads(out)["valid"] is True

    data = json.loads(cert.read_text())
    data["blocks"][0]["gram"][0][0] = "2"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--certificate", str(tampered))
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _, _ = run(capsys, "verify", "--certificate", str(bad))
    assert code == 2


def test_sos_infeasible(capsys):
    code, out, _ = run(capsys, "sos", "--algebra", "su2", "--expr", "-1", "--degree", "0")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "numeric-infeasible-evidence"


def test_theorem_found_and_exhausted(tmp_path, capsys):
    inst = {
        "algebra": "su2",
        "c": "(1 - x1^2 - x2^2 - x3^2)^2",
        "f": ["1"],
        "epsilon": "1",
        "n_max": 2,
        "d_max": 8,
        "l_max": "3",
        "solver": {"seed": 7},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out, _ = run(capsys, "theorem", "--instance", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "found"
    assert data["attempts"][-1]["n"] == 0

    code, out, _ = run(capsys, "theorem", "--instance", str(path),
                       "--nmax", "0", "--dmax", "2")
    assert code == 1
    assert json.loads(out)["status"] == "exhausted"


@pytest.mark.parametrize("algebra, c, points, members", [
    ("abelian(1)", "(1 - x1^2)^2", [["0"], ["1"], ["-1/2"]], ["(0)", "(1)", "(-1/2)"]),
    # no window points: the default grid {0, 1, -1}^2
    ("abelian(2)", "(1 - x1^2)^2 + (1 - x2^2)^2", None,
     [f"({a}, {b})" for a in ("0", "1", "-1") for b in ("0", "1", "-1")]),
])
def test_theorem_on_an_abelian_window(tmp_path, capsys, algebra, c, points, members):
    inst = {"algebra": algebra, "c": c, "f": ["1"], "epsilon": "1/2", "n_max": 0, "d_max": 4}
    if points is not None:
        inst["window_points"] = points
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out, _ = run(capsys, "theorem", "--instance", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "found"
    assert data["config"]["window"] == points
    assert data["assumption_i"]["members"] == members
    assert data["assumption_i"]["evidence"] == "pass"
    assert verify_certificate_json(data["certificate"])


def test_theorem_noncentral(tmp_path, capsys):
    inst = {
        "algebra": "affine_line",
        "c": "(1 - x1^2 - x2^2)^2",
        "f": ["1"],
        "epsilon": "1/2",
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, _, err = run(capsys, "theorem", "--instance", str(path))
    assert code == 2
    assert "central" in err


def test_theorem_algebra_file(tmp_path, capsys):
    algebra_path = tmp_path / "su2.json"
    algebra_path.write_text(json.dumps(to_json_dict(builtin("su2"))))
    inst = {
        "algebra": str(algebra_path),
        "c": "(1 - x1^2 - x2^2 - x3^2)^2",
        "f": ["1"],
        "epsilon": "1",
        "n_max": 0,
        "d_max": 4,
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out, _ = run(capsys, "theorem", "--instance", str(path))
    assert code == 0


def test_audit_pass(capsys):
    code, out, _ = run(capsys, "audit", "--algebra", "su2", "--spins", "1/2+1")
    assert code == 0
    data = json.loads(out)
    assert data["cleared_commutator"]["status"] == "pass"
    assert data["contexts"][0]["relations"]["r8"]["status"] == "pass"


def test_audit_corrupted_constants(tmp_path, capsys):
    bad = {
        "dim": 3,
        "names": ["x1", "x2", "x3"],
        "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1"}, {"k": 1, "coeff": "1"}]},
            {"i": 2, "j": 3, "terms": [{"k": 1, "coeff": "1"}]},
            {"i": 3, "j": 1, "terms": [{"k": 2, "coeff": "1"}]},
        ],
    }
    path = tmp_path / "bad_algebra.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "audit", "--algebra", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "fail"
    assert "residual" in data


def test_byte_identical_outputs(tmp_path, capsys):
    inst = {
        "algebra": "su2",
        "c": "(1 - x1^2 - x2^2 - x3^2)^2",
        "f": ["1"],
        "epsilon": "1",
        "n_max": 1,
        "d_max": 4,
        "solver": {"seed": 3},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    assert run(capsys, "theorem", "--instance", str(path), "--out", str(out1))[0] == 0
    assert run(capsys, "theorem", "--instance", str(path), "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


PROVABLE = {
    "algebra": "su2",
    "c": "(1 - x1^2 - x2^2 - x3^2)^2",
    "f": ["1"],
    "epsilon": "1",
    "n_max": 0,
    "d_max": 4,
}


def write_instance(tmp_path, **changes):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(PROVABLE, **changes)))
    return path


def test_sos_rejects_a_tolerance_that_is_not_finite_and_positive(capsys):
    for tol in ("nan", "inf", "-1", "0"):
        code, out, err = run(capsys, "sos", "--algebra", "su2", "--expr", "3 - x1^2",
                             "--degree", "2", "--tol", tol)
        assert (code, out) == (2, ""), tol
        assert "tol must be a finite positive number" in err


def test_theorem_rejects_a_tolerance_that_is_not_finite_and_positive(tmp_path, capsys):
    path = write_instance(tmp_path)
    for tol in ("nan", "-1", "0"):
        code, out, _ = run(capsys, "theorem", "--instance", str(path), "--tol", tol)
        assert (code, out) == (2, ""), tol
    for tol in (0, -1e-9, "1e-9", True):
        path = write_instance(tmp_path, solver={"tol": tol})
        code, out, err = run(capsys, "theorem", "--instance", str(path))
        assert (code, out) == (2, ""), tol
        assert "tol must be a finite positive number" in err
    # json reads the non-standard literal NaN as a float
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(PROVABLE)[:-1] + ', "solver": {"tol": NaN}}')
    assert run(capsys, "theorem", "--instance", str(path))[:2] == (2, "")


def test_theorem_rejects_integers_that_are_not_nonnegative_json_integers(tmp_path, capsys):
    bad = [("n_max", "1"), ("n_max", -1), ("d_max", True), ("d_max", 4.0),
           ("level_cap", 1.5), ("level_cap", None)]
    for field, value in bad:
        path = write_instance(tmp_path, **{field: value})
        code, out, err = run(capsys, "theorem", "--instance", str(path))
        assert (code, out) == (2, ""), (field, value)
        assert f"{field} must be a nonnegative integer" in err
    for field, value in (("max_iters", 1.5), ("max_iters", "20000"), ("seed", -1), ("seed", False)):
        path = write_instance(tmp_path, solver={field: value})
        code, out, err = run(capsys, "theorem", "--instance", str(path))
        assert (code, out) == (2, ""), (field, value)
        assert f"{field} must be a nonnegative integer" in err
    path = write_instance(tmp_path)
    for flag in ("--nmax", "--dmax"):
        code, out, err = run(capsys, "theorem", "--instance", str(path), flag, "-1")
        assert (code, out) == (2, ""), flag
        assert "must be a nonnegative integer" in err


def test_theorem_reads_exact_rationals_only_from_strings_and_integers(tmp_path, capsys):
    bad = [("epsilon", 0.1), ("epsilon", True), ("l_max", 3.0), ("l_max", False),
           ("window_points", [[0.5]]), ("window_points", [["1/2", True]])]
    for field, value in bad:
        path = write_instance(tmp_path, **{field: value})
        code, out, err = run(capsys, "theorem", "--instance", str(path))
        assert (code, out) == (2, ""), (field, value)
        assert "must be a JSON string or integer" in err
    path = write_instance(tmp_path, epsilon=1)
    code, out, _ = run(capsys, "theorem", "--instance", str(path))
    assert code == 0 and json.loads(out)["config"]["epsilon"] == "1"


def test_malformed_algebra_file_is_an_input_error(tmp_path, capsys):
    data = to_json_dict(builtin("su2"))
    data["brackets"].append({"i": 2, "j": 1, "terms": [{"k": 3, "coeff": "-1"}]})
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    for argv in (("normalize", "--expr", "x1"), ("audit",)):
        code, out, err = run(capsys, argv[0], "--algebra", str(path), *argv[1:])
        assert (code, out) == (2, ""), argv
        assert "repeats a pair" in err


def test_algebra_file_coefficients_are_strings(tmp_path, capsys):
    data = to_json_dict(builtin("su2"))
    data["brackets"][0]["terms"][0]["coeff"] = 1
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "normalize", "--algebra", str(path), "--expr", "x1")
    assert (code, out) == (2, "")
    assert "coeff must be a JSON string" in err


MISTYPED_FIELDS = [
    ("allow_evidence", "no", "allow_evidence must be a boolean"),
    ("allow_evidence", 0, "allow_evidence must be a boolean"),
    ("ore_family", "x1", "ore_family must be a JSON array"),
    ("ore_family", [1], "an entry of ore_family must be a JSON string"),
    ("f", "1", "f must be a JSON array"),
    ("solver", [1], "solver must be a JSON object"),
    ("c", 3, "c must be a JSON string"),
    ("aliases", ["H=-i*x1"], "aliases must be a JSON object"),
    ("aliases", {"H": 1}, "an entry of aliases must be a JSON string"),
    ("window_points", "12", "window_points must be a JSON array"),
    ("window_points", ["12"], "a window point must be a JSON array"),
]


@pytest.mark.parametrize("field, value, message", MISTYPED_FIELDS,
                         ids=[f"{f}={json.dumps(v)}" for f, v, _ in MISTYPED_FIELDS])
def test_theorem_reads_each_instance_field_as_its_json_type(tmp_path, capsys, field, value,
                                                             message):
    path = write_instance(tmp_path, **{field: value})
    code, out, err = run(capsys, "theorem", "--instance", str(path))
    assert (code, out) == (2, "")
    assert message in err


def test_theorem_instance_file_is_a_json_object(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps([PROVABLE]))
    code, out, err = run(capsys, "theorem", "--instance", str(path))
    assert (code, out) == (2, "")
    assert "an instance file must be a JSON object" in err


def test_theorem_rejects_unknown_keys_and_a_second_window(tmp_path, capsys):
    # "nmax" used to run silently with n_max 2, and window_points beside l_max was ignored
    cases = [({"nmax": 0}, "an instance file has unknown keys: nmax"),
             ({"solver": {"tol": 1e-9, "maxiters": 5}}, "solver has unknown keys: maxiters"),
             ({"l_max": "1", "window_points": [["1/2"]]}, "l_max or window_points, not both")]
    for changes, message in cases:
        path = write_instance(tmp_path, **changes)
        code, out, err = run(capsys, "theorem", "--instance", str(path))
        assert (code, out) == (2, ""), changes
        assert message in err


ABELIAN = {"algebra": "abelian(1)", "c": "(1 + x1^2)^2", "f": ["1"], "epsilon": "1",
           "n_max": 0, "d_max": 4}


@pytest.mark.parametrize("instance, flags, message", [
    (dict(ABELIAN, l_max="1"), [], "takes window points, not a spin window"),
    (ABELIAN, ["--lmax", "1"], "takes window points, not a spin window"),
    (dict(PROVABLE, window_points=[["1/2"]]), [], "takes a spin window (l_max)"),
], ids=["l_max-on-abelian", "lmax-flag-on-abelian", "points-on-su2"])
def test_theorem_rejects_a_window_of_the_wrong_kind(tmp_path, capsys, instance, flags, message):
    # each used to end in an uncaught TypeError inside the search (exit 1, the negative code)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    code, out, err = run(capsys, "theorem", "--instance", str(path), *flags)
    assert (code, out) == (2, "")
    assert message in err


HEISENBERG = {"algebra": "heisenberg3", "c": "1", "f": ["1"], "epsilon": "1/2"}


@pytest.mark.parametrize("window", [{"l_max": "5"}, {"window_points": [["1"]]}],
                         ids=["l_max", "window_points"])
def test_theorem_rejects_a_window_on_an_algebra_without_one(tmp_path, capsys, window):
    # heisenberg3 has no concrete dual window: both used to be echoed in config and ignored
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(HEISENBERG, **window)))
    code, out, err = run(capsys, "theorem", "--instance", str(path))
    assert (code, out) == (2, "")
    assert "has no concrete dual window" in err
    path.write_text(json.dumps(HEISENBERG))
    code, out, _ = run(capsys, "theorem", "--instance", str(path))
    assert code == 0 and json.loads(out)["config"]["window"] is None


@pytest.mark.parametrize("argv, message", [
    (["--algebra", "su2", "--points", "1,2"], "--points is for abelian algebras"),
    (["--algebra", "abelian(2)", "--points", "0,0", "--lmax", "1"], "take --points, not --lmax"),
], ids=["points-on-su2", "lmax-on-abelian"])
def test_scan_rejects_a_window_flag_it_cannot_use(capsys, argv, message):
    # both flags used to be ignored: the su(2) scan ran spins 0..3 and exited 0
    code, out, err = run(capsys, "scan", "--exprs", "1", *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("lmax", ["1/3", "-1", "2.7", "-1/2"])
def test_a_spin_window_that_is_not_a_nonnegative_half_integer_is_an_input_error(
        tmp_path, capsys, lmax):
    # each used to exit 0: 1/3 scanned spin 0 only, -1 nothing and 2.7 up to 5/2
    message = "spin label must be a nonnegative half-integer"
    runs = [("scan", "--algebra", "su2", "--exprs", "1", f"--lmax={lmax}"),
            ("theorem", "--instance", str(write_instance(tmp_path)), f"--lmax={lmax}"),
            ("theorem", "--instance", str(write_instance(tmp_path, l_max=lmax)))]
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err


def test_scan_and_audit_read_abelian_points(capsys):
    code, out, _ = run(capsys, "scan", "--algebra", "abelian(2)", "--exprs", "1", "1 + i*x1",
                       "--points", "0,0", "--points", "2,1", "--points=-1,0")
    assert code == 0
    data = json.loads(out)
    assert data["window"] == ["(0, 0)", "(2, 1)", "(-1, 0)"]
    assert data["members"] == ["(0, 0)", "(-1, 0)"]
    assert data["witnesses"]["(2, 1)"]["value"] == "-1"
    code, out, _ = run(capsys, "audit", "--algebra", "abelian(2)",
                       "--points", "1,2", "--points", "0,0")
    assert code == 0
    contexts = json.loads(out)["contexts"]
    assert [c["label"] for c in contexts] == ["point (1, 2)", "point (0, 0)"]
    assert all(rel["status"] == "pass" for c in contexts for rel in c["relations"].values())


def test_theorem_allow_evidence_no_refuses_a_margin_left_at_evidence(tmp_path, capsys):
    # with no iterations the margin proof ends inconclusive, leaving the window evidence
    path = write_instance(tmp_path, solver={"max_iters": 0})
    code, out, _ = run(capsys, "theorem", "--instance", str(path), "--allow-evidence", "no")
    data = json.loads(out)
    assert code == 1 and data["status"] == "assumption-failed"
    assert data["assumption_i"]["label"] == "evidence"
    assert data["config"]["allow_evidence"] is False


def test_theorem_epsilon_flag_overrides_the_file(tmp_path, capsys):
    path = write_instance(tmp_path, epsilon="1")
    code, out, _ = run(capsys, "theorem", "--instance", str(path), "--epsilon", "1/2")
    assert code == 0 and json.loads(out)["config"]["epsilon"] == "1/2"


def test_sos_echoes_its_seed_when_no_certificate_is_found(capsys):
    code, out, _ = run(capsys, "sos", "--algebra", "su2", "--expr", "-1", "--degree", "0",
                       "--seed", "5")
    data = json.loads(out)
    assert code == 1 and "certificate" not in data
    assert data["config"]["seed"] == 5
