import json
import random
from fractions import Fraction

import pytest

from envsos import lie
from envsos.certs import certificate_from_json
from envsos.errors import AntisymmetryViolation, JacobiViolation, UnknownAlgebra
from envsos.lie import (
    AlgebraShapeError,
    LieAlgebra,
    b_constants,
    builtin,
    from_json_dict,
    to_json_dict,
    validate,
)
from envsos.pbw import AlgebraElement, canonical_a
from envsos.sos import find_certificate


def dense(algebra):
    return [[[algebra.c[i][j][k] for k in range(algebra.dim)]
             for j in range(algebra.dim)] for i in range(algebra.dim)]


def test_su2_matches_cyclic_constants():
    su2 = builtin("su2")
    assert su2.dim == 3
    assert su2.c[0][1][2] == 1
    assert su2.c[1][2][0] == 1
    assert su2.c[2][0][1] == 1
    assert su2.c[1][0][2] == -1


def test_abelian_is_valid_and_flagged():
    ab = builtin("abelian(2)")
    assert ab.is_abelian()
    assert all(ab.c[i][j][k] == 0 for i in range(2) for j in range(2) for k in range(2))


def test_affine_line_bracket():
    aff = builtin("affine_line")
    assert aff.c[0][1][1] == 1
    assert not aff.is_abelian()


def test_all_builtins_validate(builtins):
    for name, alg in builtins.items():
        assert alg.dim >= 2


def test_builtin_shares_one_instance_per_stripped_name():
    assert builtin(" su2") is builtin("su2")
    assert builtin("abelian(2) ") is builtin("abelian(2)")
    assert builtin("su2") is not builtin("sl2r")


def test_unknown_algebra():
    with pytest.raises(UnknownAlgebra):
        builtin("so(8)")
    with pytest.raises(UnknownAlgebra):
        builtin("abelian(x)")


def test_extra_entry_breaks_jacobi():
    su2 = builtin("su2")
    c = dense(su2)
    c[0][1][0] += 1  # c^1_{12} = 1 on top of the su(2) constants
    c[1][0][0] -= 1  # keep antisymmetry so the Jacobi check is reached
    with pytest.raises(JacobiViolation) as info:
        validate(3, su2.names, c)
    assert info.value.residual != 0


def test_antisymmetry_violation_detected():
    su2 = builtin("su2")
    c = dense(su2)
    c[0][1][2] = Fraction(2)  # mirror entry still -1
    with pytest.raises(AntisymmetryViolation):
        validate(3, su2.names, c)


def test_single_entry_perturbations_rejected(builtins):
    rng = random.Random(11)
    for alg in builtins.values():
        d = alg.dim
        for _ in range(20):
            c = dense(alg)
            i, j, k = (rng.randrange(d) for _ in range(3))
            delta = Fraction(rng.randint(1, 3))
            c[i][j][k] += delta
            try:
                validate(d, alg.names, c)
            except (AntisymmetryViolation, JacobiViolation):
                continue
            # acceptance is only allowed if both identities actually survived
            assert c[i][j][k] == -c[j][i][k]


def test_b_constants_su2_and_abelian_vanish():
    for name in ("su2", "abelian(3)"):
        alg = builtin(name)
        b = b_constants(alg)
        assert all(
            b[i][j][k] == 0
            for i in range(alg.dim) for j in range(alg.dim) for k in range(alg.dim)
        )


def test_b_constants_affine_entries():
    aff = builtin("affine_line")
    b = b_constants(aff)
    # b^k_{ij} = c^k_{ij} + c^j_{ik}; with [x1,x2] = x2 both summands of
    # b^2_{12} equal c^2_{12} = 1, so that entry is 2
    expected = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected[(i, j, k)] = aff.c[i][j][k] + aff.c[i][k][j]
    for (i, j, k), v in expected.items():
        assert b[i][j][k] == v
    assert b[0][1][1] == 2
    assert any(v != 0 for v in expected.values())


def test_b_is_linear_in_c():
    aff = builtin("affine_line")
    scaled = [[[2 * aff.c[i][j][k] for k in range(2)] for j in range(2)] for i in range(2)]
    alg2 = LieAlgebra(2, aff.names, scaled)  # scaling preserves Jacobi here
    b1 = b_constants(aff)
    b2 = b_constants(alg2)
    assert all(
        b2[i][j][k] == 2 * b1[i][j][k]
        for i in range(2) for j in range(2) for k in range(2)
    )


def test_json_roundtrip(builtins):
    for alg in builtins.values():
        again = from_json_dict(to_json_dict(alg))
        assert again == alg


def test_json_antisymmetric_completion():
    data = {
        "dim": 3,
        "names": ["x1", "x2", "x3"],
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "coeff": "1/1"}]},
                     {"i": 2, "j": 3, "terms": [{"k": 1, "coeff": "1"}]},
                     {"i": 3, "j": 1, "terms": [{"k": 2, "coeff": "1"}]}],
    }
    assert from_json_dict(data) == builtin("su2")


def _su2_file(extra=(), replace=None, **fields):
    """su(2)'s canonical JSON, with brackets replaced or appended and fields overridden."""
    data = to_json_dict(builtin("su2"))
    if replace is not None:
        data["brackets"] = list(replace)
    data["brackets"] += list(extra)
    data.update(fields)
    return data


def _bracket(i, j, *terms):
    return {"i": i, "j": j, "terms": [{"k": k, "coeff": v} for k, v in terms]}


def test_json_reads_each_pair_once_in_either_orientation():
    flipped = [_bracket(2, 1, (3, "-1")), _bracket(3, 2, (1, "-1")), _bracket(1, 3, (2, "-1"))]
    assert from_json_dict(_su2_file(replace=flipped)) == builtin("su2")
    unnamed = _su2_file()
    del unnamed["names"]
    assert from_json_dict(unnamed) == builtin("su2")
    # listed in both orientations, [x1,x2] = x3 and [x2,x1] = -x3 once read as [x1,x2] = 2 x3
    with pytest.raises(AlgebraShapeError, match="repeats a pair"):
        from_json_dict(_su2_file(flipped[:1]))


@pytest.mark.parametrize("data", [
    {"dim": True, "brackets": []},
    _su2_file(dim=3.0),
    _su2_file(replace=[_bracket(1.9, 2, (3, "1")), _bracket(2, 3, (1, "1")),
                       _bracket(3, 1, (2, "1"))]),
    _su2_file(replace=[_bracket(1, 2, (True, "1"))]),
    _su2_file(replace=[_bracket(1, "2", (3, "1"))]),
    _su2_file([_bracket(1, 1, (2, "1"))]),
    _su2_file([_bracket(2, 1, (3, "-1"))]),
    _su2_file([_bracket(1, 2, (3, "0"))]),
    _su2_file(replace=[_bracket(1, 2, (3, "1/2"), (3, "1/2")), _bracket(2, 3, (1, "1")),
                       _bracket(3, 1, (2, "1"))]),
    _su2_file(names=["x1", "i", "x3"]),
    _su2_file(names=["x1", "x1", "x3"]),
    _su2_file(names=["x1", "x 2", "x3"]),
    _su2_file(names=["x1", 2, "x3"]),
    _su2_file(names=None),
    [_su2_file()],
    _su2_file(brackets={}),
    _su2_file(brackets={"i": 1}),
    _su2_file(replace=[[1, 2]]),
    _su2_file(replace=[{"i": 1, "j": 2, "terms": {}}]),
    _su2_file(replace=[{"i": 1, "j": 2, "terms": [3]}]),
    _su2_file(replace=[_bracket(1, 2, (3, 1)), _bracket(2, 3, (1, "1")),
                       _bracket(3, 1, (2, "1"))]),
], ids=["dim-bool", "dim-float", "i-float", "k-bool", "j-string", "i-equals-j",
        "both-orientations", "pair-twice", "k-twice", "name-i", "names-repeat", "name-space",
        "name-number", "names-null", "file-list", "brackets-object", "brackets-keys",
        "bracket-list", "terms-object", "term-number", "coeff-number"])
def test_json_rejects_malformed_algebra_files(data):
    with pytest.raises(AlgebraShapeError):
        from_json_dict(data)


def test_loaded_certificates_share_the_builtin_algebra(monkeypatch):
    """Two loads of an su(2) certificate give builtin("su2") itself, validated once."""
    su2 = builtin("su2")
    data = find_certificate(canonical_a(su2), [AlgebraElement.unit(su2)], 2).certificate
    data = json.loads(json.dumps(data.to_json_dict()))
    jacobi_checks = []
    check = lie._check_jacobi
    monkeypatch.setattr(lie, "_check_jacobi", lambda c, dim: jacobi_checks.append(dim) or check(c, dim))
    monkeypatch.setattr(lie, "_SHARED", {})
    first, _, _ = certificate_from_json(data)
    second, _, _ = certificate_from_json(data)
    assert first.algebra is second.algebra is builtin("su2")
    assert jacobi_checks == [3]
    # a fresh instance is still one call away, with its own empty memo
    assert validate(3, su2.names, su2.c) is not su2


def test_an_algebra_file_that_breaks_jacobi_is_rejected_on_every_load():
    broken = _su2_file(replace=[_bracket(1, 2, (1, "1"), (3, "1")), _bracket(2, 3, (1, "1")),
                                _bracket(3, 1, (2, "1"))])
    for _ in range(2):
        with pytest.raises(JacobiViolation):
            from_json_dict(broken)
