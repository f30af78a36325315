"""Instance schema, serialization round trips and validation."""

import dataclasses
import os

import pytest

from qminkowski.errors import ConstraintError, ParseError, UnknownInstance
from qminkowski.exact import Mat, ONE, ZERO, flip
from qminkowski.instance import (
    builtin, builtin_names, gating_passed, instance_from_dict,
    instance_to_dict, load_instance, validate_instance, write_instance,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def classical_dict():
    return instance_to_dict(builtin("classical"))


def test_builtin_classical_values():
    inst = builtin("classical")
    assert inst.q == ONE and inst.s == ONE
    assert inst.R == flip(4, 4)
    assert inst.X == flip(2, 2)
    assert inst.Z.is_zero() and inst.T.is_zero()
    col = [inst.E[k, 0] for k in range(4)]
    assert col == [ZERO, ONE, -ONE, ZERO]
    row = [inst.Eprime[0, k] for k in range(4)]
    assert row == [ZERO, ONE, -ONE, ZERO]
    assert "classical" in builtin_names()


def test_unknown_builtin():
    with pytest.raises(UnknownInstance):
        builtin("no-such-thing")


def test_round_trip_preserves_everything(tmp_path):
    inst = builtin("classical")
    path = tmp_path / "c.json"
    write_instance(inst, str(path))
    again = load_instance(str(path))
    assert again == inst
    # byte stability of the serialization itself
    write_instance(again, str(tmp_path / "c2.json"))
    assert (tmp_path / "c.json").read_bytes() == \
        (tmp_path / "c2.json").read_bytes()


def test_shipped_instance_file_matches_builtin():
    path = os.path.join(HERE, os.pardir, "instances", "classical.json")
    assert load_instance(path) == builtin("classical")


def test_dict_round_trip():
    d = classical_dict()
    assert instance_to_dict(instance_from_dict(d)) == d


def reject(d, exc=ParseError):
    with pytest.raises(exc):
        instance_from_dict(d)


def test_missing_and_extra_keys():
    d = classical_dict()
    del d["Z"]
    reject(d)
    d = classical_dict()
    d["extra"] = 1
    reject(d)


def test_bad_scalar_quads():
    d = classical_dict()
    d["q"] = [1, 1, 0]              # wrong arity
    reject(d)
    d = classical_dict()
    d["q"] = [1.0, 1, 0, 1]         # floats carry rounding, refuse them
    reject(d)
    d = classical_dict()
    d["q"] = [1, 0, 0, 1]           # zero denominator
    reject(d)
    d = classical_dict()
    d["E"]["entries"][0] = [1, 1, 0, -1]   # negative denominator
    reject(d)


def test_bad_matrix_blocks():
    d = classical_dict()
    d["R"]["rows"] = 15
    reject(d)
    d = classical_dict()
    d["Z"]["entries"].pop()
    reject(d)
    d = classical_dict()
    d["X"] = {"rows": 4, "cols": 4}   # entries missing
    reject(d)
    d = classical_dict()
    d["name"] = 7
    reject(d)


def test_constraint_violations():
    d = classical_dict()
    d["q"] = [2, 1, 0, 1]
    reject(d, ConstraintError)
    d = classical_dict()
    d["s"] = [0, 1, 1, 1]             # s = i is not a sign
    reject(d, ConstraintError)
    d = classical_dict()
    d["X"]["entries"] = [[1, 1, 0, 1]] * 16   # rank one X
    reject(d, ConstraintError)


def test_load_instance_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    with pytest.raises(ParseError):
        load_instance(str(bad))
    with pytest.raises(ParseError):
        load_instance(str(tmp_path / "missing.json"))
    top = tmp_path / "top.json"
    top.write_text("[1, 2, 3]")
    with pytest.raises(ParseError):
        load_instance(str(top))


def test_validate_classical():
    checks = validate_instance(builtin("classical"))
    assert gating_passed(checks)
    names = [c.name for c in checks]
    assert "x-invertible" in names and "metric-nondegenerate" in names
    obstruction = [c for c in checks if c.name == "calculus-obstruction"]
    assert len(obstruction) == 1 and obstruction[0].advisory


def test_validate_flags_obstruction_as_advisory_only():
    # a Z entry breaks the calculus but the instance itself stays legal
    inst = builtin("classical")
    z = Mat.zeros(16, 4)
    z.data[4 * 1 + 0] = ONE          # Z[(0,1), 0]
    bent = dataclasses.replace(inst, name="bent", Z=z)
    checks = validate_instance(bent)
    assert gating_passed(checks)        # advisory failures do not gate
    obstruction = [c for c in checks if c.name == "calculus-obstruction"]
    assert obstruction and not obstruction[0].passed
