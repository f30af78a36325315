"""Instance schema, serialization round trips and validation."""

import dataclasses
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qminkowski.cli import gating_passed, run_suites
from qminkowski.errors import ConstraintError, ParseError, UnknownInstance
from qminkowski.exact import I, Mat, ONE, Scalar, ZERO, flip, is_sign
from qminkowski.instance import (
    PoincareInstance, builtin, builtin_names, instance_from_dict,
    instance_to_dict, load_instance, write_instance,
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


def test_unencodable_instance_leaves_no_file(tmp_path):
    z = [ZERO] * 64
    z[4] = Scalar(10 ** 4400)       # past json's 4,300-digit limit
    huge = dataclasses.replace(builtin("classical"), Z=Mat(16, 4, z))
    old = tmp_path / "old.json"
    write_instance(builtin("classical"), str(old))
    before = old.read_bytes()
    new = tmp_path / "new.json"
    for path in (old, new):
        with pytest.raises(ParseError, match="cannot encode classical"):
            write_instance(huge, str(path))
    assert old.read_bytes() == before
    assert not new.exists()


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


def parse_message(d):
    with pytest.raises(ParseError) as exc:
        instance_from_dict(d)
    return str(exc.value)


def test_a_repeated_literal_is_matched_only_as_exact_ints():
    """The loader reads each distinct literal once, but an entry equal to
    an accepted [0, 1, 0, 1] only under == (True == 1, 1.0 == 1) is still
    refused, by name, in the same matrix or a later one; a refused literal
    is never kept, so its repeat raises at its first index."""
    assert classical_dict()["E"]["entries"][0] == [0, 1, 0, 1]
    for key, index in (("E", 3), ("R", 17), ("T", 15)):
        assert classical_dict()[key]["entries"][index] == [0, 1, 0, 1]
        for bad in ([0, True, 0, 1], [0, 1.0, 0, 1]):
            d = classical_dict()
            d[key]["entries"][index] = bad
            assert parse_message(d) == \
                "%s[%d]: scalar must be four integers" % (key, index)
    d = classical_dict()
    for key, index in (("X", 1), ("X", 2), ("R", 17)):
        d[key]["entries"][index] = [1, 0, 0, 1]
    assert parse_message(d) == "X[1]: denominators must be positive"
    d = classical_dict()
    for index in (3, 17):
        d["R"]["entries"][index] = [1, 1, 0, -1]
    assert parse_message(d) == "R[3]: denominators must be positive"


def test_bad_matrix_blocks():
    d = classical_dict()
    d["R"]["rows"] = 15
    reject(d)
    d = classical_dict()
    d["R"]["rows"] = 16.0           # equal to 16, but floats are refused
    reject(d)
    d = classical_dict()
    d["E"]["cols"] = True           # equal to 1, but a bool is no dimension
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


def constraint_message(build, *args, **kwargs):
    with pytest.raises(ConstraintError) as exc:
        build(*args, **kwargs)
    return str(exc.value)


def test_constraint_violations():
    # The file path and direct construction (builtin() then replace()) are
    # checked by the same constructor, so they fail with the same message.
    for key, value, message in (
            ("q", Scalar(2), "q must be +1 or -1"),
            ("s", I, "s must be +1 or -1"),                 # i is not a sign
            ("X", Mat(4, 4, [ONE] * 16), "X is singular")):  # rank one X
        d = classical_dict()
        d[key] = value.to_quad() if key != "X" else {
            "rows": 4, "cols": 4, "entries": [x.to_quad() for x in value.data]}
        assert constraint_message(instance_from_dict, d) == message
        assert constraint_message(dataclasses.replace, builtin("classical"),
                                  **{key: value}) == message


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
    (suite,) = run_suites(builtin("classical"), ("validate",)).suites
    checks = suite.checks
    assert gating_passed(checks)
    names = [c.name for c in checks]
    assert "x-invertible" in names and "metric-nondegenerate" in names
    obstruction = [c for c in checks if c.name == "calculus-obstruction"]
    assert len(obstruction) == 1 and obstruction[0].advisory


def test_validate_flags_obstruction_as_advisory_only():
    # a Z entry breaks the calculus but the instance itself stays legal
    inst = builtin("classical")
    z = [ZERO] * 64
    z[4 * 1 + 0] = ONE          # Z[(0,1), 0]
    bent = dataclasses.replace(inst, name="bent", Z=Mat(16, 4, z))
    (suite,) = run_suites(bent, ("validate",)).suites
    checks = suite.checks
    assert gating_passed(checks)        # advisory failures do not gate
    obstruction = [c for c in checks if c.name == "calculus-obstruction"]
    assert obstruction and not obstruction[0].passed


# --- round trips of random instances ----------------------------------------

PROFILE = settings(max_examples=30, deadline=None)

# json refuses to write or read an int of over 4,300 digits (the limit
# stays in place so that load_instance never parses such a number), so
# those integers round-trip through the dict only.
BIG = 10 ** 4301
small_ints = st.integers(-40, 40)
big_ints = st.builds(lambda sign, k: sign * (BIG + k),
                     st.sampled_from((1, -1)), st.integers(0, 10 ** 6))


def scalars(ints):
    part = st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 30)))
    return st.builds(Scalar, part, part)


@st.composite
def instances(draw, ints):
    """A valid instance: random signs, Gaussian-rational entries, sparse R,
    Z and T, and X = L U with L unit lower triangular and U upper
    triangular with a nonzero diagonal, so det X != 0 by construction.
    X keeps small entries: its determinant is computed on construction,
    and elimination over 4,300-digit entries costs 0.2 s per instance."""
    entries = scalars(ints)
    small = scalars(small_ints)

    def sparse(rows, cols):
        picks = draw(st.dictionaries(st.integers(0, rows * cols - 1),
                                     entries, max_size=6))
        return Mat(rows, cols, [picks.get(k, ZERO)
                                for k in range(rows * cols)])

    def triangular(unit, lower):
        data = []
        for i in range(4):
            for j in range(4):
                if i == j:
                    data.append(ONE if unit else draw(small.filter(bool)))
                elif (i > j) == lower:
                    data.append(draw(small))
                else:
                    data.append(ZERO)
        return Mat(4, 4, data)

    signs = st.sampled_from((ONE, -ONE))
    return PoincareInstance(
        name=draw(st.text(min_size=1, max_size=8)),
        q=draw(signs), s=draw(signs),
        E=Mat(4, 1, [draw(entries) for _ in range(4)]),
        Eprime=Mat(1, 4, [draw(entries) for _ in range(4)]),
        X=triangular(True, True) * triangular(False, False),
        R=sparse(16, 16), Z=sparse(16, 4), T=sparse(16, 1))


@PROFILE
@given(instances(st.one_of(small_ints, big_ints)))
def test_dict_round_trip_of_random_instances(inst):
    assert instance_from_dict(instance_to_dict(inst)) == inst


@PROFILE
@given(instances(small_ints))
def test_file_round_trip_of_random_instances(inst):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        write_instance(inst, path)
        assert load_instance(path) == inst


@PROFILE
@given(st.sampled_from(("q", "s")),
       scalars(st.one_of(small_ints, big_ints)).filter(
           lambda x: not is_sign(x)))
def test_non_sign_q_or_s_is_refused(key, value):
    message = "%s must be +1 or -1" % key
    d = classical_dict()
    d[key] = value.to_quad()
    assert constraint_message(instance_from_dict, d) == message
    assert constraint_message(dataclasses.replace, builtin("classical"),
                              **{key: value}) == message
