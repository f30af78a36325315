"""Coordinate algebra construction: relations, bases, star structure."""

import dataclasses
import math

import pytest

from qminkowski.errors import DegreeError
from qminkowski.exact import Mat, Scalar
from qminkowski.instance import builtin
from qminkowski.minkowski import (
    expected_profile, make_minkowski, mink_relations, pbw_check, star_closed,
)
from qminkowski.qalgebra import NCPoly

from shared import ishift, tshift, x


def test_classical_relations_are_commutators():
    rels = mink_relations(builtin("classical"))
    assert len(rels) == 12
    expected = {}
    for i in range(4):
        for j in range(4):
            if i != j:
                key = tuple(sorted((i, j)))
                expected[key] = x(i) * x(j) - x(j) * x(i)
    for r in rels:
        words = set(r.terms)
        key = tuple(sorted(next(iter(words))))
        assert r == expected[key] or r == -expected[key]


def test_classical_profile_and_star():
    alg = make_minkowski(builtin("classical"), cap=4)
    ok, prof = pbw_check(alg, 4)
    assert ok
    assert prof == [1, 4, 10, 20, 35]
    assert prof == expected_profile(4)
    assert expected_profile(2) == [1, 4, 10]
    assert star_closed(alg)
    assert alg.normal_form(x(1) * x(0)) == x(0) * x(1)
    assert alg.normal_form(x(3) * x(2) * x(1)) == x(1) * x(2) * x(3)


def test_expected_profile_is_binomial():
    assert expected_profile(6) == [math.comb(n + 3, 3) for n in range(7)]


def test_mink_star_fixes_generators():
    p = (x(0) * x(1)).scale(Scalar(0, 1)) + x(2)
    s = p.star()
    assert s == (x(1) * x(0)).scale(Scalar(0, -1)) + x(2)
    assert s.star() == p


def test_central_shift_keeps_pbw():
    # an imaginary shift is compatible with the star; a real one is not
    alg = make_minkowski(ishift(), cap=4)
    ok, prof = pbw_check(alg, 4)
    assert ok and prof == expected_profile(4)
    assert star_closed(alg)
    assert alg.normal_form(x(1) * x(0)) == \
        x(0) * x(1) + NCPoly.one().scale(Scalar(0, 1))

    real = make_minkowski(tshift(), cap=3)
    assert pbw_check(real, 3)[0]
    assert not star_closed(real)


def test_degenerate_relations_break_pbw():
    # R = 0 forces every quadratic word to zero
    inst = builtin("classical")
    flat = dataclasses.replace(inst, name="flat", R=Mat.zeros(16, 16))
    alg = make_minkowski(flat, cap=3)
    ok, prof = pbw_check(alg, 3)
    assert not ok
    assert prof == [1, 4, 0, 0]


def test_cap_guard():
    alg = make_minkowski(builtin("classical"), cap=3)
    with pytest.raises(DegreeError):
        alg.normal_form(NCPoly.from_word((0, 1, 2, 3)))
