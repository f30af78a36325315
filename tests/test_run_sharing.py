"""What one run shares between its suites.

Two oracles: a whole report gives, suite by suite, the results each suite
gives alone on a fresh run, and a quotient that serves a smaller cap has,
at degrees up to that cap, the basis and the word normal forms of the
quotient built at that cap.
"""

import itertools

import pytest

from qminkowski.calculus import make_calculus
from qminkowski.cli import _SUITES, run_suites
from qminkowski.instance import builtin
from qminkowski.minkowski import make_minkowski

from shared import MOVED, leibniz_breaking, tshift, twisted, z_perturbed


def moved():
    return MOVED


# Every completion rule of these has t-exponent 0 at caps 2-6.  The first
# two stay lambdas, so that their test ids stay <lambda>0 and <lambda>1.
EXPONENT_ZERO = [
    lambda: builtin("classical"),
    lambda: tshift(),
    twisted,
    z_perturbed,
    moved,
]


@pytest.mark.parametrize("make", EXPONENT_ZERO + [leibniz_breaking])
@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_report_matches_each_suite_alone(make, degree):
    inst = make()
    whole = run_suites(inst, _SUITES, degree=degree)
    alone = [run_suites(inst, (name,), degree=degree).suites[0]
             for name in _SUITES]
    assert whole.suites == alone


@pytest.mark.parametrize("make", EXPONENT_ZERO)
def test_a_larger_quotient_serves_every_smaller_cap(make):
    inst = make()
    quotients = {cap: make_minkowski(inst, cap) for cap in range(2, 7)}
    for big, small in itertools.combinations(range(6, 1, -1), 2):
        q, ref = quotients[big], quotients[small]
        assert q.serves(small) and not ref.serves(big)
        assert [q.basis(d) for d in range(small + 1)] == \
            [ref.basis(d) for d in range(small + 1)]
        for d in range(small + 1):
            for w in itertools.product(range(4), repeat=d):
                assert q.word_normal_form(w) == ref.word_normal_form(w), w


def test_a_positive_t_exponent_serves_no_smaller_cap():
    """leibniz_breaking() has a rule with t-exponent 3 from cap 3 on; 1
    survives at cap 3 but not at cap 4, so the second partials of x_0^3
    differ between the two calculi."""
    inst = leibniz_breaking()
    for cap in range(3, 7):
        q = make_minkowski(inst, cap)
        assert q.serves(cap)
        assert not any(q.serves(small) for small in range(2, cap))
    small, big = make_calculus(inst, 3), make_calculus(inst, 4)
    assert small.alg.dimension_profile() == [0, 4, 10, 20]
    assert big.alg.dimension_profile()[:4] == [0, 0, 10, 20]
    assert small.second_partials((0, 0, 0)) != \
        big.second_partials((0, 0, 0))
