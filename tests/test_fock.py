"""Braided multiparticle states: interchange, actions, symmetrization.

The b = 1 interchange operator has a closed form on generator pairs,
K(x_i (x) x_j) = x_j (x) x_i + g_ij (1 (x) 1), derived by reading the
extended matrix blockwise; it pins down every index convention at once.
"""

import itertools
import random
from fractions import Fraction

import pytest

from qminkowski.braiding import make_evaluator
from qminkowski.dirac import metric
from qminkowski.errors import NotCotriangular
from qminkowski.exact import ONE, Scalar, ZERO
from qminkowski.fock import (
    CTensor, MAX_SLOTS, braid_action, coaction, interchange_k, lift_operator,
    symmetrize,
)
from qminkowski.instance import builtin
from qminkowski.minkowski import make_minkowski
from qminkowski.qalgebra import NCPoly


@pytest.fixture(scope="module")
def alg():
    return make_minkowski(builtin("classical"), cap=4)


@pytest.fixture(scope="module")
def ev0():
    return make_evaluator(builtin("classical"), b=0)


def x(i):
    return NCPoly.gen(i)


def tens(alg, *polys):
    return CTensor.from_polys(alg, list(polys))


# --- coaction -------------------------------------------------------------------


def test_coaction_on_generators(alg):
    co = coaction(alg, x(0))
    want = {((j,), (j,)): ONE for j in range(4)}   # Lambda_{0j} has id j
    want[((16,), ())] = ONE                        # y_0 tensor 1
    assert co == want


def test_coaction_on_a_product_has_all_cross_terms(alg):
    co = coaction(alg, x(0) * x(1))
    assert len(co) == 25
    assert co[((16, 17), ())] == ONE               # y_0 y_1 tensor 1


def test_coaction_counit_law(alg):
    from qminkowski.braiding import counit_b
    rng = random.Random(51)
    words = list(alg.basis_upto(3))
    picks = words[:10] + [words[rng.randrange(len(words))] for _ in range(6)]
    for w in picks:
        p = NCPoly.from_word(w)
        folded = NCPoly.zero()
        for (bw, cw), c in coaction(alg, p).items():
            eps = counit_b(NCPoly.from_word(bw))
            if eps:
                folded = folded + NCPoly.from_word(cw).scale(c * eps)
        assert folded == alg.normal_form(p)


def test_coaction_is_linear(alg):
    p = x(0).scale(Scalar(2)) + x(3)
    co = coaction(alg, p)
    want = {}
    for (bw, cw), c in coaction(alg, x(0)).items():
        want[(bw, cw)] = c * Scalar(2)
    for (bw, cw), c in coaction(alg, x(3)).items():
        want[(bw, cw)] = want.get((bw, cw), ZERO) + c
    assert co == {k: v for k, v in want.items() if v}


# --- tensors --------------------------------------------------------------------


def test_ctensor_normalizes_slots(alg):
    t = tens(alg, x(1) * x(0), x(2))
    assert t.terms == {((0, 1), (2,)): ONE}
    assert t.n == 2


def test_ctensor_arithmetic(alg):
    a = tens(alg, x(0), x(1))
    b = tens(alg, x(1), x(0))
    s = a + b
    assert s.terms == {((0,), (1,)): ONE, ((1,), (0,)): ONE}
    assert (s - a) == b
    assert a.scale(Scalar(3)).terms == {((0,), (1,)): Scalar(3)}
    assert (a - a).is_zero()
    with pytest.raises(ValueError):
        a + tens(alg, x(0))


# --- interchange ----------------------------------------------------------------


def test_interchange_is_flip_classically(alg, ev0):
    for i in range(4):
        for j in range(4):
            t = tens(alg, x(i), x(j))
            assert interchange_k(ev0, alg, t) == tens(alg, x(j), x(i))
    # mixed slot degrees swap wholesale, no cross terms
    assert interchange_k(ev0, alg, tens(alg, x(0) * x(1), x(2))) == \
        tens(alg, x(2), x(0) * x(1))
    # and involutive
    rng = random.Random(52)
    for _ in range(5):
        t = tens(alg, x(rng.randrange(4)) * x(rng.randrange(4)),
                 x(rng.randrange(4)))
        assert interchange_k(ev0, alg, interchange_k(ev0, alg, t)) == t


def test_interchange_with_unit_slots(alg, ev0):
    one = NCPoly.one()
    for i in range(4):
        assert interchange_k(ev0, alg, tens(alg, one, x(i))) == \
            tens(alg, x(i), one)
        assert interchange_k(ev0, alg, tens(alg, x(i), one)) == \
            tens(alg, one, x(i))


def test_interchange_b1_closed_form(alg):
    ev1 = make_evaluator(builtin("classical"), b=1)
    g = metric(builtin("classical"))
    one = NCPoly.one()
    for i in range(4):
        for j in range(4):
            got = interchange_k(ev1, alg, tens(alg, x(i), x(j)))
            want = tens(alg, x(j), x(i)) + tens(alg, one, one).scale(g[i, j])
            assert got == want
    # K is then not involutive: K^2 = id + 2 b g
    t = tens(alg, x(0), x(0))
    twice = interchange_k(ev1, alg, interchange_k(ev1, alg, t))
    assert twice == t + tens(alg, one, one).scale(Scalar(2))


def test_interchange_memo_is_per_evaluator():
    # Each evaluator is freed right after its call, so the next one may
    # get the same id(); the memo of K on this algebra must not follow it.
    inst = builtin("classical")
    alg = make_minkowski(inst, cap=4)
    t = tens(alg, x(0), x(0))
    bump = tens(alg, NCPoly.one(), NCPoly.one())   # g_00 (1 (x) 1), g_00 = 1
    for b in (0, 1) * 10:
        got = interchange_k(make_evaluator(inst, b=b), alg, t)
        assert got == (t + bump if b else t), "b = %d" % b


def test_interchange_needs_two_slots(alg, ev0):
    with pytest.raises(ValueError):
        interchange_k(ev0, alg, tens(alg, x(0)))


# --- braid action ----------------------------------------------------------------


def test_braid_identity_and_swap(alg, ev0):
    t = tens(alg, x(0), x(1), x(2))
    assert braid_action(ev0, alg, (0, 1, 2), t) == t
    assert braid_action(ev0, alg, (1, 0, 2), t) == tens(alg, x(1), x(0), x(2))
    assert braid_action(ev0, alg, (1, 2, 0), t) == tens(alg, x(1), x(2), x(0))


def test_braid_composition(alg, ev0):
    rng = random.Random(53)
    t = tens(alg, x(0), x(1) * x(2), x(3))
    for _ in range(8):
        p1 = list(range(3)); rng.shuffle(p1)
        p2 = list(range(3)); rng.shuffle(p2)
        step = braid_action(ev0, alg, tuple(p2),
                            braid_action(ev0, alg, tuple(p1), t))
        combined = tuple(p1[p2[i]] for i in range(3))
        assert step == braid_action(ev0, alg, combined, t)


def test_braid_relation_on_basis_triples(alg, ev0):
    s0, s1 = (1, 0, 2), (0, 2, 1)

    def chain(perms, t):
        for p in perms:
            t = braid_action(ev0, alg, p, t)
        return t

    for i, j, k in itertools.product(range(4), repeat=3):
        t = tens(alg, x(i), x(j), x(k))
        assert chain((s0, s1, s0), t) == chain((s1, s0, s1), t)


def test_braid_guards(alg, ev0):
    t = tens(alg, x(0), x(1))
    with pytest.raises(ValueError):
        braid_action(ev0, alg, (0, 0), t)        # not a permutation
    with pytest.raises(ValueError):
        braid_action(ev0, alg, (0, 1, 2), t)     # wrong length
    ev1 = make_evaluator(builtin("classical"), b=1)
    with pytest.raises(NotCotriangular):
        braid_action(ev1, alg, (1, 0), t)
    big = CTensor.from_polys(alg, [x(0)] * (MAX_SLOTS + 1))
    with pytest.raises(ValueError):
        braid_action(ev0, alg, tuple(range(MAX_SLOTS + 1)), big)


# --- symmetrization and lifted operators ------------------------------------------


def test_symmetrize_two_slots(alg, ev0):
    s = symmetrize(ev0, alg, tens(alg, x(0), x(1)))
    half = Scalar(Fraction(1, 2))
    assert s.terms == {((0,), (1,)): half, ((1,), (0,)): half}


def test_symmetrize_is_projector(alg, ev0):
    rng = random.Random(54)
    for n in (2, 3):
        slots = [x(rng.randrange(4)) for _ in range(n)]
        t = tens(alg, *slots)
        s = symmetrize(ev0, alg, t)
        assert symmetrize(ev0, alg, s) == s
        for perm in itertools.permutations(range(n)):
            assert braid_action(ev0, alg, perm, s) == s


def test_symmetrize_four_slots(alg, ev0):
    t = tens(alg, x(0), x(1), x(0), x(1))
    s = symmetrize(ev0, alg, t)
    assert symmetrize(ev0, alg, s) == s
    total = sum(s.terms.values(), ZERO)
    assert total == ONE          # coefficients of a permutation orbit


def test_lift_partial_lowers_one_slot(alg, ev0):
    from qminkowski.calculus import make_calculus
    calc = make_calculus(alg)
    one = NCPoly.one()
    t = symmetrize(ev0, alg, tens(alg, x(0), x(0)))
    lifted = lift_operator(ev0, alg, lambda p: calc.partial(0, p), 2, t)
    want = symmetrize(ev0, alg, tens(alg, one, x(0))).scale(Scalar(2))
    assert lifted == want


def test_lift_identity_counts_slots(alg, ev0):
    for n in (2, 3):
        t = symmetrize(ev0, alg, tens(alg, *[x(k) for k in range(n)]))
        lifted = lift_operator(ev0, alg, lambda p: p, n, t)
        assert lifted == t.scale(Scalar(n))


def test_lift_is_linear_and_symmetric(alg, ev0):
    t1 = symmetrize(ev0, alg, tens(alg, x(0), x(1)))
    t2 = symmetrize(ev0, alg, tens(alg, x(2), x(2)))
    mul0 = lambda p: alg.normal_form(x(0) * p)
    a = lift_operator(ev0, alg, mul0, 2, t1 + t2)
    b = lift_operator(ev0, alg, mul0, 2, t1) + lift_operator(ev0, alg, mul0, 2, t2)
    assert a == b
    assert symmetrize(ev0, alg, a) == a
