"""Free noncommutative polynomials and truncated quotients."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from qminkowski.dirac import metric
from qminkowski.errors import DegreeError
from qminkowski.exact import I, ONE, Scalar
from qminkowski.instance import builtin
from qminkowski.lorentz import lambda_invariance_check, \
    lambda_reality_diagnostic, make_lorentz
from qminkowski.minkowski import mink_relations
from qminkowski.qalgebra import NCPoly, build_quotient

from shared import MOVED, full_reduce, leibniz_breaking, \
    perfbench_dense, perfbench_instance, x


def rand_poly(rng, gens=3, maxdeg=2, terms=4):
    p = NCPoly.zero()
    for _ in range(terms):
        w = tuple(rng.randrange(gens) for _ in range(rng.randint(0, maxdeg)))
        p = p + NCPoly.from_word(w).scale(Scalar(rng.randint(-3, 3),
                                                 rng.randint(-3, 3)))
    return p


def comm_relations(gens):
    """x_j x_i - x_i x_j for i < j."""
    return [x(j) * x(i) - x(i) * x(j)
            for i in range(gens) for j in range(i + 1, gens)]


def test_ncpoly_ring_axioms():
    rng = random.Random(21)
    for _ in range(25):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * NCPoly.one() == a
        assert NCPoly.one() * a == a
        assert a - a == NCPoly.zero()


def test_ncpoly_words_concatenate():
    p = x(0) * x(1)
    assert p.terms == {(0, 1): ONE}
    assert x(1) * x(0) != p
    assert NCPoly.from_word((2, 0, 1)).degree() == 3
    assert NCPoly.zero().degree() == -1 or NCPoly.zero().is_zero()


def test_ncpoly_coefficients_become_scalars():
    """int and Fraction coefficients are stored as Scalars, and zero ones
    are dropped, so a polynomial built from plain numbers adds and
    multiplies like any other."""
    p = NCPoly({(0,): 1, (1,): Fraction(1, 2), (2,): 0, (): Fraction(0)})
    assert p.terms == {(0,): ONE, (1,): Scalar(Fraction(1, 2))}
    assert all(type(c) is Scalar for c in p.terms.values())
    assert x(0) + p == NCPoly({(0,): 2, (1,): Fraction(1, 2)})
    assert x(0) * p == NCPoly({(0, 0): 1, (0, 1): Fraction(1, 2)})
    assert p - x(0) == NCPoly({(1,): Fraction(1, 2)})


def test_ncpoly_sums_refuse_other_types():
    for other in (1, ONE, Fraction(1, 2), "x"):
        for op in (lambda: x(0) + other, lambda: other + x(0),
                   lambda: x(0) - other, lambda: other - x(0)):
            with pytest.raises(TypeError):
                op()


def test_star_is_antimultiplicative():
    rng = random.Random(22)
    for _ in range(15):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a
    p = x(0).scale(I)
    assert p.star() == x(0).scale(-I)
    # relabeling map is applied letterwise
    q = (x(0) * x(1)).star(lambda g: g + 2)
    assert q == x(3) * x(2)


# --- quotients -----------------------------------------------------------------


def test_commutative_quotient_profile_and_basis():
    q = build_quotient(3, comm_relations(3), 4)
    # polynomial algebra in 3 variables
    assert q.dimension_profile() == [math.comb(n + 2, 2) for n in range(5)]
    for w in q.basis(2):
        assert tuple(sorted(w)) == w
    assert q.normal_form(x(2) * x(0)) == x(0) * x(2)


def test_normal_form_is_canonical():
    rels = comm_relations(3)
    q = build_quotient(3, rels, 4)
    rng = random.Random(23)
    for _ in range(20):
        p = rand_poly(rng, gens=3, maxdeg=4)
        n1 = q.normal_form(p)
        # idempotent
        assert q.normal_form(n1) == n1
    for _ in range(10):
        a = rand_poly(rng, gens=3, maxdeg=2)
        b = rand_poly(rng, gens=3, maxdeg=2)
        # compatible with multiplication
        assert q.normal_form(a * b) == \
            q.normal_form(q.normal_form(a) * q.normal_form(b))


def test_relation_order_does_not_matter():
    rels = comm_relations(3)
    rng = random.Random(24)
    base = build_quotient(3, rels, 3)
    for _ in range(5):
        shuffled = rels[:]
        rng.shuffle(shuffled)
        q = build_quotient(3, shuffled, 3)
        assert q.dimension_profile() == base.dimension_profile()
        assert list(q.basis(2)) == list(base.basis(2))
        p = rand_poly(rng, gens=3, maxdeg=3)
        assert q.normal_form(p) == base.normal_form(p)


def test_degree_one_relation_kills_generator():
    q = build_quotient(3, [x(0)], 3)
    assert q.dimension_profile() == [1, 2, 4, 8]
    assert q.normal_form(x(1) * x(0) * x(2)).is_zero()
    assert (0,) not in q.basis(1)


def test_inhomogeneous_relations():
    # x0 x1 = 1 identifies the two generators as mutual inverses
    q = build_quotient(2, [x(0) * x(1) - NCPoly.one()], 4)
    assert q.normal_form(x(0) * x(1)) == NCPoly.one()
    # Weyl-like relation keeps the ordered-monomial basis
    w = build_quotient(2, [x(1) * x(0) - x(0) * x(1) - NCPoly.one()], 4)
    assert w.dimension_profile() == [1, 2, 3, 4, 5]
    assert w.normal_form(x(1) * x(0)) == x(0) * x(1) + NCPoly.one()
    # double substitution reaches a fixed point
    p = x(1) * x(1) * x(0)
    assert w.normal_form(w.normal_form(p)) == w.normal_form(p)


def test_zero_and_duplicate_relations_are_harmless():
    rels = comm_relations(2) + [NCPoly.zero()] + comm_relations(2)
    q = build_quotient(2, rels, 3)
    assert q.dimension_profile() == [1, 2, 3, 4]


def test_degree_errors():
    with pytest.raises(DegreeError):
        build_quotient(2, [], 1)          # cap below relation degree
    with pytest.raises(DegreeError):
        build_quotient(2, [x(0) * x(0) * x(1)], 4)   # cubic relation
    q = build_quotient(2, comm_relations(2), 3)
    with pytest.raises(DegreeError):
        q.normal_form(NCPoly.from_word((0, 0, 0, 0)))


def test_basis_upto_checks_the_cap_when_called():
    q = build_quotient(2, comm_relations(2), 3)
    with pytest.raises(DegreeError, match="degree 9 exceeds cap 3"):
        q.basis_upto(9)
    # the words still come one at a time: the basis is built on first read
    words = q.basis_upto(3)
    assert q._basis is None
    assert next(words) == ()
    assert q._basis is not None
    assert list(words) == [w for d in range(1, 4) for w in q.basis(d)]


def test_basis_upto_matches_profile():
    q = build_quotient(3, comm_relations(3), 3)
    prof = q.dimension_profile()
    words = list(q.basis_upto(3))
    assert len(words) == sum(prof)
    assert len(set(words)) == len(words)


# sha256 of repr(tuple(basis_upto(4))) of the classical Lorentz quotient at
# cap 4, as the quotient that built its basis on construction gave it
LORENTZ_CAP4_BASIS_SHA = \
    "d0c167aa95adee44be09df3d8285b55391da02e20ed0e33a8371100f449ff2e1"


def test_basis_is_built_on_first_read():
    inst = builtin("classical")
    alg = make_lorentz(inst, 4)
    assert lambda_invariance_check(alg, metric(inst)) is None
    assert lambda_reality_diagnostic(alg)
    assert alg._basis is None
    assert alg.dimension_profile() == [1, 8, 34, 104, 259]
    assert alg._basis is not None
    words = tuple(alg.basis_upto(4))
    assert hashlib.sha256(repr(words).encode()).hexdigest() == \
        LORENTZ_CAP4_BASIS_SHA
    # normal forms taken first do not change the basis
    assert words == tuple(make_lorentz(inst, 4).basis_upto(4))


@pytest.mark.parametrize("seed", (11, 12, 13))
def test_lazy_basis_of_the_dense_minkowski_quotients(seed):
    rels = mink_relations(perfbench_dense(seed, 0.3))
    for cap in (3, 4, 5):
        alg = build_quotient(4, rels, cap)
        assert alg._basis is None
        # the dense data make 1 = 0: every degree is empty
        assert alg.dimension_profile() == [0] * (cap + 1)


# --- word normal forms memoised one rewrite step at a time --------------------


def nf_oracle_quotients():
    """(name, quotient builder): Minkowski quotients at cap 5 on classical,
    imag-shift, Leibniz-breaking (a t-exponent-3 rule), moved-twisted and
    dense seed-11 data, and the classical Lorentz quotient at cap 4."""

    def mink(make):
        return lambda: build_quotient(4, mink_relations(make()), 5)
    return [
        ("classical", mink(lambda: builtin("classical"))),
        ("imag-shift", mink(lambda: perfbench_instance("imag_shift", 3, 2,
                                                       True))),
        ("zt-bent", mink(leibniz_breaking)),
        ("moved-twisted", mink(lambda: MOVED)),
        ("dense11", mink(lambda: perfbench_dense(11, 0.3))),
        ("lorentz", lambda: make_lorentz(builtin("classical"), 4)),
    ]


@pytest.mark.parametrize("name, make", nf_oracle_quotients(),
                         ids=[name for name, _ in nf_oracle_quotients()])
def test_word_normal_form_is_full_reduction(name, make):
    # each word is asked of a fresh quotient in shuffled order, so most
    # are found in the memo that earlier words' rewrite steps filled
    q = make()
    words = [w for d in range(q.cap + 1)
             for w in itertools.product(range(q.gens), repeat=d)]
    random.Random(5).shuffle(words)
    for w in words:
        assert q.word_normal_form(w) == full_reduce(q, {w: ONE}, q.cap), w
    assert set(q._memo) == set(words)
    if name == "zt-bent":
        assert any(k > 0 for k, _ in q._rules.values())


def test_long_word_normal_form_needs_no_deep_recursion():
    # the reverse-sorted degree-16 word of the classical quotient at cap 16
    q = build_quotient(4, mink_relations(builtin("classical")), 16)
    w = (3,) * 4 + (2,) * 4 + (1,) * 4 + (0,) * 4
    assert q.word_normal_form(w) == full_reduce(q, {w: ONE}, 16) == \
        {w[::-1]: ONE}
    # every word met on the way is memoised at its own normal form
    q = build_quotient(3, comm_relations(3), 3)
    q.word_normal_form((2, 1, 0))
    assert q._memo == {w: {(0, 1, 2): ONE}
                       for w in ((2, 1, 0), (1, 2, 0), (1, 0, 2), (0, 1, 2))}
