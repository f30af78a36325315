"""Property tests for the sparse accumulate behind NCPoly and CTensor.

Random small polynomials with Gaussian-rational coefficients; every result
must store only nonzero coefficients, and the ring laws must hold exactly.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qminkowski.exact import I, ONE, Scalar
from qminkowski.fock import CTensor
from qminkowski.qalgebra import NCPoly, accumulate, build_quotient

GENS = 3
CAP = 3

PROFILE = settings(max_examples=60, deadline=None)

fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
scalars = st.builds(Scalar, fractions, fractions)
words = st.lists(st.integers(0, GENS - 1), max_size=CAP).map(tuple)
short_words = st.lists(st.integers(0, GENS - 1), max_size=1).map(tuple)


def polys(word_strategy=words):
    return st.dictionaries(word_strategy, scalars, max_size=5).map(NCPoly)


def x(i):
    return NCPoly.gen(i)


# Mixed-degree relations with complex coefficients, so normal forms both
# rewrite and cancel.
QUOTIENT = build_quotient(GENS, [
    x(1) * x(0) - (x(0) * x(1)).scale(I),
    x(2) * x(0) - x(0) * x(2) - NCPoly.one(),
    x(2) * x(1) - x(1) * x(2) - x(0).scale(Scalar(1, -1)),
], CAP)


def no_zeros(terms):
    return all(terms.values())


@PROFILE
@given(polys(), polys())
def test_add_sub_store_no_zero(p, q):
    for r in (p + q, p - q, q - p, p - p, p + (-p)):
        assert no_zeros(r.terms)
    assert (p - p).is_zero()


@PROFILE
@given(polys(), polys(), scalars)
def test_mul_and_scale_store_no_zero(p, q, c):
    assert no_zeros((p * q).terms)
    assert no_zeros(p.scale(c).terms)
    assert p.scale(Scalar(0)).is_zero()


@PROFILE
@given(polys(), polys())
def test_sub_undoes_add(p, q):
    assert (p + q) - q == p


@PROFILE
@given(polys(short_words), polys(short_words), polys(short_words))
def test_left_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


@PROFILE
@given(polys())
def test_normal_form_idempotent_and_sparse(p):
    nf = QUOTIENT.normal_form(p)
    assert no_zeros(nf.terms)
    assert QUOTIENT.normal_form(nf) == nf
    assert all(QUOTIENT.is_basis_word(w) for w in nf.terms)


slot_pairs = st.dictionaries(st.tuples(short_words, short_words), scalars,
                             max_size=5)


@PROFILE
@given(slot_pairs, slot_pairs)
def test_ctensor_add_stores_no_zero(a, b):
    s, t = CTensor(2, a), CTensor(2, b)
    for r in (s + t, s - t, s + t.scale(Scalar(-1)), s - s):
        assert no_zeros(r.terms)
    assert (s - s).is_zero()
    assert (s + t) - t == s


@PROFILE
@given(st.dictionaries(words, scalars, max_size=5),
       st.dictionaries(words, scalars, max_size=5), scalars)
def test_accumulate_matches_termwise_sum(out, terms, c):
    want = {}
    for k in set(out) | set(terms):
        v = out.get(k, Scalar(0)) + c * terms.get(k, Scalar(0))
        if v:
            want[k] = v
    got = accumulate({k: v for k, v in out.items() if v},
                     {k: v for k, v in terms.items() if v}, c)
    assert got == want
    assert accumulate(dict(got), {}) == got
    assert accumulate({}, terms, ONE) == {k: v for k, v in terms.items()
                                          if v}
