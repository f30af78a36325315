"""Property tests for the sparse accumulate behind NCPoly and the term dicts.

Random small polynomials with Gaussian-rational coefficients; every result
must store only nonzero coefficients, and the ring laws must hold exactly.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from qminkowski.exact import I, ONE, Scalar
from qminkowski.qalgebra import NCPoly, accumulate, build_quotient

from shared import x

GENS = 3
CAP = 3

PROFILE = settings(max_examples=60, deadline=None)

fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
scalars = st.builds(Scalar, fractions, fractions)
words = st.lists(st.integers(0, GENS - 1), max_size=CAP).map(tuple)
short_words = st.lists(st.integers(0, GENS - 1), max_size=1).map(tuple)


def polys(word_strategy=words):
    return st.dictionaries(word_strategy, scalars, max_size=5).map(NCPoly)


# Mixed-degree relations with complex coefficients, so normal forms both
# rewrite and cancel.
QUOTIENT = build_quotient(GENS, [
    x(1) * x(0) - (x(0) * x(1)).scale(I),
    x(2) * x(0) - x(0) * x(2) - NCPoly.one(),
    x(2) * x(1) - x(1) * x(2) - x(0).scale(Scalar(1, -1)),
], CAP)
BASIS = set(QUOTIENT.basis_upto(CAP))


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
    assert set(nf.terms) <= BASIS


def termwise(out, terms, c=None):
    """out + c * terms term by term through the Scalar dunders: the loop
    accumulate ran before its arithmetic was fused, kept as the oracle."""
    out = dict(out)
    for k, v in terms.items():
        if c is not None:
            v = c * v
        s = out.get(k)
        if s is not None:
            v = s + v
        if v:
            out[k] = v
        elif s is not None:
            del out[k]
    return out


def canonical(v):
    return v.d > 0 and gcd(v.a, v.b, v.d) == 1 and (v.a or v.b)


# Gaussian rationals with small and with over-64-bit denominators, on few
# keys, so that sums meet often, cancel and reduce.
big = st.integers(2 ** 64, 2 ** 66)
denominators = st.one_of(st.integers(1, 4), big)
numerators = st.one_of(st.integers(-4, 4), big, big.map(lambda n: -n))
gauss = st.builds(Scalar.from_quad, numerators, denominators, numerators,
                  denominators)
coefficients = st.one_of(st.none(), st.integers(-3, 3),
                         st.builds(Fraction, numerators, denominators), gauss)
sums = st.dictionaries(st.integers(0, 4), gauss, max_size=5)


@settings(max_examples=300, deadline=None)
@given(sums, sums, coefficients)
def test_accumulate_matches_termwise_sum(out, terms, c):
    out = {k: v for k, v in out.items() if v}
    want = termwise(out, terms, c)
    got = accumulate(dict(out), terms, c)
    assert got == want
    assert all(canonical(v) for v in got.values())
    assert accumulate(dict(got), {}) == got
    assert accumulate({}, terms, ONE) == {k: v for k, v in terms.items()
                                          if v}
    back = {k: -v for k, v in terms.items()}
    assert accumulate(accumulate({}, terms, c), back, c) == {}


def test_unit_accumulate_keeps_the_terms_own_scalars():
    """With c equal to 1, a key new to out stores the term's own Scalar
    (Scalars are never changed, so sharing it is sound) and a zero term
    stores nothing; a key already in out gets the sum, and terms is left
    as it was."""
    half, two = Scalar(Fraction(1, 2), 3), Scalar(2)
    for c in (None, 1, Fraction(1), ONE, Scalar(1)):
        terms = {"new": half, "old": two, "zero": Scalar(0)}
        out = accumulate({"old": -Scalar(5), "kept": I}, terms, c)
        assert out == {"new": half, "old": Scalar(-3), "kept": I}
        assert out["new"] is half
        assert terms == {"new": half, "old": two, "zero": Scalar(0)}
    out = accumulate({}, {"new": half}, Scalar(-1))
    assert out == {"new": -half} and canonical(out["new"])
