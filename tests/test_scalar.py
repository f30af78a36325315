"""Property tests for the integer-triple Scalar.

Every result is compared with a reference Gaussian rational held as a
(Fraction, Fraction) pair, written here independently of the package, and
must be in canonical form: d > 0 and gcd(a, b, d) == 1.  Mat.det,
Mat.inverse and Mat.rank are compared with sympy on small random matrices,
singular ones included.
"""

import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qminkowski.exact import Mat, Scalar, ZERO, parse_scalar

PROFILE = settings(max_examples=60, deadline=None)


class Ref:
    """The reference value re + im*i with Fraction parts."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Ref(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return Ref((self.re * o.re + self.im * o.im) / n,
                   (self.im * o.re - self.re * o.im) / n)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if self.im == 1:
            ipart = "i"
        elif self.im == -1:
            ipart = "-i"
        else:
            ipart = "%si" % self.im
        if not self.re:
            return ipart
        return "%s%s%s" % (self.re, "+" if self.im > 0 else "", ipart)


def ref_of(x):
    return Ref(x.re, x.im) if isinstance(x, Ref) else Ref(x)


def check(result, ref):
    """result is canonical, has ref's parts and exposes them as documented."""
    assert isinstance(result, Scalar)
    a, b, d = result.a, result.b, result.d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert (result.re, result.im) == (ref.re, ref.im)
    part = int if d == 1 else Fraction
    assert type(result.re) is part and type(result.im) is part
    assert result.to_quad() == [ref.re.numerator, ref.re.denominator,
                                ref.im.numerator, ref.im.denominator]
    assert Scalar.from_quad(*result.to_quad()) == result


fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
parts = st.one_of(st.integers(-30, 30), fractions)
refs = st.builds(Ref, parts, parts)
# A plain operand: what Scalar arithmetic accepts besides Scalar.
plains = st.one_of(st.integers(-30, 30), fractions)
operands = st.one_of(refs, plains)


def scalar_of(x):
    return Scalar(x.re, x.im) if isinstance(x, Ref) else x


@PROFILE
@given(refs, operands)
def test_ring_ops_match_reference(x, y):
    s, t = scalar_of(x), scalar_of(y)
    rx, ry = ref_of(x), ref_of(y)
    check(s, rx)
    check(s + t, rx + ry)
    check(t + s, ry + rx)
    check(s - t, rx - ry)
    check(t - s, ry - rx)
    check(s * t, rx * ry)
    check(t * s, ry * rx)


@PROFILE
@given(refs, operands)
def test_division_matches_reference(x, y):
    s, t = scalar_of(x), scalar_of(y)
    rx, ry = ref_of(x), ref_of(y)
    if ry.re or ry.im:
        check(s / t, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            s / t
    if rx.re or rx.im:
        check(t / s, ry / rx)
    else:
        with pytest.raises(ZeroDivisionError):
            t / s


@PROFILE
@given(refs)
def test_neg_conj_and_plain_equality(x):
    s = Scalar(x.re, x.im)
    check(-s, Ref(-x.re, -x.im))
    check(s.conj(), Ref(x.re, -x.im))
    assert (s.im == 0) == (x.im == 0)
    assert bool(s) == bool(x.re or x.im)
    assert (s == x.re) == (x.im == 0)
    assert (s == x.re.numerator) == (x.im == 0 and x.re.denominator == 1)


@PROFILE
@given(refs, refs)
def test_equal_values_hash_equal(x, y):
    s, t = Scalar(x.re, x.im), Scalar(y.re, y.im)
    assert (s == t) == ((x.re, x.im) == (y.re, y.im))
    for same in (s + t - t, t + s - t, s * 1, Scalar(x.re) + Scalar(0, x.im)):
        assert same == s and hash(same) == hash(s)
    if t:
        same = s * t / t
        assert same == s and hash(same) == hash(s)
    # a real Scalar equals, and so hashes as, the int or Fraction it is
    for re in (x.re, y.re, Fraction(0), Fraction(1)):
        plain, real = re.numerator if re.denominator == 1 else re, Scalar(re)
        assert real == plain and hash(real) == hash(plain)
        assert {plain: "a"}.get(real) == {real: "a"}.get(plain) == "a"
        assert len({real, plain, re}) == 1


@PROFILE
@given(refs)
def test_repr_and_parse_round_trip(x):
    s = Scalar(x.re, x.im)
    assert repr(s) == repr(x)
    assert str(s) == repr(x)
    assert parse_scalar(repr(s)) == s


def test_repr_past_the_int_digit_limit():
    # str() refuses an int of more than 4,300 digits; repr stays exact
    big = 10 ** 5000 + 7
    cases = [(big, 0), (-big, 3), (Fraction(big, 3), Fraction(-1, 3)),
             (0, -big), (Fraction(1, big), 1)]
    texts = [repr(Scalar(re, im)) for re, im in cases]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert texts == [repr(Ref(re, im)) for re, im in cases]
    finally:
        sys.set_int_max_str_digits(limit)


def test_float_parts_are_refused():
    """Scalar(0.1) would be 3602879701896397/36028797018963968: floats
    carry rounding, so neither part may be one."""
    for re, im in ((0.1, 0), (1, 0.5), (Fraction(1, 2), 2.0), (0.0, 0.0)):
        with pytest.raises(TypeError, match="float"):
            Scalar(re, im)
    with pytest.raises(TypeError, match="float"):
        Scalar(1.0)


def test_zero_is_one_triple():
    for z in (ZERO, Scalar(Fraction(0, 5), 0), Scalar(1, 1) - Scalar(1, 1),
              Scalar(Fraction(1, 3)) * 0, Scalar(0, Fraction(2, 7)) / 5 * 0):
        assert (z.a, z.b, z.d) == (0, 0, 1)
        assert hash(z) == hash(ZERO)


@PROFILE
@given(st.integers(-30, 30), st.integers(-12, 12).filter(bool),
       st.integers(-30, 30), st.integers(-12, 12).filter(bool))
def test_from_quad_reduces_any_quad(rn, rd, i_n, i_d):
    check(Scalar.from_quad(rn, rd, i_n, i_d),
          Ref(Fraction(rn, rd), Fraction(i_n, i_d)))


# --- matrices against sympy --------------------------------------------------


def to_sympy(s):
    return sympy.Rational(s.re) + sympy.I * sympy.Rational(s.im)


def same(s, expr):
    return sympy.expand(to_sympy(s) - expr) == 0


small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
entries = st.one_of(st.just(ZERO), st.builds(Scalar, small, small))


@st.composite
def square_mats(draw):
    """A random n x n matrix, n <= 4; about a third are made singular by
    setting one row to a combination of the others."""
    n = draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        c = [draw(entries) for _ in range(n - 1)]
        k = draw(st.integers(0, n - 1))
        others = [r for i, r in enumerate(rows) if i != k]
        rows[k] = [sum((ci * r[j] for ci, r in zip(c, others)), ZERO)
                   for j in range(n)]
    return Mat.from_rows(rows)


@PROFILE
@given(square_mats())
def test_det_inverse_rank_match_sympy(m):
    sm = sympy.Matrix(m.rows, m.cols, [to_sympy(x) for x in m.data])
    det = sympy.expand(sm.det(method="bareiss"))
    assert same(m.det(), det)
    assert m.rank() == sm.rank(simplify=True)
    if det == 0:
        with pytest.raises(ArithmeticError):
            m.inverse()
        return
    inv = m.inverse()
    sinv = sm.inv()
    assert all(same(inv[i, j], sinv[i, j])
               for i in range(m.rows) for j in range(m.cols))

