"""Exact scalar and matrix kit.

Matrix products, Kronecker products and the structural constants are
cross-checked against naive index-loop oracles so that layout bugs in the
fast paths cannot hide.
"""

import itertools
import random
from fractions import Fraction

import pytest

from qminkowski.errors import ConstraintError, ParseError, ShapeError
from qminkowski.exact import (
    I, Mat, ONE, Scalar, ZERO, flip, kron, parse_scalar, pauli, sqrt_q,
    v_inverse, v_matrix,
)


def rand_scalar(rng, span=6):
    return Scalar(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
                  Fraction(rng.randint(-span, span), rng.randint(1, 4)))


def rand_mat(rng, r, c):
    return Mat.from_rows([[rand_scalar(rng) for _ in range(c)]
                          for _ in range(r)])


def naive_mul(a, b):
    assert a.cols == b.rows
    return Mat.from_rows([[sum((a[i, k] * b[k, j] for k in range(a.cols)),
                               ZERO)
                           for j in range(b.cols)] for i in range(a.rows)])


def naive_kron(a, b):
    rows = []
    for i in range(a.rows):
        for p in range(b.rows):
            rows.append([a[i, j] * b[p, q]
                         for j in range(a.cols) for q in range(b.cols)])
    return Mat.from_rows(rows)


# --- scalars -----------------------------------------------------------------


def test_scalar_field_ops():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == ZERO
        if b != ZERO:
            assert (a / b) * b == a
    assert I * I == -ONE
    assert Scalar(2) * Scalar(Fraction(1, 2)) == ONE


def test_scalar_conj_and_quad():
    rng = random.Random(12)
    for _ in range(20):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a
        # |a|^2 is real and nonnegative
        n = a * a.conj()
        assert n.im == 0 and n.re >= 0
    q = Scalar(Fraction(3, 2), Fraction(-1, 7)).to_quad()
    assert q == [3, 2, -1, 7]


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@pytest.mark.parametrize("text,val", [
    ("0", ZERO),
    ("1", ONE),
    ("-1", -ONE),
    ("i", I),
    ("-i", -I),
    ("1/2", Scalar(Fraction(1, 2))),
    ("3/2-1/3i", Scalar(Fraction(3, 2), Fraction(-1, 3))),
    ("-2/5+7i", Scalar(Fraction(-2, 5), 7)),
    ("2i", Scalar(0, 2)),
    ("1.5", Scalar(Fraction(3, 2))),
    ("2+1e-3i", Scalar(2, Fraction(1, 1000))),
    ("2E-1i", Scalar(0, Fraction(1, 5))),
    ("1e-3+2i", Scalar(Fraction(1, 1000), 2)),
])
def test_parse_scalar(text, val):
    assert parse_scalar(text) == val


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1+", "i+i+i", "--2",
                                 "1e-i", "2e+-1i", "1e20000000",
                                 "1e-4301", "2+1E4_301i",
                                 "1e" + "9" * 5000])
def test_parse_scalar_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_sqrt_q():
    assert sqrt_q(ONE) == ONE
    assert sqrt_q(-ONE) == I
    with pytest.raises(ConstraintError):
        sqrt_q(Scalar(2))


# --- matrices ----------------------------------------------------------------


def shaped_inputs(rng):
    """(rows, cols) -> matrix makers: dense and sparse Gaussian-rational
    matrices, and ones with a zero row and a zero column."""
    def with_zero_lines(r, c):
        m = rand_mat(rng, r, c)
        zero_row, zero_col = rng.randrange(r), rng.randrange(c)
        return Mat(r, c, [ZERO if k // c == zero_row or k % c == zero_col
                          else x for k, x in enumerate(m.data)])

    return (lambda r, c: rand_mat(rng, r, c),
            lambda r, c: rand_sparse_mat(rng, r, c),
            lambda r, c: rand_sparse_mat(rng, r, c, density=0.1),
            with_zero_lines,
            Mat.zeros)


def test_mat_mul_against_naive():
    rng = random.Random(13)
    for _ in range(10):
        a = rand_mat(rng, 3, 4)
        b = rand_mat(rng, 4, 2)
        assert a * b == naive_mul(a, b)
    makers = shaped_inputs(rng)
    for n, k, m in ((1, 1, 1), (1, 5, 1), (5, 1, 4), (2, 3, 7), (6, 6, 6),
                    (4, 9, 3)):
        for left in makers:
            for right in makers:
                a, b = left(n, k), right(k, m)
                assert a * b == naive_mul(a, b)


def test_mat_nonzeros():
    m = Mat.from_rows([[0, 2, 0], [Scalar(0, -1), 0, 0], [0, 0, 0],
                       [Fraction(1, 3), 0, 5]])
    assert m.nonzeros() == [(0, 1, Scalar(2)), (1, 0, -I),
                            (3, 0, Scalar(Fraction(1, 3))), (3, 2, Scalar(5))]
    assert m.transpose().nonzeros() == [
        (0, 1, -I), (0, 3, Scalar(Fraction(1, 3))), (1, 0, Scalar(2)),
        (2, 3, Scalar(5))]
    assert Mat.zeros(3, 5).nonzeros() == []
    assert Mat.zeros(0, 4).nonzeros() == [] == Mat.zeros(4, 0).nonzeros()
    rng = random.Random(31)
    for r, c in ((1, 7), (7, 1), (3, 5), (6, 2)):
        m = rand_sparse_mat(rng, r, c)
        assert m.nonzeros() == [(i, j, m[i, j]) for i in range(r)
                                for j in range(c) if m[i, j]]
    # computed afresh: a write into data after a first call shows
    m = Mat.zeros(2, 2)
    assert m.nonzeros() == []
    m.data[3] = ONE
    assert m.nonzeros() == [(1, 1, ONE)]


def test_mat_add_scale_transpose():
    rng = random.Random(14)
    a = rand_mat(rng, 3, 3)
    b = rand_mat(rng, 3, 3)
    assert a + b - b == a
    assert (-a) + a == Mat.zeros(3, 3)
    assert a.scale(Scalar(2)) == a + a
    assert a.transpose().transpose() == a
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert (a * b).conj_t() == b.conj_t() * a.conj_t()


def det_oracle(m):
    """Permutation expansion, exponential but fine for tiny sizes."""
    n = m.rows
    total = ZERO
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ONE if sign > 0 else -ONE
        for i in range(n):
            term = term * m[i, perm[i]]
        total = total + term
    return total


def test_det_against_permanent_expansion():
    rng = random.Random(15)
    for n in (2, 3, 4):
        for _ in range(4):
            m = rand_mat(rng, n, n)
            assert m.det() == det_oracle(m)


def test_inverse_round_trip_and_singular():
    rng = random.Random(16)
    found = 0
    while found < 5:
        m = rand_mat(rng, 3, 3)
        if m.det() == ZERO:
            continue
        found += 1
        assert m.inverse() * m == Mat.identity(3)
        assert m * m.inverse() == Mat.identity(3)
    sing = Mat.from_rows([[ONE, ONE], [ONE, ONE]])
    assert sing.rank() == 1
    with pytest.raises(ArithmeticError):
        sing.inverse()


def test_rank():
    rows = [[Scalar(1), Scalar(2), Scalar(3)],
            [Scalar(2), Scalar(4), Scalar(6)],
            [Scalar(0), Scalar(1), Scalar(0)]]
    assert Mat.from_rows(rows).rank() == 2
    assert Mat.zeros(3, 3).rank() == 0
    assert Mat.identity(5).rank() == 5


def rand_sparse_mat(rng, r, c, density=0.3):
    return Mat.from_rows([[rand_scalar(rng) if rng.random() < density
                           else ZERO for _ in range(c)] for _ in range(r)])


def rank_oracle(m):
    """The size of the largest nonvanishing minor."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in itertools.combinations(range(m.rows), k):
            for cs in itertools.combinations(range(m.cols), k):
                minor = Mat.from_rows([[m[i, j] for j in cs] for i in rs])
                if det_oracle(minor) != ZERO:
                    return k
    return 0


def test_sparse_elimination_against_oracles():
    # Sparse input is where the elimination skips the pivot row's zeros;
    # the dense rand_mat above almost never has a zero entry.
    rng = random.Random(29)
    seen = dict.fromkeys(("singular", "invertible", "zero column",
                          "non-square"), 0)
    for _ in range(150):
        r = rng.randint(2, 6)
        c = r if rng.random() < 0.6 else rng.randint(2, 6)
        m = rand_sparse_mat(rng, r, c)
        assert m.rank() == rank_oracle(m)
        if any(not any(m[i, j] for i in range(r)) for j in range(c)):
            seen["zero column"] += 1
        if r != c:
            seen["non-square"] += 1
            with pytest.raises(ShapeError):
                m.det()
            with pytest.raises(ShapeError):
                m.inverse()
            continue
        d = det_oracle(m)
        assert m.det() == d
        if not d:
            seen["singular"] += 1
            with pytest.raises(ArithmeticError):
                m.inverse()
            continue
        seen["invertible"] += 1
        inv = m.inverse()
        assert inv * m == Mat.identity(r)
        assert m * inv == Mat.identity(r)
    assert min(seen.values()) >= 10, seen


# --- kron and flip -------------------------------------------------------------


def test_kron_matches_naive_and_mixed_product():
    rng = random.Random(17)
    a, b = rand_mat(rng, 2, 3), rand_mat(rng, 3, 2)
    assert kron(a, b) == naive_kron(a, b)
    c, d = rand_mat(rng, 3, 2), rand_mat(rng, 2, 3)
    # (a (x) b)(c (x) d) = ac (x) bd
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)
    makers = shaped_inputs(rng)
    for (p, m), (r, n) in (((1, 1), (3, 4)), ((4, 1), (1, 3)),
                           ((2, 5), (3, 2)), ((4, 4), (4, 4))):
        for left in makers:
            for right in makers:
                a, b = left(p, m), right(r, n)
                assert kron(a, b) == naive_kron(a, b)
                c, d = right(m, 2), left(n, 3)
                assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def basis_col(n, i):
    return Mat.from_rows([[ONE if k == i else ZERO] for k in range(n)])


def test_flip_swaps_tensor_legs():
    for m, n in ((2, 3), (4, 4), (5, 5)):
        f = flip(m, n)
        for i in range(m):
            for j in range(n):
                v = kron(basis_col(m, i), basis_col(n, j))
                assert f * v == kron(basis_col(n, j), basis_col(m, i))
    assert flip(4, 4) * flip(4, 4) == Mat.identity(16)


def test_flip_intertwines_kron_factors():
    # flip(p, r) kron(a, b) = kron(b, a) flip(m, n) for a of shape p x m
    # and b of shape r x n, rectangular on purpose
    rng = random.Random(23)
    for p, m, r, n in ((2, 3, 4, 2), (3, 3, 2, 5), (1, 4, 3, 2)):
        a = rand_mat(rng, p, m)
        b = rand_mat(rng, r, n)
        assert flip(p, r) * kron(a, b) == kron(b, a) * flip(m, n)


# --- pauli matrices and the index-pair change of basis -------------------------


def test_pauli_algebra():
    s = [pauli(k) for k in range(4)]
    i2 = Mat.identity(2)
    assert s[0] == i2
    for k in range(4):
        assert s[k] * s[k] == i2
        assert s[k].conj_t() == s[k]
    for a in range(1, 4):
        for b in range(1, 4):
            anti = s[a] * s[b] + s[b] * s[a]
            assert anti == (i2.scale(Scalar(2)) if a == b else Mat.zeros(2, 2))


def test_v_matrix_entries_and_inverse():
    v, vi = v_matrix(), v_inverse()
    # V_{(CD),i} = (sigma_i)_{CD} under the pair index (C,D) -> 2C+D
    for c in range(2):
        for d in range(2):
            for i in range(4):
                assert v[2 * c + d, i] == pauli(i)[c, d]
    assert v * vi == Mat.identity(4)
    # trace orthogonality gives the closed form of the inverse
    half = Scalar(Fraction(1, 2))
    for i in range(4):
        for c in range(2):
            for d in range(2):
                assert vi[i, 2 * c + d] == half * pauli(i)[d, c]
