"""Exact scalar and matrix kit.

Matrix products, Kronecker products and the structural constants are
cross-checked against naive index-loop oracles so that layout bugs in the
fast paths cannot hide.  The fraction-free elimination behind rank, det
and inverse is compared with the Scalar Gauss-Jordan loop it replaced.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qminkowski.braiding import build_rq
from qminkowski.errors import ConstraintError, ParseError, ShapeError
from qminkowski.exact import (
    I, Mat, ONE, PAULI, Scalar, V, V_INV, ZERO, _gauss_jordan, flip, kron,
    parse_scalar, sqrt_q,
)
from qminkowski.instance import builtin

from shared import naive_kron, perfbench_dense


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
    # Sparse input is where the elimination leaves a row with a zero in
    # the pivot column as it is and skips the pivot row's zeros; the
    # dense rand_mat above almost never has a zero entry.
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


def echelon_oracle(m):
    """The Scalar Gauss-Jordan elimination Mat._echelon ran before it
    went fraction-free: (reduced rows, pivot count, det), with det zero
    once a column has no pivot, the rank is short or the input is not
    square (its pivot product would depend on the pivot rows chosen)."""
    work = [m.row(i) for i in range(m.rows)]
    nc = m.cols
    det = ONE
    prow = 0
    for col in range(nc):
        if prow >= len(work):
            break
        hit = None
        for r in range(prow, len(work)):
            if work[r][col]:
                hit = r
                break
        if hit is None:
            det = ZERO
            continue
        if hit != prow:
            work[prow], work[hit] = work[hit], work[prow]
            det = -det
        pivot_row = work[prow]
        pv = pivot_row[col]
        det = det * pv
        inv = ONE / pv
        nz = [k for k in range(col, nc) if pivot_row[k]]
        for k in nz:
            pivot_row[k] = inv * pivot_row[k]
        for r in range(len(work)):
            if r == prow:
                continue
            row = work[r]
            c = row[col]
            if c:
                for k in nz:
                    row[k] = row[k] - c * pivot_row[k]
        prow += 1
    if prow < min(m.rows, m.cols) or m.rows != m.cols:
        det = ZERO
    return work, prow, det


def inverse_oracle(m):
    """Eliminate [m | 1] with echelon_oracle; the right block, or
    ArithmeticError unless the left block reduced to the identity."""
    n = m.rows
    aug = Mat.from_rows([m.row(i) + [ONE if j == i else ZERO
                                     for j in range(n)] for i in range(n)])
    work, piv, _ = echelon_oracle(aug)
    if piv < n or any(work[i][j] != (ONE if i == j else ZERO)
                      for i in range(n) for j in range(n)):
        raise ArithmeticError("matrix is singular")
    return Mat.from_rows([work[i][n:] for i in range(n)])


def assert_elimination_matches_oracle(m):
    """The whole _echelon triple, and inverse or its ArithmeticError."""
    assert m._echelon() == echelon_oracle(m)
    if m.rows != m.cols:
        return
    try:
        want = inverse_oracle(m)
    except ArithmeticError:
        with pytest.raises(ArithmeticError, match="matrix is singular"):
            m.inverse()
    else:
        assert m.inverse() == want


def rand_real_mat(rng, r, c, density=1.0):
    return Mat.from_rows([[Scalar(Fraction(rng.randint(-6, 6),
                                           rng.randint(1, 4)))
                           if rng.random() < density else ZERO
                           for _ in range(c)] for _ in range(r)])


def rank_deficient(rng, r, c, make):
    """make(r, c) with one row replaced by a multiple of another."""
    m = make(r, c)
    if r < 2:
        return m
    i, j = rng.sample(range(r), 2)
    k = rand_scalar(rng)
    rows = [m.row(t) for t in range(r)]
    rows[i] = [k * x for x in rows[j]]
    return Mat.from_rows(rows)


def real_then_complex(rng, r, c):
    """A real first column above complex columns: the first pivot is real
    and the later ones complex."""
    return Mat.from_rows([[Scalar(rand_scalar(rng).re) if j == 0
                           else rand_scalar(rng) for j in range(c)]
                          for _ in range(r)])


def rand_small_int_mat(rng, r, c, real):
    """Sparse, with entries from a handful of small Gaussian integers, so
    that a pivot often repeats an earlier one: a row skipped by the steps
    in between then meets a pivot equal to the one it was last exact at."""
    values = (-2, -1, 1, 2, 3) if real else (
        -1, 2, I, Scalar(1, 1), Scalar(-2, 1), Scalar(0, -2))
    return Mat.from_rows([[rng.choice(values) if rng.random() < 0.35
                           else ZERO for _ in range(c)] for _ in range(r)])


def rq_shaped(rng, block, units, make):
    """An R_Q-shaped square matrix of side block + units: block rows that
    hold make(block, block) in some columns and make(block, units) in the
    rest, above units rows with a single 1 each, in those rest columns,
    as R_Q's unit rows.  It is singular exactly when the block is, and in
    a unit column the sparsest candidate row is not the first."""
    n = block + units
    unit_cols = sorted(rng.sample(range(n), units))
    rest = [j for j in range(n) if j not in unit_cols]
    a, b = make(block, block), make(block, units)
    rows = []
    for i in range(block):
        row = [ZERO] * n
        for k, j in enumerate(rest):
            row[j] = a[i, k]
        for k, j in enumerate(unit_cols):
            row[j] = b[i, k]
        rows.append(row)
    rows.extend([ONE if k == j else ZERO for k in range(n)]
                for j in unit_cols)
    return Mat.from_rows(rows)


def test_pivot_rule_takes_the_sparsest_candidate_row():
    """Each column's pivot row is the candidate with the fewest nonzeros,
    the lowest index among equals, and its scale moves with it."""
    # column 0: row 1 has one nonzero; column 1: the rewritten rows hold
    # [0, 2, 2] and [0, 10, 0], so the recounted second one wins
    re, scales = [[1, 1, 1], [2, 0, 0], [3, 5, 0]], [10, 20, 30]
    pivots, sign, _, _ = _gauss_jordan(re, None, scales, 3)
    assert (pivots, sign, scales) == ([0, 1, 2], 1, [20, 30, 10])
    # column 0: rows 1 and 2 tie at two nonzeros and row 0 is no candidate
    re, scales = [[0, 1, 1], [1, 1, 0], [1, 0, 1]], [10, 20, 30]
    pivots, sign, _, _ = _gauss_jordan(re, None, scales, 3)
    assert (pivots, sign, scales) == ([0, 1, 2], -1, [20, 10, 30])
    # an entry is nonzero when either part is: 1 + 0i and 0 + i tie with
    # the row above, which stays; with a zero imaginary part row 1 wins
    for im, sign_wanted in (([[0, 0], [0, 1]], 1), ([[0, 0], [0, 0]], -1)):
        _, sign, _, _ = _gauss_jordan([[1, 1], [1, 0]], im, [1, 2], 2)
        assert sign == sign_wanted


def test_elimination_of_repeating_pivots():
    # Pivots 2, 6, 2 (leading minors): row 0 skips the second step, then
    # meets a pivot equal to the one it was last exact at, while the
    # previous pivot is 6; and the same with 2 replaced by 2i and 1 + 2i.
    # The last column is carried along.
    for a in (Scalar(2), Scalar(0, 2), Scalar(1, 2)):
        m = Mat.from_rows([[a, 0, 1, 1], [0, 3, 1, I], [0, 2, 1, 3]])
        sq = Mat.from_rows([m.row(i)[:3] for i in range(3)])
        assert sq.det() == a
        assert_elimination_matches_oracle(m)
        assert_elimination_matches_oracle(sq)
    rng = random.Random(43)
    for _ in range(300):
        r, c = rng.randint(2, 6), rng.randint(2, 6)
        assert_elimination_matches_oracle(
            rand_small_int_mat(rng, r, c, rng.random() < 0.5))


def test_elimination_against_scalar_oracle():
    rng = random.Random(37)
    makers = shaped_inputs(rng) + (
        lambda r, c: rand_real_mat(rng, r, c),
        lambda r, c: rand_real_mat(rng, r, c, density=0.3),
        lambda r, c: real_then_complex(rng, r, c),
        lambda r, c: rank_deficient(rng, r, c,
                                    lambda r, c: rand_mat(rng, r, c)),
        lambda r, c: rank_deficient(rng, r, c,
                                    lambda r, c: rand_real_mat(rng, r, c)),
        lambda r, c: rank_deficient(rng, r, c,
                                    lambda r, c: rand_sparse_mat(rng, r, c)))
    shapes = [(n, n) for n in range(1, 9)] + [
        (1, 5), (5, 1), (2, 7), (7, 3), (4, 6), (8, 5), (3, 8)]
    for r, c in shapes:
        for make in makers:
            for _ in range(2):
                assert_elimination_matches_oracle(make(r, c))
    for r, c in ((0, 0), (0, 3), (3, 0)):
        assert_elimination_matches_oracle(Mat.zeros(r, c))
    # R_Q-shaped: real, complex, and singular real and complex blocks
    blocks = (lambda r, c: rand_real_mat(rng, r, c),
              lambda r, c: rand_mat(rng, r, c),
              lambda r, c: rank_deficient(
                  rng, r, c, lambda r, c: rand_real_mat(rng, r, c)),
              lambda r, c: rank_deficient(
                  rng, r, c, lambda r, c: rand_mat(rng, r, c)))
    singular = 0
    for block, units in ((4, 3), (6, 5), (5, 1), (2, 6)):
        for make in blocks:
            m = rq_shaped(rng, block, units, make)
            singular += m.rank() < m.rows
            assert_elimination_matches_oracle(m)
    assert singular == 8


def test_elimination_with_denominators_past_64_bits():
    rng = random.Random(41)
    for r, c, real in ((3, 3, True), (4, 4, False), (5, 5, True),
                       (3, 4, False)):
        def big():
            re = Fraction(rng.randint(-2 ** 70, 2 ** 70),
                          2 ** 64 + rng.randint(1, 2 ** 40))
            im = 0 if real else Fraction(rng.randint(-9, 9),
                                         2 ** 65 + rng.randint(1, 99))
            return Scalar(re, im)

        m = Mat.from_rows([[big() if rng.random() < 0.7 else ZERO
                            for _ in range(c)] for _ in range(r)])
        assert max(x.d for x in m.data) > 2 ** 64
        assert_elimination_matches_oracle(m)
        assert_elimination_matches_oracle(rank_deficient(
            rng, r, c, lambda r, c: m))


def _scalars(real):
    nonzero = st.builds(
        lambda a, d, b, e: Scalar(Fraction(a, d), 0 if real
                                  else Fraction(b, e)),
        st.integers(-5, 5), st.integers(1, 6),
        st.integers(-3, 3), st.integers(1, 4))
    return st.one_of(st.just(ZERO), nonzero)


@st.composite
def gaussian_mats(draw):
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = _scalars(draw(st.booleans()))
    return Mat(r, c, draw(st.lists(entries, min_size=r * c,
                                   max_size=r * c)))


@settings(max_examples=150, deadline=None)
@given(gaussian_mats())
def test_elimination_property(m):
    assert_elimination_matches_oracle(m)


@st.composite
def mat_pairs(draw):
    """Two matrices of one shape, with zero, fractional and complex
    entries."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    real = draw(st.booleans())

    def mat():
        return Mat(r, c, draw(st.lists(_scalars(real), min_size=r * c,
                                       max_size=r * c)))
    return mat(), mat()


@settings(max_examples=150, deadline=None)
@given(mat_pairs())
def test_mat_add_and_sub_are_entrywise(pair):
    """Each entry is the Scalar sum or difference, and where the right
    operand is zero the result holds the left operand's own Scalar."""
    a, b = pair
    before = list(a.data), list(b.data)
    for got, op in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y)):
        assert (got.rows, got.cols) == (a.rows, a.cols)
        assert got.data == [op(x, y) for x, y in zip(a.data, b.data)]
        assert all(z is x for x, y, z in zip(a.data, b.data, got.data)
                   if not y)
    assert (a.data, b.data) == before


def test_mat_add_and_sub_shape_errors():
    a = Mat.zeros(2, 3)
    for op in (Mat.__add__, Mat.__sub__):
        with pytest.raises(ShapeError, match="^shape mismatch 2x3 vs 3x2$"):
            op(a, Mat.zeros(3, 2))
        with pytest.raises(ShapeError, match="^expected a Mat$"):
            op(a, 1)


@pytest.mark.parametrize("seed", (11, 12, 13))
@pytest.mark.parametrize("b", [ONE, I], ids=["b=1", "b=i"])
def test_elimination_of_dense_rq(seed, b):
    assert_elimination_matches_oracle(build_rq(perfbench_dense(seed, 0.3), b))


@pytest.mark.parametrize("b", [ZERO, ONE, I, Scalar(Fraction(-1, 2))],
                         ids=["b=0", "b=1", "b=i", "b=-1/2"])
def test_elimination_of_classical_rq(b):
    assert_elimination_matches_oracle(build_rq(builtin("classical"), b))


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
    s = PAULI
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
    v, vi = V, V_INV
    # V_{(CD),i} = (sigma_i)_{CD} under the pair index (C,D) -> 2C+D
    for c in range(2):
        for d in range(2):
            for i in range(4):
                assert v[2 * c + d, i] == PAULI[i][c, d]
    assert v * vi == Mat.identity(4)
    # trace orthogonality gives the closed form of the inverse
    half = Scalar(Fraction(1, 2))
    for i in range(4):
        for c in range(2):
            for d in range(2):
                assert vi[i, 2 * c + d] == half * PAULI[i][d, c]
