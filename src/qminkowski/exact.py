"""Exact Gaussian-rational scalars and dense matrices.

A Scalar is a Gaussian rational (a + b*i) / d stored as three ints with
d > 0 and gcd(a, b, d) == 1, so every operation in the package is exact,
and integer-valued entries (d == 1) cost plain int arithmetic.  No
Scalar is ever changed after it is built (every operation returns a new
one), so term dicts, matrices and memos share one freely instead of
building an equal copy: qalgebra.accumulate stores a term's own Scalar
under a new key when the coefficient is 1, and the instance loader
hands one Scalar to every entry that repeats a literal.
Matrices are dense, row-major, and immutable by convention: builders
assemble an entry list and hand it to ``Mat`` once.  ``Mat.nonzeros()``
is the one sparse read: products, Kronecker products and every module
that walks R, Z, T, the metric or a gamma matrix iterate its
(row, col, value) triples instead of indexing and testing each entry.
rank, det and inverse clear each row's denominators once and eliminate
on plain ints, dividing exactly by an earlier pivot (fraction-free
Gauss-Jordan), and build Scalars only for the entries they return.

Tensor legs use a single fixed convention everywhere: the pair (i, j) with
0 <= i < m, 0 <= j < n is flattened to n*i + j.  ``kron`` and ``flip``
both honour it.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import ConstraintError, ParseError, ShapeError

__all__ = [
    "Scalar", "ZERO", "ONE", "I", "parse_scalar", "is_sign", "require_sign",
    "sqrt_q",
    "Mat", "kron", "flip",
    "PAULI", "V", "V_INV",
]


_new = object.__new__


def _raw(a: int, b: int, d: int) -> "Scalar":
    """Wrap a triple that is already canonical."""
    s = _new(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _reduce(a: int, b: int, d: int) -> "Scalar":
    """Bring (a + b*i) / d with d != 0 to canonical form."""
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


def _coerce(x):
    """A Scalar, int or Fraction operand as a canonical triple (a, b, d),
    or None for anything else."""
    if isinstance(x, Scalar):
        return x.a, x.b, x.d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


class Scalar:
    """A Gaussian rational (a + b*i) / d held as three ints.

    Invariant: d > 0 and gcd(a, b, d) == 1, with zero stored as (0, 0, 1).
    Every value has exactly one triple, so == compares triples.  A real
    value hashes as the int or Fraction it equals, so that equal values
    hash equal across the three types.
    When both operands have d == 1, + - * are plain int arithmetic with no
    gcd; a gcd runs only for a denominator other than 1 or on division.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("a Scalar part must be exact, not a float: "
                            "floats carry rounding")
        re, im = Fraction(re), Fraction(im)
        s = Scalar.from_quad(re.numerator, re.denominator,
                             im.numerator, im.denominator)
        self.a, self.b, self.d = s.a, s.b, s.d

    @staticmethod
    def from_quad(re_num: int, re_den: int, im_num: int, im_den: int):
        """The Scalar re_num/re_den + (im_num/im_den)*i, for ints with
        nonzero denominators; the inverse of to_quad."""
        d = re_den * im_den // gcd(re_den, im_den)
        return _reduce(re_num * (d // re_den), im_num * (d // im_den), d)

    @property
    def re(self):
        """The real part: an int when d == 1, else a Fraction."""
        return self.a if self.d == 1 else Fraction(self.a, self.d)

    @property
    def im(self):
        """The imaginary part: an int when d == 1, else a Fraction."""
        return self.b if self.d == 1 else Fraction(self.b, self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.d) == o

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a if self.d == 1 else Fraction(self.a, self.d))

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self.d
        if f == 1:
            # Adding a multiple of 1/d keeps gcd(a, b, d) == 1.
            return _raw(self.a + c * d, self.b + e * d, d)
        if d == 1:
            return _raw(self.a * f + c, self.b * f + e, f)
        return _reduce(self.a * f + c * d, self.b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        return self.__add__(_raw(-c, -e, f))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        a, b, d = self.a, self.b, self.d
        if d == 1 and f == 1:
            return _raw(a * c - b * e, a * e + b * c, 1)
        return _reduce(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        a, b = self.a * f, self.b * f
        if e == 0:
            if c == 0:
                raise ZeroDivisionError("division by zero scalar")
            return _reduce(a, b, self.d * c)
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        return _reduce(a * c + b * e, b * c - a * e, self.d * (c * c + e * e))

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _raw(*o).__truediv__(self)

    def conj(self) -> "Scalar":
        return _raw(self.a, -self.b, self.d)

    def to_quad(self):
        """Four-integer encoding [re_num, re_den, im_num, im_den]."""
        a, b, d = self.a, self.b, self.d
        gr, gi = gcd(a, d), gcd(b, d)
        return [a // gr, d // gr, b // gi, d // gi]

    def __repr__(self):
        re, im = self.re, self.im
        text = str
        if max(self.a.bit_length(), self.b.bit_length(),
               self.d.bit_length()) > 14000:    # 14,000 bits: 4,215 digits
            text = _digits
        if not im:
            return text(re)
        if im == 1:
            ipart = "i"
        elif im == -1:
            ipart = "-i"
        else:
            ipart = text(im) + "i"
        if not re:
            return ipart
        sign = "+" if im > 0 else ""
        return "%s%s%s" % (text(re), sign, ipart)


def _digits(x) -> str:
    """str(x) for an int or Fraction of any size: str() refuses an int of
    over 4,300 digits, a limit left in place because json.load needs it."""
    n, d = Decimal(x.numerator), x.denominator
    return str(n) if d == 1 else "%s/%s" % (n, Decimal(d))


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


# Fraction("1e20000000") builds 10**20000000, so parse_scalar refuses an
# exponent over 4300, the digit count int() parses by default.
_EXPONENT = re.compile(r"[eE][+-]?(\d+(?:_\d+)*)")


def parse_scalar(text: str) -> Scalar:
    """Parse "RE/DE", "IM/DEi" or "RE/DE+IM/DEi" into a Scalar."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty scalar literal")
    try:
        if any(int(e) > 4300 for e in _EXPONENT.findall(s)):
            raise ParseError("exponent over 4300 in scalar literal %r" % text)
        if not s.endswith("i"):
            return Scalar(Fraction(s))
        body = s[:-1]
        cut = 0
        for pos in range(len(body) - 1, 0, -1):
            # A sign after another sign, a slash or an exponent marker
            # belongs to the number it follows, not to the cut.
            if body[pos] in "+-" and body[pos - 1] not in "+-/eE":
                cut = pos
                break
        re_part, im_part = body[:cut], body[cut:]
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = Fraction(im_part)
        re = Fraction(re_part) if re_part else Fraction(0)
        return Scalar(re, im)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad scalar literal %r" % text) from exc


def is_sign(x) -> bool:
    """Whether x is +1 or -1, the values the signs q, s and k may take."""
    return x == ONE or x == -ONE


def require_sign(name: str, x):
    """Raise ConstraintError unless the sign called name is +1 or -1."""
    if not is_sign(x):
        raise ConstraintError("%s must be +1 or -1" % name)


def sqrt_q(q: Scalar) -> Scalar:
    """The fixed square-root branch: 1 for q = 1, i for q = -1."""
    if not is_sign(q):
        raise ConstraintError("q must be +1 or -1, got %r" % q)
    return ONE if q == ONE else I


def _integer_rows(data, nr, nc):
    """The rows of a row-major Scalar list, each times the lcm of its
    entries' denominators, as Gaussian integers: (real parts, imaginary
    parts or None when every entry is real, the lcms)."""
    real = not any([x.b for x in data])
    re, im, scales = [], None if real else [], []
    for i in range(nr):
        row = data[i * nc:(i + 1) * nc]
        m = lcm(*[x.d for x in row])
        scales.append(m)
        if m == 1:
            re.append([x.a for x in row])
        else:
            re.append([x.a * (m // x.d) for x in row])
        if not real:
            im.append([x.b * (m // x.d) for x in row])
    return re, im, scales


def _gauss_jordan(re, im, scales, ncols):
    """Fraction-free Gauss-Jordan elimination, in place, of the rows
    re[r][k] + im[r][k]*i of Gaussian integers (im is None when all are
    real), with pivots sought in columns 0..ncols-1.

    A pivot a in column col turns every other row into
    (a*row - c*pivot_row) / prev, where c is the row's entry in col and
    prev the previous pivot (1 at first).  By Sylvester's identity every
    entry then stays a minor of the input, so each division is exact
    (Bareiss, Math. Comp. 22, 1968); a complex divisor divides through
    its conjugate and its norm.  A row with c = 0 only scales by a/prev,
    and those scalings telescope, so such a row is left as it is and
    remembers in stamps the pivot it was last exact at: its next update
    divides by that stamp instead of prev, and a pivot row catches up
    first.  The pivot row of a column is the candidate (a row at or below
    the next pivot row with a nonzero there) with the fewest nonzeros,
    the lowest index among equals (Markowitz, Management Science 3,
    1957), swapped up with its scale: each update costs one pass over the
    pivot row's nonzeros, and unit rows, as in R_Q, go first.  A row is
    counted only when its column has another candidate, and again after
    each update, so a column with one candidate costs one scan.  Any
    choice gives the same result: the reduced row echelon form is
    unique, hence so are the rank and the inverse, and a square det is
    sign * last pivot over the scales either way.  The pivot row is zero
    left of its pivot.  Returns (pivot columns, sign of the row swaps,
    last pivot, stamps), pivots and stamps as (re, im); the reduced row
    r is then its stored row divided by its stamp.
    """
    nr = len(re)
    width = len(re[0]) if nr else 0
    pivots = []
    sign = 1
    prev = (1, 0)
    stamps = [prev] * nr
    counts = [None] * nr

    def count(r):
        if counts[r] is None:
            row = re[r] if im is None else [x or y
                                            for x, y in zip(re[r], im[r])]
            counts[r] = len(row) - row.count(0)
        return counts[r]

    for col in range(ncols):
        prow = len(pivots)
        if prow == nr:
            break
        for hit in range(prow, nr):
            if re[hit][col] or im is not None and im[hit][col]:
                break
        else:
            continue
        fewest = None
        for r in range(hit + 1, nr):
            if re[r][col] or im is not None and im[r][col]:
                if fewest is None:
                    fewest = count(hit)
                if count(r) < fewest:
                    hit, fewest = r, counts[r]
        if hit != prow:
            for rows in (re, im, scales, stamps, counts):
                if rows is not None:
                    rows[prow], rows[hit] = rows[hit], rows[prow]
            sign = -sign
        pivots.append(col)
        pr, pi = prev
        sr, si = stamps[prow]
        if im is None:
            piv = re[prow]
            nz = [k for k in range(col, width) if piv[k]]
            if sr != pr:
                for k in nz:
                    piv[k] = piv[k] * pr // sr
            a = piv[col]
            for r in range(nr):
                row = re[r]
                c = row[col]
                if not c or r == prow:
                    continue
                s = stamps[r][0]
                counts[r] = None
                if a == s:
                    for k in nz:
                        row[k] -= c * piv[k] // s
                else:
                    re[r] = [(a * x - c * y) // s for x, y in zip(row, piv)]
                    stamps[r] = (a, 0)
            prev = stamps[prow] = (a, 0)
            continue
        piv, ipiv = re[prow], im[prow]
        nz = [k for k in range(col, width) if piv[k] or ipiv[k]]
        if (sr, si) != prev:
            # times prev / stamp: prev times the conjugate, over the norm
            qr, qi, n = pr * sr + pi * si, pi * sr - pr * si, sr * sr + si * si
            for k in nz:
                x, y = piv[k], ipiv[k]
                piv[k] = (qr * x - qi * y) // n
                ipiv[k] = (qr * y + qi * x) // n
        a = (piv[col], ipiv[col])
        for r in range(nr):
            row, irow = re[r], im[r]
            cr, ci = row[col], irow[col]
            if not (cr or ci) or r == prow:
                continue
            sr, si = stamps[r]
            n = sr * sr + si * si
            # c and a times the conjugate of the stamp
            tr, ti = cr * sr + ci * si, ci * sr - cr * si
            counts[r] = None
            if a == stamps[r]:
                for k in nz:
                    yr, yi = piv[k], ipiv[k]
                    row[k] -= (tr * yr - ti * yi) // n
                    irow[k] -= (tr * yi + ti * yr) // n
                continue
            ur, ui = a[0] * sr + a[1] * si, a[1] * sr - a[0] * si
            cols = list(zip(row, irow, piv, ipiv))
            re[r] = [(ur * xr - ui * xi - tr * yr + ti * yi) // n
                     for xr, xi, yr, yi in cols]
            im[r] = [(ur * xi + ui * xr - tr * yi - ti * yr) // n
                     for xr, xi, yr, yi in cols]
            stamps[r] = a
        prev = stamps[prow] = a
    return pivots, sign, prev, stamps


def _over(xs, ys, stamp):
    """The Gaussian integers xs[k] + ys[k]*i (ys None: all real) divided
    by stamp, given as (re, im), as Scalars."""
    sr, si = stamp
    if ys is None:
        return [_reduce(x, 0, sr) if x else ZERO for x in xs]
    norm = sr * sr + si * si
    return [_reduce(x * sr + y * si, y * sr - x * si, norm) if x or y
            else ZERO for x, y in zip(xs, ys)]


class Mat:
    """Dense exact matrix with row-major entry list."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ShapeError("entry list does not match %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = list(data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Mat":
        m = [ZERO] * (n * n)
        for i in range(n):
            m[n * i + i] = ONE
        return Mat(n, n, m)

    @staticmethod
    def from_rows(rows) -> "Mat":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        data = []
        for r in rows:
            if len(r) != nc:
                raise ShapeError("ragged rows")
            for x in r:
                data.append(x if isinstance(x, Scalar) else Scalar(x))
        return Mat(nr, nc, data)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def __add__(self, other):
        """Entrywise sum; an entry where other is zero keeps self's own
        Scalar, so the work is one Scalar add per nonzero of other."""
        self._same_shape(other)
        data = self.data[:]
        for k, b in enumerate(other.data):
            if b:
                data[k] = data[k] + b
        return Mat(self.rows, self.cols, data)

    def __sub__(self, other):
        self._same_shape(other)
        data = self.data[:]
        for k, b in enumerate(other.data):
            if b:
                data[k] = data[k] - b
        return Mat(self.rows, self.cols, data)

    def __neg__(self):
        return Mat(self.rows, self.cols, [-a for a in self.data])

    def _same_shape(self, other):
        if not isinstance(other, Mat):
            raise ShapeError("expected a Mat")
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch %dx%d vs %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("cannot multiply %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        m = other.cols
        out = [ZERO] * (self.rows * m)
        right = [[] for _ in range(other.rows)]
        for t, j, b in other.nonzeros():
            right[t].append((j, b))
        for i, t, a in self.nonzeros():
            base = i * m
            for j, b in right[t]:
                out[base + j] = out[base + j] + a * b
        return Mat(self.rows, m, out)

    def nonzeros(self) -> list:
        """The nonzero entries as (row, col, value), in row-major order,
        computed on each call."""
        c = self.cols
        return [(k // c, k % c, x) for k, x in enumerate(self.data) if x]

    def scale(self, c) -> "Mat":
        return Mat(self.rows, self.cols, [c * a for a in self.data])

    def transpose(self) -> "Mat":
        out = [ZERO] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.data[i * self.cols + j]
        return Mat(self.cols, self.rows, out)

    def conj(self) -> "Mat":
        return Mat(self.rows, self.cols, [a.conj() for a in self.data])

    def conj_t(self) -> "Mat":
        return self.transpose().conj()

    def is_zero(self) -> bool:
        return not any(self.data)

    def _echelon(self):
        """Reduced row echelon form by fraction-free elimination; returns
        (rows, pivot count, det).

        det is the determinant for square input (zero when rank
        deficient) and zero for non-square input, where the product of
        the pivots would depend on which rows the elimination picks.
        """
        nr, nc = self.rows, self.cols
        re, im, scales = _integer_rows(self.data, nr, nc)
        pivots, sign, (pr, pi), stamps = _gauss_jordan(re, im, scales, nc)
        rank = len(pivots)
        rows = [_over(re[r], None if im is None else im[r], stamps[r])
                for r in range(rank)]
        rows.extend([ZERO] * nc for _ in range(rank, nr))
        det = ZERO
        if nr == nc and pivots == list(range(nc)):
            det = _reduce(sign * pr, sign * pi, prod(scales[:rank]))
        return rows, rank, det

    def rank(self) -> int:
        return self._echelon()[1]

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        return self._echelon()[2]

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        re, im, scales = _integer_rows(self.data, n, n)
        # [self | 1] with each row already times its scale
        for i, m in enumerate(scales):
            unit = [0] * n
            unit[i] = m
            re[i].extend(unit)
            if im is not None:
                im[i].extend([0] * n)
        pivots, _, _, stamps = _gauss_jordan(re, im, scales, n)
        if len(pivots) < n:
            raise ArithmeticError("matrix is singular")
        out = []
        for i in range(n):
            out.extend(_over(re[i][n:], None if im is None else im[i][n:],
                             stamps[i]))
        return Mat(n, n, out)

    def __str__(self):
        """Rows separated by "; ", e.g. [1 0; 0 -1]."""
        return "[%s]" % "; ".join(" ".join(map(repr, self.row(i)))
                                  for i in range(self.rows))

    def __repr__(self):
        return "Mat(%dx%d %s)" % (self.rows, self.cols, self)


def kron(a: Mat, b: Mat) -> Mat:
    """Tensor product with (i, j) -> cols(b)*i + j leg flattening."""
    cols = a.cols * b.cols
    out = [ZERO] * (a.rows * b.rows * cols)
    right = b.nonzeros()
    for i, j, x in a.nonzeros():
        for p, q, y in right:
            out[(i * b.rows + p) * cols + j * b.cols + q] = x * y
    return Mat(a.rows * b.rows, cols, out)


def flip(m: int, n: int) -> Mat:
    """The swap e_i (x) e_j -> e_j (x) e_i from C^m (x) C^n to C^n (x) C^m."""
    out = [ZERO] * (m * n * m * n)
    for i in range(m):
        for j in range(n):
            out[(j * m + i) * (m * n) + (i * n + j)] = ONE
    return Mat(n * m, m * n, out)


# sigma_0 = identity, sigma_1, sigma_2, sigma_3
PAULI = (
    Mat.from_rows([[1, 0], [0, 1]]),
    Mat.from_rows([[0, 1], [1, 0]]),
    Mat.from_rows([[0, Scalar(0, -1)], [Scalar(0, 1), 0]]),
    Mat.from_rows([[1, 0], [0, -1]]),
)

# the basis change V with V_{(CD),i} = (sigma_i)_{CD}, and its inverse
V = Mat.from_rows([
    [1, 0, 0, 1],
    [0, 1, Scalar(0, -1), 0],
    [0, 1, Scalar(0, 1), 0],
    [1, 0, 0, -1],
])
V_INV = V.inverse()
