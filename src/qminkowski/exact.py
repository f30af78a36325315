"""Exact Gaussian-rational scalars and dense matrices.

Scalars are complex numbers whose real and imaginary parts are
``fractions.Fraction`` values, so every operation in the package is exact.
Matrices are dense, row-major, and immutable by convention: builders
assemble an entry list and hand it to ``Mat`` once.

Tensor legs use a single fixed convention everywhere: the pair (i, j) with
0 <= i < m, 0 <= j < n is flattened to n*i + j.  ``kron``, ``flip`` and
``middle_embed`` all honour it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstraintError, ShapeError

__all__ = [
    "Scalar", "ZERO", "ONE", "I", "parse_scalar", "is_sign", "require_sign",
    "sqrt_q",
    "Mat", "kron", "flip", "middle_embed",
    "pauli", "v_matrix", "v_inverse",
]


def _raw(re: Fraction, im: Fraction) -> "Scalar":
    s = Scalar.__new__(Scalar)
    s.re = re
    s.im = im
    return s


class Scalar:
    """A Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        if isinstance(other, Scalar):
            return _raw(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return _raw(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Scalar):
            return _raw(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return _raw(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _raw(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            a, b, c, d = self.re, self.im, other.re, other.im
            return _raw(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return _raw(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        a, b, c, d = self.re, self.im, other.re, other.im
        return _raw((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        return Scalar(other).__truediv__(self)

    def conj(self) -> "Scalar":
        return _raw(self.re, -self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def to_quad(self):
        """Four-integer encoding [re_num, re_den, im_num, im_den]."""
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]

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
        sign = "+" if self.im > 0 else ""
        return "%s%s%s" % (self.re, sign, ipart)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def parse_scalar(text: str) -> Scalar:
    """Parse "RE/DE", "IM/DEi" or "RE/DE+IM/DEi" into a Scalar."""
    from .errors import ParseError

    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty scalar literal")
    try:
        if not s.endswith("i"):
            return Scalar(Fraction(s))
        body = s[:-1]
        cut = 0
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
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
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [a - b for a, b in zip(self.data, other.data)])

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
        n, k, m = self.rows, self.cols, other.cols
        out = [ZERO] * (n * m)
        sd, od = self.data, other.data
        for i in range(n):
            ib = i * k
            ob = i * m
            for t in range(k):
                a = sd[ib + t]
                if not a:
                    continue
                rb = t * m
                for j in range(m):
                    b = od[rb + j]
                    if b:
                        out[ob + j] = out[ob + j] + a * b
        return Mat(n, m, out)

    def scale(self, c) -> "Mat":
        if not isinstance(c, Scalar):
            c = Scalar(c)
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
        """Row echelon by exact elimination; returns (rows, pivot count, det).

        det is only meaningful for square input (zero when rank deficient).
        """
        work = [self.row(i) for i in range(self.rows)]
        nc = self.cols
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
            pv = work[prow][col]
            det = det * pv
            inv = ONE / pv
            work[prow] = [inv * x for x in work[prow]]
            for r in range(len(work)):
                if r == prow:
                    continue
                c = work[r][col]
                if c:
                    work[r] = [x - c * y for x, y in zip(work[r], work[prow])]
            prow += 1
        if prow < min(self.rows, self.cols):
            det = ZERO
        return work, prow, det

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
        aug = Mat(n, 2 * n, [ZERO] * (2 * n * n))
        for i in range(n):
            aug.data[2 * n * i:2 * n * i + n] = self.row(i)
            aug.data[2 * n * i + n + i] = ONE
        work, piv, _ = aug._echelon()
        # piv counts pivots across the augmented columns too, so a rank
        # deficient left block can still report n pivots; demand that the
        # left block actually reduced to the identity.
        singular = piv < n or any(
            work[i][j] != (ONE if i == j else ZERO)
            for i in range(n) for j in range(n))
        if singular:
            raise ArithmeticError("matrix is singular")
        out = []
        for i in range(n):
            out.extend(work[i][n:])
        return Mat(n, n, out)

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in self.row(i))
                         for i in range(self.rows))
        return "Mat(%dx%d: %s)" % (self.rows, self.cols, body)


def kron(a: Mat, b: Mat) -> Mat:
    """Tensor product with (i, j) -> cols(b)*i + j leg flattening."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [ZERO] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.data[i * a.cols + j]
            if not aij:
                continue
            for p in range(b.rows):
                base = (i * b.rows + p) * cols + j * b.cols
                brow = p * b.cols
                for q in range(b.cols):
                    bpq = b.data[brow + q]
                    if bpq:
                        out[base + q] = aij * bpq
    return Mat(rows, cols, out)


def flip(m: int, n: int) -> Mat:
    """The swap e_i (x) e_j -> e_j (x) e_i from C^m (x) C^n to C^n (x) C^m."""
    out = [ZERO] * (m * n * m * n)
    for i in range(m):
        for j in range(n):
            out[(j * m + i) * (m * n) + (i * n + j)] = ONE
    return Mat(n * m, m * n, out)


def middle_embed(x: Mat) -> Mat:
    """Embed a map on legs 2,3 of a four-fold C^2 tensor product.

    x must be 4x4; the result is the 16x16 matrix 1 (x) x (x) 1 acting on
    index (A, B, C, D) = 8A + 4B + 2C + D through the middle pair (B, C).
    """
    if x.rows != 4 or x.cols != 4:
        raise ShapeError("middle_embed expects a 4x4 matrix")
    out = [ZERO] * 256
    for a in range(2):
        for d in range(2):
            for bc_out in range(4):
                for bc_in in range(4):
                    v = x.data[bc_out * 4 + bc_in]
                    if v:
                        r = 8 * a + 2 * bc_out + d
                        c = 8 * a + 2 * bc_in + d
                        out[16 * r + c] = v
    return Mat(16, 16, out)


_PAULI = (
    Mat.from_rows([[1, 0], [0, 1]]),
    Mat.from_rows([[0, 1], [1, 0]]),
    Mat.from_rows([[0, Scalar(0, -1)], [Scalar(0, 1), 0]]),
    Mat.from_rows([[1, 0], [0, -1]]),
)


def pauli(i: int) -> Mat:
    """sigma_0 = identity, sigma_1, sigma_2, sigma_3."""
    return _PAULI[i]


_V = Mat.from_rows([
    [1, 0, 0, 1],
    [0, 1, Scalar(0, -1), 0],
    [0, 1, Scalar(0, 1), 0],
    [1, 0, 0, -1],
])

_V_INV = _V.inverse()


def v_matrix() -> Mat:
    """Basis change V with V_{(CD),i} = (sigma_i)_{CD}."""
    return _V


def v_inverse() -> Mat:
    return _V_INV
