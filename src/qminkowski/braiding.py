"""Extended R-matrix, coquasitriangular evaluator, braiding diagnostics.

The affine corepresentation matrix P is 5x5: P_ij = Lambda_ij for
i, j < 4, P_i4 = y_i (translations), P_44 = 1 and P_4j = 0.  The pairing
of the symmetry bialgebra with itself is fixed on generator pairs by a
25x25 matrix R_Q and extended to words through the two product laws

    r(ab (x) c) = sum r(a (x) c") r(b (x) c'),   with Delta(c) = c" (x) c'
    r(a (x) cd) = sum r(a' (x) d) r(a" (x) c),   with Delta(a) = a' (x) a"

written here so that r(P_jk (x) P_il) = R_Q[(i,j),(k,l)] with the package
pair convention (i,j) -> 5i + j.  Both tensor legs of R_Q use that same
flattening, so for the classical instance with b = 0 the matrix R_Q is
literally the 25-dimensional swap.  A coquasitriangular pairing is
determined by its generator table, so the evaluator holds R_Q and nothing
else of the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .dirac import metric
from .errors import ConstraintError, ShapeError
from .exact import Mat, ONE, Scalar, ZERO, flip, require_sign, sqrt_q
from .instance import PoincareInstance
from .qalgebra import NCPoly, accumulate

__all__ = [
    "lam_id", "y_id", "p_entry_word",
    "build_rq", "yang_baxter_check", "counit_b",
    "CqtEvaluator", "make_evaluator",
    "star_cqt_check", "ct_check",
    "LorentzRBlocks", "lorentz_r_blocks",
]

# --- generator alphabet of the symmetry bialgebra ---------------------------

def lam_id(i: int, j: int) -> int:
    """Generator id of Lambda_ij, 0..15."""
    return 4 * i + j


def y_id(i: int) -> int:
    """Generator id of the translation y_i, 16..19."""
    return 16 + i


def _p_pos(g: int):
    """Position of a generator inside the 5x5 matrix P."""
    if g < 16:
        return divmod(g, 4)
    return (g - 16, 4)


def p_entry_word(a: int, b: int):
    """The entry P_ab as a word, () for the unit, None for the zero entry."""
    if a < 4 and b < 4:
        return (lam_id(a, b),)
    if a < 4 and b == 4:
        return (y_id(a),)
    if a == 4 and b == 4:
        return ()
    return None


# --- the 25x25 extended R-matrix --------------------------------------------

def build_rq(inst: PoincareInstance, b) -> Mat:
    """Assemble R_Q from R, Z, T, the metric and the central charge b.

    Indices run over the five-letter alphabet x_0..x_3, 1 with the usual
    pair flattening (a, b) -> 5a + b on both legs.
    """
    r, z, t = inst.R, inst.Z, inst.T
    rz = r * z
    g = Mat(16, 1, metric(inst).data)
    corner = (r - Mat.identity(16)) * t + g.scale(b)
    out = [ZERO] * (25 * 25)

    def put(row, col, v):
        out[25 * row + col] = v

    def five(p):
        # the pair 4a + b over x_0..x_3 as 5a + b over x_0..x_3, 1
        return p + p // 4

    for row, col, v in r.nonzeros():
        put(five(row), five(col), v)
    for row, k, v in z.nonzeros():
        put(five(row), 5 * k + 4, v)
    for row, l, v in rz.nonzeros():
        put(five(row), 20 + l, -v)
    for row, _, v in corner.nonzeros():
        put(five(row), 24, v)
    for i in range(4):
        put(5 * i + 4, 20 + i, ONE)
        put(20 + i, 5 * i + 4, ONE)
    put(24, 24, ONE)
    return Mat(25, 25, out)


def yang_baxter_check(m: Mat) -> bool:
    """Braid identity (m x 1)(1 x m)(m x 1) = (1 x m)(m x 1)(1 x m).

    Compared one basis column of C^d (x) C^d (x) C^d at a time: e_j goes
    through the three factors of each side as a sparse dict that drops
    zeros, reading only the nonzeros of m's columns, and the check stops
    at the first column whose two images differ.  Two matrices are equal
    exactly when all their columns are, and the arithmetic is exact, so
    this is the same predicate as comparing the two kron products.
    """
    if m.rows != m.cols:
        raise ShapeError("Yang-Baxter input must be square")
    d = round(m.rows ** 0.5)
    if d * d != m.rows:
        raise ShapeError("side %d is not a perfect square" % m.rows)
    n = m.rows
    cols = [[] for _ in range(n)]
    for r, j, x in m.nonzeros():
        cols[j].append((r, x))

    # (m x 1) e_(d*ab + c) and (1 x m) e_(n*a + bc), each built once.
    @cache
    def m_one(i):
        ab, c = divmod(i, d)
        return {d * r + c: x for r, x in cols[ab]}

    @cache
    def one_m(i):
        a, bc = divmod(i, n)
        return {n * a + r: x for r, x in cols[bc]}

    def apply(op, v):
        out = {}
        for i, c in v.items():
            accumulate(out, op(i), c)
        return out

    return all(apply(m_one, apply(one_m, m_one(j)))
               == apply(one_m, apply(m_one, one_m(j))) for j in range(n * d))


# --- coalgebra structure on words -------------------------------------------

def _delta_letter(g: int):
    if g < 16:
        i, j = divmod(g, 4)
        return [((lam_id(i, k),), (lam_id(k, j),), ONE) for k in range(4)]
    i = g - 16
    out = [((y_id(i),), (), ONE)]
    out.extend(((lam_id(i, j),), (y_id(j),), ONE) for j in range(4))
    return out


def _counit_letter(g: int) -> Scalar:
    if g < 16:
        i, j = divmod(g, 4)
        return ONE if i == j else ZERO
    return ZERO


def _counit_word(w) -> Scalar:
    for g in w:
        if not _counit_letter(g):
            return ZERO
    return ONE


def _delta_word(w):
    pairs = [((), (), ONE)]
    for g in w:
        letter = _delta_letter(g)
        pairs = [(w1 + a, w2 + b, c * cc)
                 for (w1, w2, c) in pairs
                 for (a, b, cc) in letter]
    return pairs


def counit_b(p: NCPoly) -> Scalar:
    acc = ZERO
    for w, c in p.terms.items():
        acc = acc + c * _counit_word(w)
    return acc


# --- the evaluator -----------------------------------------------------------

class CqtEvaluator:
    """The pairing fixed by its generator table R_Q, evaluated on arbitrary
    word pairs by memoized recursion."""

    def __init__(self, rq: Mat):
        self.rq = rq
        self._rq_inv = None
        self._memo = {}
        self._ct = None

    def rq_inverse(self) -> Mat:
        """The inverse of R_Q, eliminated once: a singular R_Q is
        remembered as False and raises ConstraintError on every call."""
        if self._rq_inv is None:
            try:
                self._rq_inv = self.rq.inverse()
            except ArithmeticError:
                self._rq_inv = False
        if self._rq_inv is False:
            raise ConstraintError("R_Q is singular")
        return self._rq_inv

    def _base(self, gu: int, gv: int) -> Scalar:
        ju, ku = _p_pos(gu)
        iv, lv = _p_pos(gv)
        return self.rq[5 * iv + ju, 5 * ku + lv]

    def r_word(self, u, v) -> Scalar:
        key = (u, v)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not u:
            out = _counit_word(v)
        elif not v:
            out = _counit_word(u)
        elif len(u) == 1 and len(v) == 1:
            out = self._base(u[0], v[0])
        elif len(u) > 1:
            head, rest = (u[0],), u[1:]
            acc = ZERO
            for w1, w2, c in _delta_word(v):
                s = self.r_word(head, w1)
                if s:
                    s2 = self.r_word(rest, w2)
                    if s2:
                        acc = acc + c * s * s2
            out = acc
        else:
            front, last = v[:-1], (v[-1],)
            acc = ZERO
            for w1, w2, c in _delta_word(u):
                s = self.r_word(w1, last)
                if s:
                    s2 = self.r_word(w2, front)
                    if s2:
                        acc = acc + c * s * s2
            out = acc
        self._memo[key] = out
        return out

    def is_cotriangular(self) -> bool:
        if self._ct is None:
            self._ct = ct_check(self)
        return self._ct


def make_evaluator(inst: PoincareInstance, b=0) -> CqtEvaluator:
    return CqtEvaluator(build_rq(inst, b))


def star_cqt_check(ev: CqtEvaluator) -> bool:
    """conj r(q* (x) p*) = r(p (x) q) over all matrix entries of P.

    The generators are star-fixed here, so the stars only reverse words;
    on single letters the condition is a conjugate-flip symmetry.
    """
    entries = [p_entry_word(a, b) for a in range(5) for b in range(5)]
    entries = [w for w in entries if w is not None]
    for u in entries:
        for v in entries:
            if ev.r_word(v, u).conj() != ev.r_word(u, v):
                return False
    return True


def ct_check(ev: CqtEvaluator) -> bool:
    """Cotriangularity on the vector corepresentation: the inverse of R_Q
    equals its flip conjugate.  False when R_Q is singular.

    The flip conjugate is flip(5, 5) * R_Q * flip(5, 5), whose (i, j)
    entry is R_Q[s(i), s(j)] for the pair swap s(5a + b) = 5b + a, so the
    entries are compared directly, up to the first mismatch.
    """
    try:
        inverse = ev.rq_inverse()
    except ConstraintError:
        return False
    rq = ev.rq
    swap = [5 * (k % 5) + k // 5 for k in range(25)]
    return all(inverse[i, j] == rq[swap[i], swap[j]]
               for i in range(25) for j in range(25))


# --- R-matrices on the spinor generator pairs --------------------------------

@dataclass(frozen=True)
class LorentzRBlocks:
    ww: Mat
    wwbar: Mat
    wbarw: Mat
    wbarwbar: Mat


def lorentz_r_blocks(inst: PoincareInstance, k=1) -> LorentzRBlocks:
    """The four 4x4 pairing blocks on w/wbar generator pairs; the sign k
    is the residual freedom left by the bialgebra laws."""
    require_sign("k", k)
    q, s = inst.q, inst.s
    lmat = (Mat.identity(4) + (inst.E * inst.Eprime).scale(q)) \
        .scale(s * sqrt_q(q))
    tau = flip(2, 2)
    return LorentzRBlocks(
        ww=lmat.scale(k),
        wwbar=inst.X.scale(k),
        wbarw=inst.X.inverse().scale(q * k),
        wbarwbar=(tau * lmat * tau).scale(k),
    )
