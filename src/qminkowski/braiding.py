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

from .dirac import metric
from .errors import ConstraintError, ShapeError
from .exact import Mat, ONE, Scalar, ZERO, flip, kron, require_sign, \
    sqrt_q
from .instance import PoincareInstance
from .qalgebra import NCPoly, accumulate

__all__ = [
    "lam_id", "y_id", "b_name", "p_entry_word",
    "build_rq", "yang_baxter_check",
    "delta_b", "counit_b",
    "CqtEvaluator", "make_evaluator", "r_eval",
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


def b_name(g: int) -> str:
    if g < 16:
        return "L%d%d" % divmod(g, 4)
    return "y%d" % (g - 16)


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
    if not isinstance(b, Scalar):
        b = Scalar(b)
    r, z, t = inst.R, inst.Z, inst.T
    rz = r * z
    rm1t = (r - Mat.identity(16)) * t
    g = metric(inst)
    out = [ZERO] * (25 * 25)

    def put(row, col, v):
        out[25 * row + col] = v

    for i in range(4):
        for j in range(4):
            row = 5 * i + j
            for k in range(4):
                for l in range(4):
                    v = r[4 * i + j, 4 * k + l]
                    if v:
                        put(row, 5 * k + l, v)
            for k in range(4):
                v = z[4 * i + j, k]
                if v:
                    put(row, 5 * k + 4, v)
            for l in range(4):
                v = rz[4 * i + j, l]
                if v:
                    put(row, 20 + l, -v)
            v = rm1t[4 * i + j, 0] + b * g[i, j]
            if v:
                put(row, 24, v)
    for i in range(4):
        put(5 * i + 4, 20 + i, ONE)
        put(20 + i, 5 * i + 4, ONE)
    put(24, 24, ONE)
    return Mat(25, 25, out)


def yang_baxter_check(m: Mat) -> bool:
    """Braid identity (m x 1)(1 x m)(m x 1) = (1 x m)(m x 1)(1 x m)."""
    if m.rows != m.cols:
        raise ShapeError("Yang-Baxter input must be square")
    d = round(m.rows ** 0.5)
    if d * d != m.rows:
        raise ShapeError("side %d is not a perfect square" % m.rows)
    one = Mat.identity(d)
    a = kron(m, one)
    c = kron(one, m)
    return a * c * a == c * a * c


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


def delta_b(p: NCPoly):
    """Coproduct of a symmetry-algebra polynomial as {(w1, w2): coeff}."""
    out = {}
    for w, c in p.terms.items():
        accumulate(out, {(w1, w2): cc for w1, w2, cc in _delta_word(w)}, c)
    return out


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
        if self._rq_inv is None:
            try:
                self._rq_inv = self.rq.inverse()
            except ArithmeticError as exc:
                raise ConstraintError("R_Q is singular") from exc
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


def r_eval(ev: CqtEvaluator, p: NCPoly, q: NCPoly) -> Scalar:
    """Bilinear extension of the word pairing."""
    acc = ZERO
    for wu, cu in p.terms.items():
        for wv, cv in q.terms.items():
            s = ev.r_word(wu, wv)
            if s:
                acc = acc + cu * cv * s
    return acc


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
    equals its flip conjugate."""
    f = flip(5, 5)
    return ev.rq_inverse() == f * ev.rq * f


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
    if not isinstance(k, Scalar):
        k = Scalar(k)
    require_sign("k", k)
    q, s = inst.q, inst.s
    lmat = (Mat.identity(4) + (inst.E * inst.Eprime).scale(q)) \
        .scale(s * sqrt_q(q))
    tau = flip(2, 2)
    try:
        xinv = inst.X.inverse()
    except ArithmeticError as exc:
        raise ConstraintError("X is singular") from exc
    return LorentzRBlocks(
        ww=lmat.scale(k),
        wwbar=inst.X.scale(k),
        wbarw=xinv.scale(q * k),
        wbarwbar=(tau * lmat * tau).scale(k),
    )
