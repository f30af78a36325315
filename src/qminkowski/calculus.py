"""Covariant first-order differential calculus on the coordinate algebra.

The bimodule of one-forms is free as a right module with basis dx_0..dx_3,
and the left action is pushed through that basis with the exchange rule

    x_i dx_j = sum_kl R_{ij,kl} dx_k x_l + sum_k Z_{ij,k} dx_k.

Such a calculus exists exactly when a 64x4 obstruction matrix vanishes;
make_calculus refuses to hand out a calculus otherwise.  Partials are the
coefficient functionals of d and are computed by their own recursion, so
the identity d(a) = sum_i dx_i partial_i(a) is a genuine cross-check.

What is memoised, and where: a FirstOrderCalculus owns three memos that
live and die with it, all of normal forms: d of each word, partial_i of
each word, and the image x_i (dx_j w) of each (i, j, w), from which
left_mul_gen builds x_i acting on any one-form by linearity.  left_mul is
the unmemoised path (one left_mul_gen per letter) and stays the reference.
check_leibniz keeps, for one word b at a time, a table of a d(b) by word
a, and check_partial_exchange computes the sixteen second partials of a
word once for both sides of the identity.  Nothing is cached at module
level.

Each check_* method returns None when its identity holds on every basis
word up to the given degree, and otherwise the first counterexample as
text: the word or pair and the index, e.g. "a=(0,), b=(1, 2), i=3".
"""

from __future__ import annotations

from dataclasses import dataclass

from .dirac import metric
from .errors import CalculusObstruction
from .exact import Mat, Scalar, kron
from .minkowski import MinkowskiAlgebra
from .qalgebra import NCPoly, accumulate

__all__ = [
    "f_tilde", "Form1", "FirstOrderCalculus", "make_calculus",
]


def f_tilde(inst) -> Mat:
    """The 64x4 obstruction; the calculus exists iff it is zero."""
    i4 = Mat.identity(4)
    i16 = Mat.identity(16)
    r, z, t = inst.R, inst.Z, inst.T
    inner = (kron(i4, z) * z
             - kron(z, i4) * z
             + kron(t, i4)
             - kron(i4, r) * kron(r, i4) * kron(i4, t))
    return kron(r - i16, i4) * inner


@dataclass(frozen=True)
class Form1:
    """A one-form in right-module coordinates: sum_i dx_i coords[i]."""

    coords: tuple

    @staticmethod
    def zero() -> "Form1":
        z = NCPoly.zero()
        return Form1((z, z, z, z))

    def __add__(self, other):
        return Form1(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Form1(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c) -> "Form1":
        return Form1(tuple(p.scale(c) for p in self.coords))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coords)


class FirstOrderCalculus:
    """Differential, partials and the wave operator over one algebra.

    All outputs are normal forms in the underlying quotient; g is the
    metric of the instance, read by the wave operator.  Do not construct
    directly; use make_calculus, which checks the obstruction.
    """

    def __init__(self, alg: MinkowskiAlgebra):
        self.alg = alg
        self._d_memo = {}
        self._p_memo = {}
        self._act_memo = {}
        self.g = metric(alg.instance)

    # -- bimodule structure ------------------------------------------------

    def _act(self, i: int, j: int, w) -> tuple:
        """The four coordinates of x_i (dx_j w), memoised per (i, j, w)."""
        key = (i, j, w)
        hit = self._act_memo.get(key)
        if hit is None:
            r, z = self.alg.instance.R, self.alg.instance.Z
            nf = self.alg.normal_form
            row = 4 * i + j
            coords = []
            for k in range(4):
                terms = {(l,) + w: r[row, 4 * k + l] for l in range(4)}
                terms[w] = z[row, k]
                coords.append(nf(NCPoly(terms)))
            hit = self._act_memo[key] = tuple(coords)
        return hit

    def left_mul_gen(self, i: int, form: Form1) -> Form1:
        """x_i acting from the left on a one-form: the sum of c x_i (dx_j w)
        over the terms c w of each coordinate j."""
        out = ({}, {}, {}, {})
        for j, fj in enumerate(form.coords):
            for w, c in fj.terms.items():
                for acc, img in zip(out, self._act(i, j, w)):
                    accumulate(acc, img.terms, c)
        return Form1(tuple(NCPoly(t) for t in out))

    def left_mul(self, p: NCPoly, form: Form1) -> Form1:
        out = Form1.zero()
        for w, c in p.terms.items():
            f = form
            for g in reversed(w):
                f = self.left_mul_gen(g, f)
            out = out + f.scale(c)
        return out

    def right_mul(self, form: Form1, p: NCPoly) -> Form1:
        nf = self.alg.normal_form
        return Form1(tuple(nf(f * p) for f in form.coords))

    # -- differential and partials -----------------------------------------

    def _d_word(self, w) -> Form1:
        memo = self._d_memo
        hit = memo.get(w)
        if hit is not None:
            return hit
        if not w:
            out = Form1.zero()
        else:
            head, rest = w[0], w[1:]
            out = self.left_mul_gen(head, self._d_word(rest))
            coords = list(out.coords)
            coords[head] = coords[head] + self.alg.normal_form(
                NCPoly.from_word(rest))
            out = Form1(tuple(coords))
        memo[w] = out
        return out

    def differential(self, p: NCPoly) -> Form1:
        out = Form1.zero()
        for w, c in p.terms.items():
            out = out + self._d_word(w).scale(c)
        return out

    def _p_word(self, i: int, w) -> NCPoly:
        memo = self._p_memo
        key = (i, w)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if not w:
            out = NCPoly.zero()
        else:
            k, rest = w[0], w[1:]
            r, z = self.alg.instance.R, self.alg.instance.Z
            acc = NCPoly.zero()
            if k == i:
                acc = acc + NCPoly.from_word(rest)
            for l in range(4):
                dl = self._p_word(l, rest)
                if dl.is_zero():
                    continue
                for n in range(4):
                    c = r[4 * k + l, 4 * i + n]
                    if c:
                        acc = acc + (NCPoly.gen(n) * dl).scale(c)
                c = z[4 * k + l, i]
                if c:
                    acc = acc + dl.scale(c)
            out = self.alg.normal_form(acc)
        memo[key] = out
        return out

    def partial(self, i: int, p: NCPoly) -> NCPoly:
        out = NCPoly.zero()
        for w, c in p.terms.items():
            out = out + self._p_word(i, w).scale(c)
        return out

    # -- second-order operators ---------------------------------------------

    def box(self, p: NCPoly) -> NCPoly:
        """The wave operator sum_ij g_ij partial_j partial_i."""
        out = NCPoly.zero()
        for i in range(4):
            pi = self.partial(i, p)
            if pi.is_zero():
                continue
            for j in range(4):
                c = self.g[i, j]
                if c:
                    out = out + self.partial(j, pi).scale(c)
        return out

    def momentum(self, k: int, p: NCPoly) -> NCPoly:
        return self.partial(k, p).scale(Scalar(0, 1))

    def momentum_up(self, k: int, p: NCPoly) -> NCPoly:
        out = NCPoly.zero()
        for l in range(4):
            c = self.g[k, l]
            if c:
                out = out + self.partial(l, p).scale(c * Scalar(0, 1))
        return out

    # -- identity checks -----------------------------------------------------

    def check_differential_consistency(self, n: int) -> str | None:
        """d(a) = sum_i dx_i partial_i(a) on every basis word."""
        for w in self.alg.basis_upto(n):
            form = self._d_word(w)
            for i in range(4):
                if form.coords[i] != self._p_word(i, w):
                    return "w=%s, i=%d" % (w, i)
        return None

    def _times(self, a, table):
        """x_a acting on the form table[()]; table memoises every suffix of
        a, which need not be a basis word."""
        hit = table.get(a)
        if hit is None:
            hit = table[a] = self.left_mul_gen(a[0],
                                               self._times(a[1:], table))
        return hit

    def check_leibniz(self, n: int) -> str | None:
        """d(ab) = a d(b) + d(a) b for basis pairs inside the cap."""
        words = list(self.alg.basis_upto(n))     # ascending degree
        for b in words:
            pb = NCPoly.from_word(b)
            table = {(): self._d_word(b)}
            for a in words:
                if len(a) + len(b) > n:
                    break
                lhs = self._d_word(a + b)
                rhs = self._times(a, table) + self.right_mul(self._d_word(a),
                                                             pb)
                for i in range(4):
                    if lhs.coords[i] != rhs.coords[i]:
                        return "a=%s, b=%s, i=%d" % (a, b, i)
        return None

    def _second_partials(self, w):
        """[i][j] -> partial_j partial_i of the word w."""
        return [[self.partial(j, self._p_word(i, w)) for j in range(4)]
                for i in range(4)]

    def check_partial_exchange(self, n: int) -> str | None:
        """partial_l partial_k = sum_ij R_{ij,kl} partial_j partial_i."""
        r = self.alg.instance.R
        for w in self.alg.basis_upto(n):
            second = self._second_partials(w)
            for k in range(4):
                for l in range(4):
                    rhs = {}
                    for i in range(4):
                        for j in range(4):
                            c = r[4 * i + j, 4 * k + l]
                            if c:
                                accumulate(rhs, second[i][j].terms, c)
                    if second[k][l].terms != rhs:
                        return "w=%s, k=%d, l=%d" % (w, k, l)
        return None

    def check_box_commutes(self, n: int) -> str | None:
        """The wave operator commutes with every partial."""
        for w in self.alg.basis_upto(n):
            p = NCPoly.from_word(w)
            bp = self.box(p)
            for i in range(4):
                if self.partial(i, bp) != self.box(self.partial(i, p)):
                    return "w=%s, i=%d" % (w, i)
        return None


def make_calculus(alg: MinkowskiAlgebra) -> FirstOrderCalculus:
    """Build the calculus, or raise CalculusObstruction with a witness."""
    ft = f_tilde(alg.instance)
    if not ft.is_zero():
        for r in range(64):
            for c in range(4):
                v = ft[r, c]
                if v:
                    raise CalculusObstruction(
                        "obstruction entry (%d, %d) = %r" % (r, c, v))
    return FirstOrderCalculus(alg)
