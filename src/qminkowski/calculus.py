"""Covariant first-order differential calculus on the coordinate algebra.

The bimodule of one-forms is free as a right module with basis dx_0..dx_3,
so a one-form sum_i dx_i f_i is the tuple (f_0, f_1, f_2, f_3) of its
coordinate NCPolys, and the left action is pushed through that basis with
the exchange rule

    x_i dx_j = sum_kl R_{ij,kl} dx_k x_l + sum_k Z_{ij,k} dx_k.

A FirstOrderCalculus holds that rule once, as a table read from the
nonzeros of R and Z: row 4i + j lists (k, u, c) for each term c dx_k u,
where u is (l,) for R_{ij,kl} and () for Z_{ij,k}, so x_i (dx_j w) is the
sum of c dx_k (u + w).  Each reader takes this one table row by row:
the left action x_i (dx_j w) reads row 4i + j, the partials of x_k w'
read the rows 4k + l of the nonzero partial_l(w'), and the partial
exchange check the R terms of every row.

Such a calculus exists exactly when a 64x4 obstruction matrix vanishes:
obstruction names its first nonzero entry, and make_calculus raises that
witness rather than hand out a calculus.  f_tilde sums that matrix on
Gaussian-integer numerators over one common denominator, through
qalgebra.accumulate_pairs.  Partials are the coefficient functionals of
d and are computed by their own recursion, so the
identity d(a) = sum_i dx_i partial_i(a) cross-checks the two recursions;
it cannot see a wrong table, which the tests compare with R and Z entry
by entry.

What is memoised, and where: a FirstOrderCalculus is handed its quotient
.alg, which others may share, and owns four memos that live and die with
it, each keyed by word and holding normal forms as plain term dicts with
no zero coefficient: _d_memo holds d of each word as four term dicts (one
per dx_k), _p_memo its four partials, _act_memo sixteen act tables, one
per row 4i + j, each mapping w to the image x_i (dx_j w) as (k, term
dict) pairs for its nonzero coordinates k, which _x_act reads inline to
build x_i acting on any one-form by linearity, and _second_memo the 4x4
table of second partials.  Every memo sum goes through
qalgebra.accumulate; an NCPoly is built only where differential,
partial, box and left_mul return.  d is the recursion
E_b(a) = d(ab) - a d(b) at b = (), where
E_b(()) = 0 and E_b(h a') = x_h E_b(a') + dx_h nf(a' b), reading nf(a' b)
from the quotient's word normal forms.  check_leibniz keeps such a table
by word a for one word b at a time, with the right products w -> nf(w b)
that d(a) b reads, and checks the Leibniz rule at (a, b) as
E_b(a) = d(a) b, so neither d(ab) nor a d(b) is built; both tables are
dropped after each b.  left_mul, which runs x_i letter by letter, is the
reference for the left action.  The second partials of w, [i][j] =
partial_j(partial_i(w)) with row i the four partials of partial_i(w),
are read by both sides of check_partial_exchange, by
dirac.dirac_square_check, and by box, which contracts them with the
metric, sum_ij g_ij [i][j].  Their readers skip an empty partial or
second-partial entry rather than accumulate it.  Nothing is cached at
module level.

Each check_* method returns None when its identity holds on every basis
word up to the given degree, and otherwise the first counterexample as
text: the word or pair and the index, e.g. "a=(0,), b=(1, 2), i=3".
"""

from __future__ import annotations

from math import lcm

from .dirac import metric_of
from .errors import CalculusObstruction
from .exact import Mat, ONE, Scalar, ZERO, _reduce, kron
from .minkowski import make_minkowski
from .qalgebra import NCPoly, _poly, accumulate, accumulate_pairs

__all__ = [
    "f_tilde", "obstruction", "FirstOrderCalculus", "make_calculus",
    "kron",  # re-exported: perfbench and the trace tests wrap calculus.kron
]


def _numerators(m):
    """The lcm of the denominators of m's nonzeros (1 when there are none)
    and those nonzeros times it, as Gaussian integers (row, col, re, im)."""
    nz = m.nonzeros()
    den = lcm(*[x.d for _, _, x in nz])
    return den, [(i, j, x.a * (den // x.d), x.b * (den // x.d))
                 for i, j, x in nz]


def f_tilde(inst) -> Mat:
    """The 64x4 obstruction; the calculus exists iff it is zero.

    It is ((R - 1) (x) 1) I with I = (1 (x) Z) Z - (Z (x) 1) Z + T (x) 1
    - (1 (x) R)(R (x) 1)(1 (x) T), built from the nonzeros of R, Z and T
    without forming a Kronecker product.  With the 64-index (a, b, c) and
    the 16-index (a, b) flattened as usual, the row (a, b, c) of I is

        sum_q Z_{bc,q} Z_{aq,.} - sum_j Z_{ab,j} Z_{jc,.} + T_{ab} e_c
        - sum R_{bc,b'c'} B_{ab'c',.},  B_{abc,m} = sum_e R_{ab,me} T_{ec},

    the row (a, b, c) of the result is sum R_{ab,a'b'} I_{a'b'c} - I_{abc},
    and each row of I, B and the result is a sparse {column: value} dict.
    The sums run on Gaussian-integer numerators: with rho, zeta and tau
    the lcms of the denominators of R, Z and T, J = rho^2 zeta^2 tau I
    takes rho^2 tau per Z Z term, rho^2 zeta^2 per T term and zeta^2 per
    R R T term of the integer matrices rho R, zeta Z and tau T, the
    result is ((rho R - rho) (x) 1) J over rho^3 zeta^2 tau, and a Scalar
    is built only for each nonzero entry of it.
    """
    rho, r = _numerators(inst.R)
    zeta, z = _numerators(inst.Z)
    tau, t = _numerators(inst.T)
    inner = [{} for _ in range(64)]
    w = rho * rho * zeta * zeta
    for ab, _, x, y in t:
        for c in range(4):
            inner[4 * ab + c][c] = [x * w, y * w]
    w = rho * rho * tau
    z_rows = [{} for _ in range(16)]
    for row, m, x, y in z:
        z_rows[row][m] = (x * w, y * w)
    for bc, q, x, y in z:
        for a in range(4):
            accumulate_pairs(inner[16 * a + bc], z_rows[4 * a + q], x, y)
    for ab, j, x, y in z:
        for c in range(4):
            accumulate_pairs(inner[4 * ab + c], z_rows[4 * j + c], -x, -y)
    w = zeta * zeta
    t_rows = {row: (x * w, y * w) for row, _, x, y in t}
    b_rows = [{} for _ in range(64)]
    for ab, col, x, y in r:
        m, e = divmod(col, 4)
        for c in range(4):
            tv = t_rows.get(4 * e + c)
            if tv is not None:
                accumulate_pairs(b_rows[4 * ab + c], {m: tv}, x, y)
    for bc, col, x, y in r:
        for a in range(4):
            if b_rows[16 * a + col]:
                accumulate_pairs(inner[16 * a + bc], b_rows[16 * a + col],
                                 -x, -y)
    out = [{} for _ in range(64)]
    for ab, col, x, y in r:
        for c in range(4):
            if inner[4 * col + c]:
                accumulate_pairs(out[4 * ab + c], inner[4 * col + c], x, y)
    den = rho ** 3 * zeta * zeta * tau
    data = [ZERO] * 256
    for row, (got, sub) in enumerate(zip(out, inner)):
        accumulate_pairs(got, sub, -rho, 0)
        for m, (re, im) in got.items():
            if re or im:
                data[4 * row + m] = _reduce(re, im, den)
    return Mat(64, 4, data)


def obstruction(inst) -> str | None:
    """The first nonzero entry of f_tilde as witness text, or None when
    the calculus exists."""
    entries = f_tilde(inst).nonzeros()
    return "obstruction entry (%d, %d) = %r" % entries[0] if entries else None


class FirstOrderCalculus:
    """Differential, partials and the wave operator over one instance.

    .alg is a Minkowski quotient of inst, and every output is a normal
    form there; g is the instance metric, read by the wave operator.
    Unchecked: make_calculus checks the obstruction first.
    """

    def __init__(self, inst, alg):
        self.inst = inst
        self.alg = alg
        self._d_memo = {}
        self._p_memo = {}
        self._act_memo = [{} for _ in range(16)]
        self._second_memo = {}
        self.g = metric_of(inst)
        self._g_terms = self.g.nonzeros()
        self._exchange = [[] for _ in range(16)]
        for row, col, c in inst.R.nonzeros():
            k, l = divmod(col, 4)
            self._exchange[row].append((k, (l,), c))
        for row, k, c in inst.Z.nonzeros():
            self._exchange[row].append((k, (), c))

    # -- bimodule structure ------------------------------------------------

    def _act(self, i: int, j: int, w) -> tuple:
        """x_i (dx_j w) as a (k, terms) pair for each nonzero coordinate k,
        the sum of c nf(u + w) over the table's terms c dx_k u, stored in
        the act table of row 4i + j under w."""
        images = ({}, {}, {}, {})
        for k, u, c in self._exchange[4 * i + j]:
            accumulate(images[k], self.alg.word_normal_form(u + w), c)
        hit = self._act_memo[4 * i + j][w] = tuple(
            (k, img) for k, img in enumerate(images) if img)
        return hit

    def _x_act(self, i: int, coords) -> tuple:
        """x_i acting from the left on the one-form whose coordinates are
        the term dicts coords: the sum of c x_i (dx_j w) over the terms
        c w of each coords[j], as four term dicts."""
        out = ({}, {}, {}, {})
        for j, fj in enumerate(coords):
            table = self._act_memo[4 * i + j]
            for w, c in fj.items():
                pairs = table.get(w)
                if pairs is None:
                    pairs = self._act(i, j, w)
                for k, img in pairs:
                    accumulate(out[k], img, c)
        return out

    def left_mul(self, p: NCPoly, form: tuple) -> tuple:
        """p acting from the left on a one-form, one letter at a time from
        the right end of each word."""
        out = ({}, {}, {}, {})
        for w, c in p.terms.items():
            f = [q.terms for q in form]
            for g in reversed(w):
                f = self._x_act(g, f)
            for acc, t in zip(out, f):
                accumulate(acc, t, c)
        return tuple(map(_poly, out))

    # -- differential and partials -----------------------------------------

    def _leibniz_e(self, table, a, b) -> tuple:
        """E_b(a) = d(ab) - a d(b) as four term dicts, memoised in table by
        a: E_b(()) = 0 and E_b(h a') = x_h E_b(a') + dx_h nf(a' b)."""
        hit = table.get(a)
        if hit is None:
            if a:
                head, rest = a[0], a[1:]
                hit = self._x_act(head, self._leibniz_e(table, rest, b))
                accumulate(hit[head], self.alg.word_normal_form(rest + b))
            else:
                hit = ({}, {}, {}, {})
            table[a] = hit
        return hit

    def _d_word(self, w) -> tuple:
        """d(w) = E_()(w) as four term dicts, memoised per word."""
        return self._leibniz_e(self._d_memo, w, ())

    def differential(self, p: NCPoly) -> tuple:
        out = ({}, {}, {}, {})
        for w, c in p.terms.items():
            for acc, t in zip(out, self._d_word(w)):
                accumulate(acc, t, c)
        return tuple(map(_poly, out))

    def _partials(self, w) -> tuple:
        """The four partials of the word w as term dicts, memoised per
        word: partial_i(x_k w') is [i = k] w' plus c (u + v) for each term
        c dx_i u of row 4k + l and each term v of partial_l(w')."""
        hit = self._p_memo.get(w)
        if hit is None:
            acc = ({}, {}, {}, {})
            if w:
                k, rest = w[0], w[1:]
                acc[k][rest] = ONE
                for l, dl in enumerate(self._partials(rest)):
                    if dl:
                        for i, u, c in self._exchange[4 * k + l]:
                            accumulate(acc[i],
                                       {u + v: x for v, x in dl.items()}, c)
                acc = tuple(self.alg.normal_form(_poly(a)).terms for a in acc)
            hit = self._p_memo[w] = acc
        return hit

    def _p_terms(self, terms) -> tuple:
        """The four partials of the polynomial with the given terms, as
        term dicts."""
        out = ({}, {}, {}, {})
        for w, c in terms.items():
            for acc, p in zip(out, self._partials(w)):
                if p:
                    accumulate(acc, p, c)
        return out

    def partial(self, i: int, p: NCPoly) -> NCPoly:
        out = {}
        for w, c in p.terms.items():
            pi = self._partials(w)[i]
            if pi:
                accumulate(out, pi, c)
        return _poly(out)

    # -- second-order operators ---------------------------------------------

    def second_partials(self, w) -> tuple:
        """The sixteen second partials of the word w as a table of term
        dicts, memoised per word: [i][j] is partial_j(partial_i(w))."""
        hit = self._second_memo.get(w)
        if hit is None:
            hit = self._second_memo[w] = tuple(
                self._p_terms(p) for p in self._partials(w))
        return hit

    def box(self, p: NCPoly) -> NCPoly:
        """The wave operator sum_ij g_ij partial_j partial_i, contracted
        from the second-partial table of each word."""
        out = {}
        for w, c in p.terms.items():
            second = self.second_partials(w)
            for i, j, g in self._g_terms:
                if second[i][j]:
                    accumulate(out, second[i][j], c * g)
        return _poly(out)

    def momentum(self, k: int, p: NCPoly) -> NCPoly:
        return self.partial(k, p).scale(Scalar(0, 1))

    def momentum_up(self, k: int, p: NCPoly) -> NCPoly:
        out = NCPoly.zero()
        for row, l, c in self.g.nonzeros():
            if row == k:
                out = out + self.partial(l, p).scale(c * Scalar(0, 1))
        return out

    # -- identity checks -----------------------------------------------------

    def check_differential_consistency(self, n: int) -> str | None:
        """d(a) = sum_i dx_i partial_i(a) on every basis word."""
        for w in self.alg.basis_upto(n):
            form, partials = self._d_word(w), self._partials(w)
            for i in range(4):
                if form[i] != partials[i]:
                    return "w=%s, i=%d" % (w, i)
        return None

    def check_leibniz(self, n: int) -> str | None:
        """d(ab) = a d(b) + d(a) b for basis pairs inside the cap, checked
        as E_b(a) = d(ab) - a d(b) against d(a) b (module docstring)."""
        words = list(self.alg.basis_upto(n))     # ascending degree
        word_nf, d_memo = self.alg.word_normal_form, self._d_memo
        for b in words:
            table, right = {}, {}       # right: w -> nf(w + b)
            for a in words:
                if len(a) + len(b) > n:
                    break
                da = d_memo.get(a)
                if da is None:
                    da = self._d_word(a)
                e_b = self._leibniz_e(table, a, b) if b else da  # E_() = d
                for i, dai in enumerate(da):
                    rhs = {}
                    for w, c in dai.items():
                        wb = right.get(w)
                        if wb is None:
                            wb = right[w] = word_nf(w + b)
                        accumulate(rhs, wb, c)
                    if e_b[i] != rhs:
                        return "a=%s, b=%s, i=%d" % (a, b, i)
        return None

    def _exchanged(self, second):
        """[k][l] is the terms of sum_ij R_{ij,kl} second[i][j].  The R
        terms of the exchange table are those that put a letter l before
        w; the Z terms take no part."""
        rhs = [[{} for _ in range(4)] for _ in range(4)]
        for row, terms in enumerate(self._exchange):
            i, j = divmod(row, 4)
            entry = second[i][j]
            if not entry:
                continue
            for k, u, c in terms:
                if u:
                    accumulate(rhs[k][u[0]], entry, c)
        return rhs

    def check_partial_exchange(self, n: int) -> str | None:
        """partial_l partial_k = sum_ij R_{ij,kl} partial_j partial_i."""
        for w in self.alg.basis_upto(n):
            second = self.second_partials(w)
            rhs = self._exchanged(second)
            for k in range(4):
                for l in range(4):
                    if second[k][l] != rhs[k][l]:
                        return "w=%s, k=%d, l=%d" % (w, k, l)
        return None

    def check_box_commutes(self, n: int) -> str | None:
        """The wave operator commutes with every partial."""
        for w in self.alg.basis_upto(n):
            p = NCPoly.from_word(w)
            pb = self._p_terms(self.box(p).terms)
            for i in range(4):
                if pb[i] != self.box(self.partial(i, p)).terms:
                    return "w=%s, i=%d" % (w, i)
        return None


def make_calculus(inst, cap: int = 4) -> FirstOrderCalculus:
    """The calculus over the cap-truncated algebra of inst, or
    CalculusObstruction with the obstruction witness, raised before any
    quotient is built."""
    witness = obstruction(inst)
    if witness is not None:
        raise CalculusObstruction(witness)
    return FirstOrderCalculus(inst, make_minkowski(inst, cap))
