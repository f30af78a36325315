"""Tensor powers of the coordinate algebra and braided symmetrization.

A CTensor is a finitely supported sum of n-fold word tensors with every
slot in normal form.  The affine coaction x_i -> sum_j Lambda_ij (x) x_j
+ y_i (x) 1 feeds the evaluator pairing; the interchange operator K on
two slots is the braiding that replaces the plain flip.  Symmetric-group
actions on n slots demand a cotriangular evaluator, since only then do
the adjacent interchanges satisfy the braid and involution identities
that make the action well defined.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

from .errors import NotCotriangular
from .exact import ONE, Scalar
from .braiding import CqtEvaluator, lam_id, y_id
from .minkowski import MinkowskiAlgebra
from .qalgebra import NCPoly, accumulate

__all__ = [
    "CTensor", "coaction", "interchange_k", "braid_action",
    "symmetrize", "lift_operator",
]

MAX_SLOTS = 4


class CTensor:
    """Exact linear combination of n-fold tensors of basis words."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        t = {}
        if terms:
            for ws, c in terms.items():
                if len(ws) != n:
                    raise ValueError("tensor term with %d slots, want %d"
                                     % (len(ws), n))
                if c:
                    t[ws] = c
        self.terms = t

    @staticmethod
    def from_polys(alg: MinkowskiAlgebra, polys) -> "CTensor":
        """Tensor product of algebra elements, slots normal-formed."""
        n = len(polys)
        acc = {(): ONE}
        for p in polys:
            nfp = alg.normal_form(p).terms
            acc = {ws + (w,): c * cw for ws, c in acc.items()
                   for w, cw in nfp.items()}
        return CTensor(n, acc)

    def __add__(self, other):
        if not isinstance(other, CTensor) or other.n != self.n:
            raise ValueError("slot count mismatch")
        t = CTensor(self.n)
        t.terms = accumulate(dict(self.terms), other.terms)
        return t

    def __sub__(self, other):
        return self + other.scale(Scalar(-1))

    def scale(self, c) -> "CTensor":
        if not isinstance(c, Scalar):
            c = Scalar(c)
        t = CTensor(self.n)
        if c:
            t.terms = {ws: c * v for ws, v in self.terms.items()}
        return t

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, CTensor):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "CTensor(%d, 0)" % self.n
        bits = []
        for ws in sorted(self.terms, key=lambda t: tuple(map(len, t))):
            bits.append("(%r)*%s" % (self.terms[ws],
                                     " (x) ".join(str(list(w)) for w in ws)))
        return "CTensor(%d, %s)" % (self.n, " + ".join(bits))


def _coaction_word(alg: MinkowskiAlgebra, w):
    cache = alg._cache.setdefault("coaction", {})
    hit = cache.get(w)
    if hit is not None:
        return hit
    # Each letter x_g goes to sum_j Lambda_gj (x) x_j + y_g (x) 1.  The
    # symmetry word names every choice made, so no two terms share a key.
    pairs = [((), ())]
    for g in w:
        letter = [(lam_id(g, j), (j,)) for j in range(4)] + [(y_id(g), ())]
        pairs = [(bw + (b,), cw + c) for bw, cw in pairs for b, c in letter]
    out = {(bw, cw2): c2 for bw, cw in pairs
           for cw2, c2 in alg.normal_form(NCPoly.from_word(cw)).terms.items()}
    cache[w] = out
    return out


def coaction(alg: MinkowskiAlgebra, p: NCPoly):
    """The affine coaction as {(symmetry word, coordinate word): coeff}."""
    out = {}
    for w, c in p.terms.items():
        accumulate(out, _coaction_word(alg, w), c)
    return out


def _k_pair(ev: CqtEvaluator, alg: MinkowskiAlgebra, wp, wq):
    """K on one pair of words, as {(word, word): coeff}."""
    cache = alg._cache.setdefault(("kpair", id(ev)), {})
    key = (wp, wq)
    hit = cache.get(key)
    if hit is not None:
        return hit
    left = _coaction_word(alg, wp)
    right = _coaction_word(alg, wq)
    out = {}
    for (ub, um), ca in left.items():
        for (vb, vn), cb in right.items():
            s = ev.r_word(vb, ub)
            if s:
                accumulate(out, {(vn, um): ca * cb * s})
    cache[key] = out
    return out


def interchange_k(ev: CqtEvaluator, alg: MinkowskiAlgebra,
                  t: CTensor) -> CTensor:
    """The braiding on a two-slot tensor."""
    if t.n != 2:
        raise ValueError("interchange_k acts on two slots")
    return _apply_k_at(ev, alg, t, 0)


def _apply_k_at(ev, alg, t: CTensor, pos: int) -> CTensor:
    out = {}
    for ws, c in t.terms.items():
        head, tail = ws[:pos], ws[pos + 2:]
        accumulate(out, {head + pair + tail: cc for pair, cc
                         in _k_pair(ev, alg, ws[pos], ws[pos + 1]).items()},
                   c)
    res = CTensor(t.n)
    res.terms = out
    return res


def _require_ct(ev: CqtEvaluator):
    if not ev.is_cotriangular():
        raise NotCotriangular("symmetric-group actions need a cotriangular "
                              "evaluator; this one is not")


def braid_action(ev: CqtEvaluator, alg: MinkowskiAlgebra, perm,
                 t: CTensor) -> CTensor:
    """Permutation action with adjacent interchanges in place of flips.

    perm lists, for each output slot, the input slot it receives, so the
    classical action sends v_0 (x) ... to v_perm[0] (x) ...  Any reduced
    decomposition gives the same operator in the cotriangular case.
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(t.n)):
        raise ValueError("perm must permute 0..%d" % (t.n - 1))
    if t.n > MAX_SLOTS:
        raise ValueError("at most %d slots supported" % MAX_SLOTS)
    _require_ct(ev)
    arr = list(perm)
    swaps = []
    changed = True
    while changed:
        changed = False
        for pos in range(len(arr) - 1):
            if arr[pos] > arr[pos + 1]:
                arr[pos], arr[pos + 1] = arr[pos + 1], arr[pos]
                swaps.append(pos)
                changed = True
    out = t
    for pos in reversed(swaps):
        out = _apply_k_at(ev, alg, out, pos)
    return out


def symmetrize(ev: CqtEvaluator, alg: MinkowskiAlgebra,
               t: CTensor) -> CTensor:
    """Average of the braided action over the symmetric group."""
    _require_ct(ev)
    acc = CTensor(t.n)
    for perm in permutations(range(t.n)):
        acc = acc + braid_action(ev, alg, perm, t)
    return acc.scale(Scalar(1) / Scalar(factorial(t.n)))


def lift_operator(ev: CqtEvaluator, alg: MinkowskiAlgebra, w_op,
                  n: int, t: CTensor) -> CTensor:
    """Lift a one-slot operator W to n slots:
    sum_m pi_(0,m) (W on slot 0) pi_(0,m)."""
    if t.n != n:
        raise ValueError("tensor has %d slots, expected %d" % (t.n, n))
    _require_ct(ev)
    total = CTensor(n)
    for m in range(n):
        perm = list(range(n))
        perm[0], perm[m] = perm[m], perm[0]
        moved = braid_action(ev, alg, perm, t) if m else t
        hit = {}
        for ws, c in moved.terms.items():
            img = alg.normal_form(w_op(NCPoly.from_word(ws[0])))
            accumulate(hit, {(w0,) + ws[1:]: c0
                             for w0, c0 in img.terms.items()}, c)
        applied = CTensor(n)
        applied.terms = hit
        total = total + (braid_action(ev, alg, perm, applied)
                         if m else applied)
    return total
