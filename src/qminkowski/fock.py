"""Tensor powers of the coordinate algebra and braided symmetrization.

A tensor of n slots is a plain term dict {tuple of n normal-form words:
nonzero coeff}, the kind of dict that coaction and
TruncatedQuotient.word_normal_form return, summed through
qalgebra.accumulate; tensor() builds one from algebra elements.  Each
operator reads n from its permutation or from the keys, and _slots alone
checks that every key has n slots, at most MAX_SLOTS.  A result may be
its input's own dict (braid_action by the identity is), so it is read,
not changed.  The affine coaction x_i -> sum_j Lambda_ij (x) x_j + y_i
(x) 1, the coproduct of the translation y_i = P_i4 with x_j read for
y_j, feeds the evaluator pairing; the interchange operator K on two
slots is the braiding that replaces the plain flip.  Symmetric-group
actions on n slots demand a cotriangular evaluator, since only then do
the adjacent interchanges satisfy the braid and involution identities
that make the action well defined.  The coaction of a word and K on a
word pair are memoised in ``alg.memos``, and live and die with alg.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

from .errors import NotCotriangular
from .exact import ONE, Scalar
from .braiding import CqtEvaluator, coproduct
from .qalgebra import NCPoly, TruncatedQuotient, accumulate

__all__ = [
    "tensor", "coaction", "interchange_k", "braid_action",
    "symmetrize", "lift_operator",
]

MAX_SLOTS = 4


def tensor(alg: TruncatedQuotient, polys) -> dict:
    """The tensor product of algebra elements, each slot normal-formed."""
    acc = {(): ONE}
    for p in polys:
        nfp = alg.normal_form(p).terms
        acc = {ws + (w,): c * cw for ws, c in acc.items()
               for w, cw in nfp.items()}
    return acc


def _slots(t: dict, n=None) -> int:
    """The slot count of the tensor t: n if given, else that of its keys
    (0 for the zero tensor {}).  Every key must have n slots, and n may
    not pass MAX_SLOTS."""
    for ws in t:
        if n is None:
            n = len(ws)
        elif len(ws) != n:
            raise ValueError("tensor term with %d slots, want %d"
                             % (len(ws), n))
    if n is None:
        return 0
    if n > MAX_SLOTS:
        raise ValueError("at most %d slots supported" % MAX_SLOTS)
    return n


def _coaction_word(alg: TruncatedQuotient, w):
    cache = alg.memos.setdefault("coaction", {})
    hit = cache.get(w)
    if hit is not None:
        return hit
    # x_g is the translation y_g = P_g4: the coaction is its coproduct with
    # the right leg read back, y_k -> x_k and P_44 -> 1.  The symmetry word
    # names every choice made, so no two terms share a key.
    out = {(bw, cw): c for bw, yw in coproduct(tuple(5 * g + 4 for g in w))
           for cw, c in alg.word_normal_form(
               tuple(h // 5 for h in yw)).items()}
    cache[w] = out
    return out


def coaction(alg: TruncatedQuotient, p: NCPoly):
    """The affine coaction as {(symmetry word, coordinate word): coeff}."""
    out = {}
    for w, c in p.terms.items():
        accumulate(out, _coaction_word(alg, w), c)
    return out


def _k_pair(ev: CqtEvaluator, alg: TruncatedQuotient, wp, wq):
    """K on one pair of words, as {(word, word): coeff}."""
    # Keyed by the evaluator itself: an id() is reused once it is freed.
    cache = alg.memos.setdefault(("kpair", ev), {})
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


def _act(ev, alg, perm, terms) -> dict:
    """The permutation action on a term dict: perm is bubble-sorted, and
    for each swap at pos, the last first, K acts on slots (pos, pos + 1)."""
    arr, swaps = list(perm), []
    for _ in arr:
        for pos in range(len(arr) - 1):
            if arr[pos] > arr[pos + 1]:
                arr[pos], arr[pos + 1] = arr[pos + 1], arr[pos]
                swaps.append(pos)
    for pos in reversed(swaps):
        out = {}
        for ws, c in terms.items():
            head, tail = ws[:pos], ws[pos + 2:]
            accumulate(out, {head + pair + tail: cc for pair, cc in
                             _k_pair(ev, alg, ws[pos], ws[pos + 1]).items()},
                       c)
        terms = out
    return terms


def interchange_k(ev: CqtEvaluator, alg: TruncatedQuotient, t: dict) -> dict:
    """The braiding on a two-slot tensor."""
    _slots(t, 2)
    return _act(ev, alg, (1, 0), t)


def _require_ct(ev: CqtEvaluator):
    if not ev.is_cotriangular():
        raise NotCotriangular("symmetric-group actions need a cotriangular "
                              "evaluator; this one is not")


def braid_action(ev: CqtEvaluator, alg: TruncatedQuotient, perm,
                 t: dict) -> dict:
    """Permutation action with adjacent interchanges in place of flips.

    perm lists, for each output slot, the input slot it receives, so the
    classical action sends v_0 (x) ... to v_perm[0] (x) ...  Any reduced
    decomposition gives the same operator in the cotriangular case.
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("perm must permute 0..%d" % (len(perm) - 1))
    _slots(t, len(perm))
    _require_ct(ev)
    return _act(ev, alg, perm, t)


def symmetrize(ev: CqtEvaluator, alg: TruncatedQuotient, t: dict) -> dict:
    """Average of the braided action over the symmetric group."""
    _require_ct(ev)
    n = _slots(t)
    out, weight = {}, Scalar(1) / Scalar(factorial(n))
    for perm in permutations(range(n)):
        accumulate(out, _act(ev, alg, perm, t), weight)
    return out


def lift_operator(ev: CqtEvaluator, alg: TruncatedQuotient, w_op,
                  t: dict) -> dict:
    """Lift a one-slot operator W to the n slots of t:
    sum_m pi_(0,m) (W on slot 0) pi_(0,m)."""
    _require_ct(ev)
    n = _slots(t)
    total = {}
    for m in range(n):
        perm = list(range(n))
        perm[0], perm[m] = perm[m], perm[0]
        hit = {}
        for ws, c in _act(ev, alg, perm, t).items():
            img = alg.normal_form(w_op(NCPoly.from_word(ws[0])))
            accumulate(hit, {(w0,) + ws[1:]: c0
                             for w0, c0 in img.terms.items()}, c)
        accumulate(total, _act(ev, alg, perm, hit))
    return total
