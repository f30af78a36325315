"""The quantum Lorentz symmetry algebra and the vector corepresentation.

Eight generators: w_AB (ids 0..3, id = 2A + B) and their conjugates
wbar_AB (ids 4..7).  The defining relations say w preserves the invariant
pair E, E' and exchanges with wbar through X; the relation set is closed
under the star map w_AB <-> wbar_AB.  The 4x4 matrix Lambda built from
w (x) wbar through the spinor-to-vector change of basis is what both
checks read, in one quotient that the caller builds: Lambda g Lambda^T = g
entrywise, and star fixing each entry (true in the free algebra already).

The invariance check runs in spinor indices: with W_{(AB),(CD)} =
w_AC wbar_BD, Lambda = V^-1 W V, so Lambda g Lambda^T = V^-1 (W G W^T)
V^-T with G = V g V^T.  The 16 spinor entries are sums of normal forms of
the degree-4 words W_PQ W_P'Q', and no product of Lambda entries is
formed.
"""

from __future__ import annotations

from functools import cache

from .exact import Mat, V, V_INV
from .instance import PoincareInstance
from .qalgebra import NCPoly, TruncatedQuotient, accumulate, \
    build_quotient

__all__ = [
    "w_id", "wbar_id", "lorentz_star", "lorentz_relations",
    "make_lorentz", "lambda_entries",
    "lambda_invariance_check", "lambda_reality_diagnostic",
]


def w_id(a: int, b: int) -> int:
    return 2 * a + b


def wbar_id(a: int, b: int) -> int:
    return 4 + 2 * a + b


def _star_gen(g: int) -> int:
    return (g + 4) % 8


def lorentz_star(p: NCPoly) -> NCPoly:
    return p.star(_star_gen)


def lorentz_relations(inst: PoincareInstance):
    """E-rows, E'-rows, X-exchange rows, then all their stars."""
    e, ep, x = inst.E, inst.Eprime, inst.X
    rels = []
    for a in range(2):
        for b in range(2):
            t = {}
            for cd, _, v in e.nonzeros():
                c, d = divmod(cd, 2)
                t[(w_id(a, c), w_id(b, d))] = v
            t[()] = -e[2 * a + b, 0]
            rels.append(NCPoly(t))
    for c in range(2):
        for d in range(2):
            t = {}
            for _, ab, v in ep.nonzeros():
                a, b = divmod(ab, 2)
                t[(w_id(a, c), w_id(b, d))] = v
            t[()] = -ep[0, 2 * c + d]
            rels.append(NCPoly(t))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    # w x wbar terms from row ab of X, wbar x w terms from
                    # column cd; the two kinds share no word
                    t = {}
                    for row, col, v in x.nonzeros():
                        if row == 2 * a + b:
                            ap, bp = divmod(col, 2)
                            t[(w_id(ap, c), wbar_id(bp, d))] = v
                        if col == 2 * c + d:
                            ap, bp = divmod(row, 2)
                            t[(wbar_id(a, ap), w_id(b, bp))] = -v
                    rels.append(NCPoly(t))
    return rels + [lorentz_star(r) for r in rels]


def make_lorentz(inst: PoincareInstance, cap: int = 4) -> TruncatedQuotient:
    return build_quotient(8, lorentz_relations(inst), cap)


def lambda_entries():
    """The 4x4 matrix of quadratic algebra elements
    Lambda_ij = sum V^-1_{i,(AB)} w_AC wbar_BD V_{(CD),j}."""
    terms = [[{} for _ in range(4)] for _ in range(4)]
    right = V.nonzeros()
    for i, ab, ci in V_INV.nonzeros():
        a, b = divmod(ab, 2)
        for cd, j, cj in right:
            c, d = divmod(cd, 2)
            accumulate(terms[i][j], {(w_id(a, c), wbar_id(b, d)): ci * cj})
    return tuple(tuple(NCPoly(t) for t in row) for row in terms)


def lambda_invariance_check(alg: TruncatedQuotient, g: Mat) -> str | None:
    """Whether sum_kl Lambda_ik g_kl Lambda_jl = g_ij in the quotient alg.

    None when it holds, otherwise the first failing entry as text, e.g.
    "i=0, j=1".  The residuals have degree 4: below cap 4, alg raises
    DegreeError.

    The sum is taken in spinor indices.  With W_{(AB),(CD)} = w_AC wbar_BD,
    Lambda = V^-1 W V, so Lambda g Lambda^T = V^-1 S V^-T with
    S_PP' = sum_QQ' W_PQ G_QQ' W_P'Q' and G = V g V^T.  Each S_PP' is
    accumulated from the normal forms of the words W_PQ W_P'Q'; normal
    form is linear, so every residual is the element of the quotient that
    the Lambda-coordinate sum gives.
    """
    big_g = (V * g * V.transpose()).nonzeros()
    word_nf = alg.word_normal_form
    s = {}
    for p in range(4):
        a, b = divmod(p, 2)
        for pp in range(4):
            ap, bp = divmod(pp, 2)
            acc = s[p, pp] = {}
            for q, qq, c in big_g:
                (c1, d1), (c2, d2) = divmod(q, 2), divmod(qq, 2)
                accumulate(acc, word_nf((w_id(a, c1), wbar_id(b, d1),
                                         w_id(ap, c2), wbar_id(bp, d2))), c)
    rows = [[] for _ in range(4)]
    for i, p, c in V_INV.nonzeros():
        rows[i].append((p, c))
    one = word_nf(())
    for i in range(4):
        for j in range(4):
            res = accumulate({}, one, -g[i, j])
            for p, ci in rows[i]:
                for pp, cj in rows[j]:
                    accumulate(res, s[p, pp], ci * cj)
            if res:
                return "i=%d, j=%d" % (i, j)
    return None


@cache
def _star_differences() -> tuple:
    """The 16 free-algebra elements star(Lambda_ij) - Lambda_ij, built on
    their first read: they depend on the frame V alone."""
    lam = lambda_entries()
    return tuple(lorentz_star(lam[i][j]) - lam[i][j]
                 for i in range(4) for j in range(4))


def lambda_reality_diagnostic(alg: TruncatedQuotient) -> bool:
    """Informational: star fixes every Lambda entry in the quotient alg.

    It holds for every instance and cap: star(Lambda_ij) = Lambda_ij in
    the free algebra, since star maps c w_AC wbar_BD to conj(c) w_BD
    wbar_AC and each sigma_i in V (and each 2x2 row of V^-1) is Hermitian.
    """
    return all(alg.normal_form(p).is_zero() for p in _star_differences())
