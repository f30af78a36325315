"""The quantum Lorentz symmetry algebra and the vector corepresentation.

Eight generators: w_AB (ids 0..3, id = 2A + B) and their conjugates
wbar_AB (ids 4..7).  The defining relations say w preserves the invariant
pair E, E' and exchanges with wbar through X; the relation set is closed
under the star map w_AB <-> wbar_AB.  The 4x4 matrix Lambda built from
w (x) wbar through the spinor-to-vector change of basis is the object the
invariance check exercises: Lambda g Lambda^T = g entrywise in the
quotient.
"""

from __future__ import annotations

from .errors import DegreeError
from .exact import Mat, v_inverse, v_matrix
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
            for c in range(2):
                for d in range(2):
                    v = e[2 * c + d, 0]
                    if v:
                        t[(w_id(a, c), w_id(b, d))] = v
            v = e[2 * a + b, 0]
            if v:
                t[()] = -v
            rels.append(NCPoly(t))
    for c in range(2):
        for d in range(2):
            t = {}
            for a in range(2):
                for b in range(2):
                    v = ep[0, 2 * a + b]
                    if v:
                        t[(w_id(a, c), w_id(b, d))] = v
            v = ep[0, 2 * c + d]
            if v:
                t[()] = -v
            rels.append(NCPoly(t))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    t = {}
                    for ap in range(2):
                        for bp in range(2):
                            v = x[2 * a + b, 2 * ap + bp]
                            if v:
                                accumulate(t, {(w_id(ap, c),
                                                wbar_id(bp, d)): v})
                            v = x[2 * ap + bp, 2 * c + d]
                            if v:
                                accumulate(t, {(wbar_id(a, ap),
                                                w_id(b, bp)): -v})
                    rels.append(NCPoly(t))
    return rels + [lorentz_star(r) for r in rels]


def make_lorentz(inst: PoincareInstance, cap: int = 4) -> TruncatedQuotient:
    return build_quotient(8, lorentz_relations(inst), cap)


def lambda_entries():
    """The 4x4 matrix of quadratic algebra elements
    Lambda_ij = sum V^-1_{i,(AB)} w_AC wbar_BD V_{(CD),j}."""
    vi = v_inverse()
    v = v_matrix()
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            t = {}
            for a in range(2):
                for b in range(2):
                    ci = vi[i, 2 * a + b]
                    if not ci:
                        continue
                    for c in range(2):
                        for d in range(2):
                            cj = v[2 * c + d, j]
                            if not cj:
                                continue
                            accumulate(t, {(w_id(a, c), wbar_id(b, d)):
                                           ci * cj})
            row.append(NCPoly(t))
        out.append(tuple(row))
    return tuple(out)


def lambda_invariance_check(inst: PoincareInstance, g: Mat,
                            n: int = 4) -> str | None:
    """Whether sum_kl Lambda_ik g_kl Lambda_jl = g_ij in the quotient.

    None when it holds, otherwise the first failing entry as text, e.g.
    "i=0, j=1".  Needs degree 4 words, so n >= 4.
    """
    if n < 4:
        raise DegreeError("invariance residuals have degree 4; n >= 4 needed")
    alg = make_lorentz(inst, n)
    lam = lambda_entries()
    for i in range(4):
        for j in range(4):
            acc = NCPoly.zero()
            for k in range(4):
                for l in range(4):
                    c = g[k, l]
                    if c:
                        acc = acc + (lam[i][k] * lam[j][l]).scale(c)
            acc = acc - NCPoly.one().scale(g[i, j])
            if not alg.normal_form(acc).is_zero():
                return "i=%d, j=%d" % (i, j)
    return None


def lambda_reality_diagnostic(inst: PoincareInstance, cap: int = 2) -> bool:
    """Informational: star fixes every Lambda entry in the quotient."""
    alg = make_lorentz(inst, cap)
    lam = lambda_entries()
    return all(alg.normal_form(lorentz_star(lam[i][j]) - lam[i][j]).is_zero()
               for i in range(4) for j in range(4))
