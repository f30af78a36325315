"""Metric, gamma matrices and the square of the Dirac operator.

The metric g, a 4x4 Mat, comes out of the invariant bilinear data in the
2x2 spinor picture; gammas are assembled in Weyl form from the Pauli
blocks sigma_i and the deformed blocks A_i.  The Dirac operator D =
sum_i gamma_i partial_i is never applied: D^2 is the contraction of the
products gamma_i gamma_j with the second partials partial_i partial_j of
a word.
"""

from __future__ import annotations

from .exact import Mat, ONE, PAULI, Scalar, ZERO, V_INV, flip, kron, sqrt_q
from .qalgebra import NCPoly, accumulate

__all__ = [
    "metric", "gamma",
    "clifford_check", "clifford_ok", "dirac_square", "dirac_square_check",
]


def metric(inst) -> Mat:
    """The 4x4 metric g = -2 sqrt(q) V^-1 U V^-T in the coordinate basis.

    U is the 16-vector u = (1 (x) X (x) 1)(E (x) tau E) read row-major,
    U_ab = u_{4a+b}, with tau the flip of C^2 (x) C^2: by the row-major
    identity (A (x) B) vec(U) = vec(A U B^T), this is the vector
    -2 sqrt(q) (V^-1 (x) V^-1) u read as a 4x4 matrix.
    """
    x = kron(inst.E, flip(2, 2) * inst.E)
    u = [ZERO] * 16
    for m, mp, c in inst.X.nonzeros():
        # u_{8s+2m+t} = sum_m' X_{mm'} x_{8s+2m'+t}
        for n in (2 * m, 2 * m + 1, 8 + 2 * m, 9 + 2 * m):
            u[n] = u[n] + c * x[n + 2 * (mp - m), 0]
    return (V_INV * Mat(4, 4, u) * V_INV.transpose()).scale(
        Scalar(-2) * sqrt_q(inst.q))


def gamma(inst) -> tuple:
    """The four Weyl-form gammas [[0, A_i], [sigma_i, 0]], 4x4 each."""
    tau = flip(2, 2)
    d = tau * inst.X.inverse() * tau
    e2 = Mat(2, 2, [inst.E[k, 0] for k in range(4)])
    qih = ONE / sqrt_q(inst.q)
    gammas = []
    for i in range(4):
        s = PAULI[i]
        # contraction (sigma_i o D)[K,L] = sum_AB sigma_i[A,B] D[(A,B),(K,L)]
        m = Mat(2, 2, (Mat(1, 4, s.data) * d).data)
        al = (e2.transpose() * m * e2).scale(qih)
        ent = [ZERO] * 16
        for r in range(2):
            for c in range(2):
                ent[4 * r + c + 2] = al[r, c]
                ent[4 * (r + 2) + c] = s[r, c]
        gammas.append(Mat(4, 4, ent))
    return tuple(gammas)


_DIAG4 = {(n, n): ONE for n in range(4)}


def clifford_check(inst, gs: tuple, g: Mat):
    """Residuals gamma_i gamma_j + R_{ji,lk} gamma_k gamma_l - 2 g_ji.

    Each residual is summed as a term dict keyed by (row, col) from the
    nonzeros of the gamma products and of R, and returned as a 4x4 Mat.
    """
    prods = [[{(r, c): x for r, c, x in (gi * gj).nonzeros()} for gj in gs]
             for gi in gs]
    sums = {(i, j): dict(prods[i][j]) for i in range(4) for j in range(4)}
    for row, col, c in inst.R.nonzeros():
        j, i = divmod(row, 4)
        l, k = divmod(col, 4)
        accumulate(sums[(i, j)], prods[k][l], c)
    out = {}
    for (i, j), acc in sums.items():
        accumulate(acc, _DIAG4, Scalar(-2) * g[j, i])
        data = [ZERO] * 16
        for (r, c), x in acc.items():
            data[4 * r + c] = x
        out[(i, j)] = Mat(4, 4, data)
    return out


def clifford_ok(inst, gs: tuple, g: Mat) -> bool:
    return all(m.is_zero() for m in clifford_check(inst, gs, g).values())


def dirac_square(calc, prods, w) -> list:
    """D^2(e_a (x) w) for a = 0..3, each a list of its four components c
    as term dicts.

    prods[i][j] is the nonzeros of gamma_i gamma_j, so the c component is
    the contraction sum_ij (gamma_i gamma_j)[c, a] partial_i(partial_j w),
    read from calc.second_partials(w).
    """
    second = calc.second_partials(w)
    acc = [[{} for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(4):
            terms = second[j][i]
            if not terms:
                continue
            for c, a, k in prods[i][j]:
                accumulate(acc[a][c], terms, k)
    return acc


def dirac_square_check(calc, gs: tuple, n: int) -> str | None:
    """D;D = wave operator, componentwise, on spinors e_a (x) word.

    None when it holds on every basis word up to degree n, otherwise the
    first counterexample as text, e.g. "w=(0, 1), a=2".
    """
    prods = [[(gi * gj).nonzeros() for gj in gs] for gi in gs]
    for w in calc.alg.basis_upto(n):
        boxed = calc.box(NCPoly.from_word(w)).terms
        for a, comps in enumerate(dirac_square(calc, prods, w)):
            for c in range(4):
                if comps[c] != (boxed if c == a else {}):
                    return "w=%s, a=%d" % (w, a)
    return None
