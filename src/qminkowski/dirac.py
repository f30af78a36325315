"""Metric, gamma matrices and the Dirac operator.

The metric g, a 4x4 Mat, comes out of the invariant bilinear data in the
2x2 spinor picture; gammas are assembled in Weyl form from the Pauli
blocks and the deformed lower blocks A_i.  The pair (a, b) scaling the
off-diagonal blocks is kept as arguments because the square of the Dirac
operator matches the wave operator exactly when a*b = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstraintError
from .exact import Mat, ONE, Scalar, flip, kron, pauli, sqrt_q, v_inverse
from .qalgebra import NCPoly

__all__ = [
    "metric", "GammaSet", "gamma",
    "clifford_check", "clifford_ok", "Bispinor",
    "dirac_apply", "dirac_square_check",
]


def metric(inst) -> Mat:
    """The 4x4 metric g in the coordinate basis."""
    tau = flip(2, 2)
    i2 = Mat.identity(2)
    vec = (kron(v_inverse(), v_inverse())
           * kron(kron(i2, inst.X), i2)
           * kron(inst.E, tau * inst.E))
    scale = Scalar(-2) * sqrt_q(inst.q)
    return Mat(4, 4, [scale * vec[k, 0] for k in range(16)])


@dataclass(frozen=True)
class GammaSet:
    gammas: tuple  # four 4x4 matrices
    lower: tuple   # the four 2x2 blocks A_i


def gamma(inst, a=ONE, b=ONE) -> GammaSet:
    """Weyl-form gammas [[0, b A_i], [a sigma_i, 0]]."""
    if not isinstance(a, Scalar):
        a = Scalar(a)
    if not isinstance(b, Scalar):
        b = Scalar(b)
    tau = flip(2, 2)
    try:
        d = tau * inst.X.inverse() * tau
    except ArithmeticError as exc:
        raise ConstraintError("X is singular") from exc
    e2 = Mat(2, 2, [inst.E[k, 0] for k in range(4)])
    qih = ONE / sqrt_q(inst.q)
    lower = []
    for i in range(4):
        # contraction (sigma_i o D)[K,L] = sum_AB sigma_i[A,B] D[(A,B),(K,L)]
        m = Mat(2, 2, (Mat(1, 4, pauli(i).data) * d).data)
        lower.append((e2.transpose() * m * e2).scale(qih))
    gammas = []
    for i in range(4):
        s = pauli(i)
        al = lower[i]
        ent = [Scalar(0)] * 16
        for r in range(2):
            for c in range(2):
                ent[4 * r + (c + 2)] = b * al[r, c]
                ent[4 * (r + 2) + c] = a * s[r, c]
        gammas.append(Mat(4, 4, ent))
    return GammaSet(tuple(gammas), tuple(lower))


def clifford_check(inst, gs: GammaSet = None, g: Mat = None):
    """Residuals gamma_i gamma_j + R_{ji,lk} gamma_k gamma_l - 2 g_ji."""
    if gs is None:
        gs = gamma(inst)
    if g is None:
        g = metric(inst)
    r = inst.R
    i4 = Mat.identity(4)
    prods = [[gs.gammas[i] * gs.gammas[j] for j in range(4)]
             for i in range(4)]
    residuals = {}
    for i in range(4):
        for j in range(4):
            acc = prods[i][j]
            for k in range(4):
                for l in range(4):
                    c = r[4 * j + i, 4 * l + k]
                    if c:
                        acc = acc + prods[k][l].scale(c)
            residuals[(i, j)] = acc - i4.scale(Scalar(2) * g[j, i])
    return residuals


def clifford_ok(inst, gs: GammaSet = None, g: Mat = None) -> bool:
    return all(m.is_zero() for m in clifford_check(inst, gs, g).values())


@dataclass(frozen=True)
class Bispinor:
    """Four components, each an algebra element in normal form."""

    components: tuple

    @staticmethod
    def basis(a: int, p: NCPoly) -> "Bispinor":
        comps = [NCPoly.zero()] * 4
        comps[a] = p
        return Bispinor(tuple(comps))

    def __add__(self, other):
        return Bispinor(tuple(x + y for x, y in
                              zip(self.components, other.components)))

    def __sub__(self, other):
        return Bispinor(tuple(x - y for x, y in
                              zip(self.components, other.components)))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.components)


def dirac_apply(calc, gs: GammaSet, phi: Bispinor) -> Bispinor:
    """(D phi)_a = sum_{i,b} (gamma_i)_{ab} partial_i(phi_b)."""
    comps = []
    for a in range(4):
        acc = NCPoly.zero()
        for i in range(4):
            gi = gs.gammas[i]
            for b in range(4):
                c = gi[a, b]
                if c:
                    acc = acc + calc.partial(i, phi.components[b]).scale(c)
        comps.append(acc)
    return Bispinor(tuple(comps))


def dirac_square_check(calc, gs: GammaSet, n: int) -> str | None:
    """D;D = wave operator, componentwise, on spinors e_a (x) word.

    None when it holds on every basis word up to degree n, otherwise the
    first counterexample as text, e.g. "w=(0, 1), a=2".
    """
    for w in calc.alg.basis_upto(n):
        p = NCPoly.from_word(w)
        boxed = calc.box(p)
        for a in range(4):
            phi = Bispinor.basis(a, p)
            dd = dirac_apply(calc, gs, dirac_apply(calc, gs, phi))
            want = Bispinor.basis(a, boxed)
            if dd != want:
                return "w=%s, a=%d" % (w, a)
    return None
