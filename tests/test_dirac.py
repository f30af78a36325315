"""Metric, gamma matrices and the Dirac operator."""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from qminkowski import cli, dirac
from qminkowski.dirac import (
    clifford_check, clifford_ok, dirac_square, dirac_square_check, gamma,
    metric,
)
from qminkowski.exact import Mat, ONE, PAULI, Scalar, ZERO
from qminkowski.instance import builtin
from qminkowski.calculus import make_calculus
from qminkowski.lorentz import lambda_invariance_check, make_lorentz
from qminkowski.qalgebra import NCPoly

from shared import ishift, leibniz_breaking, random_gammas, rescaled, \
    twisted


def eta():
    rows = [[ONE, ZERO, ZERO, ZERO],
            [ZERO, -ONE, ZERO, ZERO],
            [ZERO, ZERO, -ONE, ZERO],
            [ZERO, ZERO, ZERO, -ONE]]
    return Mat.from_rows(rows)


def test_classical_metric_is_minkowski():
    g = metric(builtin("classical"))
    assert g == eta()


def test_classical_metric_trace_oracle():
    # second derivation path: g_ij = -(1/2) Tr(sigma_i eps sigma_j^T eps)
    # with eps the 2x2 antisymmetric unit
    eps = Mat.from_rows([[ZERO, ONE], [-ONE, ZERO]])
    g = metric(builtin("classical"))
    half = Scalar(Fraction(-1, 2))
    for i in range(4):
        for j in range(4):
            m = PAULI[i] * eps * PAULI[j].transpose() * eps
            tr = m[0, 0] + m[1, 1]
            assert g[i, j] == half * tr


def test_metric_tensor_flags():
    g = metric(builtin("classical"))
    assert g.conj_t() == g
    assert g.det() != 0
    assert Mat.zeros(4, 4).det() == 0


def test_gamma_blocks_classical():
    gs = gamma(builtin("classical"))
    signs = (ONE, -ONE, -ONE, -ONE)
    for i, gm in enumerate(gs):
        a_i = PAULI[i].scale(signs[i])
        for a in range(2):
            for b in range(2):
                assert gm[a, b] == ZERO                    # top left
                assert gm[2 + a, 2 + b] == ZERO            # bottom right
                assert gm[a, 2 + b] == a_i[a, b]           # A_i
                assert gm[2 + a, b] == PAULI[i][a, b]      # sigma_i


def test_clifford_relations():
    inst = builtin("classical")
    gs = gamma(inst)
    g = metric(inst)
    res = clifford_check(inst, gs, g)
    assert len(res) == 16
    assert all(m.is_zero() for m in res.values())
    assert clifford_ok(inst, gs, g)
    # direct anticommutator oracle: R is the swap, so the residual is
    # gamma_i gamma_j + gamma_j gamma_i - 2 g_ji
    for i in range(4):
        for j in range(4):
            anti = gs[i] * gs[j] + gs[j] * gs[i]
            assert anti == Mat.identity(4).scale(Scalar(2) * g[j, i])


def test_normalization_scale():
    inst = builtin("classical")
    gs, g = gamma(inst), metric(inst)
    # ab = 1 keeps everything, ab != 1 breaks Clifford and the square
    ok_pair = rescaled(gs, Scalar(2), Scalar(Fraction(1, 2)))
    assert all(m.is_zero() for m in clifford_check(inst, ok_pair, g).values())
    bad = rescaled(gs, Scalar(2), ONE)
    assert not all(m.is_zero() for m in clifford_check(inst, bad, g).values())

    calc = make_calculus(inst, 3)
    assert dirac_square_check(calc, ok_pair, 2) is None
    assert dirac_square_check(calc, bad, 2) is not None


def test_failing_checks_name_their_witness(monkeypatch):
    inst = builtin("classical")
    calc = make_calculus(inst, 3)
    bad = rescaled(gamma(inst), Scalar(2), ONE)
    assert dirac_square_check(calc, bad, 2) == "w=(0, 0), a=0"
    assert lambda_invariance_check(make_lorentz(inst, 4),
                                   Mat.identity(4)) == "i=0, j=0"
    # the suites print the witness after the detail of a FAIL line
    monkeypatch.setattr(dirac, "gamma", lambda inst: bad)
    (suite,) = cli.run_suites(inst, ("dirac",), dirac_degree=2).suites
    assert suite.checks[-1].line() == (
        "FAIL dirac-square: square equals wave operator, degree <= 2; "
        "fails at w=(0, 0), a=0")
    # a fresh instance: inst keeps the metric the dirac run read
    monkeypatch.setattr(dirac, "metric", lambda inst: Mat.identity(4))
    (suite,) = cli.run_suites(builtin("classical"), ("lorentz",)).suites
    assert suite.checks[0].line() == (
        "FAIL lambda-invariance: Lambda g Lambda^T = g at degree 4; "
        "fails at i=0, j=0")


# --- the Dirac operator applied as such: the oracle for dirac_square -------


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


def dirac_apply(calc, gs, phi):
    """(D phi)_a = sum_{i,b} (gamma_i)_{ab} partial_i(phi_b)."""
    comps = []
    for a in range(4):
        acc = NCPoly.zero()
        for i in range(4):
            gi = gs[i]
            for b in range(4):
                c = gi[a, b]
                if c:
                    acc = acc + calc.partial(i, phi.components[b]).scale(c)
        comps.append(acc)
    return Bispinor(tuple(comps))


def square_oracle(calc, gs, n):
    """dirac_square_check by applying D twice to each e_a (x) w."""
    for w in calc.alg.basis_upto(n):
        p = NCPoly.from_word(w)
        boxed = calc.box(p)
        for a in range(4):
            phi = Bispinor.basis(a, p)
            if dirac_apply(calc, gs, dirac_apply(calc, gs, phi)) != \
                    Bispinor.basis(a, boxed):
                return "w=%s, a=%d" % (w, a)
    return None


def test_dirac_apply_frozen_value():
    inst = builtin("classical")
    calc = make_calculus(inst, 3)
    gs = gamma(inst)
    phi = Bispinor.basis(0, NCPoly.gen(0))
    out = dirac_apply(calc, gs, phi)
    # gamma_0 column zero hits the lower Weyl block only
    assert out.components[0].is_zero()
    assert out.components[1].is_zero()
    assert out.components[2] == NCPoly.one()
    assert out.components[3].is_zero()
    # linearity
    psi = Bispinor.basis(2, NCPoly.gen(1) * NCPoly.gen(1))
    both = dirac_apply(calc, gs, phi + psi)
    assert both == dirac_apply(calc, gs, phi) + dirac_apply(calc, gs, psi)


def test_dirac_square_equals_box():
    inst = builtin("classical")
    calc = make_calculus(inst, 4)
    gs = gamma(inst)
    assert dirac_square_check(calc, gs, 3) is None
    assert square_oracle(calc, gs, 3) is None
    # spot check one state by hand
    phi = Bispinor.basis(1, NCPoly.gen(0) * NCPoly.gen(0))
    twice = dirac_apply(calc, gs, dirac_apply(calc, gs, phi))
    boxed = Bispinor(tuple(calc.box(c) for c in phi.components))
    assert twice == boxed


@pytest.mark.parametrize("inst", [builtin("classical"), twisted()],
                         ids=["classical", "twisted"])
def test_dirac_square_matches_applying_twice(inst):
    # random gammas make every (i, j) product distinct, so a swapped index
    # in the contraction shows as a value mismatch
    calc = make_calculus(inst, 4)
    for gs in [gamma(inst)] + [random_gammas(seed) for seed in (1, 2, 3)]:
        prods = [[(gi * gj).nonzeros() for gj in gs] for gi in gs]
        for w in calc.alg.basis_upto(4):
            square = dirac_square(calc, prods, w)
            for a in range(4):
                phi = Bispinor.basis(a, NCPoly.from_word(w))
                twice = dirac_apply(calc, gs, dirac_apply(calc, gs, phi))
                assert square[a] == [p.terms for p in twice.components], \
                    (w, a)


@pytest.mark.parametrize("inst", [
    builtin("classical"), ishift(), twisted(), leibniz_breaking()],
    ids=lambda i: i.name)
def test_square_witnesses_match_oracle(inst):
    calc = make_calculus(inst, 4)
    base = gamma(inst)
    pairs = ((1, 1), (2, Fraction(1, 2)), (2, 1),
             (Scalar(0, 1), Scalar(0, -1)))
    for a, b in pairs:
        gs = rescaled(base, a, b)
        for n in (2, 3, 4):
            assert dirac_square_check(calc, gs, n) == \
                square_oracle(calc, gs, n), (a, b, n)
