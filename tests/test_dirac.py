"""Metric, gamma matrices and the Dirac operator."""

from fractions import Fraction

from qminkowski import cli, dirac
from qminkowski.dirac import (
    Bispinor, clifford_check, clifford_ok,
    dirac_apply, dirac_square_check, gamma, metric,
)
from qminkowski.exact import Mat, ONE, Scalar, ZERO, pauli
from qminkowski.instance import builtin
from qminkowski.calculus import make_calculus
from qminkowski.lorentz import lambda_invariance_check
from qminkowski.qalgebra import NCPoly


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
            m = pauli(i) * eps * pauli(j).transpose() * eps
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
    for i in range(4):
        assert gs.lower[i] == pauli(i).scale(signs[i])
        gm = gs.gammas[i]
        for a in range(2):
            for b in range(2):
                assert gm[a, b] == ZERO                    # top left
                assert gm[2 + a, 2 + b] == ZERO            # bottom right
                assert gm[a, 2 + b] == gs.lower[i][a, b]   # b * A_i with b=1
                assert gm[2 + a, b] == pauli(i)[a, b]      # a * sigma_i


def test_clifford_relations():
    inst = builtin("classical")
    res = clifford_check(inst)
    assert len(res) == 16
    assert all(m.is_zero() for m in res.values())
    assert clifford_ok(inst)
    # direct anticommutator oracle: R is the swap, so the residual is
    # gamma_i gamma_j + gamma_j gamma_i - 2 g_ji
    gs = gamma(inst)
    g = metric(inst)
    for i in range(4):
        for j in range(4):
            anti = gs.gammas[i] * gs.gammas[j] + gs.gammas[j] * gs.gammas[i]
            assert anti == Mat.identity(4).scale(Scalar(2) * g[j, i])


def test_normalization_scale():
    inst = builtin("classical")
    # ab = 1 keeps everything, ab != 1 breaks Clifford and the square
    ok_pair = gamma(inst, a=Scalar(2), b=Scalar(Fraction(1, 2)))
    assert all(m.is_zero() for m in clifford_check(inst, gs=ok_pair).values())
    bad = gamma(inst, a=Scalar(2), b=ONE)
    assert not all(m.is_zero() for m in clifford_check(inst, gs=bad).values())

    calc = make_calculus(inst, 3)
    assert dirac_square_check(calc, ok_pair, 2) is None
    assert dirac_square_check(calc, bad, 2) is not None


def test_failing_checks_name_their_witness(monkeypatch):
    inst = builtin("classical")
    calc = make_calculus(inst, 3)
    bad = gamma(inst, a=Scalar(2), b=ONE)
    assert dirac_square_check(calc, bad, 2) == "w=(0, 0), a=0"
    assert lambda_invariance_check(inst, Mat.identity(4), 4) == "i=0, j=0"
    # the suites print the witness after the detail of a FAIL line
    monkeypatch.setattr(dirac, "gamma", lambda inst: bad)
    (suite,) = cli.run_suites(inst, ("dirac",), dirac_degree=2).suites
    assert suite.checks[-1].line() == (
        "FAIL dirac-square: square equals wave operator, degree <= 2; "
        "fails at w=(0, 0), a=0")
    monkeypatch.setattr(dirac, "metric", lambda inst: Mat.identity(4))
    (suite,) = cli.run_suites(inst, ("lorentz",)).suites
    assert suite.checks[0].line() == (
        "FAIL lambda-invariance: Lambda g Lambda^T = g at degree 4; "
        "fails at i=0, j=0")


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
    # spot check one state by hand
    phi = Bispinor.basis(1, NCPoly.gen(0) * NCPoly.gen(0))
    twice = dirac_apply(calc, gs, dirac_apply(calc, gs, phi))
    boxed = Bispinor(tuple(calc.box(c) for c in phi.components))
    assert twice == boxed


def test_bispinor_zero():
    z = Bispinor.basis(3, NCPoly.zero())
    assert z.is_zero()
    assert (z + z).is_zero()
