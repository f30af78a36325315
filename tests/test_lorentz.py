"""Rotation-boost sector: relations, Lambda matrix, invariance.

The classical instance admits a point-evaluation oracle: every relation
must vanish when the symbols are evaluated at an exact unit-determinant
2x2 matrix, and the Lambda entries must reproduce the closed form
(1/2) Tr(sigma_i W sigma_j W^dagger) at each such point.
"""

import pytest

from fractions import Fraction

import qminkowski.lorentz as lorentz
from qminkowski.dirac import metric
from qminkowski.errors import DegreeError
from qminkowski.exact import I, Mat, ONE, PAULI, Scalar, ZERO
from qminkowski.instance import builtin
from qminkowski.lorentz import (
    lambda_entries, lambda_invariance_check, lambda_reality_diagnostic,
    lorentz_relations, lorentz_star, make_lorentz, w_id, wbar_id,
)
from qminkowski.qalgebra import NCPoly


SL2_POINTS = [
    Mat.from_rows([[ONE, ZERO], [ZERO, ONE]]),
    Mat.from_rows([[ONE, Scalar(2)], [Scalar(3), Scalar(7)]]),
    Mat.from_rows([[ONE, I], [I, ZERO]]),
    Mat.from_rows([[Scalar(2), ONE], [Scalar(3), Scalar(2)]]),
    Mat.from_rows([[Scalar(Fraction(1, 2)), ZERO],
                   [I, Scalar(2)]]),
]


def evaluate(p, w):
    """Evaluate a symbol polynomial at the group point w."""
    total = ZERO
    for word, c in p.terms.items():
        v = c
        for g in word:
            if g < 4:
                v = v * w[divmod(g, 2)]
            else:
                v = v * w[divmod(g - 4, 2)].conj()
        total = total + v
    return total


def test_generator_ids_and_star():
    assert w_id(0, 0) == 0 and w_id(1, 1) == 3
    assert wbar_id(0, 0) == 4 and wbar_id(1, 1) == 7
    p = NCPoly.gen(w_id(0, 1)).scale(I)
    assert lorentz_star(p) == NCPoly.gen(wbar_id(0, 1)).scale(-I)
    assert lorentz_star(lorentz_star(p)) == p


def test_relation_count_and_star_stability():
    rels = lorentz_relations(builtin("classical"))
    assert len(rels) == 48
    alg = make_lorentz(builtin("classical"), cap=2)
    for r in rels:
        assert alg.normal_form(r).is_zero()
        assert alg.normal_form(lorentz_star(r)).is_zero()


def test_relations_vanish_at_group_points():
    rels = lorentz_relations(builtin("classical"))
    for w in SL2_POINTS:
        assert w.det() == ONE
        for r in rels:
            assert evaluate(r, w) == ZERO


def test_determinant_relation():
    alg = make_lorentz(builtin("classical"), cap=2)
    det = NCPoly.gen(w_id(0, 0)) * NCPoly.gen(w_id(1, 1)) \
        - NCPoly.gen(w_id(0, 1)) * NCPoly.gen(w_id(1, 0))
    assert alg.normal_form(det) == NCPoly.one()


def test_dimension_profile():
    alg = make_lorentz(builtin("classical"), cap=4)
    prof = alg.dimension_profile()
    # two commuting unit-determinant factors: degree n of one factor has
    # dimension (n+1)^2, the pair convolves
    want = [sum((a + 1) ** 2 * (n - a + 1) ** 2 for a in range(n + 1))
            for n in range(5)]
    assert prof == want == [1, 8, 34, 104, 259]
    assert sum(prof[:3]) == 43


def test_dimension_profile_at_cap_6():
    # the series of (1+t)^2/(1-t)^6, the same convolution two degrees on
    alg = make_lorentz(builtin("classical"), cap=6)
    assert alg.dimension_profile() == \
        [1, 8, 34, 104, 259, 560, 1092]


def test_lambda_matches_closed_form_at_points():
    lam = lambda_entries()
    half = Scalar(Fraction(1, 2))
    for w in SL2_POINTS:
        for i in range(4):
            for j in range(4):
                m = PAULI[i] * w * PAULI[j] * w.conj_t()
                want = half * (m[0, 0] + m[1, 1])
                got = evaluate(lam[i][j], w)
                assert got == want
                assert got.conj() == got     # entries are real at points


def test_lambda_preserves_metric_at_points():
    lam = lambda_entries()
    g = metric(builtin("classical"))
    for w in SL2_POINTS:
        num = Mat.from_rows([[evaluate(lam[i][j], w) for j in range(4)]
                             for i in range(4)])
        assert num * g * num.transpose() == g
    # the identity point gives the identity matrix
    id_point = SL2_POINTS[0]
    num = Mat.from_rows([[evaluate(lam[i][j], id_point) for j in range(4)]
                         for i in range(4)])
    assert num == Mat.identity(4)


def test_invariance_in_the_quotient():
    inst = builtin("classical")
    alg = make_lorentz(inst, 4)
    assert lambda_invariance_check(alg, metric(inst)) is None
    assert lambda_invariance_check(alg, Mat.identity(4)) is not None
    # the residuals have degree 4, which a cap-3 quotient cannot reduce
    with pytest.raises(DegreeError):
        lambda_invariance_check(make_lorentz(inst, 3), metric(inst))


def test_reality_diagnostic():
    assert lambda_reality_diagnostic(make_lorentz(builtin("classical"), 4))


def test_reality_diagnostic_builds_its_differences_once(monkeypatch):
    """star(Lambda_ij) - Lambda_ij depends on the frame alone: after the
    first read, the diagnostic forms no Lambda entry and no star, and
    still normal-forms all 16 in the quotient it is given."""
    alg = make_lorentz(builtin("classical"), 4)
    assert lambda_reality_diagnostic(alg)

    def refused(*args):
        raise AssertionError("a frame constant was built again")
    monkeypatch.setattr(lorentz, "lambda_entries", refused)
    monkeypatch.setattr(lorentz, "lorentz_star", refused)
    seen, real = [], alg.normal_form

    def reading(p):
        seen.append(p)
        return real(p)
    monkeypatch.setattr(alg, "normal_form", reading)
    assert lambda_reality_diagnostic(alg)
    assert len(seen) == 16


def test_star_fixes_lambda_in_the_free_algebra():
    """star(Lambda_ij) = Lambda_ij before any relation is imposed.

    Star sends c w_AC wbar_BD to conj(c) w_BD wbar_AC, and each sigma_i
    in V (and each row of V^-1 as a 2x2 matrix) is Hermitian, so the
    index swap undoes the conjugation.  This is why the reality
    diagnostic's verdict cannot depend on the instance or the cap of the
    quotient it is given.
    """
    lam = lambda_entries()
    for i in range(4):
        for j in range(4):
            assert lorentz_star(lam[i][j]) == lam[i][j], (i, j)
