"""Extended R-matrix and the pairing functional on symmetry words.

Classically with b = 0 the extended matrix is the plain 25-dimensional
swap and the pairing collapses to counit times counit; both facts are
used as oracles.  The four spinor-level blocks are verified to intertwine
the coproduct inside the actual degree-2 quotient.
"""

import random

import pytest

from qminkowski.braiding import (
    CqtEvaluator, b_name, build_rq, counit_b, ct_check,
    delta_b, lam_id, lorentz_r_blocks, make_evaluator, p_entry_word, r_eval,
    star_cqt_check, y_id, yang_baxter_check,
)
from qminkowski.dirac import metric
from qminkowski.errors import ConstraintError, ShapeError
from qminkowski.exact import I, Mat, ONE, Scalar, ZERO, flip
from qminkowski.instance import builtin
from qminkowski.lorentz import make_lorentz, w_id, wbar_id
from qminkowski.qalgebra import NCPoly


def ev_for(b):
    return make_evaluator(builtin("classical"), b=b)


def rand_bword(rng, n):
    return tuple(rng.randrange(20) for _ in range(n))


# --- the 25x25 matrix ---------------------------------------------------------


def test_rq_classical_b0_is_the_swap():
    rq = build_rq(builtin("classical"), ZERO)
    assert rq == flip(5, 5)


def test_rq_b_only_moves_the_corner_column():
    inst = builtin("classical")
    g = metric(inst)
    base = build_rq(inst, ZERO)
    bent = build_rq(inst, ONE)
    diff = bent - base
    for r in range(25):
        i, j = divmod(r, 5)
        for c in range(25):
            if c == 24 and i < 4 and j < 4:
                assert diff[r, c] == g[i, j]
            else:
                assert diff[r, c] == ZERO


@pytest.mark.parametrize("b", [ZERO, ONE, -ONE, I])
def test_rq_invertible(b):
    rq = build_rq(builtin("classical"), b)
    assert rq.det() != ZERO


@pytest.mark.parametrize("b", [ZERO, ONE, -ONE, I])
def test_yang_baxter_holds(b):
    rq = build_rq(builtin("classical"), b)
    assert yang_baxter_check(rq)


def test_yang_baxter_negative_and_shape():
    assert yang_baxter_check(Mat.identity(4))
    rq = build_rq(builtin("classical"), ZERO)
    rq.data[3] = Scalar(5)
    assert not yang_baxter_check(rq)
    with pytest.raises(ShapeError):
        yang_baxter_check(Mat.zeros(4, 6))
    with pytest.raises(ShapeError):
        yang_baxter_check(Mat.zeros(6, 6))


# --- coproduct and counit -------------------------------------------------------


def test_delta_on_generators():
    dy = delta_b(NCPoly.gen(y_id(0)))
    want = {((y_id(0),), ()): ONE}
    for j in range(4):
        want[((lam_id(0, j),), (y_id(j),))] = ONE
    assert dy == want
    dl = delta_b(NCPoly.gen(lam_id(2, 3)))
    assert dl == {((lam_id(2, k),), (lam_id(k, 3),)): ONE for k in range(4)}
    assert delta_b(NCPoly.one()) == {((), ()): ONE}


def test_counit_values():
    for i in range(4):
        for j in range(4):
            want = ONE if i == j else ZERO
            assert counit_b(NCPoly.gen(lam_id(i, j))) == want
        assert counit_b(NCPoly.gen(y_id(i))) == ZERO
    assert counit_b(NCPoly.one()) == ONE


def test_counit_law():
    rng = random.Random(41)
    for _ in range(10):
        w = rand_bword(rng, rng.randint(0, 3))
        p = NCPoly.from_word(w).scale(Scalar(rng.randint(1, 3)))
        left = NCPoly.zero()
        right = NCPoly.zero()
        for (w1, w2), c in delta_b(p).items():
            left = left + NCPoly.from_word(w2).scale(
                c * counit_b(NCPoly.from_word(w1)))
            right = right + NCPoly.from_word(w1).scale(
                c * counit_b(NCPoly.from_word(w2)))
        assert left == p and right == p


def test_coassociativity():
    rng = random.Random(42)
    for _ in range(6):
        w = rand_bword(rng, rng.randint(1, 2))
        p = NCPoly.from_word(w)
        lhs, rhs = {}, {}
        for (w1, w2), c in delta_b(p).items():
            for (u1, u2), d in delta_b(NCPoly.from_word(w1)).items():
                key = (u1, u2, w2)
                lhs[key] = lhs.get(key, ZERO) + c * d
            for (u1, u2), d in delta_b(NCPoly.from_word(w2)).items():
                key = (w1, u1, u2)
                rhs[key] = rhs.get(key, ZERO) + c * d
        assert {k: v for k, v in lhs.items() if v} == \
            {k: v for k, v in rhs.items() if v}


def test_delta_is_multiplicative():
    rng = random.Random(43)
    for _ in range(6):
        a = NCPoly.from_word(rand_bword(rng, 1))
        b = NCPoly.from_word(rand_bword(rng, rng.randint(1, 2)))
        prod = {}
        for (a1, a2), c in delta_b(a).items():
            for (b1, b2), d in delta_b(b).items():
                key = (a1 + b1, a2 + b2)
                prod[key] = prod.get(key, ZERO) + c * d
        assert {k: v for k, v in prod.items() if v} == delta_b(a * b)


# --- the pairing functional -----------------------------------------------------


def test_r_eval_unit_laws():
    ev = ev_for(ONE)
    rng = random.Random(44)
    one = NCPoly.one()
    for _ in range(8):
        p = NCPoly.from_word(rand_bword(rng, rng.randint(0, 3)))
        eps = counit_b(p)
        assert r_eval(ev, one, p) == eps
        assert r_eval(ev, p, one) == eps


def test_classical_b0_pairing_is_counit_squared():
    ev = ev_for(ZERO)
    rng = random.Random(45)
    for _ in range(25):
        p = NCPoly.from_word(rand_bword(rng, rng.randint(0, 3)))
        q = NCPoly.from_word(rand_bword(rng, rng.randint(0, 3)))
        assert r_eval(ev, p, q) == counit_b(p) * counit_b(q)


def test_pairing_regrouping_coherence():
    # r(uv (x) d) expanded through the coproduct of d must not care how
    # a length 3 word is bracketed; exhaustive over all letter triples
    ev = ev_for(ONE)

    def split_eval(left, right, d):
        total = ZERO
        for (d1, d2), c in delta_b(NCPoly.from_word((d,))).items():
            total = total + c \
                * r_eval(ev, NCPoly.from_word(left), NCPoly.from_word(d1)) \
                * r_eval(ev, NCPoly.from_word(right), NCPoly.from_word(d2))
        return total

    for a in range(20):
        for b in range(20):
            for c in range(20):
                d = (a + b + c) % 20
                direct = r_eval(ev, NCPoly.from_word((a, b, c)),
                                NCPoly.from_word((d,)))
                assert split_eval((a, b), (c,), d) == direct
                assert split_eval((a,), (b, c), d) == direct


@pytest.mark.parametrize("b", [ZERO, ONE])
def test_base_table_reconstruction(b):
    """r on generator pairs must reproduce the 25x25 matrix through the
    index dictionary, including the zero and unit entries."""
    ev = ev_for(b)
    rq = ev.rq
    for i in range(5):
        for j in range(5):
            for k in range(5):
                for l in range(5):
                    wl = p_entry_word(j, k)
                    wr = p_entry_word(i, l)
                    if wl is None or wr is None:
                        got = ZERO
                    else:
                        got = r_eval(ev, NCPoly.from_word(wl),
                                     NCPoly.from_word(wr))
                    assert got == rq[5 * i + j, 5 * k + l]


def test_r_eval_bilinear():
    ev = ev_for(ONE)
    y0, y1 = NCPoly.gen(y_id(0)), NCPoly.gen(y_id(1))
    lhs = r_eval(ev, y0 + y1.scale(Scalar(3)), y0)
    assert lhs == r_eval(ev, y0, y0) + Scalar(3) * r_eval(ev, y1, y0)


# --- star compatibility and cotriangularity -------------------------------------


@pytest.mark.parametrize("b,want", [(ZERO, True), (ONE, True),
                                    (-ONE, True), (I, False)])
def test_star_compatibility(b, want):
    assert star_cqt_check(ev_for(b)) is want


@pytest.mark.parametrize("b,want", [(ZERO, True), (ONE, False),
                                    (-ONE, False), (I, False)])
def test_cotriangularity(b, want):
    ev = ev_for(b)
    assert ct_check(ev) is want
    assert ev.is_cotriangular() is want


# --- spinor-level blocks ---------------------------------------------------------


def test_lorentz_blocks_classical():
    inst = builtin("classical")
    blocks = lorentz_r_blocks(inst, k=ONE)
    ee = inst.E * inst.Eprime
    want_l = Mat.identity(4) + ee
    assert blocks.ww == want_l
    assert blocks.wwbar == inst.X
    assert blocks.wbarw == inst.X.inverse()
    tau = flip(2, 2)
    assert blocks.wbarwbar == tau * want_l * tau
    neg = lorentz_r_blocks(inst, k=-ONE)
    assert neg.ww == -blocks.ww and neg.wbarw == -blocks.wbarw
    with pytest.raises(ConstraintError):
        lorentz_r_blocks(inst, k=Scalar(2))


def test_blocks_intertwine_in_the_quotient():
    """(z (x) v) R^{vz} = R^{vz} (v (x) z) holds after reduction."""
    inst = builtin("classical")
    alg = make_lorentz(inst, cap=2)
    blocks = lorentz_r_blocks(inst, k=ONE)

    def sym(kind, a, c):
        gid = w_id(a, c) if kind == "w" else wbar_id(a, c)
        return NCPoly.gen(gid)

    cases = [("w", "w", blocks.ww), ("w", "wbar", blocks.wwbar),
             ("wbar", "w", blocks.wbarw), ("wbar", "wbar", blocks.wbarwbar)]
    for v, z, r in cases:
        for ab in range(4):
            a_row, b_row = divmod(ab, 2)
            for cd in range(4):
                c_col, d_col = divmod(cd, 2)
                lhs = NCPoly.zero()
                rhs = NCPoly.zero()
                for ef in range(4):
                    e, f = divmod(ef, 2)
                    cl = r[ef, cd]
                    if cl:
                        lhs = lhs + (sym(z, a_row, e)
                                     * sym(v, b_row, f)).scale(cl)
                    cr = r[ab, ef]
                    if cr:
                        rhs = rhs + (sym(v, e, c_col)
                                     * sym(z, f, d_col)).scale(cr)
                assert alg.normal_form(lhs - rhs).is_zero()


def test_b_name():
    assert b_name(lam_id(1, 2)) == "L12"
    assert b_name(y_id(3)) == "y3"
