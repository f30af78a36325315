"""Extended R-matrix and the pairing functional on symmetry words.

Classically with b = 0 the extended matrix is the plain 25-dimensional
swap and the pairing collapses to counit times counit; both facts are
used as oracles.  The four spinor-level blocks are verified to intertwine
the coproduct inside the actual degree-2 quotient.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qminkowski.braiding import (
    CqtEvaluator, build_rq, coproduct, counit_b, ct_check, lorentz_r_blocks,
    make_evaluator, p_entry_word, star_cqt_check, yang_baxter_check,
)
from qminkowski.dirac import metric
from qminkowski.errors import ConstraintError, ShapeError
from qminkowski.exact import I, Mat, ONE, Scalar, ZERO, flip, kron
from qminkowski.instance import builtin
from qminkowski.lorentz import make_lorentz, w_id, wbar_id
from qminkowski.qalgebra import NCPoly, accumulate

from shared import MOVED, perfbench_dense, perfbench_instance


def ev_for(b):
    return make_evaluator(builtin("classical"), b=b)


def rand_bword(rng, n):
    return tuple(rng.randrange(20) for _ in range(n))


def delta_b(p):
    """Coproduct of a symmetry-algebra polynomial as {(w1, w2): coeff}."""
    out = {}
    for w, c in p.terms.items():
        accumulate(out, {pair: ONE for pair in coproduct(w)}, c)
    return out


def r_eval(ev, p, q):
    """The word pairing extended bilinearly to polynomials."""
    acc = ZERO
    for wu, cu in p.terms.items():
        for wv, cv in q.terms.items():
            acc = acc + cu * cv * ev.r_word(wu, wv)
    return acc


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


def yb_sides(m):
    """The two sides of the braid identity by the kron formula, as dense
    d^3 x d^3 matrices."""
    one = Mat.identity(round(m.rows ** 0.5))
    a, c = kron(m, one), kron(one, m)
    return a * c * a, c * a * c


def yb_oracle(m):
    lhs, rhs = yb_sides(m)
    return lhs == rhs


def glq_braid(n, q):
    """The braid-form GL_q(n) R-matrix: R[(j,i),(i,j)] = 1 for i != j,
    R[(i,i),(i,i)] = q and R[(i,j),(i,j)] = q - 1/q for i < j."""
    rows = [[ZERO] * (n * n) for _ in range(n * n)]
    for i in range(n):
        rows[n * i + i][n * i + i] = q
        for j in range(n):
            if i != j:
                rows[n * j + i][n * i + j] = ONE
            if i < j:
                rows[n * i + j][n * i + j] = q - ONE / q
    return Mat.from_rows(rows)


def perturbed(m, k, by=Scalar(2)):
    data = list(m.data)
    data[k] = data[k] + by
    return Mat(m.rows, m.cols, data)


GLQ = [glq_braid(n, q) for n in (2, 3)
       for q in (Scalar(2), ONE + I, Scalar(-1, 2))]


@pytest.mark.parametrize("m", GLQ)
def test_glq_braid_matrix_braids(m):
    assert yb_oracle(m)
    assert yang_baxter_check(m)


@pytest.mark.parametrize("m", GLQ)
def test_glq_single_entry_perturbations_match_the_oracle(m):
    for k in range(len(m.data)):
        p = perturbed(m, k)
        assert yang_baxter_check(p) is yb_oracle(p), divmod(k, m.cols)


def test_classical_rq_perturbations_match_the_oracle():
    # The kron oracle costs about 30 ms on a 25x25 input, so it runs on
    # every perturbation the column check accepts and on a seeded sample
    # of the rest; the column check runs on all 625.
    rq = build_rq(builtin("classical"), ONE)
    assert yb_oracle(rq)
    verdicts = [yang_baxter_check(perturbed(rq, k)) for k in range(625)]
    accepted = [k for k in range(625) if verdicts[k]]
    assert 0 < len(accepted) < 625
    rejected = [k for k in range(625) if not verdicts[k]]
    for k in accepted + random.Random(47).sample(rejected, 24):
        assert yb_oracle(perturbed(rq, k)) is verdicts[k], divmod(k, 25)


def test_yang_baxter_sees_a_difference_in_the_last_column_only():
    # Perturbing the flip on C^2 (x) C^2 at entry (1, 3) changes only the
    # image of e_7, the last basis vector of C^2 (x) C^2 (x) C^2.
    m = perturbed(flip(2, 2), 7)
    lhs, rhs = yb_sides(m)
    differ = [j for j in range(8)
              if any(lhs[i, j] != rhs[i, j] for i in range(8))]
    assert differ == [7]
    assert not yang_baxter_check(m)


SPARSE_ENTRY = st.one_of(
    st.just(ZERO), st.just(ZERO),
    st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
              st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 9]).flatmap(
    lambda n: st.lists(SPARSE_ENTRY, min_size=n * n, max_size=n * n)
    .map(lambda data: Mat(n, n, data))))
def test_yang_baxter_matches_the_oracle_on_sparse_matrices(m):
    assert yang_baxter_check(m) is yb_oracle(m)


def test_yang_baxter_negative_and_shape():
    assert yang_baxter_check(Mat.identity(4))
    rq = list(build_rq(builtin("classical"), ZERO).data)
    rq[3] = Scalar(5)
    assert not yang_baxter_check(Mat(25, 25, rq))
    with pytest.raises(ShapeError):
        yang_baxter_check(Mat.zeros(4, 6))
    with pytest.raises(ShapeError):
        yang_baxter_check(Mat.zeros(6, 6))


# --- coproduct and counit -------------------------------------------------------


def test_delta_on_generators():
    dy = delta_b(NCPoly.gen(5 * 0 + 4))            # y_0 = P_04
    want = {((5 * 0 + 4,), ()): ONE}
    for j in range(4):
        want[((5 * 0 + j,), (5 * j + 4,))] = ONE
    assert dy == want
    dl = delta_b(NCPoly.gen(5 * 2 + 3))            # Lambda_23
    assert dl == {((5 * 2 + k,), (5 * k + 3,)): ONE for k in range(4)}
    assert delta_b(NCPoly.one()) == {((), ()): ONE}


def test_counit_values():
    for i in range(4):
        for j in range(4):
            want = ONE if i == j else ZERO
            assert counit_b(NCPoly.gen(5 * i + j)) == want
        assert counit_b(NCPoly.gen(5 * i + 4)) == ZERO
    assert counit_b(NCPoly.one()) == ONE


def test_every_letter_is_an_entry_of_p():
    """Delta(P_ab) = sum_k P_ak (x) P_kb and eps(P_ab) = delta_ab on all
    20 generators, each named through p_entry_word."""
    letters = {}
    for a in range(4):
        for b in range(5):
            (g,) = p_entry_word(a, b)
            letters[g] = (a, b)
    assert sorted(letters) == list(range(20))
    for g, (a, b) in letters.items():
        want = {}
        for k in range(5):
            left, right = p_entry_word(a, k), p_entry_word(k, b)
            if left is not None and right is not None:
                want[(left, right)] = ONE
        assert delta_b(NCPoly.gen(g)) == want
        assert counit_b(NCPoly.gen(g)) == (ONE if a == b else ZERO)


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


@pytest.mark.parametrize("inst", [MOVED, perfbench_dense(11, 0.3)],
                         ids=["moved-twisted", "dense11"])
def test_pairing_laws_on_letter_pairs(inst):
    """Both product laws on a two-letter word against R_Q, over all letter
    triples, with a = P_ij, b = P_kl and c = P_mn:

        r(ab (x) c) = sum_p R_Q[5m+i, 5j+p] R_Q[5p+k, 5l+n]
        r(c (x) ab) = sum_p R_Q[5k+m, 5p+l] R_Q[5i+p, 5n+j]

    p runs to 4, where the unit row and column of R_Q stand for P_44 = 1
    and P_4n = 0.  On dense tables the laws tell the two coproduct legs
    apart, which the classical swap cannot."""
    ev = make_evaluator(inst, ONE)
    rq = ev.rq
    for a in range(20):
        i, j = divmod(a, 5)
        for b in range(20):
            k, l = divmod(b, 5)
            for c in range(20):
                m, n = divmod(c, 5)
                want = sum((rq[5 * m + i, 5 * j + p] * rq[5 * p + k, 5 * l + n]
                            for p in range(5)), ZERO)
                assert ev.r_word((a, b), (c,)) == want, (a, b, c)
                want = sum((rq[5 * k + m, 5 * p + l] * rq[5 * i + p, 5 * n + j]
                            for p in range(5)), ZERO)
                assert ev.r_word((c,), (a, b)) == want, (c, a, b)


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


def ct_product_oracle(ev):
    """ct_check as two products: the inverse of R_Q against
    flip(5, 5) * R_Q * flip(5, 5)."""
    try:
        inverse = ev.rq_inverse()
    except ConstraintError:
        return False
    f = flip(5, 5)
    return inverse == f * ev.rq * f


# The benchmark's families, drawn as perfbench/instances.py draws them.
RQ_INSTANCES = [
    builtin("classical"),
    perfbench_instance("imag_shift", 1, 2, False),
    perfbench_instance("imag_shift", 2, 3, True),
    perfbench_instance("complex_shift", 1, 2, True),
    perfbench_instance("complex_shift", 2, 3, False),
    perfbench_instance("zbent", 1, False),
    perfbench_instance("zbent", 2, True),
    perfbench_dense(11, 0.3),
    perfbench_dense(12, 0.3),
    perfbench_dense(11, 0.1),       # singular R, so a singular R_Q
]
RQ_B = (ZERO, ONE, -ONE, I, Scalar(Fraction(-1, 2)))


@pytest.mark.parametrize("inst", RQ_INSTANCES, ids=lambda inst: inst.name)
def test_ct_check_matches_the_product_form(inst):
    for b in RQ_B:
        ev = make_evaluator(inst, b=b)
        assert ct_check(ev) is ct_product_oracle(ev)


@pytest.mark.parametrize("inst", RQ_INSTANCES, ids=lambda inst: inst.name)
def test_rq_determinant_is_the_r_determinant(inst):
    """det R_Q = det R at every b.  Rows 5i + 4, 20 + i and 24 of R_Q each
    hold a single 1, in columns 20 + i, 5i + 4 and 24, so R_Q is block
    triangular: R on the other rows and columns, and on these a
    permutation of four swaps and a fixed point, of determinant 1.  So R_Q
    is invertible exactly when R is."""
    det = inst.R.det()
    for b in RQ_B:
        ev = make_evaluator(inst, b=b)
        assert ev.rq.det() == det
        try:
            ev.rq_inverse()
        except ConstraintError:
            assert det == 0
        else:
            assert det != 0


def test_cotriangularity_is_one_product_with_the_flip_conjugate():
    """ct_check is R_Q (F R_Q F) = 1 with F = flip(5, 5): a square matrix
    with a right inverse is invertible and that is its inverse, and a
    singular R_Q has none."""
    f, one = flip(5, 5), Mat.identity(25)
    seen = set()
    for inst in RQ_INSTANCES:
        for b in RQ_B:
            ev = make_evaluator(inst, b=b)
            want = ev.rq * (f * ev.rq * f) == one
            assert ct_check(ev) is want
            seen.add(want)
    assert seen == {True, False}


def test_ct_check_on_cotriangular_tables_away_from_the_flip():
    # R_Q = A * flip is cotriangular exactly when A is an involution; take
    # A = S D S^-1 with D = diag(+-1), then break one entry.
    rng = random.Random(47)
    f = flip(5, 5)
    seen = {True: 0, False: 0}
    for _ in range(8):
        s = Mat(25, 25, [ONE if i == j else Scalar(rng.choice((0, 0, 1, -1)),
                                                   rng.choice((0, 0, 1)))
                         if i < j else ZERO
                         for i in range(25) for j in range(25)])
        d = Mat(25, 25, [rng.choice((ONE, -ONE)) if i == j else ZERO
                         for i in range(25) for j in range(25)])
        rq = s * d * s.inverse() * f
        k = rng.randrange(625)
        broken = Mat(25, 25, [x + ONE if j == k else x
                              for j, x in enumerate(rq.data)])
        for m in (rq, broken):
            ev = CqtEvaluator(m)
            want = ct_product_oracle(ev)
            seen[want] += 1
            assert ct_check(ev) is want
    assert seen == {True: 8, False: 8}


def test_singular_rq_is_not_cotriangular(monkeypatch):
    inversions = []
    real_inverse = Mat.inverse

    def counted(m):
        inversions.append(m)
        return real_inverse(m)

    monkeypatch.setattr(Mat, "inverse", counted)
    ev = CqtEvaluator(Mat.zeros(25, 25))
    assert ct_check(ev) is False
    assert ev.is_cotriangular() is False
    for _ in range(2):
        with pytest.raises(ConstraintError, match="R_Q is singular"):
            ev.rq_inverse()
    # the failed elimination is remembered, not repeated
    assert len(inversions) == 1


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
