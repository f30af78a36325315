"""First-order differential calculus.

Three oracles drive this file: the obstruction matrix is rebuilt twice,
with naive index loops (no shared kron/matmul code paths) and in the
Kronecker form f_tilde once had (exact.kron and Mat products), the classical
partials are compared against ordinary commutative differentiation, and
the Leibniz and box-commutes checks are compared against their exhaustive
loops, which build both sides of each identity in full.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qminkowski.minkowski as minkowski
from qminkowski.calculus import FirstOrderCalculus, f_tilde, make_calculus
from qminkowski.cli import main
from qminkowski.dirac import dirac_square_check, gamma
from qminkowski.errors import CalculusObstruction
from qminkowski.exact import Mat, ONE, Scalar, ZERO, flip, kron
from qminkowski.instance import builtin, write_instance
from qminkowski.qalgebra import NCPoly, build_quotient

from shared import MEMO_INSTANCES, ishift, leibniz_breaking, naive_kron, \
    per_entry_left_mul_gen, rand_instance, shifted, sign_twisted_flip, \
    twisted, twisted_tshift, x, z_perturbed


# --- obstruction matrix -----------------------------------------------------


def omul(a, b):
    out = Mat.zeros(a.rows, b.cols)
    for i in range(a.rows):
        for k in range(a.cols):
            if a[i, k]:
                for j in range(b.cols):
                    out.data[i * b.cols + j] = (out.data[i * b.cols + j]
                                                + a[i, k] * b[k, j])
    return out


def oracle_obstruction(inst):
    i4, i16 = Mat.identity(4), Mat.identity(16)
    r, z, t = inst.R, inst.Z, inst.T
    inner = omul(naive_kron(i4, z), z)
    inner = inner - omul(naive_kron(z, i4), z)
    inner = inner + naive_kron(t, i4)
    inner = inner - omul(omul(naive_kron(i4, r), naive_kron(r, i4)),
                         naive_kron(i4, t))
    return omul(naive_kron(r - i16, i4), inner)


def kron_obstruction(inst):
    """The obstruction as three 64x64 Kronecker products, through the
    package's own kron and Mat products."""
    i4 = Mat.identity(4)
    i16 = Mat.identity(16)
    r, z, t = inst.R, inst.Z, inst.T
    inner = (kron(i4, z) * z
             - kron(z, i4) * z
             + kron(t, i4)
             - kron(i4, r) * kron(r, i4) * kron(i4, t))
    return kron(r - i16, i4) * inner


def assert_obstruction_matches_oracles(inst):
    ft = f_tilde(inst)
    assert ft == kron_obstruction(inst)
    assert ft == oracle_obstruction(inst)


def test_obstruction_matches_index_oracle():
    for inst in [builtin("classical"), z_perturbed(), twisted_tshift(),
                 leibniz_breaking()] + [rand_instance(s) for s in (31, 32, 33)]:
        assert_obstruction_matches_oracles(inst)


GAUSS = st.builds(lambda a, b, c, d: Scalar(Fraction(a, c), Fraction(b, d)),
                  st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
                  st.integers(1, 3))


def sparse(rows, cols, max_size):
    return st.dictionaries(st.integers(0, rows * cols - 1), GAUSS,
                           max_size=max_size).map(
        lambda entries: Mat(rows, cols, [entries.get(k, ZERO)
                                         for k in range(rows * cols)]))


def over(rows, cols, den, step):
    """Every step-th entry of a rows x cols matrix set to a complex value
    over den, the rest zero."""
    return Mat(rows, cols, [
        Scalar(Fraction(k % 5 - 2, den), Fraction(k % 3 - 1, den))
        if k % step == 0 else ZERO for k in range(rows * cols)])


# R, Z and T over 3, 5 and 7, so that f_tilde's common denominator takes
# a factor from each; with Z = 0 or T = 0 its lcm runs over no entries.
R3, Z5, T7 = over(16, 16, 3, 5), over(16, 4, 5, 3), over(16, 1, 7, 2)


@settings(max_examples=25, deadline=None)
@given(r=sparse(16, 16, 40), z=sparse(16, 4, 12), t=sparse(16, 1, 6))
@example(r=flip(4, 4), z=Mat.zeros(16, 4), t=Mat.zeros(16, 1))
@example(r=Mat.identity(16), z=Mat.zeros(16, 4), t=Mat.zeros(16, 1))
@example(r=R3, z=Z5, t=T7)
@example(r=R3, z=Mat.zeros(16, 4), t=T7)
@example(r=R3, z=Z5, t=Mat.zeros(16, 1))
@example(r=flip(4, 4) + R3, z=Z5, t=T7)
def test_sparse_obstruction_matches_oracles(r, z, t):
    assert_obstruction_matches_oracles(
        dataclasses.replace(builtin("classical"), name="hyp", R=r, Z=z, T=t))


def test_classical_obstruction_vanishes():
    assert f_tilde(builtin("classical")).is_zero()


def test_z_perturbation_obstructs(monkeypatch):
    ft = f_tilde(z_perturbed())
    nonzero = {(i, j): ft[i, j]
               for i in range(64) for j in range(4) if ft[i, j]}
    assert nonzero == {(5, 0): ONE, (17, 0): -ONE}
    builds = []
    real_build = minkowski.build_quotient

    def counted(*args):
        builds.append(args)
        return real_build(*args)

    monkeypatch.setattr(minkowski, "build_quotient", counted)
    # make_calculus refuses before it builds any quotient
    for inst, witness in ((z_perturbed(), "(5, 0) = 1"),
                          (twisted_tshift(), "(6, 2) = -2")):
        for cap in (2, 4):
            with pytest.raises(CalculusObstruction) as exc:
                make_calculus(inst, cap)
            assert str(exc.value) == "obstruction entry " + witness
    assert builds == []
    # the unchecked constructor takes any quotient it is handed
    calc = FirstOrderCalculus(z_perturbed(),
                              minkowski.make_minkowski(z_perturbed(), 3))
    assert len(builds) == 1
    assert calc.inst.name == "zbent" and calc.alg.cap == 3


def test_central_shift_passes_obstruction():
    inst = ishift()
    assert f_tilde(inst).is_zero()
    calc = make_calculus(inst, 3)
    assert calc.check_differential_consistency(3) is None
    assert calc.check_leibniz(3) is None
    assert calc.check_partial_exchange(3) is None
    assert calc.check_box_commutes(3) is None


# --- classical partials vs commutative differentiation ------------------------


def to_exps(p):
    """Normal-form words of the classical algebra as exponent vectors."""
    out = {}
    for w, c in p.terms.items():
        e = [0, 0, 0, 0]
        for g in w:
            e[g] += 1
        out[tuple(e)] = out.get(tuple(e), ZERO) + c
    return {k: v for k, v in out.items() if v}


def d_exps(i, exps):
    out = {}
    for e, c in exps.items():
        if e[i]:
            f = list(e)
            f[i] -= 1
            out[tuple(f)] = out.get(tuple(f), ZERO) + c * Scalar(e[i])
    return {k: v for k, v in out.items() if v}


@pytest.fixture(scope="module")
def classical_calc():
    return make_calculus(builtin("classical"), 4)


def test_partials_match_commutative_derivative(classical_calc):
    calc = classical_calc
    for w in calc.alg.basis_upto(4):
        p = NCPoly.from_word(w)
        for i in range(4):
            assert to_exps(calc.partial(i, p)) == d_exps(i, to_exps(p))


def test_differential_collects_partials(classical_calc):
    calc = classical_calc
    rng = random.Random(34)
    for _ in range(5):
        p = NCPoly.zero()
        for _ in range(4):
            w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 3)))
            p = p + NCPoly.from_word(w).scale(Scalar(rng.randint(-2, 2)))
        form = calc.differential(p)
        for i in range(4):
            assert form[i] == calc.partial(i, p)
    assert all(c.is_zero() for c in calc.differential(NCPoly.one()))


def test_box_is_the_wave_operator(classical_calc):
    calc = classical_calc
    assert calc.box(x(0) * x(0)) == NCPoly.one().scale(Scalar(2))
    for k in (1, 2, 3):
        assert calc.box(x(k) * x(k)) == NCPoly.one().scale(Scalar(-2))
    assert calc.box(x(0) * x(1)).is_zero()
    # oracle over every basis word up to the cap
    for w in calc.alg.basis_upto(4):
        p = NCPoly.from_word(w)
        e = to_exps(p)
        want = dict(d_exps(0, d_exps(0, e)))
        for k in (1, 2, 3):
            for key, c in d_exps(k, d_exps(k, e)).items():
                want[key] = want.get(key, ZERO) - c
        want = {key: v for key, v in want.items() if v}
        assert to_exps(calc.box(p)) == want


def test_momentum_operators(classical_calc):
    calc = classical_calc
    p = x(0) * x(2)
    for k in range(4):
        assert calc.momentum(k, p) == calc.partial(k, p).scale(Scalar(0, 1))
    # raising the index flips the sign of the spatial components
    assert calc.momentum_up(0, p) == calc.momentum(0, p)
    for k in (1, 2, 3):
        assert calc.momentum_up(k, p) == -calc.momentum(k, p)


def test_bimodule_commutes_classically(classical_calc):
    calc = classical_calc
    dx1 = calc.differential(x(1))
    left = calc.left_mul(x(0), dx1)
    right = right_mul(calc, dx1, x(0))
    assert left == right
    assert left[1] == x(0)


def test_identity_checks_at_low_degree(classical_calc):
    calc = classical_calc
    assert calc.check_differential_consistency(3) is None
    assert calc.check_leibniz(3) is None
    assert calc.check_partial_exchange(3) is None
    assert calc.check_box_commutes(3) is None


@pytest.mark.parametrize("seeded, check, witness", [
    ((0, (1,), NCPoly.one()), "check_differential_consistency",
     "w=(1,), i=0"),
    ((1, (0, 1), x(2)), "check_partial_exchange", "w=(0, 1), k=0, l=1"),
    ((1, (0, 1), x(2)), "check_box_commutes", "w=(0, 0, 1), i=1"),
])
def test_identity_checks_name_a_wrong_partial(seeded, check, witness):
    # A wrong partial_i(w) planted in the memo, beside the other three
    # real partials of w, is what every later partial reads, so each check
    # must fail and name where.
    calc = make_calculus(builtin("classical"), 3)
    i, w, wrong = seeded
    planted = list(calc._partials(w))
    planted[i] = wrong.terms
    calc._p_memo[w] = tuple(planted)
    assert getattr(calc, check)(3) == witness


# --- a calculus whose Leibniz check fails -------------------------------------


def test_leibniz_check_can_fail(capsys, tmp_path):
    inst = leibniz_breaking()
    assert f_tilde(inst).is_zero()
    for cap, profile, leibniz in (
            (3, [0, 4, 10, 20], "a=(0,), b=(0,), i=0"),
            (4, [0, 0, 10, 20, 35], "a=(0, 0), b=(0, 0), i=0"),
            (5, [0, 0, 0, 20, 35, 56], None)):
        calc = make_calculus(inst, cap)
        assert calc.alg.dimension_profile() == profile
        assert calc.check_leibniz(cap) == leibniz
        assert calc.check_differential_consistency(cap) is None
        assert calc.check_partial_exchange(cap) is None
        assert calc.check_box_commutes(cap) is None
    path = tmp_path / "zt.json"
    write_instance(inst, str(path))
    assert main(["calculus", str(path), "--degree", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  FAIL leibniz: degree <= 4; fails at a=(0, 0), b=(0, 0), i=0" \
        in lines
    assert "  pass differential: degree <= 4" in lines


# --- the memoised left action against the unmemoised formulas -----------------


@pytest.mark.parametrize("inst", MEMO_INSTANCES, ids=lambda i: i.name)
def test_memoised_left_action_matches_unmemoised(inst):
    calc = make_calculus(inst, 4)
    words = list(calc.alg.basis_upto(4))
    zero = NCPoly.zero()
    forms = [calc.differential(NCPoly.from_word(b)) for b in words]
    for w in calc.alg.basis_upto(3):
        for j in range(4):
            coords = [zero] * 4
            coords[j] = NCPoly.from_word(w)
            forms.append(tuple(coords))
    for form in forms:
        for i in range(4):
            assert calc.left_mul(x(i), form) == \
                per_entry_left_mul_gen(calc, i, form)
    # the per-b table of check_leibniz: E_b(a) = d(ab) - a d(b), four term
    # dicts compared coordinate by coordinate
    for b in words:
        db = calc.differential(NCPoly.from_word(b))
        table = {}
        for a in words:
            if len(a) + len(b) <= 4:
                dab = calc.differential(NCPoly.from_word(a + b))
                adb = calc.left_mul(NCPoly.from_word(a), db)
                got = calc._leibniz_e(table, a, b)
                for i in range(4):
                    want = dab[i] - adb[i]
                    assert got[i] == want.terms, (a, b, i)
    for w in words:
        second = calc.second_partials(w)
        for i in range(4):
            for j in range(4):
                assert second[i][j] == calc.partial(
                    j, calc.partial(i, NCPoly.from_word(w))).terms


@pytest.mark.parametrize("inst", [i for i in MEMO_INSTANCES if i.name in (
    "classical", "imag", "zt-bent")], ids=lambda i: i.name)
def test_memos_hold_term_dicts_of_basis_words(inst):
    # NCPoly equality is dict equality and the public methods wrap memo
    # dicts without filtering them, so a stored zero coefficient or a
    # word outside the basis would flip a verdict
    calc = FirstOrderCalculus(inst, minkowski.make_minkowski(inst, 4))
    for check in (calc.check_differential_consistency, calc.check_leibniz,
                  calc.check_partial_exchange, calc.check_box_commutes):
        check(4)
    dirac_square_check(calc, gamma(inst), 4)
    basis = set(calc.alg.basis_upto(4))

    def clean(terms):
        return type(terms) is dict and all(
            w in basis and isinstance(c, Scalar) and c
            for w, c in terms.items())

    # the left action is 16 act tables, one per row 4i + j, keyed by word
    acts = calc._act_memo
    assert type(acts) is list and len(acts) == 16
    assert all(type(table) is dict for table in acts)
    memos = (calc._d_memo, calc._p_memo, calc._second_memo)
    assert all(memos) and any(acts)
    # d and the partials: four term dicts per word
    for form in (*calc._d_memo.values(), *calc._p_memo.values()):
        assert type(form) is tuple and len(form) == 4
        assert all(map(clean, form))
    for table in acts:
        for w, pairs in table.items():
            assert type(w) is tuple and type(pairs) is tuple
            for k, img in pairs:
                assert k in range(4) and img and clean(img)
    for table in calc._second_memo.values():
        assert len(table) == 4 and all(len(row) == 4 for row in table)
        assert all(clean(t) for row in table for t in row)


# --- the Leibniz and box-commutes checks against their exhaustive loops -------


def right_mul(calc, form, p):
    """The one-form times p from the right, coordinate by coordinate."""
    return tuple(calc.alg.normal_form(f * p) for f in form)


def leibniz_oracle(calc, n):
    """check_leibniz as it was: both sides built in full for every pair,
    d(ab) from the concatenated word and a d(b) letter by letter."""
    words = list(calc.alg.basis_upto(n))
    for b in words:
        pb = NCPoly.from_word(b)
        db = calc.differential(pb)
        for a in words:
            if len(a) + len(b) > n:
                break
            pa = NCPoly.from_word(a)
            lhs = calc.differential(NCPoly.from_word(a + b))
            a_db = calc.left_mul(pa, db)
            da_b = right_mul(calc, calc.differential(pa), pb)
            for i in range(4):
                if lhs[i] != a_db[i] + da_b[i]:
                    return "a=%s, b=%s, i=%d" % (a, b, i)
    return None


def box_unmemoised(calc, p):
    """sum_ij g_ij partial_j partial_i p, with no memo of its own."""
    firsts = [calc.partial(i, p) for i in range(4)]
    out = NCPoly.zero()
    for i, j, c in calc.g.nonzeros():
        out = out + calc.partial(j, firsts[i]).scale(c)
    return out


def nonsymmetric_metric():
    """The sign-twisted flip with X = [[1,1,0,0],[0,0,1,0],[0,1,0,0],
    [0,0,0,1]], whose metric is not symmetric."""
    x_ = Mat.from_rows([[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                        [0, 0, 0, 1]])
    return dataclasses.replace(twisted(), name="twisted-x", X=x_)


@pytest.mark.parametrize("case", ["rand33-free", "twisted-x"])
def test_box_pairs_each_metric_entry_with_its_second_partial(case):
    # box contracts g_ij with partial_j partial_i, read from the table as
    # [i][j]; with a metric that is not symmetric a transposed read
    # changes box on 80 words of the first case and 15 of the second
    if case == "rand33-free":
        calc = FirstOrderCalculus(rand_instance(33), build_quotient(4, [], 3))
    else:
        inst = nonsymmetric_metric()
        calc = FirstOrderCalculus(inst, minkowski.make_minkowski(inst, 4))
    g = calc.g
    assert g != g.transpose()
    for w in calc.alg.basis_upto(calc.alg.cap):
        p = NCPoly.from_word(w)
        assert calc.box(p) == box_unmemoised(calc, p), w


def box_commutes_oracle(calc, n):
    for w in calc.alg.basis_upto(n):
        p = NCPoly.from_word(w)
        bp = box_unmemoised(calc, p)
        for i in range(4):
            if calc.partial(i, bp) != box_unmemoised(calc, calc.partial(i, p)):
                return "w=%s, i=%d" % (w, i)
    return None


def assert_checks_match_oracles(inst, cap, free=False):
    """Both checks and both oracles, each on a calculus of its own, so no
    memo filled by one side is read by the other; free hands each the
    free algebra truncated at the cap in place of the instance's quotient."""
    new, old = (FirstOrderCalculus(inst, build_quotient(4, [], cap) if free
                                   else minkowski.make_minkowski(inst, cap))
                for _ in range(2))
    got = (new.check_leibniz(cap), new.check_box_commutes(cap))
    assert got == (leibniz_oracle(old, cap), box_commutes_oracle(old, cap))
    return got


@pytest.mark.parametrize("inst", MEMO_INSTANCES, ids=lambda i: i.name)
def test_checks_match_oracles(inst):
    # MEMO_INSTANCES ends with leibniz_breaking(), whose Leibniz check
    # fails at caps 3 and 4
    for cap in (3, 4, 5):
        assert_checks_match_oracles(inst, cap)


def test_checks_match_oracles_past_the_gate():
    # built through the unchecked constructor: z_perturbed() obstructs
    for inst in [z_perturbed()] + [rand_instance(s) for s in (31, 32, 33)]:
        for cap in (3, 4):
            assert_checks_match_oracles(inst, cap)
    # the dense data is 1 = 0 in its own quotient; over the free algebra
    # the box check fails and must name the same word
    for seed in (31, 32, 33):
        _, box = assert_checks_match_oracles(rand_instance(seed), 3,
                                             free=True)
        assert box is not None


def test_leibniz_check_names_a_wrong_differential():
    # d(x_1) planted off in its dx_3 coordinate only: d(x_1 x_0) is rebuilt
    # from d(x_0), so the rule first fails at a=(1,), b=(0,) in i = 3.
    results = []
    for check in (FirstOrderCalculus.check_leibniz, leibniz_oracle):
        calc = make_calculus(builtin("classical"), 3)
        calc._d_memo[(1,)] = ({}, NCPoly.one().terms, {}, x(2).terms)
        results.append(check(calc, 3))
    assert results == ["a=(1,), b=(0,), i=3"] * 2


SMALL = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))


@settings(max_examples=20, deadline=None)
@given(t=st.dictionaries(st.integers(0, 15), SMALL, min_size=1, max_size=2),
       z=st.dictionaries(st.integers(0, 63), SMALL, max_size=2),
       twisted=st.booleans())
def test_checks_match_oracles_on_sparse_shifts(t, z, twisted):
    inst = shifted("hyp", t)
    zm = Mat.zeros(16, 4)
    for k, v in z.items():
        zm.data[k] = v
    inst = dataclasses.replace(inst, Z=zm, R=sign_twisted_flip() if twisted
                               else inst.R)
    assert_checks_match_oracles(inst, 3)
