"""Every sparse read of R, Z, T, the metric and the gammas against the
dense index loop it replaced, and the spinor-index invariance check and
the Kronecker-free metric against the formulas they replaced.

Each oracle here is a loop the package ran before it read matrices only
through Mat.nonzeros(): index arithmetic, a zero test, then the work.
They are compared value by value with the package on instances away from
the flip, where a swapped index or a transposed read changes the answer:
the sign-twisted flip with a T shift, an imaginary central shift, a
Lie-type Z entry, and dense random Gaussian-rational data with 30% of
the R, Z and T entries nonzero and E, E', X dense.

The left action, the partials and the partial exchange check all read
one exchange table, so the identity d = sum_i dx_i partial_i cannot see
a wrong table; these comparisons can.  The dense data makes 1 = 0 in
its own quotient, so the calculus comparisons also run over the free
algebra truncated at the same cap, where no term is reduced away.

The braided permutation action and the symmetrizer are compared with the
per-permutation loops they replaced, which apply each interchange of a
bubble-sort decomposition as one two-slot tensor per term and add the
n! images through accumulate, on the classical flip and on the
sign-twisted flip (both cotriangular at b = 0).
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from qminkowski.braiding import build_rq, make_evaluator
from qminkowski.calculus import FirstOrderCalculus
from qminkowski.dirac import clifford_check, gamma, metric
from qminkowski.errors import DegreeError
from qminkowski.fock import braid_action, interchange_k, symmetrize, tensor
from qminkowski.exact import I, Mat, ONE, Scalar, V, V_INV, ZERO, flip, \
    kron, sqrt_q
from qminkowski.instance import builtin
from qminkowski.lorentz import lambda_entries, lambda_invariance_check, \
    lorentz_relations, make_lorentz, w_id, wbar_id
from qminkowski.minkowski import make_minkowski, mink_relations
from qminkowski.qalgebra import NCPoly, accumulate, build_quotient

from shared import MEMO_INSTANCES, MOVED, imag, per_entry_left_mul_gen, \
    perfbench_dense, random_gammas, rescaled, sign_twisted_flip, twisted, \
    twisted_tshift, z_perturbed


def dense_instance(seed):
    rng = random.Random(seed)

    def entry():
        return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                      Fraction(rng.randint(-2, 2), rng.randint(1, 3)))

    def m(rows, cols, density):
        return Mat(rows, cols, [entry() if rng.random() < density else ZERO
                                for _ in range(rows * cols)])

    return dataclasses.replace(
        builtin("classical"), name="dense%d" % seed,
        E=m(4, 1, 1), Eprime=m(1, 4, 1), X=m(4, 4, 1),
        R=m(16, 16, 0.3), Z=m(16, 4, 0.3), T=m(16, 1, 0.3))


INSTANCES = [twisted_tshift(), imag(), z_perturbed(), dense_instance(41)]


# --- the dense loops ---------------------------------------------------------


def p_word_oracle(calc, i, w, memo):
    """partial_i of the word w, reading R and Z entry by entry."""
    key = (i, w)
    if key not in memo:
        out = NCPoly.zero()
        if w:
            k, rest = w[0], w[1:]
            r, z = calc.inst.R, calc.inst.Z
            acc = NCPoly.zero()
            if k == i:
                acc = acc + NCPoly.from_word(rest)
            for l in range(4):
                dl = p_word_oracle(calc, l, rest, memo)
                for n in range(4):
                    c = r[4 * k + l, 4 * i + n]
                    if c:
                        acc = acc + (NCPoly.gen(n) * dl).scale(c)
                c = z[4 * k + l, i]
                if c:
                    acc = acc + dl.scale(c)
            out = calc.alg.normal_form(acc)
        memo[key] = out
    return memo[key]


def exchange_rhs_oracle(r, second):
    """[k][l] is the terms of sum_ij R_{ij,kl} second[i][j]."""
    out = [[None] * 4 for _ in range(4)]
    for k in range(4):
        for l in range(4):
            rhs = {}
            for i in range(4):
                for j in range(4):
                    c = r[4 * i + j, 4 * k + l]
                    if c:
                        accumulate(rhs, second[i][j], c)
            out[k][l] = rhs
    return out


def mink_relations_oracle(inst):
    rm1 = inst.R - Mat.identity(16)
    rz = rm1 * inst.Z
    rt = rm1 * inst.T
    rels = []
    for row in range(16):
        terms = {}
        for k in range(4):
            for l in range(4):
                c = rm1[row, 4 * k + l]
                if c:
                    terms[(k, l)] = c
        for m in range(4):
            c = rz[row, m]
            if c:
                terms[(m,)] = -c
        c = rt[row, 0]
        if c:
            terms[()] = c
        p = NCPoly(terms)
        if not p.is_zero():
            rels.append(p)
    return rels


def build_rq_oracle(inst, b):
    r, z, t = inst.R, inst.Z, inst.T
    rz = r * z
    rm1t = (r - Mat.identity(16)) * t
    g = metric(inst)
    out = Mat.zeros(25, 25)
    for i in range(4):
        for j in range(4):
            row = 5 * i + j
            for k in range(4):
                for l in range(4):
                    v = r[4 * i + j, 4 * k + l]
                    if v:
                        out.data[25 * row + 5 * k + l] = v
            for k in range(4):
                v = z[4 * i + j, k]
                if v:
                    out.data[25 * row + 5 * k + 4] = v
            for l in range(4):
                v = rz[4 * i + j, l]
                if v:
                    out.data[25 * row + 20 + l] = -v
            out.data[25 * row + 24] = rm1t[4 * i + j, 0] + b * g[i, j]
    for i in range(4):
        out.data[25 * (5 * i + 4) + 20 + i] = ONE
        out.data[25 * (20 + i) + 5 * i + 4] = ONE
    out.data[25 * 24 + 24] = ONE
    return out


def lorentz_relations_oracle(inst):
    e, ep, x = inst.E, inst.Eprime, inst.X
    rels = []
    for a, b in itertools.product(range(2), repeat=2):
        t = {}
        for c, d in itertools.product(range(2), repeat=2):
            v = e[2 * c + d, 0]
            if v:
                t[(w_id(a, c), w_id(b, d))] = v
        v = e[2 * a + b, 0]
        if v:
            t[()] = -v
        rels.append(NCPoly(t))
    for c, d in itertools.product(range(2), repeat=2):
        t = {}
        for a, b in itertools.product(range(2), repeat=2):
            v = ep[0, 2 * a + b]
            if v:
                t[(w_id(a, c), w_id(b, d))] = v
        v = ep[0, 2 * c + d]
        if v:
            t[()] = -v
        rels.append(NCPoly(t))
    for a, b, c, d in itertools.product(range(2), repeat=4):
        t = {}
        for ap, bp in itertools.product(range(2), repeat=2):
            v = x[2 * a + b, 2 * ap + bp]
            if v:
                accumulate(t, {(w_id(ap, c), wbar_id(bp, d)): v})
            v = x[2 * ap + bp, 2 * c + d]
            if v:
                accumulate(t, {(wbar_id(a, ap), w_id(b, bp)): -v})
        rels.append(NCPoly(t))
    return rels + [r.star(lambda g: (g + 4) % 8) for r in rels]


def lambda_entries_oracle():
    vi, v = V_INV, V
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            t = {}
            for a, b, c, d in itertools.product(range(2), repeat=4):
                ci = vi[i, 2 * a + b]
                cj = v[2 * c + d, j]
                if ci and cj:
                    accumulate(t, {(w_id(a, c), wbar_id(b, d)): ci * cj})
            row.append(NCPoly(t))
        out.append(tuple(row))
    return tuple(out)


def lambda_invariance_oracle(alg, g):
    """The Lambda-coordinate loop: each residual sum_kl Lambda_ik g_kl
    Lambda_jl - g_ij built from products of Lambda entries, then reduced."""
    lam = lambda_entries()
    entries = g.nonzeros()
    for i in range(4):
        for j in range(4):
            acc = NCPoly.zero()
            for k, l, c in entries:
                acc = acc + (lam[i][k] * lam[j][l]).scale(c)
            acc = acc - NCPoly.one().scale(g[i, j])
            if not alg.normal_form(acc).is_zero():
                return "i=%d, j=%d" % (i, j)
    return None


def metric_kron_oracle(inst):
    """-2 sqrt(q) (V^-1 (x) V^-1)(1 (x) X (x) 1)(E (x) tau E) as a
    16-vector, read row-major as the 4x4 metric."""
    i2 = Mat.identity(2)
    vec = (kron(V_INV, V_INV)
           * kron(kron(i2, inst.X), i2)
           * kron(inst.E, flip(2, 2) * inst.E))
    scale = Scalar(-2) * sqrt_q(inst.q)
    return Mat(4, 4, [scale * vec[k, 0] for k in range(16)])


def clifford_oracle(inst, gs, g):
    r = inst.R
    prods = [[gs[i] * gs[j] for j in range(4)] for i in range(4)]
    residuals = {}
    for i in range(4):
        for j in range(4):
            acc = prods[i][j]
            for k in range(4):
                for l in range(4):
                    c = r[4 * j + i, 4 * l + k]
                    if c:
                        acc = acc + prods[k][l].scale(c)
            residuals[(i, j)] = acc - Mat.identity(4).scale(2 * g[j, i])
    return residuals


# --- comparisons -------------------------------------------------------------


def k_at_oracle(ev, alg, t, pos):
    """K on slots (pos, pos + 1), one two-slot tensor per term."""
    out = {}
    for ws, c in t.items():
        pair = interchange_k(ev, alg, {ws[pos:pos + 2]: c})
        accumulate(out, {ws[:pos] + p + ws[pos + 2:]: v
                         for p, v in pair.items()})
    return out


def braid_action_oracle(ev, alg, perm, t):
    """The bubble-sort interchanges of perm, applied last swap first."""
    arr, swaps = list(perm), []
    changed = True
    while changed:
        changed = False
        for pos in range(len(arr) - 1):
            if arr[pos] > arr[pos + 1]:
                arr[pos], arr[pos + 1] = arr[pos + 1], arr[pos]
                swaps.append(pos)
                changed = True
    for pos in reversed(swaps):
        t = k_at_oracle(ev, alg, t, pos)
    return t


def symmetrize_oracle(ev, alg, t):
    n = len(next(iter(t)))
    acc = {}
    for perm in itertools.permutations(range(n)):
        accumulate(acc, braid_action_oracle(ev, alg, perm, t))
    return accumulate({}, acc, Scalar(1) / Scalar(math.factorial(n)))


def calculi(inst, cap=3):
    """The calculus over the instance's own quotient, and one over the
    free algebra."""
    return [FirstOrderCalculus(inst, make_minkowski(inst, cap)),
            FirstOrderCalculus(inst, build_quotient(4, [], cap))]


@pytest.mark.parametrize("inst", MEMO_INSTANCES, ids=lambda i: i.name)
def test_partials_of_each_word_match_dense_loops(inst):
    # the four partials of a word, read row by row from the exchange
    # table, against each partial_i read from R and Z entry by entry
    calc = FirstOrderCalculus(inst, make_minkowski(inst, 3))
    memo = {}
    for n in range(4):
        for w in itertools.product(range(4), repeat=n):
            got = calc._partials(w)
            for i in range(4):
                assert got[i] == p_word_oracle(calc, i, w, memo).terms, \
                    (w, i)


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda i: i.name)
def test_exchange_table_matches_dense_loops(inst):
    nonzero = 0
    for calc in calculi(inst):
        memo = {}
        for n in range(4):
            for w in itertools.product(range(4), repeat=n):
                for i in range(4):
                    got = calc.partial(i, NCPoly.from_word(w))
                    assert got == p_word_oracle(calc, i, w, memo), (w, i)
                    nonzero += not got.is_zero()
        for w in calc.alg.basis_upto(3):
            second = calc.second_partials(w)
            assert calc._exchanged(second) == \
                exchange_rhs_oracle(inst.R, second), w
        zero = NCPoly.zero()
        for w in calc.alg.basis_upto(2):     # x_i dx_j w has degree |w| + 1
            for j in range(4):
                coords = [zero] * 4
                coords[j] = NCPoly.from_word(w)
                form = tuple(coords)
                for i in range(4):
                    assert calc.left_mul(NCPoly.gen(i), form) == \
                        per_entry_left_mul_gen(calc, i, form), (i, j, w)
    assert nonzero > 300     # of 680 partials: the comparison is not vacuous


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda i: i.name)
def test_relations_and_rq_match_dense_loops(inst):
    assert mink_relations(inst) == mink_relations_oracle(inst)
    assert lorentz_relations(inst) == lorentz_relations_oracle(inst)
    for b in (ZERO, ONE, I, Scalar(Fraction(-1, 2))):
        assert build_rq(inst, b) == build_rq_oracle(inst, b)


CLIFFORD_INSTANCES = [
    builtin("classical"),
    twisted(),
    MOVED,
    *(perfbench_dense(seed, 0.3) for seed in (11, 12, 13)),
    *INSTANCES,
]


@pytest.mark.parametrize("inst", CLIFFORD_INSTANCES, ids=lambda i: i.name)
def test_clifford_residuals_match_the_dense_loop(inst):
    """Every residual Mat equals the dense loop's, for the instance's own
    gammas, the a b = 2 pair of test_dirac and two random sets."""
    g, gs = metric(inst), gamma(inst)
    nonzero = 0
    for pair in (gs, rescaled(gs, Scalar(2), ONE), random_gammas(1),
                 random_gammas(2)):
        got = clifford_check(inst, pair, g)
        assert got == clifford_oracle(inst, pair, g)
        assert all(type(m) is Mat for m in got.values())
        nonzero += sum(not m.is_zero() for m in got.values())
    assert nonzero > 16


def test_lambda_entries_match_dense_loops():
    assert lambda_entries() == lambda_entries_oracle()


def test_lambda_invariance_matches_the_lambda_loop():
    inst = builtin("classical")
    alg = make_lorentz(inst, 4)
    g = metric(inst)
    cases = [g, Mat.identity(4), g.scale(-ONE), g.scale(I)]
    for k in range(16):
        data = list(g.data)
        data[k] = data[k] + ONE
        cases.append(Mat(4, 4, data))
    # an antisymmetric perturbation leaves the diagonal of the classical
    # residual zero, so its first failure is off the diagonal
    for k, l in itertools.combinations(range(4), 2):
        data = list(g.data)
        data[4 * k + l] = data[4 * k + l] + ONE
        data[4 * l + k] = data[4 * l + k] - ONE
        cases.append(Mat(4, 4, data))
    verdicts = [lambda_invariance_check(alg, m) for m in cases]
    assert verdicts == [lambda_invariance_oracle(alg, m) for m in cases]
    assert verdicts[0] is verdicts[2] is verdicts[3] is None
    assert verdicts[1] == "i=0, j=0"
    assert None not in verdicts[4:]
    assert len(set(verdicts[4:])) > 1
    low = make_lorentz(inst, 3)
    for check in (lambda_invariance_check, lambda_invariance_oracle):
        with pytest.raises(DegreeError):
            check(low, g)


def test_metric_matches_the_kronecker_formula():
    assert metric(builtin("classical")) == \
        metric_kron_oracle(builtin("classical"))
    rng = random.Random(23)

    def entry():
        return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                      Fraction(rng.randint(-2, 2), rng.randint(1, 2)))

    made = 0
    while made < 40:
        x = Mat(4, 4, [entry() if rng.random() < 0.7 else ZERO
                       for _ in range(16)])
        if x.det() == 0:
            continue
        e = Mat(4, 1, [entry() for _ in range(4)])
        inst = dataclasses.replace(builtin("classical"), X=x, E=e,
                                   q=ONE if made % 2 else -ONE)
        assert metric(inst) == metric_kron_oracle(inst), made
        made += 1


@pytest.mark.parametrize("r", [flip(4, 4), sign_twisted_flip()],
                         ids=["classical", "sign-twisted"])
def test_braided_actions_match_the_per_permutation_loops(r):
    inst = dataclasses.replace(builtin("classical"), R=r)
    alg = make_minkowski(inst, 4)
    ev = make_evaluator(inst, 0)
    rng = random.Random(61)
    words = list(alg.basis_upto(2))

    def slot():
        # up to two basis words of degree <= 2, Gaussian-rational weights
        return NCPoly({rng.choice(words): Scalar(rng.randint(1, 3),
                                                 rng.randint(-1, 1))
                       for _ in range(2)})

    for n in (2, 3, 4):
        t = tensor(alg, [slot() for _ in range(n)])
        for perm in itertools.permutations(range(n)):
            assert braid_action(ev, alg, perm, t) == \
                braid_action_oracle(ev, alg, perm, t), perm
        assert symmetrize(ev, alg, t) == symmetrize_oracle(ev, alg, t)
