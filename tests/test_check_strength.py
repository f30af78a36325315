"""Every gating line can fail: a table of planted defects and failing
instances.

Each row names a gating line that run_suites prints and a way to make it
FAIL: either a planted defect, a monkeypatch of one function in src/,
under which it FAILs on a named instance, or an instance on which it
FAILs as shipped.  A planted-defect row asserts the exact set of lines,
by (suite, check), that change against the unpatched run, so a defect
that reaches further than its line, or a check that stops seeing it,
shows here.  A gating line with no failing case yet is in CANNOT_FAIL,
with its reason, and a line that only reports is ADVISORY; every line a
report prints is named in one of the four tables.
"""

import pytest

import qminkowski.braiding as braiding
import qminkowski.dirac as dirac
import qminkowski.fock as fock
import qminkowski.lorentz as lorentz
import qminkowski.minkowski as minkowski
from qminkowski.calculus import FirstOrderCalculus
from qminkowski.cli import _SUITES, run_suites
from qminkowski.exact import I, Mat, ONE, Scalar, ZERO
from qminkowski.instance import builtin
from qminkowski.qalgebra import accumulate

from shared import MOVED, twisted, z_perturbed


def classical():
    return builtin("classical")


def lines(inst, **params):
    """{(suite, check): printed line} of a whole report."""
    rep = run_suites(inst, _SUITES, **params)
    return {(s.name, c.name): c.line() for s in rep.suites for c in s.checks}


def fails(printed):
    """The (suite, check) keys of the FAIL lines among printed."""
    return {key for key, text in printed.items() if text.startswith("FAIL")}


def wrap(monkeypatch, owner, name, change):
    """Replace owner.name by a function that hands the original's result
    to change."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args: change(real(*args)))


def rq_entry_bumped(monkeypatch):
    def bump(rq):
        data = list(rq.data)
        data[1] = data[1] + ONE     # R_Q[0, 1] += 1
        return Mat(rq.rows, rq.cols, data)
    wrap(monkeypatch, braiding, "build_rq", bump)


def k_pair_doubled(monkeypatch):
    wrap(monkeypatch, fock, "_k_pair",
         lambda out: {key: c * Scalar(2) for key, c in out.items()})


def k_pair_swapped(monkeypatch):
    """K sends x0 (x) x0 to x1 (x) x1 and x1 (x) x1 to x0 (x) x0."""
    swap = {((0,), (0,)): ((1,), (1,)), ((1,), (1,)): ((0,), (0,))}
    real = fock._k_pair
    monkeypatch.setattr(
        fock, "_k_pair",
        lambda ev, alg, wp, wq: {swap[wp, wq]: ONE} if (wp, wq) in swap
        else real(ev, alg, wp, wq))


def symmetrize_doubled(monkeypatch):
    wrap(monkeypatch, fock, "symmetrize",
         lambda t: {ws: c * Scalar(2) for ws, c in t.items()})


def rq_row_zeroed(monkeypatch):
    """R_Q loses its last row (row 24), so it is singular."""
    def zeroed(rq):
        data = list(rq.data)
        data[24 * rq.cols:] = [ZERO] * rq.cols
        return Mat(rq.rows, rq.cols, data)
    wrap(monkeypatch, braiding, "build_rq", zeroed)


def metric_entry_bumped(monkeypatch):
    """g_01 += 1 in dirac.metric, which the validate, dirac and lorentz
    suites read; calculus and braiding import metric by name and keep the
    real one."""
    def bumped(g):
        data = list(g.data)
        data[1] = data[1] + ONE
        return Mat(g.rows, g.cols, data)
    wrap(monkeypatch, dirac, "metric", bumped)


def metric_entry_zeroed(monkeypatch):
    """g_33 = 0 in dirac.metric, so g is singular."""
    def zeroed(g):
        data = list(g.data)
        data[15] = ZERO
        return Mat(g.rows, g.cols, data)
    wrap(monkeypatch, dirac, "metric", zeroed)


def counit_zeroed(monkeypatch):
    monkeypatch.setattr(braiding, "counit_b", lambda p: ZERO)


def v_corner_negated(monkeypatch):
    data = list(lorentz.V.data)
    data[0] = -data[0]
    monkeypatch.setattr(lorentz, "V", Mat(4, 4, data))


def gamma0_doubled(monkeypatch):
    wrap(monkeypatch, dirac, "gamma",
         lambda gs: (gs[0].scale(Scalar(2)),) + tuple(gs[1:]))


def square_term_dropped(monkeypatch):
    real = dirac.dirac_square

    def dropped(calc, prods, w):
        prods = [list(row) for row in prods]
        prods[1][2] = []
        return real(calc, prods, w)
    monkeypatch.setattr(dirac, "dirac_square", dropped)


def exchange_transposed(monkeypatch):
    real = FirstOrderCalculus._exchanged
    monkeypatch.setattr(
        FirstOrderCalculus, "_exchanged",
        lambda self, second: [list(col)
                              for col in zip(*real(self, second))])


def wave_metric_changed(monkeypatch, change):
    """change applied to the metric terms of the wave operator only
    (FirstOrderCalculus._g_terms), not to the metric the dirac suite
    prints."""
    init = FirstOrderCalculus.__init__

    def changed(self, *args):
        init(self, *args)
        self._g_terms = change(self._g_terms)
    monkeypatch.setattr(FirstOrderCalculus, "__init__", changed)


def metric_corner_negated(monkeypatch):
    wave_metric_changed(monkeypatch, lambda terms: [
        (i, j, -g if (i, j) == (0, 0) else g) for i, j, g in terms])


def metric_term_added(monkeypatch):
    """g_02 = 1 added to the wave operator."""
    wave_metric_changed(monkeypatch, lambda terms: terms + [(0, 2, ONE)])


def partial_dropped(monkeypatch):
    """partial_3(x_3) read as 0."""
    real = FirstOrderCalculus._partials
    monkeypatch.setattr(
        FirstOrderCalculus, "_partials",
        lambda self, w: real(self, w)[:3] + ({},) if w == (3,)
        else real(self, w))


def leibniz_term_doubled(monkeypatch):
    """E_b(h a') counts its dx_h nf(a' b) term twice when b is nonempty."""
    real = FirstOrderCalculus._leibniz_e

    def doubled(self, table, a, b):
        fresh = a not in table
        hit = real(self, table, a, b)
        if fresh and a and b:
            accumulate(hit[a[0]], self.alg.word_normal_form(a[1:] + b))
        return hit
    monkeypatch.setattr(FirstOrderCalculus, "_leibniz_e", doubled)


def commutator_dropped(monkeypatch):
    """The Minkowski relations lose the rows that hold the word (0, 1)."""
    wrap(monkeypatch, minkowski, "mink_relations",
         lambda rels: [r for r in rels if (0, 1) not in r.terms])


def rq_scaled_by_i(monkeypatch):
    wrap(monkeypatch, braiding, "build_rq", lambda rq: rq.scale(I))


BRAIDED = {("fock", "k-involution"), ("fock", "braid-relation"),
           ("fock", "symmetrize-projector"), ("fock", "braided-checks")}

# (gating line, planted defect, instance, run_suites parameters,
#  every (suite, check) whose line changes, the lines that turn FAIL)
PLANTED = [
    ("yang-baxter", rq_entry_bumped, classical, {"n": 3},
     {("braiding", "yang-baxter"), ("braiding", "star-compatible"),
      ("braiding", "cotriangular"), ("fock", "cotriangular")} | BRAIDED,
     {("braiding", "yang-baxter"), ("braiding", "star-compatible")}),
    # both sides of the braid relation scale by 8, so it still holds
    ("k-involution", k_pair_doubled, classical, {"b": Scalar(0), "n": 3},
     {("fock", "k-involution"), ("fock", "symmetrize-projector")},
     {("fock", "k-involution"), ("fock", "symmetrize-projector")}),
    ("lambda-invariance", v_corner_negated, classical, {},
     {("lorentz", "lambda-invariance")},
     {("lorentz", "lambda-invariance")}),
    ("clifford", gamma0_doubled, classical, {},
     {("dirac", "clifford"), ("dirac", "dirac-square")},
     {("dirac", "clifford"), ("dirac", "dirac-square")}),
    ("dirac-square", square_term_dropped, classical, {},
     {("dirac", "dirac-square")}, {("dirac", "dirac-square")}),
    # on classical data R is symmetric, so the transpose moves nothing
    ("partial-exchange", exchange_transposed, twisted, {},
     {("calculus", "partial-exchange")},
     {("calculus", "partial-exchange")}),
    # a wrong metric in the wave operator: on classical data the partials
    # commute, so box-commutes cannot see it and only dirac-square does
    ("dirac-square", metric_corner_negated, classical, {},
     {("dirac", "dirac-square")}, {("dirac", "dirac-square")}),
    # on the twisted flip the partials do not commute, and box-commutes
    # sees an added metric term
    ("box-commutes", metric_term_added, twisted, {},
     {("calculus", "box-commutes")}, {("calculus", "box-commutes")}),
    ("differential", partial_dropped, classical, {},
     {("calculus", "differential")}, {("calculus", "differential")}),
    ("leibniz", leibniz_term_doubled, classical, {},
     {("calculus", "leibniz")}, {("calculus", "leibniz")}),
    # x_0 x_1 no longer commutes: the profile grows from degree 2 on, and
    # no calculus line moves
    ("profile", commutator_dropped, classical, {"n": 3},
     {("pbw", "profile")}, {("pbw", "profile")}),
    ("profile", commutator_dropped, twisted, {"n": 3},
     {("pbw", "profile")}, {("pbw", "profile")}),
    # Yang-Baxter is homogeneous in R_Q, so it still holds; the pairing
    # loses its conjugate-flip symmetry and is no longer cotriangular
    ("star-compatible", rq_scaled_by_i, classical, {"b": Scalar(0), "n": 3},
     {("braiding", "star-compatible"), ("braiding", "cotriangular"),
      ("fock", "cotriangular")} | BRAIDED,
     {("braiding", "star-compatible")}),
    # K stays an involution, but the braid relation breaks
    ("braid-relation", k_pair_swapped, classical, {"n": 3},
     {("fock", "braid-relation")}, {("fock", "braid-relation")}),
    ("symmetrize-projector", symmetrize_doubled, classical, {"n": 3},
     {("fock", "symmetrize-projector")}, {("fock", "symmetrize-projector")}),
    # a singular R_Q is not cotriangular, so every braided check is skipped
    ("rq-invertible", rq_row_zeroed, classical, {"n": 3},
     {("braiding", "rq-invertible"), ("braiding", "cotriangular"),
      ("fock", "cotriangular")} | BRAIDED,
     {("braiding", "rq-invertible")}),
    # no calculus line moves: calculus imports metric by name
    ("metric-symmetric", metric_entry_bumped, classical, {},
     {("validate", "metric-symmetric"), ("dirac", "metric-symmetric"),
      ("dirac", "clifford"), ("lorentz", "lambda-invariance")},
     {("validate", "metric-symmetric"), ("dirac", "metric-symmetric"),
      ("dirac", "clifford"), ("lorentz", "lambda-invariance")}),
    # the dirac metric-symmetric line prints g, so it moves but passes
    ("metric-nondegenerate", metric_entry_zeroed, classical, {},
     {("validate", "metric-nondegenerate"), ("dirac", "metric-nondegenerate"),
      ("dirac", "metric-symmetric"), ("dirac", "clifford"),
      ("lorentz", "lambda-invariance")},
     {("validate", "metric-nondegenerate"), ("dirac", "metric-nondegenerate"),
      ("dirac", "clifford"), ("lorentz", "lambda-invariance")}),
    # a coaction that drops its y (x) 1 terms would move nothing here:
    # counit(P_i4) = 0
    ("coaction-counit", counit_zeroed, classical, {"n": 3},
     {("fock", "coaction-counit")}, {("fock", "coaction-counit")}),
]


def planted_ids(rows):
    """<line>-<defect> per row, with the instance builder's name added
    where an earlier row has the same line and defect."""
    ids = []
    for line, defect, make, *_ in rows:
        name = "%s-%s" % (line, defect.__name__)
        ids.append(name + "-" + make.__name__ if name in ids else name)
    return ids


@pytest.mark.parametrize(
    "line, defect, make, params, moved, failed", PLANTED,
    ids=planted_ids(PLANTED))
def test_a_planted_defect_fails_its_line(monkeypatch, line, defect, make,
                                         params, moved, failed):
    inst = make()
    before = lines(inst, **params)
    defect(monkeypatch)
    after = lines(inst, **params)
    assert {key for key in before.keys() | after.keys()
            if before.get(key) != after.get(key)} == moved
    assert fails(after) - fails(before) == failed
    assert line in {check for _, check in failed}


# (gating line, instance, run_suites parameters, the lines that FAIL)
FAILING = [
    # the metric frame does not move with the coordinates (ROADMAP item 15)
    ("box-commutes", lambda: MOVED, {"n": 3},
     {("calculus", "box-commutes"), ("dirac", "clifford"),
      ("dirac", "dirac-square")}),
    # a Lie-type Z entry: the calculus does not exist, and the star and
    # the pairing break with it
    ("obstruction", z_perturbed, {},
     {("braiding", "star-compatible"), ("braiding", "yang-baxter"),
      ("calculus", "obstruction"), ("dirac", "dirac-square"),
      ("pbw", "star-closed")}),
    # the same instance: the Lie-type Z entry also breaks star-closure of
    # the Minkowski relations
    ("star-closed", z_perturbed, {},
     {("braiding", "star-compatible"), ("braiding", "yang-baxter"),
      ("calculus", "obstruction"), ("dirac", "dirac-square"),
      ("pbw", "star-closed")}),
]


@pytest.mark.parametrize("line, make, params, failed", FAILING,
                         ids=[row[0] for row in FAILING])
def test_an_instance_fails_its_line(line, make, params, failed):
    assert fails(lines(make(), **params)) == failed
    assert line in {check for _, check in failed}


# Gating lines that no input makes FAIL today: the reason, and the ROADMAP
# item that gives each a failing case.
CANNOT_FAIL = {
    "shapes": ("the PoincareInstance constructor raises first", 7),
    "q-sign": ("the PoincareInstance constructor raises first", 7),
    "s-sign": ("the PoincareInstance constructor raises first", 7),
    "x-invertible": ("the PoincareInstance constructor raises first", 7),
    "spinor-blocks": ("it is the constant True", 1),
}

# Lines that report and never gate a verdict: each prints as info.
ADVISORY = {"calculus-obstruction", "lambda-reality", "cotriangular",
            "braided-checks"}


@pytest.mark.parametrize("make", [classical, lambda: MOVED],
                         ids=["classical", "moved-twisted"])
def test_every_line_has_a_failing_case_or_a_reason(make):
    named = ({row[0] for row in PLANTED + FAILING} | set(CANNOT_FAIL)
             | ADVISORY)
    for (_, check), text in lines(make(), n=3).items():
        assert check in named, text
        assert (text.split()[0] == "info") == (check in ADVISORY), text
