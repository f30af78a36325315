"""What one run shares between its suites, and what it does not share
with the next run.

Two oracles: a whole report gives, suite by suite, the results each suite
gives alone on a fresh run, and a quotient that serves a smaller cap has,
at degrees up to that cap, the basis and the word normal forms of the
quotient built at that cap.  A run computes its metric once, hands none
of it to a run on other data, and leaves nothing for the cycle collector.
"""

import contextlib
import dataclasses
import gc
import io
import itertools
import weakref

import pytest

import qminkowski.dirac as dirac
import qminkowski.minkowski as minkowski
from qminkowski.calculus import make_calculus
from qminkowski.cli import _SUITES, _render, main, run_suites
from qminkowski.exact import ONE, Scalar, flip
from qminkowski.instance import builtin
from qminkowski.minkowski import make_minkowski

from shared import MOVED, leibniz_breaking, tshift, twisted, z_perturbed


def moved():
    return MOVED


# Every completion rule of these has t-exponent 0 at caps 2-6.  The first
# two stay lambdas, so that their test ids stay <lambda>0 and <lambda>1.
EXPONENT_ZERO = [
    lambda: builtin("classical"),
    lambda: tshift(),
    twisted,
    z_perturbed,
    moved,
]


@pytest.mark.parametrize("make", EXPONENT_ZERO + [leibniz_breaking])
@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_report_matches_each_suite_alone(make, degree):
    inst = make()
    whole = run_suites(inst, _SUITES, degree=degree)
    alone = [run_suites(inst, (name,), degree=degree).suites[0]
             for name in _SUITES]
    assert whole.suites == alone


@pytest.mark.parametrize("make", EXPONENT_ZERO)
def test_a_larger_quotient_serves_every_smaller_cap(make):
    inst = make()
    quotients = {cap: make_minkowski(inst, cap) for cap in range(2, 7)}
    for big, small in itertools.combinations(range(6, 1, -1), 2):
        q, ref = quotients[big], quotients[small]
        assert q.serves(small) and not ref.serves(big)
        assert [q.basis(d) for d in range(small + 1)] == \
            [ref.basis(d) for d in range(small + 1)]
        for d in range(small + 1):
            for w in itertools.product(range(4), repeat=d):
                assert q.word_normal_form(w) == ref.word_normal_form(w), w


def test_a_positive_t_exponent_serves_no_smaller_cap():
    """leibniz_breaking() has a rule with t-exponent 3 from cap 3 on; 1
    survives at cap 3 but not at cap 4, so the second partials of x_0^3
    differ between the two calculi."""
    inst = leibniz_breaking()
    for cap in range(3, 7):
        q = make_minkowski(inst, cap)
        assert q.serves(cap)
        assert not any(q.serves(small) for small in range(2, cap))
    small, big = make_calculus(inst, 3), make_calculus(inst, 4)
    assert small.alg.dimension_profile() == [0, 4, 10, 20]
    assert big.alg.dimension_profile()[:4] == [0, 0, 10, 20]
    assert small.second_partials((0, 0, 0)) != \
        big.second_partials((0, 0, 0))


def counted(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to the
    returned list, and return the list."""
    calls, real = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, counting)
    return calls


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_a_report_evaluates_the_metric_once(monkeypatch):
    """validate, the dirac and lorentz suites, R_Q (which reads g at
    b != 0) and the wave operator share one metric."""
    calls = counted(monkeypatch, dirac, "metric")
    assert quiet_main(["report", "--builtin", "classical", "--b", "1"]) == 0
    assert len(calls) == 1


def test_no_metric_leaks_from_one_run_into_the_next():
    """Two instances with one name and different metrics (X doubled, so
    g doubles), run back to back in both orders, each give the report
    they give alone, which prints their own metric: a metric kept by
    name, per process or by id would hand the first run's to the second.
    Each run gets a new instance from data built beforehand, so the
    instance of one run is freed just before the next one is made, and
    its id is often reused."""
    base = builtin("classical")
    doubled = flip(2, 2).scale(Scalar(2))
    makers = (lambda: dataclasses.replace(base),
              lambda: dataclasses.replace(base, X=doubled))

    def report(make):
        return _render(run_suites(make(), _SUITES, b=ONE))
    alone = [report(make) for make in makers]
    assert alone[0] != alone[1]
    for make, text in zip(makers, alone):
        assert "g = %s\n" % dirac.metric(make()) in text
    for order in ((0, 1), (1, 0), (0, 1, 1, 0, 0)):
        assert [report(makers[i]) for i in order] == \
            [alone[i] for i in order]


def test_a_run_frees_its_quotient_without_the_cycle_collector(monkeypatch):
    """The calculus holds its quotient and the run holds the calculus, so
    nothing of the run refers back into it: with the collector off, the
    quotient a calculus run built is gone once main returns."""
    refs, real = [], minkowski.make_minkowski

    def keeping(inst, cap):
        alg = real(inst, cap)
        refs.append(weakref.ref(alg))
        return alg
    monkeypatch.setattr(minkowski, "make_minkowski", keeping)
    gc.collect()
    gc.disable()
    try:
        assert quiet_main(["calculus", "--builtin", "classical"]) == 0
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()
