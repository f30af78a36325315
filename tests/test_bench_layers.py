"""bench/layers.py times the cases it is asked for and prints one JSON line."""

import contextlib
import io
import json

import pytest

from qminkowski import calculus, cli, dirac, minkowski
from qminkowski.instance import builtin
from qminkowski.qalgebra import TruncatedQuotient

from shared import load_module


def layers():
    return load_module("bench_layers", "bench/layers.py")


@pytest.fixture(scope="module")
def every_case():
    """The JSON of one run of main(["--reps", "1"]) over every case, shared
    by the one-rep tests below."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert layers().main(["--reps", "1"]) == 0
    return json.loads(out.getvalue())


def one_rep(doc, *names):
    for name in names:
        assert doc["cpu_s"][name] > 0


def test_one_rep_of_one_case(capsys):
    assert layers().main(["--reps", "1", "--case", "mink-dense11-cap3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reps"] == 1
    assert list(doc["cpu_s"]) == ["mink-dense11-cap3"]
    assert doc["cpu_s"]["mink-dense11-cap3"] > 0


def test_quotient_cases_count_their_rewriting(capsys):
    """One untimed completion of dense seed 11 at cap 3 takes 16 rewriting
    steps and walks 16 words; a case that builds no quotient has none,
    and the counted methods are put back."""
    methods = TruncatedQuotient._match, TruncatedQuotient._walk
    assert layers().main(["--reps", "1", "--case", "mink-dense11-cap3",
                          "--case", "metric-classical"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"] == {"mink-dense11-cap3": [16, 16]}
    assert (TruncatedQuotient._match, TruncatedQuotient._walk) == methods


# [rewriting steps, walked words] of each quotient case.  Completion works
# through each degree against the rules of lower degrees alone, so the
# order in which a degree's relations and ambiguities are resolved no
# longer reaches the rules, nor the steps (one per reducible word that a
# degree's memo takes in); the walked words, those of a degree's items
# that its memo lacks when they are asked, do follow that order.
QUOTIENT_STEPS = {
    "mink-dense11-cap3": [16, 16], "mink-dense11-cap4": [21, 21],
    "mink-dense11-cap5": [26, 26], "mink-dense12-cap3": [16, 16],
    "mink-dense12-cap4": [21, 21], "mink-dense12-cap5": [26, 26],
    "mink-dense13-cap3": [16, 16], "mink-dense13-cap4": [21, 21],
    "mink-dense13-cap5": [26, 26], "mink-moved-cap4": [93, 43],
    "mink-moved-cap5": [281, 121], "mink-moved-cap6": [773, 280],
    "lorentz-cap2": [0, 0], "lorentz-cap4": [228, 123],
    "lorentz-cap5": [228, 123], "lorentz-cap6": [228, 123],
}


def test_one_rep_of_every_case(every_case):
    """One rep times every case above 0, and counts the rewriting of
    exactly the quotient cases: mink-relations-dense11 is named mink-*
    but builds no quotient."""
    doc = every_case
    assert doc["reps"] == 1
    assert list(doc["cpu_s"]) == list(layers().cases())
    assert all(seconds > 0 for seconds in doc["cpu_s"].values())
    assert set(doc["steps"]) == set(QUOTIENT_STEPS)


def test_one_rep_of_the_clifford_and_relation_cases(every_case):
    one_rep(every_case, "clifford-classical", "clifford-dense11",
            "mink-relations-dense11")
    # a case named mink-* that builds no quotient counts no completion
    assert "mink-relations-dense11" not in every_case["steps"]


def test_one_rep_of_the_word_pairing_case(every_case):
    one_rep(every_case, "r-word-words-dense11")


def test_one_rep_of_an_inverse_case(every_case):
    one_rep(every_case, "rq-inverse-dense11")


def test_one_rep_of_a_calculus_case(every_case):
    one_rep(every_case, "leibniz-imag-deg5")


def test_one_rep_of_the_differential_and_f_tilde_cases(every_case):
    one_rep(every_case, "differential-imag-deg5", "f-tilde-classical")


def test_one_rep_of_the_dirac_square_case(every_case):
    one_rep(every_case, "dirac-square-classical-deg4")


def test_one_rep_of_the_lorentz_suite_case(every_case):
    one_rep(every_case, "lorentz-suite-classical")


def test_one_rep_of_the_report_case(every_case):
    one_rep(every_case, "report-classical")


def test_one_rep_of_each_load_case(every_case):
    one_rep(every_case, "load-classical", "load-dense11")


def test_one_rep_of_the_metric_case(every_case):
    one_rep(every_case, "metric-classical")


def test_one_rep_of_the_fock_suite_case(every_case):
    one_rep(every_case, "fock-suite-classical-n4")


def test_one_rep_of_the_star_cqt_case(every_case):
    one_rep(every_case, "star-cqt-dense11")


def test_quotient_cases_keep_their_rewriting_counts():
    mod = layers()
    known = mod.cases()
    assert {name for name in known
            if name.startswith(mod.QUOTIENT_CASES)} == set(QUOTIENT_STEPS)
    assert {name: mod.rewriting(*known[name]().args)
            for name in QUOTIENT_STEPS} == QUOTIENT_STEPS


def test_normal_forms_case_reads_cold_normal_forms():
    method = TruncatedQuotient.word_normal_form
    call = layers().cases()["normal-forms-imag-deg5"]()
    assert TruncatedQuotient.word_normal_form is method
    alg, words = call.args
    # 271 distinct words, 201 of them outside the basis
    assert not alg._memo and len(set(words)) == len(words) == 271
    assert len(set(words) - set(alg.basis_upto(5))) == 201
    call()
    assert set(words) <= set(alg._memo)


def test_degree_2_report_case_passes_every_suite():
    rep = layers().cases()["report-classical-deg2"]()()
    assert rep.passed and [s.name for s in rep.suites] == list(cli._SUITES)
    assert "[1, 4, 10]" in rep.suites[1].checks[0].detail


def test_dirac_suite_case_reads_the_calculus_suite_calculus(monkeypatch):
    """The timed dirac suite passes and builds no quotient and no calculus
    of its own: it reads, at degree 3, the calculus that the run's one
    cap-4 quotient keeps in its memos."""
    call = layers().cases()["dirac-suite-after-calculus-classical"]()
    run = call.args[0]
    assert list(run.quotients) == [4]
    alg = run.quotients[4]
    calc = alg.memos["calculus"]
    assert calc.alg is alg
    read, square = [], dirac.dirac_square_check

    def reading(calc, gs, n):
        read.append((calc, n))
        return square(calc, gs, n)
    monkeypatch.setattr(dirac, "dirac_square_check", reading)
    # a build, or a second look for the obstruction, would call None
    monkeypatch.setattr(calculus, "FirstOrderCalculus", None)
    monkeypatch.setattr(calculus, "obstruction", None)
    monkeypatch.setattr(minkowski, "make_minkowski", None)
    assert [c.passed for c in call()] == [True] * 4
    assert read == [(calc, 3)]
    assert run.quotients == {4: alg} and alg.memos["calculus"] is calc


def test_load_cases_build_their_instances():
    cases = layers().cases()
    assert cases["load-classical"]().args[0].endswith("classical.json")
    assert cases["load-classical"]()() == builtin("classical")
    assert cases["load-dense11"]()().name == "dense11"


def test_classical_star_cqt_case_reads_every_pairing():
    call = layers().cases()["star-cqt-classical"]()
    assert call() is True
    assert len(call.args[0]._memo) == 441


def test_fock_suite_case_passes_every_check():
    checks = layers().cases()["fock-suite-classical-n4"]()()
    assert [c.name for c in checks if c.passed and not c.advisory] == [
        "coaction-counit", "k-involution", "braid-relation",
        "symmetrize-projector"]


def test_quotient_cases_read_the_basis():
    quotient = layers().cases()["lorentz-cap2"]()
    assert quotient() == [1, 8, 34]


def test_cases_and_reps_are_checked(capsys):
    mod = layers()
    assert {"mink-dense13-cap5", "lorentz-cap6", "rq-inverse-dense13",
            "rq-inverse-classical", "calculus-classical-deg5",
            "leibniz-imag-deg5", "normal-forms-imag-deg5",
            "differential-imag-deg5", "partial-exchange-imag-deg5",
            "box-commutes-classical-deg5", "f-tilde-classical",
            "dirac-square-classical-deg4",
            "lambda-invariance-classical",
            "lorentz-suite-classical", "report-classical",
            "report-classical-deg2",
            "dirac-suite-after-calculus-classical", "metric-classical",
            "clifford-classical", "clifford-dense11",
            "mink-relations-dense11",
            "fock-suite-classical-n4", "star-cqt-classical",
            "star-cqt-dense11", "r-word-words-dense11", "load-classical",
            "load-dense11", "scalar-ops-dense11", "mat-mul-dense11",
            "kron-classical"} <= set(mod.cases())
    for argv in (["--reps", "0"], ["--case", "lorentz-cap3"]):
        with pytest.raises(SystemExit) as exc:
            mod.main(argv)
        assert exc.value.code == 2
    assert capsys.readouterr().out == ""
