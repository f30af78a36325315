"""Time the instance loader and the Scalar, Mat, quotient, calculus, Dirac,
Lorentz, pairing and Fock layers: the best CPU time of N in-process runs.

    PYTHONPATH=src python3 bench/layers.py --reps 7 [--case NAME ...]

The cases are the Minkowski quotient of the perfbench dense instances
(``perfbench/instances.py``, seeds 11-13, entry density 0.3) at caps 3-5,
named ``mink-dense<seed>-cap<c>``, the Minkowski quotient of
``instances/moved-twisted.json`` (a dense R whose quotient, unlike theirs,
does not collapse) at caps 4-6, ``mink-moved-cap<c>``, and the classical
Lorentz quotient at caps 2, 4, 5 and 6, named ``lorentz-cap<c>``, each
timed as completion plus basis (the basis is built on first read, and
the timed call reads it through dimension_profile, as pbw does); the
inverse of the 25x25 R_Q of the perfbench dense instances at b = 1, named
``rq-inverse-dense<seed>``, and of the classical instance at b = 0,
``rq-inverse-classical``; a fresh classical FirstOrderCalculus at cap 5
and its four identity checks, ``calculus-classical-deg5``, and
check_leibniz(5) on a fresh calculus of a perfbench imag-shift instance
whose check_differential_consistency(5) has run, ``leibniz-imag-deg5``;
check_differential_consistency(5) on a fresh calculus of that instance,
which fills d and the partials, ``differential-imag-deg5``;
check_partial_exchange(5) on a fresh calculus of that instance, which
fills the partials and the second-partial table,
``partial-exchange-imag-deg5``; check_box_commutes(5) alone on a fresh
classical calculus, where box fills each word's second partials,
``box-commutes-classical-deg5``; the cold
word normal forms of every word that the four checks of its degree-5
calculus read, asked in first-read order of a fresh cap-5 quotient,
``normal-forms-imag-deg5``; the classical 64x4 obstruction f_tilde,
``f-tilde-classical``;
dirac_square_check at degree 4 on a fresh classical calculus at cap 4,
``dirac-square-classical-deg4``; the classical lambda_invariance_check
on a Lorentz quotient built at cap 4 in the timed call,
``lambda-invariance-classical``; the lorentz suite alone through
run_suites on the classical instance, ``lorentz-suite-classical``; all
seven suites through run_suites on the classical instance, as ``report
--builtin classical`` runs them, ``report-classical``, and at
``--degree 2``, where the fock suite's cap-4 quotient serves pbw,
calculus and dirac at their smaller caps, ``report-classical-deg2``; the
dirac suite on a run whose calculus suite has run in the set-up, so that
it reads the second partials that suite filled,
``dirac-suite-after-calculus-classical``; the classical metric,
``metric-classical``; clifford_check on the instance's own gammas and
metric, classical and of the dense seed-11 instance,
``clifford-classical`` and ``clifford-dense11``; mink_relations of the
dense seed-11 instance, whose R - 1 and products with Z and T it forms,
``mink-relations-dense11``; the fock suite at --n 4 on the classical
instance at b = 0, the one braided path of the benchmark (K, the braid
relation and symmetrize up to four slots), on a cap-4 quotient and an
evaluator built in the set-up, ``fock-suite-classical-n4``;
star_cqt_check on a fresh evaluator of the classical instance at b = 0,
where the check passes and reads all 441 pairings of the entries of P,
``star-cqt-classical``; and star_cqt_check on a fresh evaluator of the
dense seed-11 instance at b = 1, ``star-cqt-dense11``, which stops at
the first asymmetric pair after a handful of pairings and so sits near
the timer's resolution: it stays because it is what the dense braiding
op of the benchmark runs; r_word on every pair of a letter and a
length-2 word, in both orders, on a fresh evaluator of the dense seed-11
instance at b = 1, ``r-word-words-dense11``, the one case that enters
the word recursion of the pairing (no suite pairs more than letters);
load_instance on ``instances/classical.json`` (read, JSON parse and
every check, as each benchmark op loads its file), ``load-classical``;
instance_from_dict on the perfbench dense seed-11 document, already
parsed, ``load-dense11``: 360 matrix literals each, 3 and 7 of them
distinct; every sum and every product of two nonzero entries of the dense
seed-11 R, ``scalar-ops-dense11``; the Mat products R R and R Z of that
instance, ``mat-mul-dense11``; and, on the classical instance, the
kron(E, tau E) that metric forms and R (x) 1_4, ``kron-classical``.
Each case has a set-up that runs, untimed, before every rep and returns
the call to time, so no rep reads what an earlier one memoised.  Each
quotient case (``mink-dense*``, ``mink-moved-*`` and ``lorentz-cap*``)
also runs once untimed with its completion counted: the rewriting steps
(the ``_match`` calls that find a rule) and the walked words (the
``_walk`` calls: each word of a degree's items that the degree's memo
lacks when completion asks for it), which timer noise cannot hide.  One
JSON line goes to stdout: the Python version, N, each case's seconds,
and the counts as ``"steps": {case: [steps, walked words]}``.  The
package is imported from PYTHONPATH, so pointing it at another
checkout's ``src`` times that checkout on the same cases.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import itertools
import json
import os
import random
import sys
import time

from qminkowski import cli
from qminkowski.braiding import build_rq, make_evaluator, star_cqt_check
from qminkowski.calculus import FirstOrderCalculus, f_tilde
from qminkowski.dirac import clifford_check, dirac_square_check, gamma, \
    metric
from qminkowski.exact import Mat, ONE, ZERO, flip, kron
from qminkowski.instance import builtin, instance_from_dict, load_instance
from qminkowski.lorentz import lambda_invariance_check, lorentz_relations, \
    make_lorentz
from qminkowski.minkowski import make_minkowski, mink_relations
from qminkowski.qalgebra import TruncatedQuotient

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH = os.path.join(ROOT, "perfbench", "instances.py")
MOVED = os.path.join(ROOT, "instances", "moved-twisted.json")
CLASSICAL = os.path.join(ROOT, "instances", "classical.json")
DENSE_SEEDS = (11, 12, 13)
DENSE_DENSITY = 0.3     # perfbench's dense-random entry density
IMAG_SEED = 5
QUOTIENT_CASES = ("mink-dense", "mink-moved-", "lorentz-cap")


def perfbench_instances():
    spec = importlib.util.spec_from_file_location("perfbench_instances",
                                                  PERFBENCH)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def dense_doc(seed):
    return perfbench_instances().dense("dense%d" % seed, random.Random(seed),
                                       DENSE_DENSITY)


def dense_instance(seed):
    return instance_from_dict(dense_doc(seed))


def imag_instance():
    """Two imaginary central shifts with fractional values."""
    doc = perfbench_instances().imag_shift("imag", random.Random(IMAG_SEED),
                                           2, True)
    return instance_from_dict(doc)


def calculus_checks(inst, cap):
    def call():
        calc = FirstOrderCalculus(inst, make_minkowski(inst, cap))
        for check in (calc.check_differential_consistency,
                      calc.check_leibniz, calc.check_partial_exchange,
                      calc.check_box_commutes):
            check(cap)
    return call


def read_words(inst, cap):
    """The distinct words, in first-read order, whose normal forms the
    four identity checks of a cap-`cap` calculus of inst ask of its
    quotient, recorded by wrapping TruncatedQuotient.word_normal_form
    while they run."""
    read, word_nf = {}, TruncatedQuotient.word_normal_form

    def recording(self, w):
        read[w] = None
        return word_nf(self, w)

    TruncatedQuotient.word_normal_form = recording
    try:
        calculus_checks(inst, cap)()
    finally:
        TruncatedQuotient.word_normal_form = word_nf
    return list(read)


def word_normal_forms(alg, words):
    for w in words:
        alg.word_normal_form(w)


def cold_normal_forms(inst, cap):
    """The words a cap-`cap` calculus reads, normalised on a fresh
    quotient."""
    return functools.partial(word_normal_forms, make_minkowski(inst, cap),
                             read_words(inst, cap))


def one_check(inst, cap, name):
    """The identity check `name` at degree cap on a fresh calculus."""
    calc = FirstOrderCalculus(inst, make_minkowski(inst, cap))
    return functools.partial(getattr(calc, name), cap)


def leibniz_after_differential(inst, cap):
    calc = FirstOrderCalculus(inst, make_minkowski(inst, cap))
    calc.check_differential_consistency(cap)
    return lambda: calc.check_leibniz(cap)


def dirac_square(inst, cap):
    calc = FirstOrderCalculus(inst, make_minkowski(inst, cap))
    gs = gamma(inst)
    return lambda: dirac_square_check(calc, gs, cap)


def lambda_invariance(inst, cap):
    g = metric(inst)
    return lambda: lambda_invariance_check(make_lorentz(inst, cap), g)


def lorentz_suite(inst):
    return lambda: cli.run_suites(inst, ("lorentz",))


def report(inst, degree=4):
    return lambda: cli.run_suites(inst, cli._SUITES, degree=degree)


def dirac_after_calculus(inst):
    """The dirac suite on a run whose calculus suite ran here."""
    run = cli._Run(inst, degree=4, dirac_degree=3, b=ZERO, k=ONE, n=2,
                   cap=4)
    cli.suite_calculus(run)
    return functools.partial(cli.suite_dirac, run)


def fock_suite(inst, n):
    """The fock suite on a quotient and an evaluator built here."""
    run = cli._Run(inst, degree=4, dirac_degree=3, b=ZERO, k=ONE, n=n,
                   cap=4)
    run.quotient(4)
    run.evaluator
    return lambda: cli.suite_fock(run)


def clifford(inst):
    """clifford_check on the instance's own gammas and metric."""
    return functools.partial(clifford_check, inst, gamma(inst), metric(inst))


def scalar_ops(values):
    """Every sum and every product of two of values."""
    def call():
        for a in values:
            for b in values:
                a + b
                a * b
    return call


def mat_products(inst):
    return lambda: (inst.R * inst.R, inst.R * inst.Z)


def krons(inst):
    """kron(E, tau E), as metric forms it, and R (x) 1_4."""
    tau_e, i4 = flip(2, 2) * inst.E, Mat.identity(4)
    return lambda: (kron(inst.E, tau_e), kron(inst.R, i4))


def profile(gens, relations, cap):
    return TruncatedQuotient(gens, relations, cap).dimension_profile()


def quotient(gens, relations, cap):
    """Completion plus basis: the quotient builds its basis on first read,
    so the timed call reads it, as pbw does."""
    return functools.partial(profile, gens, relations, cap)


def word_pairings(ev):
    """r_word on every letter and length-2 word, in both orders."""
    def call():
        for a in range(20):
            for w in itertools.product(range(20), repeat=2):
                ev.r_word((a,), w)
                ev.r_word(w, (a,))
    return call


def rewriting(gens, relations, cap):
    """[rewriting steps, walked words] of one completion, counted by
    wrapping TruncatedQuotient._match and _walk while it runs."""
    counts = [0, 0]
    match, walk = TruncatedQuotient._match, TruncatedQuotient._walk

    def counted_match(self, w, slack):
        found = match(self, w, slack)
        counts[0] += found is not None
        return found

    def counted_walk(self, w, top, memo):
        counts[1] += 1
        return walk(self, w, top, memo)

    TruncatedQuotient._match = counted_match
    TruncatedQuotient._walk = counted_walk
    try:
        TruncatedQuotient(gens, relations, cap)
    finally:
        TruncatedQuotient._match, TruncatedQuotient._walk = match, walk
    return counts


def cases():
    """{name: set-up} in a fixed order; a set-up returns the call to time
    and runs again before every rep."""
    out = {}
    for seed in DENSE_SEEDS:
        for cap in (3, 4, 5):
            out["mink-dense%d-cap%d" % (seed, cap)] = (
                lambda seed=seed, cap=cap: quotient(
                    4, mink_relations(dense_instance(seed)), cap))
    for cap in (4, 5, 6):
        out["mink-moved-cap%d" % cap] = lambda cap=cap: quotient(
            4, mink_relations(load_instance(MOVED)), cap)
    for cap in (2, 4, 5, 6):
        out["lorentz-cap%d" % cap] = lambda cap=cap: quotient(
            8, lorentz_relations(builtin("classical")), cap)
    for seed in DENSE_SEEDS:
        out["rq-inverse-dense%d" % seed] = (
            lambda seed=seed: build_rq(dense_instance(seed), ONE).inverse)
    out["rq-inverse-classical"] = (
        lambda: build_rq(builtin("classical"), ZERO).inverse)
    out["calculus-classical-deg5"] = (
        lambda: calculus_checks(builtin("classical"), 5))
    out["leibniz-imag-deg5"] = (
        lambda: leibniz_after_differential(imag_instance(), 5))
    out["normal-forms-imag-deg5"] = (
        lambda: cold_normal_forms(imag_instance(), 5))
    out["differential-imag-deg5"] = lambda: one_check(
        imag_instance(), 5, "check_differential_consistency")
    out["partial-exchange-imag-deg5"] = lambda: one_check(
        imag_instance(), 5, "check_partial_exchange")
    out["box-commutes-classical-deg5"] = lambda: one_check(
        builtin("classical"), 5, "check_box_commutes")
    out["f-tilde-classical"] = (
        lambda: functools.partial(f_tilde, builtin("classical")))
    out["dirac-square-classical-deg4"] = (
        lambda: dirac_square(builtin("classical"), 4))
    out["lambda-invariance-classical"] = (
        lambda: lambda_invariance(builtin("classical"), 4))
    out["lorentz-suite-classical"] = (
        lambda: lorentz_suite(builtin("classical")))
    out["report-classical"] = lambda: report(builtin("classical"))
    out["report-classical-deg2"] = lambda: report(builtin("classical"), 2)
    out["dirac-suite-after-calculus-classical"] = (
        lambda: dirac_after_calculus(builtin("classical")))
    out["metric-classical"] = lambda: lambda: metric(builtin("classical"))
    out["clifford-classical"] = lambda: clifford(builtin("classical"))
    out["clifford-dense11"] = lambda: clifford(dense_instance(11))
    out["mink-relations-dense11"] = lambda: functools.partial(
        mink_relations, dense_instance(11))
    out["fock-suite-classical-n4"] = (
        lambda: fock_suite(builtin("classical"), 4))
    out["star-cqt-classical"] = lambda: functools.partial(
        star_cqt_check, make_evaluator(builtin("classical"), ZERO))
    out["star-cqt-dense11"] = lambda: functools.partial(
        star_cqt_check, make_evaluator(dense_instance(11), ONE))
    out["r-word-words-dense11"] = lambda: word_pairings(
        make_evaluator(dense_instance(11), ONE))
    out["load-classical"] = lambda: functools.partial(load_instance,
                                                      CLASSICAL)
    out["load-dense11"] = lambda: functools.partial(instance_from_dict,
                                                    dense_doc(11))
    out["scalar-ops-dense11"] = lambda: scalar_ops(
        [c for _, _, c in dense_instance(11).R.nonzeros()])
    out["mat-mul-dense11"] = lambda: mat_products(dense_instance(11))
    out["kron-classical"] = lambda: krons(builtin("classical"))
    return out


def best_time(setup, reps):
    times = []
    for _ in range(reps):
        call = setup()
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return min(times)


def main(argv=None):
    known = cases()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--case", action="append", choices=sorted(known),
                    help="time only this case (repeatable; default all)")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    seconds, steps = {}, {}
    for name in args.case or known:
        seconds[name] = round(best_time(known[name], args.reps), 6)
        if name.startswith(QUOTIENT_CASES):
            steps[name] = rewriting(*known[name]().args)
    print(json.dumps({"python": sys.version.split()[0], "reps": args.reps,
                      "cpu_s": seconds, "steps": steps}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
