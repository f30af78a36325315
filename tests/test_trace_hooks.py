"""The package names that perfbench's tracer wraps still exist.

perfbench/spantrace.py patches functions and methods of the package by
name, from outside it, and perfbench/selftest.py checks a few of those
sites by name.  A rename in src/ would break the benchmark without
failing any other test.  This file reads perfbench/ and changes nothing
in it.
"""

import sys

import qminkowski.calculus as calculus
import qminkowski.cli as cli
import qminkowski.exact as exact
import qminkowski.lorentz as lorentz
import qminkowski.minkowski as minkowski
import qminkowski.qalgebra as qalgebra
from qminkowski.instance import builtin

from shared import load_module

# The sites perfbench/selftest.py checks for wrap and restore, and every
# suite, whose cli.suite_s.* metric would read zero after a rename.
SITES = [
    (calculus, "kron"), (exact, "kron"),
    (minkowski, "build_quotient"), (lorentz, "build_quotient"),
    (qalgebra.TruncatedQuotient, "normal_form"), (exact.Mat, "__mul__"),
    (cli, "suite_validate"), (cli, "suite_pbw"), (cli, "suite_calculus"),
    (cli, "suite_dirac"), (cli, "suite_lorentz"), (cli, "suite_braiding"),
    (cli, "suite_fock"),
]


def spantrace():
    return load_module("spantrace", "perfbench/spantrace.py")


def bindings():
    """Every attribute of every package module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "qminkowski" or name.startswith("qminkowski."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, v in vars(value).items():
                        out[(name, key, attr)] = v
    return out


def test_tracer_wraps_and_restores_every_site():
    tracer = spantrace().Tracer()
    before = bindings()
    originals = [getattr(o, a) for o, a in SITES]
    try:
        tracer.install()
        tracer.install_scalar_counters()
        assert [(o, a) for (o, a), f in zip(SITES, originals)
                if getattr(o, a) is f] == []
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_words_checked_reads_the_calculus_algebra():
    calc = calculus.make_calculus(builtin("classical"), 3)
    assert calc.alg.dimension_profile() == [1, 4, 10, 20]
    assert spantrace()._words_checked((calc, 2), None) == 15


def test_every_suite_fills_its_metric_through_run_suites():
    tracer = spantrace().Tracer()
    try:
        tracer.install()
        cli.run_suites(builtin("classical"), cli._SUITES)
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics(1)
    assert [s for s in cli._SUITES if not metrics["cli.suite_s." + s] > 0] \
        == []
    assert metrics["lorentz.invariance_s"] > 0
    assert metrics["lorentz.reality_s"] > 0
