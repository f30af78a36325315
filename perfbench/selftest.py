"""Self-test of the benchmark's checks and tracer.

    python3 perfbench/selftest.py

1. The pinned ``report`` hash holds for ``--builtin classical`` and for
   ``instances/classical.json``.
2. The tracer wraps every namespace that holds a target function and puts
   every original back on restore.
3. A traced run of each workload fills each per-layer metric where
   README.md's table says the workload reaches that layer, and leaves it
   exactly zero where it says the workload does not.

Exits 0 when everything holds; prints one line per failed expectation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import run
import spantrace
import workloads

sys.path.insert(0, run.SRC)

# Per-layer metrics that must be exactly zero on each workload; every other
# metric must be positive.
ZERO = {
    "report-mix": set(),
    "calculus-deep": {
        "cli.suite_s.validate", "cli.suite_s.pbw", "cli.suite_s.lorentz",
        "cli.suite_s.braiding", "cli.suite_s.fock",
        "minkowski.star_closed_s", "lorentz.invariance_s",
        "lorentz.reality_s", "braiding.build_rq_s", "braiding.rq_inverse_s",
        "braiding.yang_baxter_s", "braiding.star_cqt_s", "braiding.ct_s",
        "braiding.r_word_calls", "fock.coaction_s", "fock.interchange_s",
        "fock.symmetrize_s",
    },
    "dense-random": {
        "cli.suite_s.calculus", "cli.suite_s.dirac", "cli.suite_s.lorentz",
        "cli.suite_s.fock", "calculus.check_s.differential",
        "calculus.check_s.leibniz", "calculus.check_s.partial_exchange",
        "calculus.check_s.box_commutes", "calculus.partial_calls",
        "qalgebra.basis_words",  # the quotient collapses: profile all 0
        "calculus.words_checked", "dirac.clifford_s", "dirac.square_check_s",
        "lorentz.invariance_s", "lorentz.reality_s", "fock.coaction_s",
        "fock.interchange_s", "fock.symmetrize_s",
    },
}


def check_pinned_report(cli):
    problems = []
    for argv in (["report", "--builtin", "classical"],
                 ["report", os.path.join(run.ROOT, "instances",
                                         "classical.json")]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if rc != 0 or digest != workloads.REPORT_CLASSICAL:
            problems.append("%s: exit %d, sha256 %s" % (" ".join(argv), rc,
                                                          digest))
    return problems


def check_restore():
    import qminkowski.calculus as calculus
    import qminkowski.exact as exact
    import qminkowski.lorentz as lorentz
    import qminkowski.minkowski as minkowski
    import qminkowski.qalgebra as qalgebra

    sites = [(calculus, "kron"), (exact, "kron"),
             (minkowski, "build_quotient"), (lorentz, "build_quotient"),
             (qalgebra.TruncatedQuotient, "normal_form"),
             (exact.Mat, "__mul__")]
    before = [getattr(o, a) for o, a in sites]
    tracer = spantrace.Tracer()
    tracer.install()
    problems = ["%s.%s not wrapped" % (getattr(o, "__name__", o), a)
                for (o, a), f in zip(sites, before) if getattr(o, a) is f]
    tracer.restore()
    problems += ["%s.%s not restored" % (getattr(o, "__name__", o), a)
                 for (o, a), f in zip(sites, before) if getattr(o, a) is not f]
    return problems


def check_layers(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         name, "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != 0:
        return ["%s: traced run exited %d: %s" % (name, proc.returncode,
                                                  proc.stderr[-500:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = [] if result["correct"] else ["%s: wrong answers" % name]
    metrics = result["metrics"]
    for metric in spantrace.metric_names():
        value = metrics[metric]["value"]
        want_zero = metric in ZERO[name]
        if want_zero != (value == 0):
            problems.append("%s: %s = %r, expected %s" % (
                name, metric, value, "zero" if want_zero else "positive"))
    return problems


def main():
    cli = run.load_package()
    problems = check_pinned_report(cli) + check_restore()
    for name in workloads.WORKLOADS:
        problems += check_layers(name)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAIL" if problems else "pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
