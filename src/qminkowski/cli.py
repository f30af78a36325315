"""Command line interface.

Every subcommand loads an instance (from a file argument or --builtin),
runs one named suite of checks and prints one line per check.  Every
suite is built here, as a list of CheckResult records, and one rule
(gating_passed) decides every verdict: a suite passes when each of its
non-advisory checks passes, and the run passes when every suite does.
Advisory checks print as "info" lines and never gate.  Exit status: 0
when the run passes, 1 when it fails, 2 on input problems.  Output
contains no timestamps or timings, so identical inputs produce identical
bytes.

Every suite takes one argument, the _Run that one run_suites call owns
and that dies with the call (nothing computed from an instance is cached
at module level).  It holds the instance, the parameters (degree,
dirac_degree, b, k, n), the pairing evaluator, built once since b is
fixed per run, the calculus obstruction, read once by validate and by
the calculus and dirac suites before they build anything, and one
sharing rule for the Minkowski quotient: the run first builds the one
at the largest cap its suites read, and a suite reads it at every cap
it serves (TruncatedQuotient.serves: every completion rule has
t-exponent 0), else one built at its own cap.  A calculus is built
straight over its quotient and kept in the run's calculi, keyed by that
quotient, so the dirac suite reads the second partials the calculus
suite filled, and the quotient, which the calculus holds, holds nothing
of the run: both are freed by reference counting when the run returns.
The metric is computed once per run, on its first read
(dirac.metric_of keeps it in the instance's memos), and validate, the
dirac and lorentz suites, R_Q and the calculus read that one.  Each
is built through its module attribute (calculus.obstruction,
calculus.FirstOrderCalculus, minkowski.make_minkowski,
braiding.make_evaluator, dirac.metric), so a tracer that wraps those
names sees every build.  The argument parser is built on the first main
call and reused by every later one in the process.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product

from . import braiding, calculus, dirac, fock, lorentz, minkowski
from .errors import ConstraintError, ParseError, QMinkError
from .exact import Scalar, is_sign, parse_scalar
from .instance import builtin, builtin_names, load_instance
from .qalgebra import NCPoly, accumulate

__all__ = ["main", "run_suites", "Report", "SuiteResult", "CheckResult",
           "gating_passed"]


@dataclass
class CheckResult:
    """One named check.  An advisory check reports but never gates."""

    name: str
    passed: bool
    detail: str
    advisory: bool = False

    def line(self) -> str:
        tag = "info" if self.advisory else ("pass" if self.passed else "FAIL")
        return "%s %s: %s" % (tag.ljust(4), self.name, self.detail)


def gating_passed(checks) -> bool:
    """The one gating rule: every non-advisory check passed."""
    return all(c.passed for c in checks if not c.advisory)


@dataclass
class SuiteResult:
    name: str
    checks: list

    @property
    def passed(self) -> bool:
        return gating_passed(self.checks)


@dataclass
class Report:
    instance: str
    suites: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "suites": [{"name": s.name, "pass": s.passed,
                        "details": [c.line() for c in s.checks]}
                       for s in self.suites],
            "pass": self.passed,
        }


@dataclass
class _Run:
    """One run's inputs, obstruction and shared objects (module doc)."""
    inst: object
    degree: int
    dirac_degree: int
    b: Scalar
    k: Scalar
    n: int
    cap: int  # the largest Minkowski cap the run's suites read
    quotients: dict = field(default_factory=dict)  # cap -> one built there
    calculi: dict = field(default_factory=dict)  # quotient -> its calculus

    def quotient(self, cap: int):
        """The quotient at the run's cap when it serves cap, else the one
        at cap; each is built on its first read."""
        for c in (self.cap, cap):
            if c not in self.quotients:
                self.quotients[c] = minkowski.make_minkowski(self.inst, c)
            if self.quotients[c].serves(cap):
                return self.quotients[c]

    @cached_property
    def obstruction(self):
        """The calculus obstruction's witness text, or None."""
        return calculus.obstruction(self.inst)

    def calculus(self, cap: int):
        """The calculus over quotient(cap), kept in calculi.  Unchecked: a
        suite reads obstruction first."""
        alg = self.quotient(cap)
        calc = self.calculi.get(alg)
        if calc is None:
            calc = self.calculi[alg] = calculus.FirstOrderCalculus(
                self.inst, alg)
        return calc

    @cached_property
    def evaluator(self):
        return braiding.make_evaluator(self.inst, self.b)


def suite_validate(run: _Run) -> list:
    """The structural checks.  A nonzero calculus obstruction is advisory:
    the algebra itself is still usable, only the differential layer is
    unavailable."""
    inst = run.inst
    det_x = inst.X.det()
    g = dirac.metric_of(inst)
    sym = g.conj_t() == g
    det_g = g.det()
    ft_zero = run.obstruction is None
    return [
        CheckResult("shapes", True, "E 4x1, Eprime 1x4, X 4x4, R 16x16, "
                                    "Z 16x4, T 16x1"),
        CheckResult("q-sign", is_sign(inst.q), "q = %r" % inst.q),
        CheckResult("s-sign", is_sign(inst.s), "s = %r" % inst.s),
        CheckResult("x-invertible", det_x != 0, "det X = %r" % det_x),
        CheckResult("metric-symmetric", sym, "conj(g_ij) == g_ji" if sym
                    else "conjugate symmetry fails"),
        CheckResult("metric-nondegenerate", det_g != 0,
                    "det g = %r" % det_g),
        CheckResult("calculus-obstruction", ft_zero,
                    "obstruction matrix vanishes" if ft_zero
                    else "obstruction matrix is nonzero; differential "
                         "layer unavailable", advisory=True),
    ]


def suite_pbw(run: _Run) -> list:
    alg = run.quotient(run.degree)
    ok, profile = minkowski.pbw_check(alg, run.degree)
    return [
        CheckResult("profile", ok, "%s vs classical %s"
                    % (profile, minkowski.expected_profile(run.degree))),
        CheckResult("star-closed", minkowski.star_closed(alg),
                    "relation ideal stable under star"),
    ]


def _witnessed(name: str, witness, detail: str) -> CheckResult:
    """A check that passes when its witness is None and otherwise names it."""
    if witness is not None:
        detail += "; fails at " + witness
    return CheckResult(name, witness is None, detail)


def suite_calculus(run: _Run) -> list:
    degree = run.degree
    if run.obstruction is not None:
        return [CheckResult("obstruction", False, run.obstruction)]
    calc = run.calculus(degree)
    checks = [CheckResult("obstruction", True, "obstruction matrix is zero")]
    for name, fn in (("differential", calc.check_differential_consistency),
                     ("leibniz", calc.check_leibniz),
                     ("partial-exchange", calc.check_partial_exchange),
                     ("box-commutes", calc.check_box_commutes)):
        checks.append(_witnessed(name, fn(degree), "degree <= %d" % degree))
    return checks


def suite_dirac(run: _Run) -> list:
    inst, degree = run.inst, run.dirac_degree
    g = dirac.metric_of(inst)
    det_g = g.det()
    checks = [
        CheckResult("metric-symmetric", g.conj_t() == g,
                    "g = %s" % g),
        CheckResult("metric-nondegenerate", det_g != 0,
                    "det g = %r" % det_g),
    ]
    gs = dirac.gamma(inst)
    cl = dirac.clifford_ok(inst, gs, g)
    checks.append(CheckResult("clifford", cl, "all 16 residuals zero"
                              if cl else "nonzero residual"))
    if run.obstruction is not None:
        return checks + [CheckResult(
            "dirac-square", False,
            "calculus unavailable (nonzero obstruction)")]
    return checks + [_witnessed(
        "dirac-square",
        dirac.dirac_square_check(run.calculus(degree), gs, degree),
        "square equals wave operator, degree <= %d" % degree)]


def suite_lorentz(run: _Run) -> list:
    inst = run.inst
    alg = lorentz.make_lorentz(inst, 4)
    inv = lorentz.lambda_invariance_check(alg, dirac.metric_of(inst))
    real = lorentz.lambda_reality_diagnostic(alg)
    return [
        _witnessed("lambda-invariance", inv,
                   "Lambda g Lambda^T = g at degree 4"),
        CheckResult("lambda-reality", real, "star fixes Lambda entrywise"
                    if real else "star moves some Lambda entry",
                    advisory=True),
    ]


def suite_braiding(run: _Run) -> list:
    ev = run.evaluator
    try:
        ev.rq_inverse()
        rq_inv_ok = True
    except ConstraintError:
        rq_inv_ok = False
    checks = [
        CheckResult("rq-invertible", rq_inv_ok, "25x25 extended matrix"),
        CheckResult("yang-baxter", braiding.yang_baxter_check(ev.rq),
                    "braid identity for R_Q"),
        CheckResult("star-compatible", braiding.star_cqt_check(ev),
                    "conjugate-flip symmetry of the pairing"),
    ]
    ct = ev.is_cotriangular()
    checks.append(CheckResult("cotriangular", ct, "yes" if ct else "no",
                              advisory=True))
    braiding.lorentz_r_blocks(run.inst, run.k)
    checks.append(CheckResult("spinor-blocks", True,
                              "ww, wwbar, wbarw, wbarwbar built (k = %r)"
                              % run.k))
    return checks


def _counit_after_coaction(alg, p: NCPoly) -> dict:
    back = {}
    for (bw, cw), c in fock.coaction(alg, p).items():
        accumulate(back, {cw: c}, braiding.counit_b(NCPoly.from_word(bw)))
    return back


_FOCK_CAP = 4  # the cap of the Minkowski quotient the fock suite reads


def suite_fock(run: _Run) -> list:
    n = run.n
    alg = run.quotient(_FOCK_CAP)
    ev = run.evaluator
    gens = [NCPoly.gen(i) for i in range(4)]

    def tensors(size):
        return (fock.tensor(alg, ps) for ps in product(gens, repeat=size))

    def act(perms, t):
        for p in perms:
            t = fock.braid_action(ev, alg, p, t)
        return t

    def idempotent(size):
        sym = fock.symmetrize(ev, alg, fock.tensor(alg, gens[:size]))
        return fock.symmetrize(ev, alg, sym) == sym

    # A generator can reduce in the quotient, so compare with its normal form.
    counit = all(_counit_after_coaction(alg, g) == alg.normal_form(g).terms
                 for g in gens)
    ct = ev.is_cotriangular()
    checks = [
        CheckResult("coaction-counit", counit,
                    "(counit (x) id) after coaction is the identity"),
        CheckResult("cotriangular", ct, "yes" if ct else "no", advisory=True),
    ]
    if not ct:
        return checks + [CheckResult(
            "braided-checks", True, "skipped: evaluator is not cotriangular",
            advisory=True)]
    checks.append(CheckResult(
        "k-involution",
        all(fock.interchange_k(ev, alg, fock.interchange_k(ev, alg, t)) == t
            for t in tensors(2)),
        "K squared is the identity on generator pairs"))
    s0, s1 = (1, 0, 2), (0, 2, 1)
    if n >= 3:
        checks.append(CheckResult(
            "braid-relation", all(act((s0, s1, s0), t) == act((s1, s0, s1), t)
                                  for t in tensors(3)),
            "alternating adjacent interchanges agree on all generator "
            "triples"))
    else:
        checks.append(CheckResult("braid-relation", True,
                                  "skipped (needs --n 3 or more)",
                                  advisory=True))
    checks.append(CheckResult(
        "symmetrize-projector", all(idempotent(m) for m in range(2, n + 1)),
        "symmetrization is idempotent (2..%d slots)" % n))
    return checks


_SUITES = ("validate", "pbw", "calculus", "dirac", "lorentz", "braiding",
           "fock")


def run_suites(inst, names, degree=4, dirac_degree=3, b=Scalar(0),
               k=Scalar(1), n=2) -> Report:
    caps = {"pbw": degree, "calculus": degree, "dirac": dirac_degree,
            "fock": _FOCK_CAP}
    run = _Run(inst, degree, dirac_degree, b, k, n,
               max((caps.get(name, 2) for name in names), default=2))
    rep = Report(instance=inst.name)
    for name in names:
        if name not in _SUITES:
            raise ValueError("unknown suite %r" % name)
        # Looked up by its module-global name when it runs, so a wrapper
        # installed on cli.suite_* afterwards (a profiler, a tracer) is the
        # one called.
        rep.suites.append(SuiteResult(name, globals()["suite_" + name](run)))
    return rep


def _render(rep: Report) -> str:
    lines = ["instance: %s" % rep.instance]
    for s in rep.suites:
        lines.append("suite %s: %s" % (s.name,
                                       "pass" if s.passed else "FAIL"))
        lines.extend("  " + c.line() for c in s.checks)
    lines.append("overall: %s" % ("pass" if rep.passed else "FAIL"))
    return "\n".join(lines) + "\n"


@cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qminkowski",
        description="Exact checks for quantum Minkowski structure data.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, degree=None, b=False, k=False, slots=False):
        p.add_argument("file", nargs="?", default=None,
                       help="instance JSON file")
        p.add_argument("--builtin", default=None, metavar="NAME",
                       help="use a builtin instance (%s)"
                       % ", ".join(builtin_names()))
        if degree is not None:
            p.add_argument("--degree", type=int, default=degree,
                           help="truncation degree (default %d)" % degree)
        if b:
            p.add_argument("--b", default="0", metavar="SCALAR",
                           help="central charge, e.g. 1, -1, i, 1/2+1/3i")
        if k:
            p.add_argument("--k", type=int, default=1, choices=(1, -1),
                           help="spinor-block sign")
        if slots:
            p.add_argument("--n", type=int, default=2,
                           help="tensor slots for samples (max %d)"
                           % fock.MAX_SLOTS)

    common(sub.add_parser("validate", help="structural checks"))
    common(sub.add_parser("pbw", help="basis profile"), degree=4)
    common(sub.add_parser("calculus", help="differential identities"),
           degree=4)
    common(sub.add_parser("dirac", help="metric, gammas, Dirac square"),
           degree=3)
    common(sub.add_parser("braiding", help="R_Q and pairing checks"),
           b=True, k=True)
    common(sub.add_parser("fock", help="braided tensor checks"),
           b=True, slots=True)
    rp = sub.add_parser(
        "report", help="all suites",
        description="Run every suite. --degree sets the pbw and calculus "
        "degree only: the lorentz suite always runs at degree 4, the dirac "
        "suite at degree 3 and the fock suite at cap 4.")
    common(rp, degree=4, b=True, k=True, slots=True)
    rp.add_argument("--json", default=None, metavar="PATH",
                    help="also write the report as JSON")
    return top


def _resolve_instance(args):
    if (args.file is None) == (args.builtin is None):
        raise ParseError("give exactly one of an instance file or --builtin")
    if args.builtin is not None:
        return builtin(args.builtin)
    return load_instance(args.file)


def _attach_scalars(argv):
    """Write "--b -1/2" as "--b=-1/2": argparse takes a value that starts
    with "-" for an option unless it is a plain number."""
    out = []
    for tok in argv:
        if out and out[-1] == "--b" and re.match(r"-[\d.i]", tok):
            out[-1] = "--b=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(
            _attach_scalars(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits on malformed flags; keep the exit-code contract
        return int(exc.code or 0)
    try:
        inst = _resolve_instance(args)
        b = parse_scalar(args.b) if hasattr(args, "b") else Scalar(0)
        k = Scalar(getattr(args, "k", 1))
        degree = getattr(args, "degree", 4)
        if degree < 2:
            raise ParseError("--degree must be at least 2")
        n = getattr(args, "n", 2)
        if not 2 <= n <= fock.MAX_SLOTS:
            raise ParseError("--n must be between 2 and %d" % fock.MAX_SLOTS)
        names = _SUITES if args.command == "report" else (args.command,)
        dirac_degree = degree if args.command == "dirac" else 3
        rep = run_suites(inst, names, degree=degree,
                         dirac_degree=dirac_degree, b=b, k=k, n=n)
        if getattr(args, "json", None):
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(rep.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
    except (QMinkError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    sys.stdout.write(_render(rep))
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
