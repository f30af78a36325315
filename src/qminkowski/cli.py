"""Command line interface.

Every subcommand loads an instance (from a file argument or --builtin),
runs one named suite of checks and prints one line per check.  A suite
is a list of CheckResult records, and one rule (instance.gating_passed)
decides every verdict: a suite passes when each of its non-advisory
checks passes, and the run passes when every suite does.  Advisory
checks print as "info" lines and never gate.  Exit status: 0 when the
run passes, 1 when it fails, 2 on input problems.  Output contains no
timestamps or timings, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from itertools import product

from . import braiding, calculus, dirac, fock, lorentz, minkowski
from .errors import CalculusObstruction, ConstraintError, ParseError, \
    QMinkError
from .exact import Mat, Scalar, parse_scalar
from .instance import CheckResult, builtin, builtin_names, gating_passed, \
    load_instance, validate_instance
from .qalgebra import NCPoly

__all__ = ["main", "run_suites", "Report", "SuiteResult"]


@dataclass
class SuiteResult:
    name: str
    checks: list
    seconds: float = 0.0  # set by run_suites; never rendered

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


def suite_validate(inst) -> list:
    return validate_instance(inst)


def suite_pbw(inst, degree: int) -> list:
    alg = minkowski.make_minkowski(inst, degree)
    ok, profile = minkowski.pbw_check(alg, degree)
    return [
        CheckResult("profile", ok, "%s vs classical %s"
                    % (profile, minkowski.expected_profile(degree))),
        CheckResult("star-closed", minkowski.star_closed(alg),
                    "relation ideal stable under star"),
    ]


def _witnessed(name: str, witness, detail: str) -> CheckResult:
    """A check that passes when its witness is None and otherwise names it."""
    if witness is not None:
        detail += "; fails at " + witness
    return CheckResult(name, witness is None, detail)


def suite_calculus(inst, degree: int) -> list:
    alg = minkowski.make_minkowski(inst, degree)
    try:
        calc = calculus.make_calculus(alg)
    except CalculusObstruction as exc:
        return [CheckResult("obstruction", False, str(exc))]
    checks = [CheckResult("obstruction", True, "obstruction matrix is zero")]
    for name, fn in (("differential", calc.check_differential_consistency),
                     ("leibniz", calc.check_leibniz),
                     ("partial-exchange", calc.check_partial_exchange),
                     ("box-commutes", calc.check_box_commutes)):
        checks.append(_witnessed(name, fn(degree), "degree <= %d" % degree))
    return checks


def suite_dirac(inst, degree: int) -> list:
    g = dirac.metric(inst)
    det_g = g.det()
    checks = [
        CheckResult("metric-symmetric", g.conj_t() == g,
                    "g = %s" % _mat_brief(g)),
        CheckResult("metric-nondegenerate", det_g != 0,
                    "det g = %r" % det_g),
    ]
    try:
        gs = dirac.gamma(inst)
    except ConstraintError as exc:
        return checks + [CheckResult("gamma", False, str(exc))]
    cl = dirac.clifford_ok(inst, gs, g)
    checks.append(CheckResult("clifford", cl, "all 16 residuals zero"
                              if cl else "nonzero residual"))
    alg = minkowski.make_minkowski(inst, degree)
    try:
        calc = calculus.make_calculus(alg)
    except CalculusObstruction:
        return checks + [CheckResult(
            "dirac-square", False,
            "calculus unavailable (nonzero obstruction)")]
    return checks + [_witnessed(
        "dirac-square", dirac.dirac_square_check(calc, gs, degree),
        "square equals wave operator, degree <= %d" % degree)]


def suite_lorentz(inst) -> list:
    inv = lorentz.lambda_invariance_check(inst, dirac.metric(inst), 4)
    real = lorentz.lambda_reality_diagnostic(inst)
    return [
        _witnessed("lambda-invariance", inv,
                   "Lambda g Lambda^T = g at degree 4"),
        CheckResult("lambda-reality", real, "star fixes Lambda entrywise"
                    if real else "star moves some Lambda entry",
                    advisory=True),
    ]


def suite_braiding(inst, b: Scalar, k: Scalar) -> list:
    ev = braiding.make_evaluator(inst, b)
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
    ct = rq_inv_ok and braiding.ct_check(ev)
    checks.append(CheckResult("cotriangular", ct, "yes" if ct else "no",
                              advisory=True))
    braiding.lorentz_r_blocks(inst, k)
    checks.append(CheckResult("spinor-blocks", True,
                              "ww, wwbar, wbarw, wbarwbar built (k = %r)" % k))
    return checks


def _counit_after_coaction(alg, p: NCPoly) -> NCPoly:
    back = NCPoly.zero()
    for (bw, cw), c in fock.coaction(alg, p).items():
        e = braiding.counit_b(NCPoly.from_word(bw))
        if e:
            back = back + NCPoly.from_word(cw).scale(c * e)
    return back


def suite_fock(inst, b: Scalar, n: int) -> list:
    alg = minkowski.make_minkowski(inst, 4)
    ev = braiding.make_evaluator(inst, b)
    gens = [NCPoly.gen(i) for i in range(4)]

    def tensors(size):
        return (fock.CTensor.from_polys(alg, ps)
                for ps in product(gens, repeat=size))

    def act(perms, t):
        for p in perms:
            t = fock.braid_action(ev, alg, p, t)
        return t

    def idempotent(size):
        sym = fock.symmetrize(ev, alg,
                              fock.CTensor.from_polys(alg, gens[:size]))
        return fock.symmetrize(ev, alg, sym) == sym

    # A generator can reduce in the quotient, so compare with its normal form.
    counit = all(_counit_after_coaction(alg, g) == alg.normal_form(g)
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


def _mat_brief(m: Mat) -> str:
    return "[" + "; ".join(" ".join(repr(m[i, j]) for j in range(m.cols))
                           for i in range(m.rows)) + "]"


# Each suite is looked up by its module-global name when it runs, so a
# wrapper installed on cli.suite_* afterwards (a profiler, a tracer) is
# the one called.
_SUITES = {
    "validate": lambda inst, o: suite_validate(inst),
    "pbw": lambda inst, o: suite_pbw(inst, o["degree"]),
    "calculus": lambda inst, o: suite_calculus(inst, o["degree"]),
    "dirac": lambda inst, o: suite_dirac(inst, o["dirac_degree"]),
    "lorentz": lambda inst, o: suite_lorentz(inst),
    "braiding": lambda inst, o: suite_braiding(inst, o["b"], o["k"]),
    "fock": lambda inst, o: suite_fock(inst, o["b"], o["n"]),
}


def run_suites(inst, names, degree=4, dirac_degree=3, b=Scalar(0),
               k=Scalar(1), n=2) -> Report:
    opts = {"degree": degree, "dirac_degree": dirac_degree, "b": b, "k": k,
            "n": n}
    rep = Report(instance=inst.name)
    for name in names:
        suite = _SUITES.get(name)
        if suite is None:
            raise ValueError("unknown suite %r" % name)
        t0 = time.perf_counter()
        checks = suite(inst, opts)
        rep.suites.append(SuiteResult(name, checks,
                                      time.perf_counter() - t0))
    return rep


def _render(rep: Report) -> str:
    lines = ["instance: %s" % rep.instance]
    for s in rep.suites:
        lines.append("suite %s: %s" % (s.name,
                                       "pass" if s.passed else "FAIL"))
        lines.extend("  " + c.line() for c in s.checks)
    lines.append("overall: %s" % ("pass" if rep.passed else "FAIL"))
    return "\n".join(lines) + "\n"


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
                           help="tensor slots for samples (max 4)")

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
        description="Run every suite. The lorentz suite always runs at "
        "degree 4 and ignores --degree.")
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
        if not 2 <= n <= 4:
            raise ParseError("--n must be between 2 and 4")
        if args.command == "report":
            rep = run_suites(inst, tuple(_SUITES), degree=degree,
                             dirac_degree=3, b=b, k=k, n=n)
        elif args.command == "dirac":
            rep = run_suites(inst, ("dirac",), dirac_degree=degree,
                             b=b, k=k, n=n)
        else:
            rep = run_suites(inst, (args.command,), degree=degree,
                             b=b, k=k, n=n)
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
