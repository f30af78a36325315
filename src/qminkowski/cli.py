"""Command line interface.

Every subcommand loads an instance (from a file argument or --builtin),
runs one named suite of checks and prints one line per check.  Exit
status: 0 when all gating checks pass, 1 when at least one fails, 2 on
input problems.  Informational lines never gate.  Output contains no
timestamps or timings, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import braiding, calculus, dirac, fock, lorentz, minkowski
from .errors import CalculusObstruction, ConstraintError, ParseError, \
    QMinkError
from .exact import Mat, Scalar, parse_scalar
from .instance import builtin, builtin_names, load_instance, \
    validate_instance
from .qalgebra import NCPoly

__all__ = ["main", "run_suites", "Report", "SuiteResult"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: list = field(default_factory=list)
    seconds: float = 0.0  # set by run_suites; never rendered


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
                        "details": list(s.details)} for s in self.suites],
            "pass": self.passed,
        }


def _line(ok, name, detail, info=False):
    tag = "info" if info else ("pass" if ok else "FAIL")
    return "%s %s: %s" % (tag.ljust(4), name, detail)


def suite_validate(inst) -> SuiteResult:
    rep = validate_instance(inst)
    details = []
    for c in rep.checks:
        if c.advisory:
            details.append(_line(True, c.name, c.detail, info=True))
        else:
            details.append(_line(c.passed, c.name, c.detail))
    return SuiteResult("validate", rep.overall, details)


def suite_pbw(inst, degree: int) -> SuiteResult:
    alg = minkowski.make_minkowski(inst, degree)
    ok, profile = minkowski.pbw_check(alg, degree)
    details = [_line(ok, "profile",
                     "%s vs classical %s"
                     % (profile, minkowski.expected_profile(degree)))]
    star_ok = minkowski.star_closed(alg)
    details.append(_line(star_ok, "star-closed",
                         "relation ideal stable under star"))
    return SuiteResult("pbw", ok and star_ok, details)


def suite_calculus(inst, degree: int) -> SuiteResult:
    details = []
    alg = minkowski.make_minkowski(inst, degree)
    try:
        calc = calculus.make_calculus(alg)
    except CalculusObstruction as exc:
        details.append(_line(False, "obstruction", str(exc)))
        return SuiteResult("calculus", False, details)
    details.append(_line(True, "obstruction", "obstruction matrix is zero"))
    checks = [
        ("differential", calc.check_differential_consistency),
        ("leibniz", calc.check_leibniz),
        ("partial-exchange", calc.check_partial_exchange),
        ("box-commutes", calc.check_box_commutes),
    ]
    ok = True
    for name, fn in checks:
        good = fn(degree)
        ok = ok and good
        details.append(_line(good, name, "degree <= %d" % degree))
    return SuiteResult("calculus", ok, details)


def suite_dirac(inst, degree: int) -> SuiteResult:
    details = []
    met = dirac.metric(inst)
    sym = met.is_conj_symmetric()
    details.append(_line(sym, "metric-symmetric",
                         "g = %s" % _mat_brief(met.g)))
    nondeg = not met.is_degenerate()
    details.append(_line(nondeg, "metric-nondegenerate",
                         "det g = %r" % met.g.det()))
    ok = sym and nondeg
    try:
        gs = dirac.gamma(inst)
    except ConstraintError as exc:
        details.append(_line(False, "gamma", str(exc)))
        return SuiteResult("dirac", False, details)
    cl = dirac.clifford_ok(inst, gs, met)
    details.append(_line(cl, "clifford", "all 16 residuals zero"
                         if cl else "nonzero residual"))
    ok = ok and cl
    alg = minkowski.make_minkowski(inst, degree)
    try:
        calc = calculus.make_calculus(alg)
    except CalculusObstruction:
        details.append(_line(False, "dirac-square",
                             "calculus unavailable (nonzero obstruction)"))
        return SuiteResult("dirac", False, details)
    sq = dirac.dirac_square_check(calc, gs, degree)
    details.append(_line(sq, "dirac-square",
                         "square equals wave operator, degree <= %d"
                         % degree))
    return SuiteResult("dirac", ok and sq, details)


def suite_lorentz(inst, degree: int = 4) -> SuiteResult:
    degree = max(degree, 4)
    met = dirac.metric(inst)
    inv = lorentz.lambda_invariance_check(inst, met, degree)
    details = [_line(inv, "lambda-invariance",
                     "Lambda g Lambda^T = g at degree %d" % degree)]
    real = lorentz.lambda_reality_diagnostic(inst)
    details.append(_line(True, "lambda-reality",
                         "star fixes Lambda entrywise" if real
                         else "star moves some Lambda entry", info=True))
    return SuiteResult("lorentz", inv, details)


def suite_braiding(inst, b: Scalar, k: Scalar) -> SuiteResult:
    details = []
    ev = braiding.make_evaluator(inst, b, k)
    try:
        ev.rq_inverse()
        rq_inv_ok = True
    except ConstraintError:
        rq_inv_ok = False
    details.append(_line(rq_inv_ok, "rq-invertible", "25x25 extended matrix"))
    yb = braiding.yang_baxter_check(ev.rq)
    details.append(_line(yb, "yang-baxter", "braid identity for R_Q"))
    star = braiding.star_cqt_check(ev)
    details.append(_line(star, "star-compatible",
                         "conjugate-flip symmetry of the pairing"))
    ct = rq_inv_ok and braiding.ct_check(ev)
    details.append(_line(True, "cotriangular",
                         "yes" if ct else "no", info=True))
    braiding.lorentz_r_blocks(inst, k)
    details.append(_line(True, "spinor-blocks",
                         "ww, wwbar, wbarw, wbarwbar built (k = %r)" % k))
    return SuiteResult("braiding", rq_inv_ok and yb and star, details)


def suite_fock(inst, b: Scalar, k: Scalar, n: int) -> SuiteResult:
    details = []
    alg = minkowski.make_minkowski(inst, 4)
    ev = braiding.make_evaluator(inst, b, k)
    gens = [NCPoly.gen(i) for i in range(4)]

    counit_ok = True
    for i in range(4):
        back = NCPoly.zero()
        for (bw, cw), c in fock.coaction(alg, gens[i]).items():
            e = braiding.counit_b(NCPoly.from_word(bw))
            if e:
                back = back + NCPoly.from_word(cw).scale(c * e)
        if back != gens[i]:
            counit_ok = False
    details.append(_line(counit_ok, "coaction-counit",
                         "(counit (x) id) after coaction is the identity"))
    ok = counit_ok

    ct = ev.is_cotriangular()
    details.append(_line(True, "cotriangular", "yes" if ct else "no",
                         info=True))
    if not ct:
        details.append(_line(True, "braided-checks",
                             "skipped: evaluator is not cotriangular",
                             info=True))
        return SuiteResult("fock", ok, details)

    invol = True
    for i in range(4):
        for j in range(4):
            t = fock.CTensor.from_polys(alg, [gens[i], gens[j]])
            kk = fock.interchange_k(ev, alg, fock.interchange_k(ev, alg, t))
            if kk != t:
                invol = False
    details.append(_line(invol, "k-involution",
                         "K squared is the identity on generator pairs"))
    ok = ok and invol

    if n >= 3:
        s0, s1p = (1, 0, 2), (0, 2, 1)
        braid_ok = True
        for i in range(4):
            for j in range(4):
                for l in range(4):
                    t = fock.CTensor.from_polys(
                        alg, [gens[i], gens[j], gens[l]])
                    lhs = t
                    for p in (s0, s1p, s0):
                        lhs = fock.braid_action(ev, alg, p, lhs)
                    rhs = t
                    for p in (s1p, s0, s1p):
                        rhs = fock.braid_action(ev, alg, p, rhs)
                    if lhs != rhs:
                        braid_ok = False
        details.append(_line(braid_ok, "braid-relation",
                             "alternating adjacent interchanges agree on "
                             "all generator triples"))
        ok = ok and braid_ok
    else:
        details.append(_line(True, "braid-relation",
                             "skipped (needs --n 3 or more)", info=True))

    proj_ok = True
    for size in range(2, n + 1):
        sample = fock.CTensor.from_polys(alg, gens[:size])
        sym = fock.symmetrize(ev, alg, sample)
        if fock.symmetrize(ev, alg, sym) != sym:
            proj_ok = False
    details.append(_line(proj_ok, "symmetrize-projector",
                         "symmetrization is idempotent (2..%d slots)" % n))
    ok = ok and proj_ok
    return SuiteResult("fock", ok, details)


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
    "fock": lambda inst, o: suite_fock(inst, o["b"], o["k"], o["n"]),
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
        res = suite(inst, opts)
        res.seconds = time.perf_counter() - t0
        rep.suites.append(res)
    return rep


def _render(rep: Report) -> str:
    lines = ["instance: %s" % rep.instance]
    for s in rep.suites:
        lines.append("suite %s: %s" % (s.name,
                                       "pass" if s.passed else "FAIL"))
        for d in s.details:
            lines.append("  " + d)
    lines.append("overall: %s" % ("pass" if rep.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qminkowski",
        description="Exact checks for quantum Minkowski structure data.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, degree=None, bk=False, slots=False):
        p.add_argument("file", nargs="?", default=None,
                       help="instance JSON file")
        p.add_argument("--builtin", default=None, metavar="NAME",
                       help="use a builtin instance (%s)"
                       % ", ".join(builtin_names()))
        if degree is not None:
            p.add_argument("--degree", type=int, default=degree,
                           help="truncation degree (default %d)" % degree)
        if bk:
            p.add_argument("--b", default="0", metavar="SCALAR",
                           help="central charge, e.g. 1, -1, i, 1/2+1/3i")
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
           bk=True)
    common(sub.add_parser("fock", help="braided tensor checks"),
           bk=True, slots=True)
    rp = sub.add_parser("report", help="all suites")
    common(rp, degree=4, bk=True, slots=True)
    rp.add_argument("--json", default=None, metavar="PATH",
                    help="also write the report as JSON")
    return top


def _resolve_instance(args):
    if (args.file is None) == (args.builtin is None):
        raise ParseError("give exactly one of an instance file or --builtin")
    if args.builtin is not None:
        return builtin(args.builtin)
    return load_instance(args.file)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
    except (QMinkError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    sys.stdout.write(_render(rep))
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rep.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
