"""The benchmark workloads: op cycles, instance pools and answer checks.

A workload is a fixed cycle of ops.  Every op names the CLI arguments of
one ``qminkowski`` call on its own generated instance file and a check of
the exit code and stdout against what the seed commit printed.  The
runner repeats whole cycles, so every run sees the same mix of families
and flags; the seed only changes the instance values.  See README.md for
why each workload exists.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Callable

import instances as gen

SUITES = ("validate", "pbw", "calculus", "dirac", "lorentz", "braiding",
          "fock")

# sha256 of stdout with its first line ("instance: <name>") replaced by
# "instance: classical", as printed at the seed commit.
# Classical data, b = 0, n = 2: also `report --builtin classical` and
# `report instances/classical.json` byte for byte.
REPORT_CLASSICAL = \
    "abd24a79fff32f0dec27de79efa82c66f7c3dbc01a627cf2a47e88c4d716bcf8"
# Classical with b != 0 and imag with b != i: not cotriangular, so the
# braided Fock checks are skipped and the output does not depend on n.
REPORT_NOT_COTRIANGULAR = \
    "1ee36f11c21a2a109ef614fc475dfbaf5dd11d51f7cbabcb6465d44c5a48cfa9"
# Classical and imag with b = i.
REPORT_B_I = \
    "c1a68d820eebc2b8e32d3dbbb46c48ca4e21e242aa29f828e91877c4f31b7d55"
# Every complex shift, any b and n.
REPORT_COMPLEX = \
    "08115ec70c2d04fafec652db9a3e8b144fbd6209e824f37380e484f0d1c32115"
# calculus --degree 5 and dirac --degree 4 on classical and imag data.
CALCULUS5 = \
    "7432054c806787e4ed2f96358c7b8ffb09d83e2e861e389f7e3480b6c5b5cf3c"
DIRAC4 = \
    "201a0b15a3ae13d0833c731c9effb836a24f47d65f58369badec2a574be4bbe4"

# The costs of pbw vary from one instance to the next by 24% (sd / mean)
# at density 0.25, 19% at 0.3 and 11% at 0.4; at 0.25 that moved the mean
# cost of a run from seed to seed.  0.4 costs half as much again as 0.3.
DENSE_DENSITY = 0.3


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    check: Callable  # (exit code, stdout) -> bool


def normalized_sha256(out: str) -> str:
    _, _, rest = out.partition("\n")
    return hashlib.sha256(("instance: classical\n" + rest).encode()) \
        .hexdigest()


def verdicts(out: str) -> dict:
    """{suite: passed} from the "suite NAME: pass|FAIL" lines, in order."""
    return {m.group(1): m.group(2) == "pass"
            for m in re.finditer(r"^suite (\w+): (pass|FAIL)$", out, re.M)}


def _suites_check(names, fails, digest=None):
    """Exit code, suite list and FAIL set as predicted; stdout hash if
    one is pinned."""
    def check(rc, out):
        v = verdicts(out)
        if rc != (1 if fails else 0) or tuple(v) != tuple(names):
            return False
        if {s for s, ok in v.items() if not ok} != set(fails):
            return False
        return digest is None or normalized_sha256(out) == digest
    return check


def report_fails(family, b):
    if family == "zbent":
        return {"pbw", "calculus", "dirac", "braiding"}
    if family == "complex":
        return {"pbw", "braiding"}
    return {"braiding"} if b == "i" else set()


def report_digest(family, b, n):
    if family == "zbent":
        return None  # the obstruction witness depends on the instance
    if family == "complex":
        return REPORT_COMPLEX
    if b == "i":
        return REPORT_B_I
    if family == "classical" and b == "0":
        return REPORT_CLASSICAL if n == 2 else None
    return REPORT_NOT_COTRIANGULAR


def _dense_pbw_check(rc, out):
    m = re.search(r"profile: (\[[-0-9, ]*\]) vs classical \[1, 4, 10, 20\]",
                  out)
    return (rc == 1 and verdicts(out) == {"pbw": False} and m is not None
            and m.group(1) != "[1, 4, 10, 20]")


def _dense_braiding_check(rc, out):
    return (rc == 1 and verdicts(out) == {"braiding": False}
            and "\n  FAIL yang-baxter:" in out)


def _dense_validate_check(rc, out):
    return (rc == 0 and verdicts(out) == {"validate": True}
            and "info calculus-obstruction: obstruction matrix is nonzero"
            in out)


class _Families:
    """Draws instances family by family.  The k-th instance of a family
    has fractional values when k is odd, and a shift family shifts
    1 + k % 3 pairs; so the shapes depend only on the position in the
    pool, and the seed only picks the pairs and the values."""

    def __init__(self, seed, directory):
        self.rng = random.Random(seed)
        self.directory = directory
        self.seen = {}

    def path(self, family):
        k = self.seen.get(family, 0)
        self.seen[family] = k + 1
        name = "%s-%d" % (family, k)
        frac = k % 2 == 1
        if family == "classical":
            doc = gen.classical(name)
        elif family == "imag":
            doc = gen.imag_shift(name, self.rng, 1 + k % 3, frac)
        elif family == "complex":
            doc = gen.complex_shift(name, self.rng, 1 + k % 3, frac)
        elif family == "zbent":
            doc = gen.zbent(name, self.rng, frac)
        else:
            doc = gen.dense(name, self.rng, DENSE_DENSITY)
        return gen.write(doc, self.directory)


# report-mix: a 4x3 Latin layout, so each family meets three values of b
# and each of n = 2, 3, 4 once per cycle.  Classical data with b = 0 is the
# only op that takes the full braided Fock path.
REPORT_CYCLE = (
    ("classical", "0", 2), ("imag", "1", 2), ("complex", "-1/2", 2),
    ("zbent", "i", 2), ("imag", "0", 3), ("complex", "1", 3),
    ("zbent", "-1/2", 3), ("classical", "i", 3), ("complex", "0", 4),
    ("zbent", "1", 4), ("classical", "-1/2", 4), ("imag", "i", 4),
)

# Four calculus ops per dirac op, so that the median of a run falls inside
# the calculus times rather than in the gap between the two op kinds.
CALCULUS_CYCLE = tuple(
    op for dirac_family in ("classical", "imag", "imag")
    for op in (("calculus", "classical"), ("calculus", "imag"),
               ("calculus", "imag"), ("calculus", "imag"),
               ("dirac", dirac_family)))

# One validate per two pbw and two braiding ops: validate takes a
# fifteenth of the time of the others, so with a third of the ops it would
# put the median of a run at the low quarter of the heavy ops, where the
# spread of pbw costs from instance to instance sets it (a spread of 0.13
# over five seeds, against 0.03 at 1:2:2).
DENSE_CYCLE = (("validate",), ("pbw", "--degree", "3"), ("braiding", "--b=1"),
               ("pbw", "--degree", "3"), ("braiding", "--b=1"))


def _report_ops(fam):
    for family, b, n in REPORT_CYCLE:
        yield Op("report %s b=%s n=%d" % (family, b, n),
                 ("report", fam.path(family), "--b=" + b, "--n", str(n)),
                 _suites_check(SUITES, report_fails(family, b),
                               report_digest(family, b, n)))


def _calculus_ops(fam):
    for command, family in CALCULUS_CYCLE:
        degree, digest = ("5", CALCULUS5) if command == "calculus" \
            else ("4", DIRAC4)
        yield Op("%s %s" % (command, family),
                 (command, fam.path(family), "--degree", degree),
                 _suites_check((command,), (), digest))


_DENSE_CHECKS = {"validate": _dense_validate_check, "pbw": _dense_pbw_check,
                 "braiding": _dense_braiding_check}


def _dense_ops(fam):
    for args in DENSE_CYCLE:
        yield Op("%s dense" % args[0],
                 (args[0], fam.path("dense")) + args[1:],
                 _DENSE_CHECKS[args[0]])


@dataclass(frozen=True)
class Workload:
    cycle_ops: Callable   # _Families -> iterable of Op, one cycle
    warmup: Callable      # _Families -> Op, untimed, part of set-up
    min_cycles: int = 2   # whole cycles in an end-to-end run, at least

    def build(self, seed, directory):
        """Write the instance pool, twice the cycles a run needs at the
        least; return (warm-up op, list of cycles)."""
        fam = _Families(seed, directory)
        warm = self.warmup(fam)
        return warm, [list(self.cycle_ops(fam))
                      for _ in range(2 * self.min_cycles)]


WORKLOADS = {
    "report-mix": Workload(
        _report_ops,
        lambda fam: Op("validate warm-up", ("validate", "--builtin",
                                            "classical"),
                       _suites_check(("validate",), ()))),
    "calculus-deep": Workload(
        _calculus_ops,
        lambda fam: Op("dirac warm-up",
                       ("dirac", fam.path("classical"), "--degree", "4"),
                       _suites_check(("dirac",), (), DIRAC4))),
    "dense-random": Workload(
        _dense_ops,
        lambda fam: Op("validate warm-up",
                       ("validate", fam.path("dense")),
                       _dense_validate_check),
        5),
}
