"""Structure-data instances: loading, validation, serialization.

An instance bundles the signs q, s and the matrices E (4x1), E' (1x4),
X (4x4), R (16x16), Z (16x4), T (16x1) that drive every construction in
the package.  Files are JSON with a fixed schema: scalars are four-integer
arrays [re_num, re_den, im_num, im_den] with positive denominators, and
matrices are {"rows": r, "cols": c, "entries": [scalar, ...]} in row-major
order.  Unknown keys are rejected so typos cannot silently change a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dirac import metric
from .errors import ConstraintError, ParseError, UnknownInstance
from .exact import Mat, ONE, Scalar, flip, is_sign, require_sign

__all__ = [
    "PoincareInstance", "CheckResult", "gating_passed",
    "load_instance", "write_instance", "instance_to_dict",
    "instance_from_dict", "builtin", "builtin_names", "validate_instance",
]

_SHAPES = {
    "E": (4, 1),
    "Eprime": (1, 4),
    "X": (4, 4),
    "R": (16, 16),
    "Z": (16, 4),
    "T": (16, 1),
}

_KEYS = ("name", "q", "s", "E", "Eprime", "X", "R", "Z", "T")


@dataclass(frozen=True)
class PoincareInstance:
    """One set of structure data.  Shape constraints are enforced on
    construction; value constraints (sign of q, invertibility of X) are
    checked by load_instance and reported by validate_instance."""

    name: str
    q: Scalar
    s: Scalar
    E: Mat
    Eprime: Mat
    X: Mat
    R: Mat
    Z: Mat
    T: Mat

    def __post_init__(self):
        for key, (r, c) in _SHAPES.items():
            m = getattr(self, key)
            if not isinstance(m, Mat) or m.rows != r or m.cols != c:
                raise ParseError("%s must be a %dx%d matrix" % (key, r, c))
        if not isinstance(self.q, Scalar) or not isinstance(self.s, Scalar):
            raise ParseError("q and s must be scalars")


def _scalar_from_quad(obj, where: str) -> Scalar:
    if (not isinstance(obj, list) or len(obj) != 4
            or any(isinstance(x, bool) or not isinstance(x, int)
                   for x in obj)):
        raise ParseError("%s: scalar must be four integers" % where)
    if obj[1] <= 0 or obj[3] <= 0:
        raise ParseError("%s: denominators must be positive" % where)
    return Scalar.from_quad(*obj)


def _mat_from_obj(obj, key: str) -> Mat:
    rows, cols = _SHAPES[key]
    if (not isinstance(obj, dict) or set(obj) != {"rows", "cols", "entries"}):
        raise ParseError("%s: expected rows/cols/entries object" % key)
    if obj["rows"] != rows or obj["cols"] != cols:
        raise ParseError("%s must be %dx%d" % (key, rows, cols))
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError("%s: expected %d entries" % (key, rows * cols))
    data = [_scalar_from_quad(e, "%s[%d]" % (key, i))
            for i, e in enumerate(entries)]
    return Mat(rows, cols, data)


def _mat_to_obj(m: Mat) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [x.to_quad() for x in m.data]}


def instance_from_dict(doc) -> PoincareInstance:
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    if set(doc) != set(_KEYS):
        missing = sorted(set(_KEYS) - set(doc))
        extra = sorted(set(doc) - set(_KEYS))
        raise ParseError("bad keys: missing %s, unknown %s"
                         % (missing, extra))
    if not isinstance(doc["name"], str) or not doc["name"]:
        raise ParseError("name must be a nonempty string")
    inst = PoincareInstance(
        name=doc["name"],
        q=_scalar_from_quad(doc["q"], "q"),
        s=_scalar_from_quad(doc["s"], "s"),
        **{k: _mat_from_obj(doc[k], k) for k in _SHAPES},
    )
    _check_constraints(inst)
    return inst


def _check_constraints(inst: PoincareInstance):
    require_sign("q", inst.q)
    require_sign("s", inst.s)
    if inst.X.det() == 0:
        raise ConstraintError("X is singular")


def instance_to_dict(inst: PoincareInstance) -> dict:
    doc = {"name": inst.name, "q": inst.q.to_quad(), "s": inst.s.to_quad()}
    for k in _SHAPES:
        doc[k] = _mat_to_obj(getattr(inst, k))
    return doc


def load_instance(path) -> PoincareInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except ValueError as exc:
        # bad JSON, bytes that are not UTF-8, or an integer too long to parse
        raise ParseError("invalid JSON in %s: %s" % (path, exc)) from exc
    return instance_from_dict(doc)


def write_instance(inst: PoincareInstance, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def builtin(name: str) -> PoincareInstance:
    if name == "classical":
        return PoincareInstance(
            name="classical",
            q=ONE,
            s=ONE,
            E=Mat(4, 1, [Scalar(0), Scalar(1), Scalar(-1), Scalar(0)]),
            Eprime=Mat(1, 4, [Scalar(0), Scalar(1), Scalar(-1), Scalar(0)]),
            X=flip(2, 2),
            R=flip(4, 4),
            Z=Mat.zeros(16, 4),
            T=Mat.zeros(16, 1),
        )
    raise UnknownInstance("no builtin instance named %r" % name)


def builtin_names():
    return ("classical",)


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


def validate_instance(inst: PoincareInstance) -> list:
    """Run the structural checks; return one CheckResult per check.

    A nonzero calculus obstruction is advisory: the algebra itself is
    still usable, only the differential layer is unavailable.
    """
    checks = []
    add = checks.append

    add(CheckResult("shapes", True, "E 4x1, Eprime 1x4, X 4x4, R 16x16, "
                                    "Z 16x4, T 16x1"))
    q_ok = is_sign(inst.q)
    add(CheckResult("q-sign", q_ok, "q = %r" % inst.q))
    add(CheckResult("s-sign", is_sign(inst.s), "s = %r" % inst.s))

    det_x = inst.X.det()
    x_ok = det_x != 0
    add(CheckResult("x-invertible", x_ok, "det X = %r" % det_x))

    if q_ok and x_ok:
        g = metric(inst)
        sym = g.conj_t() == g
        add(CheckResult("metric-symmetric", sym,
                        "conj(g_ij) == g_ji" if sym else "conjugate symmetry "
                        "fails"))
        det_g = g.det()
        add(CheckResult("metric-nondegenerate", det_g != 0,
                        "det g = %r" % det_g))
    else:
        add(CheckResult("metric-symmetric", False, "prerequisites failed"))
        add(CheckResult("metric-nondegenerate", False,
                        "prerequisites failed"))

    # deferred: calculus imports minkowski, which imports this module
    from .calculus import f_tilde
    ft = f_tilde(inst)
    add(CheckResult("calculus-obstruction", ft.is_zero(),
                    "obstruction matrix vanishes" if ft.is_zero()
                    else "obstruction matrix is nonzero; differential layer "
                         "unavailable",
                    advisory=True))
    return checks
