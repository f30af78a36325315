"""Structure-data instances: the schema, JSON I/O and the builtin data.

An instance bundles the signs q, s and the matrices E (4x1), E' (1x4),
X (4x4), R (16x16), Z (16x4), T (16x1) that drive every construction in
the package.  Files are JSON with a fixed schema: scalars are four-integer
arrays [re_num, re_den, im_num, im_den] with positive denominators, and
matrices are {"rows": r, "cols": c, "entries": [scalar, ...]} in row-major
order.  Unknown keys are rejected so typos cannot silently change a run.
One instance_from_dict call keeps a dict from each matrix literal's four
ints to its Scalar, so a literal that repeats (a file holds a handful of
distinct ones among its 360) is validated and reduced once; the entries
share that Scalar, which is sound because no Scalar is ever changed
after it is built.  Nothing outlives the call.
The checks run on an instance are the suites in cli.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConstraintError, ParseError, UnknownInstance
from .exact import Mat, ONE, Scalar, flip, require_sign

__all__ = [
    "PoincareInstance", "load_instance", "write_instance",
    "instance_to_dict", "instance_from_dict", "builtin", "builtin_names",
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
    """One set of structure data, checked once on construction however it
    was built (load_instance, builtin() or dataclasses.replace): a wrong
    shape or type raises ParseError, and q or s other than +1 or -1 or a
    singular X raises ConstraintError, so no later code re-checks them."""

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
        require_sign("q", self.q)
        require_sign("s", self.s)
        if self.X.det() == 0:
            raise ConstraintError("X is singular")


def _scalar_from_quad(obj, where: str) -> Scalar:
    if (not isinstance(obj, list) or len(obj) != 4
            or any(isinstance(x, bool) or not isinstance(x, int)
                   for x in obj)):
        raise ParseError("%s: scalar must be four integers" % where)
    if obj[1] <= 0 or obj[3] <= 0:
        raise ParseError("%s: denominators must be positive" % where)
    return Scalar.from_quad(*obj)


def _mat_from_obj(obj, key: str, seen: dict) -> Mat:
    """The matrix of key; seen maps the four ints of each literal read so
    far in the document to its Scalar (module doc)."""
    rows, cols = _SHAPES[key]
    if (not isinstance(obj, dict) or set(obj) != {"rows", "cols", "entries"}):
        raise ParseError("%s: expected rows/cols/entries object" % key)
    dims = (obj["rows"], obj["cols"])
    # 16.0 == 16 and True == 1, so the type is checked first (bool is an int)
    if any(type(n) is not int for n in dims) or dims != (rows, cols):
        raise ParseError("%s must be %dx%d" % (key, rows, cols))
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError("%s: expected %d entries" % (key, rows * cols))
    data = []
    for i, e in enumerate(entries):
        # Only exact ints key seen (True == 1 and 1.0 == 1 hash alike), and
        # a refused literal is never stored, so each is refused at its index.
        quad = None
        if type(e) is list and len(e) == 4:
            a, b, c, d = e
            if (type(a) is int and type(b) is int and type(c) is int
                    and type(d) is int):
                quad = a, b, c, d
        x = seen.get(quad)
        if x is None:
            x = _scalar_from_quad(e, "%s[%d]" % (key, i))
            if quad is not None:
                seen[quad] = x
        data.append(x)
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
    seen = {}
    return PoincareInstance(
        name=doc["name"],
        q=_scalar_from_quad(doc["q"], "q"),
        s=_scalar_from_quad(doc["s"], "s"),
        **{k: _mat_from_obj(doc[k], k, seen) for k in _SHAPES},
    )


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
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, an integer too long to parse,
        # or arrays and objects nested deeper than the decoder recurses
        raise ParseError("invalid JSON in %s: %s" % (path, exc)) from exc
    return instance_from_dict(doc)


def write_instance(inst: PoincareInstance, path):
    """Write inst as JSON.  The text is encoded before the file is opened,
    so an instance that cannot be encoded (an integer of over 4,300
    digits) raises ParseError and leaves the path as it was."""
    try:
        text = json.dumps(instance_to_dict(inst), indent=2) + "\n"
    except ValueError as exc:
        raise ParseError("cannot encode %s as JSON: %s"
                         % (inst.name, exc)) from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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

