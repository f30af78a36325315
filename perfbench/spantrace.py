"""Span tracer that wraps the package's functions from outside.

``Tracer.install`` replaces each target function or method with a wrapper
that records a span (op id, span id, parent span id, name, start, end) and
the counts named in ``TARGETS``.  A module-level function is replaced in
every namespace of the package that holds it (``calculus.kron``,
``lorentz.build_quotient``, ...), because ``from x import f`` copies the
reference.  ``Tracer.restore`` puts every original back.

Spans stay in memory until ``write``.  A span's self time is its duration
minus the time covered by its child spans; ``cli.suite_s.*`` is the
inclusive time of a suite, every other ``*_s`` metric is self time.

Scalar arithmetic is counted by ``Tracer.install_scalar_counters`` in a
separate pass, since a wrapper around every ``Scalar`` operation would
dominate every span's self time.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from functools import wraps

PACKAGE = "qminkowski"


def _basis_words(args, result):
    return sum(result.dimension_profile())


def _terms(args, result):
    return len(args[1].terms)


def _words_checked(args, result):
    calc, n = args[0], args[1]
    return sum(calc.alg.dimension_profile()[:n + 1])


# (module, attribute, span name, metric for the time, inclusive?,
#  {count metric: function (args, result) -> amount, or None for 1})
TARGETS = [
    ("cli", "suite_%s" % s, "cli.suite_" + s, "cli.suite_s." + s, True, {})
    for s in ("validate", "pbw", "calculus", "dirac", "lorentz", "braiding",
              "fock")
] + [
    ("instance", "load_instance", "instance.load", "instance.load_s", False,
     {}),
    ("qalgebra", "build_quotient", "qalgebra.build_quotient",
     "qalgebra.quotient_build_s", False,
     {"qalgebra.quotient_builds": None,
      "qalgebra.basis_words": _basis_words}),
    ("qalgebra", "TruncatedQuotient.normal_form", "qalgebra.normal_form",
     "qalgebra.normal_form_s", False,
     {"qalgebra.normal_form_calls": None,
      "qalgebra.normal_form_terms": _terms}),
    ("minkowski", "make_minkowski", "minkowski.make_minkowski",
     "minkowski.make_s", False, {}),
    ("minkowski", "star_closed", "minkowski.star_closed",
     "minkowski.star_closed_s", False, {}),
    ("calculus", "f_tilde", "calculus.f_tilde", "calculus.f_tilde_s", False,
     {}),
] + [
    ("calculus", "FirstOrderCalculus.check_" + method, "calculus.check_" + key,
     "calculus.check_s." + key, False,
     {"calculus.words_checked": _words_checked})
    for method, key in (("differential_consistency", "differential"),
                        ("leibniz", "leibniz"),
                        ("partial_exchange", "partial_exchange"),
                        ("box_commutes", "box_commutes"))
] + [
    ("dirac", "metric", "dirac.metric", "dirac.metric_s", False, {}),
    ("dirac", "clifford_check", "dirac.clifford_check", "dirac.clifford_s",
     False, {}),
    ("dirac", "dirac_square_check", "dirac.dirac_square_check",
     "dirac.square_check_s", False, {}),
    ("lorentz", "lambda_invariance_check", "lorentz.lambda_invariance_check",
     "lorentz.invariance_s", False, {}),
    ("lorentz", "lambda_reality_diagnostic",
     "lorentz.lambda_reality_diagnostic", "lorentz.reality_s", False, {}),
    ("braiding", "build_rq", "braiding.build_rq", "braiding.build_rq_s",
     False, {}),
    ("braiding", "CqtEvaluator.rq_inverse", "braiding.rq_inverse",
     "braiding.rq_inverse_s", False, {}),
    ("braiding", "yang_baxter_check", "braiding.yang_baxter_check",
     "braiding.yang_baxter_s", False, {}),
    ("braiding", "star_cqt_check", "braiding.star_cqt_check",
     "braiding.star_cqt_s", False, {}),
    ("braiding", "ct_check", "braiding.ct_check", "braiding.ct_s", False, {}),
    ("fock", "coaction", "fock.coaction", "fock.coaction_s", False, {}),
    ("fock", "interchange_k", "fock.interchange_k", "fock.interchange_s",
     False, {}),
    ("fock", "symmetrize", "fock.symmetrize", "fock.symmetrize_s", False, {}),
    ("exact", "Mat.__mul__", "exact.mat_mul", "exact.mat_mul_s", False,
     {"exact.mat_mul_calls": None}),
    ("exact", "kron", "exact.kron", "exact.kron_s", False, {}),
    ("exact", "Mat.inverse", "exact.inverse", "exact.inverse_s", False, {}),
    ("exact", "Mat._echelon", "exact.echelon", "exact.echelon_s", False, {}),
]

# Hot recursive calls are counted without a span.
COUNTERS = [
    ("calculus", "FirstOrderCalculus.partial", "calculus.partial_calls"),
    ("braiding", "CqtEvaluator.r_word", "braiding.r_word_calls"),
]

SCALAR_COUNTERS = [
    ("exact", "Scalar." + method, "exact.scalar_%s_calls" % kind)
    for kind, methods in (("mul", ("__mul__", "__rmul__")),
                          ("add", ("__add__", "__radd__", "__sub__",
                                   "__rsub__")),
                          ("div", ("__truediv__", "__rtruediv__")))
    for method in methods
]


def metric_names():
    """Every per-layer metric the tracer can fill, in report order."""
    names = []
    for _, _, _, metric, _, counts in TARGETS:
        names.append(metric)
        names.extend(counts)
    names.extend(c for _, _, c in COUNTERS)
    names.extend(c for _, _, c in SCALAR_COUNTERS)
    return list(dict.fromkeys(names))


def _owner_and_name(module, attr):
    mod = sys.modules["%s.%s" % (PACKAGE, module)]
    if "." in attr:
        cls, name = attr.split(".")
        return getattr(mod, cls), name
    return mod, attr


class Tracer:
    def __init__(self):
        self.spans = []    # (op, span id, parent id, name, start, end)
        self.stack = []    # [span id, start, child time] per open span
        self.self_s = {}
        self.inclusive_s = {}
        self.counts = {}
        self.op = 0
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, counts):
        tracer = self
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                tracer.self_s[name] = (tracer.self_s.get(name, 0.0)
                                       + duration - frame[2])
                tracer.inclusive_s[name] = (tracer.inclusive_s.get(name, 0.0)
                                            + duration)
                tracer.spans.append((tracer.op, frame[0], parent, name,
                                     frame[1], end))
            for metric, amount in counts.items():
                tracer.counts[metric] = tracer.counts.get(metric, 0) + (
                    1 if amount is None else amount(args, result))
            return result
        return wrapper

    def _count_wrapper(self, fn, metric):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] = counts.get(metric, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module, attr, make):
        owner, name = _owner_and_name(module, attr)
        original = getattr(owner, name)
        wrapper = make(original)
        if isinstance(owner, type):
            sites = [(owner, name)]
        else:
            sites = [(m, key) for mod_name, m in list(sys.modules.items())
                     if mod_name == PACKAGE
                     or mod_name.startswith(PACKAGE + ".")
                     for key, value in vars(m).items() if value is original]
        for o, key in sites:
            self._patches.append((o, key, original))
            setattr(o, key, wrapper)

    # -- public -----------------------------------------------------------

    def install(self):
        for module, attr, span, _, _, counts in TARGETS:
            self._patch(module, attr,
                        lambda fn, s=span, c=counts:
                        self._span_wrapper(fn, s, c))
        for module, attr, metric in COUNTERS:
            self._patch(module, attr,
                        lambda fn, m=metric: self._count_wrapper(fn, m))

    def install_scalar_counters(self):
        for module, attr, metric in SCALAR_COUNTERS:
            self._patch(module, attr,
                        lambda fn, m=metric: self._count_wrapper(fn, m))

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def root(self, op, fn, *args):
        """Run one op as the root span "op", whose spans share its id."""
        self.op = op
        return self._span_wrapper(fn, "op", {})(*args)

    def layer_metrics(self, ops):
        """Per-op means of every TARGETS / COUNTERS metric over ``ops``."""
        out = {}
        for _, _, span, metric, inclusive, counts in TARGETS:
            src = self.inclusive_s if inclusive else self.self_s
            out[metric] = src.get(span, 0.0) / ops
            for c in counts:
                out[c] = self.counts.get(c, 0) / ops
        for _, _, metric in COUNTERS:
            out[metric] = self.counts.get(metric, 0) / ops
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start",
                                  "end"], "spans": self.spans}, fh)
