"""Truncated quotients against the padded-row reference engine.

The reference builds the quotient the direct way: every relation r is
padded with every pair of words u, v with |u| + deg r + |v| <= cap, the
rows u r v are echelonised over the scalars, and the pivots (leading
words) are the reducible words.  Overlap completion must give the same
basis in every degree and the same normal form for every word up to the
cap, including where constant and linear terms make the truncation lose
a whole degree.  It must also leave no rule applicable inside another
rule's tail, at the slack that tail has wherever its rule fires.

Where the padded rows take too long (the dense relations past cap 3),
the engine is compared with ``EagerQuotient``: overlap completion that
adds each rule as soon as it is found, reduces by the reference scan
``full_reduce``, forms each ambiguity's difference when the ambiguity is
found, from the tails as they are then, and reduces again the tails each
new lead fires in as soon as it is added.
"""

import dataclasses
import random
import time
from heapq import heapify, heappop, heappush
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from qminkowski.exact import ONE, Mat, Scalar, kron
from qminkowski.instance import builtin
from qminkowski.lorentz import lorentz_relations
from qminkowski.minkowski import mink_relations
from qminkowski.qalgebra import NCPoly, TruncatedQuotient, _sub, \
    accumulate, build_quotient

from shared import MOVED, full_reduce, leibniz_breaking, \
    perfbench_dense, rand_instance, sign_twisted_flip, tshift, twisted, \
    twisted_tshift, z_perturbed


def _key(w):
    return (len(w), w)


def _substitute(table, terms):
    out = {}
    for w, c in terms.items():
        accumulate(out, table.get(w, {w: ONE}), c)
    return out


def _insert(ech, row):
    """Reduce row against the stored pivots; store what is left as the
    replacement of its lead word."""
    while row:
        lead = max(row, key=_key)
        c = row.pop(lead)
        piv = ech.get(lead)
        if piv is None:
            neg = -ONE / c
            ech[lead] = {w: neg * v for w, v in row.items()}
            return
        accumulate(row, piv, c)


def padded_quotient(gens, relations, cap):
    """(table, basis): each pivot word's normal form, and the non-pivot
    words of each degree in lexicographic order."""
    ech = {}
    for rel in relations:
        if rel.is_zero():
            continue
        slack = cap - rel.degree()
        for lu in range(slack + 1):
            for u in product(range(gens), repeat=lu):
                for lv in range(slack - lu + 1):
                    for v in product(range(gens), repeat=lv):
                        _insert(ech, {u + w + v: c
                                      for w, c in rel.terms.items()})
    table = {}
    for lead in sorted(ech, key=_key):
        table[lead] = _substitute(table, ech[lead])
    basis = [tuple(w for w in product(range(gens), repeat=d) if w not in table)
             for d in range(cap + 1)]
    return table, basis


def assert_tails_reduced(q):
    """No rule applies to a word w of a rule's tail at the slack w has
    wherever that rule u -> (k, tail) fires: |u| + k - |w|."""
    for u, (k, tail) in q._rules.items():
        for w in tail:
            assert q._match(w, len(u) + k - len(w)) is None, (u, w)


def assert_matches_oracle(gens, relations, cap):
    table, basis = padded_quotient(gens, relations, cap)
    q = build_quotient(gens, relations, cap)
    assert_tails_reduced(q)
    for d in range(cap + 1):
        assert q.basis(d) == basis[d], d
        for w in product(range(gens), repeat=d):
            assert q.normal_form(NCPoly.from_word(w)).terms == \
                table.get(w, {w: ONE}), w
    return q


CLASSICAL = builtin("classical")
BENT = {
    "tshift": tshift(),
    "zbent": z_perturbed(),
    "twisted": twisted(),
    "leibniz-breaking": leibniz_breaking(),
    "twisted-tshift": twisted_tshift(),
}


@pytest.mark.parametrize("cap", range(2, 7))
def test_classical_minkowski(cap):
    q = assert_matches_oracle(4, mink_relations(CLASSICAL), cap)
    assert q.dimension_profile() == [(d + 1) * (d + 2) * (d + 3) // 6
                                     for d in range(cap + 1)]


@pytest.mark.parametrize("cap", range(2, 5))
def test_classical_lorentz(cap):
    assert_matches_oracle(8, lorentz_relations(CLASSICAL), cap)


@pytest.mark.parametrize("cap", range(2, 6))
@pytest.mark.parametrize("name", sorted(BENT))
def test_bent_minkowski(name, cap):
    assert_matches_oracle(4, mink_relations(BENT[name]), cap)


@pytest.mark.parametrize("cap", (2, 3))
@pytest.mark.parametrize("seed", (31, 32, 33))
def test_dense_random_minkowski(seed, cap):
    assert_matches_oracle(4, mink_relations(rand_instance(seed)), cap)


def test_moved_twisted_file_matches_its_recipe():
    """instances/README.md: the sign-twisted flip moved by the first
    invertible integer A of random.Random(5) with entries in -2..2."""
    rng = random.Random(5)
    while True:
        a = Mat.from_rows([[Scalar(rng.randint(-2, 2)) for _ in range(4)]
                           for _ in range(4)])
        if a.det():
            break
    aa = kron(a, a)
    assert MOVED == dataclasses.replace(
        CLASSICAL, name="moved-twisted",
        R=aa * sign_twisted_flip() * aa.inverse())
    assert sum(1 for x in MOVED.R.data if x) == 165


def test_moved_twisted_minkowski():
    """A dense R whose quotient keeps the classical profile."""
    assert_matches_oracle(4, mink_relations(MOVED), 3)
    q = build_quotient(4, mink_relations(MOVED), 6)
    assert len(q._rules) == 30
    assert q.dimension_profile() == [1, 4, 10, 20, 35, 56, 84]


@pytest.mark.parametrize("seed", (11, 12))
@pytest.mark.parametrize("density", (0.3, 0.5))
def test_perfbench_dense_minkowski(density, seed):
    q = assert_matches_oracle(4, mink_relations(perfbench_dense(seed,
                                                                density)), 3)
    assert q.dimension_profile() == [0, 0, 0, 0]


class EagerQuotient(TruncatedQuotient):
    """Overlap completion that adds each rule as soon as it is found and
    reduces with the reference scan full_reduce, by every rule found so
    far, instead of one memoised walk per degree by the rules of lower
    degrees.  It forms each ambiguity's difference as soon as the
    ambiguity is found, from the tails as they are at that moment; the
    difference then waits in a heap until its degree comes up.  Each new
    rule at once reduces again the tails it fires in."""

    def _complete(self):
        queue = [(r.degree(), n, r.terms)
                 for n, r in enumerate(self.relation_set) if r.terms]
        heapify(queue)
        seq = len(queue)
        while queue:
            degree, _, terms = heappop(queue)
            rest = full_reduce(self, terms, degree)
            if not rest:
                continue
            lead = max(rest, key=_key)
            neg = -ONE / rest.pop(lead)
            rule = (degree - len(lead), {w: neg * v for w, v in rest.items()})
            self._rules[lead] = rule
            self._lengths = sorted({len(u) for u in self._rules})
            self._reduce_tails_with(lead, rule[0])
            for amb_degree, amb in self._eager_ambiguities(lead, rule):
                heappush(queue, (amb_degree, seq, amb))
                seq += 1

    def _reduce_tails_with(self, v, kv):
        """Reduce again each rule's tail in which the new lead v, with
        t-exponent kv, fires: in a word w of the tail of u -> (k, t) when
        kv <= |u| + k - |w|.  (A tail never holds its own lead.)"""
        m = len(v)
        rules = self._rules
        for u, (k, t) in rules.items():
            top = len(u) + k - kv
            if top < m:
                continue
            for w in t:
                n = len(w)
                if m <= n <= top and (w == v or n > m and any(
                        w[i:i + m] == v for i in range(n - m + 1))):
                    rules[u] = (k, full_reduce(self, t, len(u) + k))
                    break

    def _eager_ambiguities(self, v, rule):
        kv, tv = rule
        for u, (ku, tu) in self._rules.items():
            k = max(ku, kv)
            pairs = [(u, tu, v, tv)]
            if u != v:
                pairs.append((v, tv, u, tu))
            for left, tl, right, tr in pairs:
                for n in range(1, min(len(left), len(right))):
                    w = left + right[n:]
                    if len(w) + k <= self.cap and left[-n:] == right[:n]:
                        yield len(w) + k, accumulate(
                            _sub(w, 0, len(left), tl),
                            _sub(w, len(left) - n, len(w), tr), -ONE)
                if len(right) < len(left) and len(left) + k <= self.cap:
                    for i in range(len(left) - len(right) + 1):
                        if left[i:i + len(right)] == right:
                            yield len(left) + k, accumulate(
                                dict(tl), _sub(left, i, i + len(right), tr),
                                -ONE)


def scan_ambiguities(q, v, kv):
    """The overlaps and inclusions of the lead v with every kept lead, by
    a scan of all rules in insertion order: the engine's lookup before it
    kept lead indexes."""
    for u, (ku, _) in q._rules.items():
        k = max(ku, kv)
        pairs = [(u, v)] if u == v else [(u, v), (v, u)]
        for left, right in pairs:
            for n in range(1, min(len(left), len(right))):
                w = left + right[n:]
                if len(w) + k <= q.cap and left[-n:] == right[:n]:
                    yield len(w) + k, (w, left, right, len(left) - n)
            if len(right) < len(left) and len(left) + k <= q.cap:
                for i in range(len(left) - len(right) + 1):
                    if left[i:i + len(right)] == right:
                        yield len(left) + k, (left, left, right, i)


class ScanCheckedQuotient(TruncatedQuotient):
    """The engine, with each new rule's ambiguities also found by
    scan_ambiguities and required to be the same list in the same order;
    ``checked`` counts the rules so compared."""

    checked = 0

    def _ambiguities(self, v, kv):
        found = list(super()._ambiguities(v, kv))
        assert found == list(scan_ambiguities(self, v, kv)), v
        self.checked += 1
        return iter(found)


def assert_overlaps_match_scan(gens, relations, cap):
    q = ScanCheckedQuotient(gens, relations, cap)
    assert q.checked == len(q._rules)
    return q


OVERLAP_CASES = (
    [("classical", 4, mink_relations(CLASSICAL), cap) for cap in range(2, 9)]
    + [("lorentz", 8, lorentz_relations(CLASSICAL), cap)
       for cap in range(2, 8)]
    + [("moved", 4, mink_relations(MOVED), cap) for cap in (4, 5, 6)]
    + [("dense%d" % seed, 4, mink_relations(perfbench_dense(seed, 0.3)), cap)
       for seed in (11, 12, 13) for cap in (3, 4, 5)])


@pytest.mark.parametrize("name, gens, relations, cap", OVERLAP_CASES,
                         ids=["%s-%d" % (c[0], c[3]) for c in OVERLAP_CASES])
def test_indexed_overlaps_match_the_scan(name, gens, relations, cap):
    assert assert_overlaps_match_scan(gens, relations, cap).checked > 0


def assert_matches_eager(gens, relations, cap):
    """The same rules, profile and normal form of every word up to the cap
    as EagerQuotient."""
    q = build_quotient(gens, relations, cap)
    e = EagerQuotient(gens, relations, cap)
    assert q._rules == e._rules
    assert q.dimension_profile() == e.dimension_profile()
    for d in range(cap + 1):
        for w in product(range(gens), repeat=d):
            assert q.word_normal_form(w) == e.word_normal_form(w), w
    return q


@pytest.mark.parametrize("cap", (3, 4, 5))
@pytest.mark.parametrize("density", (0.3, 0.5))
@pytest.mark.parametrize("seed", (11, 12, 13))
def test_perfbench_dense_matches_eager(seed, density, cap):
    assert_matches_eager(4, mink_relations(perfbench_dense(seed, density)),
                         cap)


# The perfbench dense quotients above collapse (1 lies in the truncated
# ideal, as test_perfbench_dense_minkowski shows at cap 3); these do not.
# The padded rows check them at cap 3 only; caps 5 and 6 add the degrees
# whose ambiguities make most of the rules and of the memoised walk.
@pytest.mark.parametrize("cap", (3, 4, 5, 6))
def test_moved_twisted_matches_eager(cap):
    assert_matches_eager(4, mink_relations(MOVED), cap)


@pytest.mark.parametrize("name", sorted(BENT))
def test_bent_minkowski_matches_eager(name):
    assert_matches_eager(4, mink_relations(BENT[name]), 6)


# assert_matches_oracle checks the reduced tails too; these are the caps
# where the oracle would take too long.
TAIL_CASES = (
    [("lorentz", 8, lorentz_relations(CLASSICAL), 5)]
    + [("rand%d" % seed, 4, mink_relations(rand_instance(seed)), 4)
       for seed in (31, 32, 33)]
    + [("dense%s" % density, 4,
        mink_relations(perfbench_dense(11, density)), cap)
       for density in (0.3, 0.5) for cap in (4, 5)])


@pytest.mark.parametrize("name, gens, relations, cap", TAIL_CASES,
                         ids=["%s-%d" % (c[0], c[3]) for c in TAIL_CASES])
def test_rule_tails_stay_reduced(name, gens, relations, cap):
    assert_tails_reduced(build_quotient(gens, relations, cap))


@pytest.mark.parametrize("gens, relations, cap", [
    (1, [NCPoly.one().scale(2), NCPoly.from_word((0, 0)) - NCPoly.gen(0)],
     3),
    (4, mink_relations(perfbench_dense(11, 0.3)), 3),
    (8, lorentz_relations(CLASSICAL), 4),
], ids=["constant", "dense11", "lorentz"])
def test_a_build_leaves_its_relations_untouched(gens, relations, cap):
    """Two builds from the same NCPoly objects give equal quotients and
    leave every relation's terms as they were, including at the first
    degree, where no rule exists yet to reduce a relation with."""
    before = [dict(r.terms) for r in relations]
    q, p = (build_quotient(gens, relations, cap) for _ in range(2))
    assert q._rules == p._rules
    assert q.dimension_profile() == p.dimension_profile()
    assert [r.terms for r in relations] == before


def test_cap_far_past_any_degree_costs_nothing():
    """Completion keeps nothing sized by the cap, so a cap of 10**9 costs
    what the relations cost."""
    start = time.process_time()
    q = TruncatedQuotient(4, mink_relations(CLASSICAL), 10 ** 9)
    assert q.word_normal_form((1, 0)) == {(0, 1): ONE}
    assert time.process_time() - start < 0.5


def test_seed_31_collapses_at_cap_3():
    rels = mink_relations(rand_instance(31))
    assert build_quotient(4, rels, 2).dimension_profile() == [1, 4, 0]
    assert build_quotient(4, rels, 3).dimension_profile() == [0, 0, 0, 0]


# --- random relation sets ---------------------------------------------------

PROFILE = settings(max_examples=150, deadline=None)

scalars = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def relation_sets(draw):
    """(gens, relations, cap): 1-3 generators and 1-4 relations of up to
    2 quadratic, 2 linear and 1 constant term each; cap 2-5."""
    gens = draw(st.integers(1, 3))

    def terms(length, most):
        word = st.tuples(*[st.integers(0, gens - 1)] * length)
        return st.lists(st.tuples(word, scalars), max_size=most)

    def relation(parts):
        p = NCPoly.zero()
        for w, c in (t for part in parts for t in part):
            p = p + NCPoly.from_word(w, c)
        return p

    rel = st.tuples(terms(2, 2), terms(1, 2), terms(0, 1)).map(relation)
    rels = draw(st.lists(rel.filter(lambda p: not p.is_zero()),
                         min_size=1, max_size=4))
    return gens, rels, draw(st.integers(2, 5))


@PROFILE
@given(relation_sets())
def test_random_relations_match_oracle(case):
    assert_matches_oracle(*case)


@PROFILE
@given(relation_sets())
def test_random_relations_match_eager(case):
    assert_matches_eager(*case)


@st.composite
def dependent_relation_sets(draw):
    """relation_sets with a r_i + b r_j appended for two of its relations
    (i = j allowed), so that one degree holds linearly dependent items."""
    gens, rels, cap = draw(relation_sets())
    i, j = (draw(st.integers(0, len(rels) - 1)) for _ in range(2))
    combination = rels[i].scale(draw(scalars)) + rels[j].scale(draw(scalars))
    return gens, rels + [combination], cap


@PROFILE
@given(dependent_relation_sets())
def test_dependent_relations_match_eager(case):
    assert_tails_reduced(assert_matches_eager(*case))


@PROFILE
@given(relation_sets(), st.randoms(use_true_random=False))
def test_relation_order_is_invisible(case, rng):
    gens, rels, cap = case
    shuffled = rels[:]
    rng.shuffle(shuffled)
    q, p = build_quotient(gens, rels, cap), build_quotient(gens, shuffled,
                                                           cap)
    assert p.dimension_profile() == q.dimension_profile()
    for d in range(cap + 1):
        assert p.basis(d) == q.basis(d)
        for w in product(range(gens), repeat=d):
            word = NCPoly.from_word(w)
            assert p.normal_form(word) == q.normal_form(word)


@PROFILE
@given(relation_sets())
def test_random_overlaps_match_the_scan(case):
    """Mixed lead lengths and positive t-exponents: rules whose leads have
    length 0, 1 and 2 and more, and rules that fire only with slack."""
    q = assert_overlaps_match_scan(*case)
    assume(any(k > 0 for k, _ in q._rules.values()))
