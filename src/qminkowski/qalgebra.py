"""Noncommutative polynomials and degree-truncated quotient algebras.

Words over a finite generator alphabet are tuples of generator ids; a
polynomial is a mapping from words to exact scalars.

The monomial order is degree-lexicographic: longer words are greater, and
words of equal length compare lexicographically with generator 0 < 1 < ...

The quotient by degree <= 2 relations, truncated at a cap, divides the
words of length <= cap by span{u r v : |u| + deg r + |v| <= cap}.  That
span is the degree-cap part of the ideal of the relations made
homogeneous with a central variable t (each r padded with t up to deg r),
read at t = 1, and degree-lexicographic order is the order "length in the
generators, then lexicographic" there.  The quotient is built by overlap
completion of the homogeneous relations (Bergman's diamond lemma), one
degree at a time up to the cap.  Each rule rewrites its lead word u to
smaller words and carries a t-exponent k: in the cap-c quotient it
applies to a word w containing u only when k <= c - |w|, so a relation
with constant or linear terms can give rules that act on short words
only.  A rule's tail is in normal form at its nominal degree |u| + k:
u fires only with slack at least k, so a tail word t lands where the
slack is at least |u| + k - |t|, and no rule fires in t there.  A rule
of a later nominal degree D > |u| + k fires in no such tail: a lead u'
inside t needs slack D - |u'| >= D - |t|, more than t has.  So a tail
is never reduced again once its degree is done.  An ambiguity waits in
its degree's list as its word, the lead it starts with, and the other
lead and its place, and the difference of its two rewrites is formed
only when its degree comes up, from the tails as they stand then.
Completion never reads the cap except to drop ambiguities above it, so
a quotient whose rules all have t-exponent 0 is, at degrees <= c, the
quotient truncated at any smaller cap c (TruncatedQuotient.serves),
and one quotient can stand in for those.

The leads are the leading words of the ideal part, so the basis (the
words no rule applies to) and every normal form are canonical: they do
not depend on relation order, on the order in which ambiguities were
resolved, or on which element of the ideal an ambiguity's difference
is.  So a word's normal form is memoised one rewrite step at a time:
it is the sum of the normal forms of the words its first rewrite makes,
and the memo keeps every word met on the way.  One walk does this for
completion and for word normal forms alike, at a fixed top degree and
set of rules: a word v is read at slack top - |v|.  Word normal forms
walk at the cap with one memo for the quotient's life.  Completion
walks each degree D at top D with a memo of its own, and adds no rule
while D is worked through, so that memo stays valid: the items of D are
reduced by the rules of lower degrees, eliminated among themselves by
their leads, and only then filed as rules (TruncatedQuotient._complete).
"""

from __future__ import annotations

from .errors import DegreeError
from .exact import ONE, Scalar, _coerce, _raw, _reduce

__all__ = ["NCPoly", "TruncatedQuotient", "build_quotient", "accumulate",
           "accumulate_pairs"]

Word = tuple


def accumulate(out: dict, terms: dict, c=None) -> dict:
    """out += c * terms in place, dropping every key whose coefficient
    cancels; with c omitted, out += terms.  Returns out.

    This is the one sparse accumulate of the package: polynomials, tensor
    slots, coactions and coproducts are all dicts from keys to nonzero
    Scalars, and every sum of them goes through here.  It is one fused
    multiply-add on the (a, b, d) triples of exact.Scalar: c * v and the
    stored value are combined as plain ints and one canonical Scalar is
    built per stored key, with a gcd only when a denominator other than
    1 takes part; but when c is 1 (omitted, ONE, or an int or Fraction
    1), a key new to out stores the term's own Scalar, or nothing when it
    is zero: 1 * v is v, and no Scalar is ever changed after it is built,
    so out and terms may share it.  A Scalar c is read directly, an int
    or Fraction c through exact._coerce.
    """
    if c is None:
        ca, cb, cd = 1, 0, 1
    elif isinstance(c, Scalar):
        ca, cb, cd = c.a, c.b, c.d
    else:
        ca, cb, cd = _coerce(c)
    if not (ca or cb):
        return out
    unit = ca == 1 and not cb and cd == 1
    get = out.get
    for k, v in terms.items():
        s = get(k)
        if s is None and unit:
            if v.a or v.b:
                out[k] = v
            continue
        x, y = v.a, v.b
        a, b, d = ca * x - cb * y, ca * y + cb * x, cd * v.d
        if s is not None:
            e = s.d
            if e == d:
                a += s.a
                b += s.b
            else:
                a, b, d = a * e + s.a * d, b * e + s.b * d, d * e
        if a or b:
            out[k] = _raw(a, b, 1) if d == 1 else _reduce(a, b, d)
        elif s is not None:
            del out[k]
    return out


def accumulate_pairs(out: dict, terms: dict, x: int, y: int) -> None:
    """out += (x + y*i) * terms in place on Gaussian-integer numerators
    over a denominator the caller keeps: terms maps a key to (re, im),
    out to [re, im] lists that are added to where they stand, and a
    cancelled key stays as [0, 0] for the caller to skip.

    accumulate's counterpart for sums that share one denominator: no
    Scalar, gcd or zero test per term, so a Scalar is built only once
    per entry of the finished sum.
    """
    for k, (u, v) in terms.items():
        re, im = x * u - y * v, x * v + y * u
        hit = out.get(k)
        if hit is None:
            out[k] = [re, im]
        else:
            hit[0] += re
            hit[1] += im


def _poly(terms) -> "NCPoly":
    """Wrap terms that hold no zero coefficient, without copying."""
    p = NCPoly.__new__(NCPoly)
    p.terms = terms
    return p


def _key(w):
    return (len(w), w)


class NCPoly:
    """Finitely supported map from words to scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """Terms {word: coeff}: int and Fraction coefficients become
        Scalars, and zero ones are dropped."""
        self.terms = {w: c if isinstance(c, Scalar) else Scalar(c)
                      for w, c in terms.items() if c} if terms else {}

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly({(): ONE})

    @staticmethod
    def gen(i: int) -> "NCPoly":
        return NCPoly({(i,): ONE})

    @staticmethod
    def from_word(w, coeff=ONE) -> "NCPoly":
        return NCPoly({tuple(w): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Length of the longest word; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(len(w) for w in self.terms)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return _poly(accumulate(dict(self.terms), other.terms))

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _poly({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            accumulate(out, {w1 + w2: c2 for w2, c2 in other.terms.items()},
                       c1)
        return _poly(out)

    def scale(self, c) -> "NCPoly":
        if not c:
            return NCPoly()
        return _poly({w: c * v for w, v in self.terms.items()})

    def star(self, invmap=None) -> "NCPoly":
        """The antilinear antihomomorphism: reverse words, conjugate
        coefficients, optionally relabel generators through invmap."""
        out = {}
        for w, c in self.terms.items():
            rw = w[::-1]
            if invmap is not None:
                rw = tuple(map(invmap, rw))
            accumulate(out, {rw: c.conj()})
        return _poly(out)

    def format(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = lambda g: "g%d" % g
        bits = []
        for w in sorted(self.terms, key=_key):
            c = self.terms[w]
            word = "*".join(names(g) for g in w) if w else "1"
            bits.append("(%r)*%s" % (c, word))
        return " + ".join(bits)

    def __repr__(self):
        return self.format()


def _sub(w, i, j, terms):
    """terms with each of its words put in place of w[i:j]."""
    a, b = w[:i], w[j:]
    return {a + x + b: c for x, c in terms.items()}


class TruncatedQuotient:
    """A free algebra modulo degree <= 2 relations, truncated at a degree cap.

    ``_rules`` maps each lead word u to ``(k, tail)``: u rewrites to tail
    inside a word w when k <= cap - |w|.  ``_rank``, ``_by_length``,
    ``_by_prefix`` and ``_by_suffix`` index the leads for completion's
    overlap search.  Word normal forms are memoised
    one rewrite step at a time (word_normal_form), and the basis is built
    the first time it is read, so a quotient used only for normal forms
    never enumerates it.  ``memos`` holds what other modules memoise over this
    algebra (fock's coaction and K); nothing in it refers back to the
    quotient, so a quotient is freed when its last reference goes, with
    no wait for the cycle collector (a cli run keeps its calculus, which
    holds the quotient, on the run instead).
    """

    def __init__(self, gens: int, relations, cap: int):
        if cap < 2:
            raise DegreeError("degree cap must be at least 2")
        self.gens = gens
        self.cap = cap
        self.relation_set = tuple(relations)
        for r in self.relation_set:
            if r.degree() > 2:
                raise DegreeError("relations must have degree at most 2")
        self._rules = {}
        self._lengths = []
        self._rank = {}
        self._by_prefix = {}
        self._by_suffix = {}
        self._by_length = {}
        self._memo = {}
        self.memos = {}
        # a plain attribute, not functools.cached_property: a later write
        # through __dict__ slows every attribute read of the quotient
        self._basis = None
        self._complete()

    def _match(self, w, slack):
        """(i, j, tail) for the leftmost shortest lead w[i:j] whose rule has
        t-exponent at most slack, or None when no rule applies to w."""
        rules = self._rules
        n = len(w)
        for i in range(n + 1):
            for m in self._lengths:
                if i + m > n:
                    break
                rule = rules.get(w[i:i + m])
                if rule is not None and rule[0] <= slack:
                    return i, i + m, rule[1]
        return None

    def _walk(self, w, top, memo):
        """The normal form of the word w, each word v met on the way read
        at slack top - |v|, memoised in memo; the dict is the memo's own
        and is not to be changed.

        On a miss, v takes one rewrite step (the leftmost shortest lead
        that fires, ``_match``), and its normal form is the sum of those
        of the step's words, each memoised the same way: every word met on
        the way stays in the memo.  Every step makes smaller words, so the
        walk ends; it keeps its own stack, and a long word needs no deep
        recursion.  A memo serves one top and one set of rules."""
        stack, steps = [w], {}
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            step = steps.get(v)
            if step is None:
                m = self._match(v, top - len(v))
                if m is None:
                    memo[v] = {v: ONE}
                    stack.pop()
                    continue
                step = steps[v] = _sub(v, *m)
                todo = [u for u in step if u not in memo]
                if todo:
                    stack += todo
                    continue
            nf = {}
            for u, c in step.items():
                accumulate(nf, memo[u], c)
            memo[v] = nf
            stack.pop()
        return memo[w]

    def _complete(self):
        """Overlap completion of the homogenised relations up to the cap,
        one nominal degree D at a time, lowest first, against the rules
        of lower degrees alone: no rule is added while D is worked
        through.

        Pending relations and ambiguities wait in one list per degree.
        Reduce: each item of degree D is reduced by the rules of lower
        degree, every word w at slack D - |w|, through ``_walk`` with one
        memo for the degree; an ambiguity's difference is formed from the
        tails as they stand.  Eliminate: the reduced rows are eliminated
        among themselves by exact lookups of their leads, greatest word
        first; each row that is left becomes a rule whose lead u is its
        greatest word, with t-exponent D - |u|, and each new tail is then
        reduced once against the smaller new leads.  File: only then are
        the new rules stored and their ambiguities, which all lie above D,
        queued.

        These are the rules that adding each rule as soon as it is found
        would make, for two reasons.  A rule of nominal degree D with
        lead u, and so t-exponent D - |u|, fires in a word v of a
        degree-D item only when D - |u| <= D - |v|, that is when v is u:
        within the degree the rule set, and so the memo, stays fixed, and
        the new leads act on the rows and on each other's tails by exact
        lookup alone.  And a lead of degree D fires in no tail of a lower
        degree, so every tail stays reduced once its degree is done.  u
        is reduced at D, where any older rule with lead u would fire, so
        no rule is replaced.  Until the first rule exists a row is a copy
        of its item, and a relation's own terms are never changed.

        Each rule is filed in the lead indexes (``_index``) as it is stored
        and before its ambiguities are sought, and leads are never removed
        or replaced: so the indexes always hold exactly the leads of
        _rules, each list in rank order.
        """
        rules, walk = self._rules, self._walk
        pending = {}
        for r in self.relation_set:
            if r.terms:
                pending.setdefault(r.degree(), []).append(r.terms)
        while pending:
            degree = min(pending)
            memo, new = {}, {}
            for item in pending.pop(degree):
                if isinstance(item, tuple):
                    w, left, right, j = item
                    item = accumulate(
                        _sub(w, 0, len(left), rules[left][1]),
                        _sub(w, j, j + len(right), rules[right][1]), -ONE)
                if not rules:
                    row = dict(item)
                else:
                    row = {}
                    for w, c in item.items():
                        nf = memo.get(w)
                        if nf is None:
                            nf = walk(w, degree, memo)
                        accumulate(row, nf, c)
                while row:
                    lead = max(row, key=_key)
                    c = row.pop(lead)
                    tail = new.get(lead)
                    if tail is None:
                        neg = -ONE / c
                        new[lead] = {w: neg * v for w, v in row.items()}
                        break
                    accumulate(row, tail, c)
            for lead in sorted(new, key=_key):     # smaller tails final first
                tail = new[lead]
                for w in [w for w in tail if w in new]:
                    accumulate(tail, new[w], tail.pop(w))
            for lead, tail in new.items():
                k = degree - len(lead)
                rules[lead] = (k, tail)
                self._index(lead)
                for amb_degree, amb in self._ambiguities(lead, k):
                    pending.setdefault(amb_degree, []).append(amb)

    def _index(self, lead):
        """File a new lead under its rank (its insertion index in _rules),
        its length, and each of its proper prefixes and suffixes."""
        self._rank[lead] = len(self._rank)
        for n in range(1, len(lead)):
            self._by_prefix.setdefault(lead[:n], []).append(lead)
            self._by_suffix.setdefault(lead[-n:], []).append(lead)
        self._by_length.setdefault(len(lead), []).append(lead)
        self._lengths = sorted(self._by_length)

    def _ambiguities(self, v, kv):
        """(nominal degree, (W, left, right, j)) for every overlap and
        inclusion W of the lead v, with t-exponent kv, and a kept lead, v
        included, up to the cap: W starts with left, right sits at W[j:],
        and an inclusion is the case W == left.  ``_complete`` forms the
        difference of the two rewrites when the entry's degree comes up.

        An overlap word or including lead W sits at degree |W| + max(k_u,
        k_v).  Leads that meet in no letter need no check: every term
        below a lead carries at least the lead's t-exponent.

        The candidates come from the lead indexes, which hold every kept
        lead, v included: a lead u ends as v begins, in n < |u|, |v|
        letters, exactly when u is filed under the suffix v[:n], and begins
        as v ends when it is filed under the prefix v[-n:]; only a lead of
        another length can include v or lie inside it.  The entries
        come lead by lead in rank order, the order of _rules, and for each
        lead u as the all-rules scan makes them: the overlaps u v by
        overlap length, u's inclusions of v, then (u != v) the overlaps v u
        and v's inclusions of u.
        """
        rules, cap, m = self._rules, self.cap, len(v)
        hits = {}
        for n in range(1, m):
            for u in self._by_suffix.get(v[:n], ()):
                hits.setdefault(u, ([], []))[0].append(n)
            for u in self._by_prefix.get(v[-n:], ()):
                hits.setdefault(u, ([], []))[1].append(n)
        for length, leads in self._by_length.items():
            if length != m:
                for u in leads:
                    hits.setdefault(u, ((), ()))
        for u in sorted(hits, key=self._rank.__getitem__):
            ends, starts = hits[u]
            k = max(rules[u][0], kv)
            lu = len(u)
            for n in ends:
                if lu + m - n + k <= cap:
                    yield lu + m - n + k, (u + v[n:], u, v, lu - n)
            if m < lu and lu + k <= cap:
                for i in range(lu - m + 1):
                    if u[i:i + m] == v:
                        yield lu + k, (u, u, v, i)
            if u == v:
                continue
            for n in starts:
                if m + lu - n + k <= cap:
                    yield m + lu - n + k, (v + u[n:], v, u, m - n)
            if lu < m and m + k <= cap:
                for i in range(m - lu + 1):
                    if v[i:i + lu] == u:
                        yield m + k, (v, v, u, i)

    def _levels(self):
        """The words of each degree that no rule applies to, in lexicographic
        order, built on first read.  A lead with k = 0 applies at every
        length, so no word containing one is extended."""
        if self._basis is not None:
            return self._basis
        always = {u for u, (k, _) in self._rules.items() if k == 0}
        lengths = sorted({len(u) for u in always})
        per_degree, level = [], [()]
        for d in range(self.cap + 1):
            if d:
                level = [w for w in (p + (g,) for p in level
                                     for g in range(self.gens))
                         if not any(w[d - m:] in always for m in lengths
                                    if m <= d)]
            per_degree.append(tuple(w for w in level
                                    if self._match(w, self.cap - d) is None))
        self._basis = tuple(per_degree)
        return self._basis

    def serves(self, cap: int) -> bool:
        """Whether this quotient, read at degrees <= cap, is the quotient
        truncated at cap: true at its own cap, and at a smaller one when
        every rule has t-exponent 0.

        Completion to cap makes exactly the rules of nominal degree <= cap
        that completion to self.cap makes: a degree's list holds the
        relations and ambiguities of that degree alone, both completions
        keep an ambiguity of degree <= cap, and every reduction reads the
        slack of its nominal degree, never the cap.  Later degrees only add
        rules, and with t-exponent 0 a rule of nominal degree D > cap has a
        lead of length D, longer than any word of degree <= cap and than
        any tail word of a lower rule, so it fires in none of them.  A rule
        with t-exponent 0 fires at any slack, so the normal forms and basis
        words of degree <= cap are the same under either cap.  A positive
        t-exponent breaks both steps: its rule fires at a slack only the
        larger cap grants, and a short lead can sit at a nominal degree
        above cap.
        """
        return cap == self.cap or cap < self.cap and all(
            k == 0 for k, _ in self._rules.values())

    def _within_cap(self, degree: int):
        if degree > self.cap:
            raise DegreeError("degree %d exceeds cap %d" % (degree, self.cap))

    def basis(self, degree: int):
        """Normal-form basis words of exactly the given degree."""
        self._within_cap(degree)
        return self._levels()[degree]

    def basis_upto(self, degree: int):
        """The basis words of degrees 0..degree, yielded lazily; a degree
        above the cap raises DegreeError here, at the call."""
        self._within_cap(degree)
        return (w for d in range(degree + 1) for w in self._levels()[d])

    def dimension_profile(self):
        """Number of basis words in each degree 0..cap."""
        return [len(b) for b in self._levels()]

    def word_normal_form(self, w) -> dict:
        """The normal form of the word w as terms, memoised; the dict is
        the memo's own and is not to be changed.

        This is ``_walk`` at the cap, with the quotient's one memo: each
        word v met on the way is read at slack cap - |v|, the slack it has
        in this quotient, and the normal forms are canonical."""
        nf = self._memo.get(w)
        if nf is not None:
            return nf
        self._within_cap(len(w))
        return self._walk(w, self.cap, self._memo)

    def normal_form(self, p: NCPoly) -> NCPoly:
        self._within_cap(p.degree())
        out, word_nf = {}, self.word_normal_form
        for w, c in p.terms.items():
            accumulate(out, word_nf(w), c)
        return _poly(out)


def build_quotient(gens: int, relations, cap: int) -> TruncatedQuotient:
    """Construct the truncated quotient of the free algebra on ``gens``
    generators by the given degree <= 2 relations."""
    return TruncatedQuotient(gens, relations, cap)
