"""Noncommutative polynomials and degree-truncated quotient algebras.

Words over a finite generator alphabet are tuples of generator ids; a
polynomial is a mapping from words to exact scalars.  A quotient is built
from degree <= 2 relations by padding each relation with all generator
words that keep the total degree inside the cap, then echelonising the
resulting rows over the scalar field.

The monomial order is degree-lexicographic: longer words are greater, and
words of equal length compare lexicographically with generator 0 < 1 < ...
Each echelon row is keyed by its greatest word (the pivot); the surviving
non-pivot words form the normal-form basis.  Because the pivot set is the
set of leading words of the row space, the basis and all normal forms are
canonical: they do not depend on relation order.
"""

from __future__ import annotations

from itertools import product

from .errors import DegreeError
from .exact import ONE, Scalar

__all__ = ["NCPoly", "TruncatedQuotient", "build_quotient", "all_words",
           "accumulate"]

Word = tuple


def accumulate(out: dict, terms: dict, c=None) -> dict:
    """out += c * terms in place, dropping every key whose coefficient
    cancels; with c omitted, out += terms.  Returns out.

    This is the one sparse accumulate of the package: polynomials, tensor
    slots, coactions and coproducts are all dicts from keys to nonzero
    Scalars, and every sum of them goes through here.
    """
    get = out.get
    for k, v in terms.items():
        if c is not None:
            v = c * v
        s = get(k)
        if s is not None:
            v = s + v
        if v:
            out[k] = v
        elif s is not None:
            del out[k]
    return out


def _poly(terms) -> "NCPoly":
    """Wrap terms that hold no zero coefficient, without copying."""
    p = NCPoly.__new__(NCPoly)
    p.terms = terms
    return p


def _key(w):
    return (len(w), w)


def all_words(gens: int, length: int):
    """All words of exactly the given length, in lexicographic order."""
    return product(range(gens), repeat=length)


class NCPoly:
    """Finitely supported map from words to scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {w: c for w, c in terms.items() if c} if terms else {}

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
        if not isinstance(coeff, Scalar):
            coeff = Scalar(coeff)
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
        return _poly(accumulate(dict(self.terms), other.terms))

    def __sub__(self, other):
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
        if not isinstance(c, Scalar):
            c = Scalar(c)
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


def _substitute(table, terms):
    """Replace every word of terms that has a table entry by that entry."""
    out = {}
    for w, c in terms.items():
        sub = table.get(w)
        if sub is None:
            accumulate(out, {w: c})
        else:
            accumulate(out, sub, c)
    return out


class TruncatedQuotient:
    """A free algebra modulo degree <= 2 relations, truncated at a degree cap.

    The reduction table maps each pivot word to its fully reduced
    replacement, so a normal form is a single substitution pass.
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
        self._table = self._build_table()
        self._basis = self._build_basis()

    def _build_table(self):
        ech = {}
        for rel in self.relation_set:
            if rel.is_zero():
                continue
            d = rel.degree()
            slack = self.cap - d
            for lu in range(slack + 1):
                for u in all_words(self.gens, lu):
                    for lv in range(slack - lu + 1):
                        for v in all_words(self.gens, lv):
                            self._insert(ech, {u + w + v: c for w, c
                                               in rel.terms.items()})
        # Substitute ascending so every stored tail is itself fully reduced.
        table = {}
        for lead in sorted(ech, key=_key):
            table[lead] = _substitute(table, ech[lead])
        return table

    @staticmethod
    def _insert(ech, row):
        """Reduce row against the pivots in ech and store what is left.

        Each pivot row is stored as the replacement of its lead word (the
        tail times -1/lead), so reducing by it is one accumulate.
        """
        while row:
            lead = max(row, key=_key)
            c = row.pop(lead)
            piv = ech.get(lead)
            if piv is None:
                neg = -ONE / c
                ech[lead] = {w: neg * v for w, v in row.items()}
                return
            accumulate(row, piv, c)

    def _build_basis(self):
        table = self._table
        per_degree = []
        for d in range(self.cap + 1):
            per_degree.append(tuple(w for w in all_words(self.gens, d)
                                    if w not in table))
        return tuple(per_degree)

    def is_basis_word(self, w) -> bool:
        return len(w) <= self.cap and w not in self._table

    def basis(self, degree: int):
        """Normal-form basis words of exactly the given degree."""
        if degree > self.cap:
            raise DegreeError("degree %d exceeds cap %d" % (degree, self.cap))
        return self._basis[degree]

    def basis_upto(self, degree: int):
        if degree > self.cap:
            raise DegreeError("degree %d exceeds cap %d" % (degree, self.cap))
        for d in range(degree + 1):
            yield from self._basis[d]

    def dimension_profile(self):
        """Number of basis words in each degree 0..cap."""
        return [len(b) for b in self._basis]

    def normal_form(self, p: NCPoly) -> NCPoly:
        if p.degree() > self.cap:
            raise DegreeError("degree %d exceeds cap %d"
                              % (p.degree(), self.cap))
        return _poly(_substitute(self._table, p.terms))


def build_quotient(gens: int, relations, cap: int) -> TruncatedQuotient:
    """Construct the truncated quotient of the free algebra on ``gens``
    generators by the given degree <= 2 relations."""
    return TruncatedQuotient(gens, relations, cap)
