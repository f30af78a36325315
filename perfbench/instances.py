"""Seeded instance files for the benchmark workloads.

The generator writes the JSON schema of ``instances/README.md`` straight
from ``fractions.Fraction`` values and never imports the package, so the
inputs do not change when the code under test does.  Every function takes
a ``random.Random`` and returns the instance document as a dict; the same
seed always gives the same documents.

Families:

- ``classical``: the undeformed reference data (R the pair swap, Z = T = 0);
  only the name differs from ``instances/classical.json``.
- ``imag``: central shifts [x_i, x_j] = c with c purely imaginary, on 1-3
  coordinate pairs, integer or fractional.  PBW and star-closed.
- ``complex``: the same shifts with a nonzero real part, which breaks the
  star (pbw FAIL) and the pairing's conjugate-flip symmetry (braiding FAIL).
- ``zbent``: one Lie-type entry Z[(i, j), i] != 0 with i != j, the shape that
  makes the calculus obstruction nonzero.
- ``dense``: random R, Z, T with a given share (the density) of nonzero
  entries, small real rationals; E, E' and X stay classical so that the
  metric, and hence ``validate``, is predictable.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

DENSE_VALUES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                Fraction(1, 2), Fraction(-1, 2))
PAIRS = [(i, j) for i in range(4) for j in range(4) if i < j]


def quad(re=0, im=0):
    re, im = Fraction(re), Fraction(im)
    return [re.numerator, re.denominator, im.numerator, im.denominator]


def _block(rows, cols, nonzero):
    """Matrix block with the given {flat index: (re, im)} entries."""
    entries = [quad(*nonzero[k]) if k in nonzero else quad()
               for k in range(rows * cols)]
    return {"rows": rows, "cols": cols, "entries": entries}


def classical(name):
    swap4 = {16 * (4 * j + i) + (4 * i + j): (1, 0)
             for i in range(4) for j in range(4)}
    swap2 = {4 * (2 * j + i) + (2 * i + j): (1, 0)
             for i in range(2) for j in range(2)}
    unit = {1: (1, 0), 2: (-1, 0)}
    return {
        "name": name, "q": quad(1), "s": quad(1),
        "E": _block(4, 1, unit), "Eprime": _block(1, 4, unit),
        "X": _block(4, 4, swap2), "R": _block(16, 16, swap4),
        "Z": _block(16, 4, {}), "T": _block(16, 1, {}),
    }


def _small(rng, fractional):
    """A nonzero small rational; a non-integer one when fractional."""
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    if not fractional:
        return Fraction(num)
    den = rng.choice((2, 3))
    if num % den == 0:
        num += 1
    return Fraction(num, den)


def _shift_entries(rng, npairs, value):
    out = {}
    for i, j in rng.sample(PAIRS, npairs):
        if rng.random() < 0.5:
            i, j = j, i
        out[4 * i + j] = value()
    return out


def imag_shift(name, rng, npairs, fractional):
    doc = classical(name)
    doc["T"] = _block(16, 1, _shift_entries(
        rng, npairs, lambda: (0, _small(rng, fractional))))
    return doc


def complex_shift(name, rng, npairs, fractional):
    doc = classical(name)
    doc["T"] = _block(16, 1, _shift_entries(
        rng, npairs,
        lambda: (_small(rng, fractional), _small(rng, fractional))))
    return doc


def zbent(name, rng, fractional):
    doc = classical(name)
    i, j = rng.choice(PAIRS)
    if rng.random() < 0.5:
        i, j = j, i
    doc["Z"] = _block(16, 4, {4 * (4 * i + j) + i: (_small(rng, fractional),
                                                     0)})
    return doc


def dense(name, rng, density):
    def draw(n):
        # An exact nonzero count and a balanced value multiset keep the
        # cost of one instance close to that of the next; the seed only
        # moves the values around.
        count = round(density * n)
        values = [DENSE_VALUES[k % len(DENSE_VALUES)] for k in range(count)]
        rng.shuffle(values)
        return {k: (v, 0) for k, v in zip(sorted(rng.sample(range(n), count)),
                                          values)}

    doc = classical(name)
    doc["R"] = _block(16, 16, draw(256))
    doc["Z"] = _block(16, 4, draw(64))
    doc["T"] = _block(16, 1, draw(16))
    return doc


def write(doc, directory):
    """Write one instance as ``<directory>/<name>.json``; return the path."""
    path = os.path.join(directory, doc["name"] + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return path
