"""The quantum Minkowski coordinate algebra.

Generators x_0..x_3 satisfy the rows of (R - 1)(x (x) x - Z x + T) = 0.
The algebra is the degree-truncated quotient itself (a TruncatedQuotient,
as for the Lorentz algebra); a deformation has the classical size exactly
when the basis profile matches the commutative monomial counts, which is
what pbw_check tests.
"""

from __future__ import annotations

from math import comb

from .exact import Mat
from .instance import PoincareInstance
from .qalgebra import NCPoly, TruncatedQuotient, build_quotient

__all__ = [
    "mink_relations", "make_minkowski",
    "pbw_check", "expected_profile", "star_closed",
]


def mink_relations(inst: PoincareInstance):
    """The defining relations, one NCPoly per nonzero row."""
    rm1 = inst.R - Mat.identity(16)
    rz = rm1 * inst.Z
    rt = rm1 * inst.T
    rows = [{} for _ in range(16)]
    for row, col, c in rm1.nonzeros():
        rows[row][divmod(col, 4)] = c
    for row, m, c in rz.nonzeros():
        rows[row][(m,)] = -c
    for row, _, c in rt.nonzeros():
        rows[row][()] = c
    return [NCPoly(terms) for terms in rows if terms]


def make_minkowski(inst: PoincareInstance, cap: int = 4) -> TruncatedQuotient:
    return build_quotient(4, mink_relations(inst), cap)


def expected_profile(n: int):
    """Commutative monomial counts in four variables, degree by degree."""
    return [comb(d + 3, 3) for d in range(n + 1)]


def pbw_check(alg: TruncatedQuotient, n: int):
    """Compare the basis profile of degrees 0..n to the classical counts.

    Returns (ok, profile).  A mismatch is a statement about the instance
    data, not an engine failure.
    """
    profile = alg.dimension_profile()[:n + 1]
    return profile == expected_profile(min(n, alg.cap)), profile


def star_closed(alg: TruncatedQuotient) -> bool:
    """Whether the relation ideal is stable under the star map (generators
    self-adjoint, words reversed)."""
    return all(alg.normal_form(r.star()).is_zero()
               for r in alg.relation_set)
