"""Virtual Chern numbers of a rank-drop degeneracy locus on a 4-fold.

For a map of vector bundles A -> B with rank B = rank A + 1 on a smooth
ambient 4-fold M, the locus Z where the map has rank < rank A has expected
codimension 2, expected class c_2(B - A), and virtual Chern numbers given by
closed formulas in c_1(M), c_2(M), the Chern classes of A and B, and
c_i := c_i(B - A):

    c_1(Z)^2 = (c_1(M) - c_1)^2 c_2 - 2 (c_1(M) - c_1) c_3 + c_4

    c_2(Z)   = (c_2(M) - c_1(M) c_1 + c_2(A) - c_2(B) + c_1(B)^2
                - c_1(A) c_1(B)) c_2 + (-c_1(M) + 2 c_1) c_3 + c_4

The sign conventions here fix two errors that circulated in earlier
published versions of these formulas: the c_3 coefficient in c_1(Z)^2 is
-2(c_1(M) - c_1) (not a c_1 c_2 term), and the c_3 coefficient in c_2(Z) is
-c_1(M) + 2 c_1 (the sign on c_1(M) is negative).  Only the corrected forms
are exposed; the superseded variants are deliberately not provided.

``double_point_check`` recomputes c_2(Z) by a double-point style
rearrangement of the numbers ``virtual_chern_numbers`` returned: it adds a
correction built from their c(B - A) to their c_1(Z)^2.  It is not an
independent route: it shares c(B - A) with the formulas above, and its
difference from c_2(Z) vanishes identically once c(B - A) = c(B) / c(A).  So
it catches slips in the ring arithmetic, but not an error in either formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .bundles import BundleClass, chern, virtual_difference
from .chow import ChowElement, ProductSpace, _make, _table
from .errors import InternalCheckError, RankError, SpaceMismatchError


@dataclass(frozen=True)
class DegeneracyInput:
    """Ambient tangent data and the bundle pair (A, B) with rank B = rank A + 1."""

    space: ProductSpace
    tangent_c1: ChowElement
    tangent_c2: ChowElement
    A: BundleClass
    B: BundleClass

    def __post_init__(self):
        if self.space.total_dimension != 4:
            raise ValueError(
                f"ambient space must have total dimension 4, got {self.space.total_dimension}"
            )
        for part in (self.tangent_c1, self.tangent_c2, self.A.total_chern, self.B.total_chern):
            if part.space != self.space:
                raise SpaceMismatchError("all inputs must live on the ambient space")
        if not self.tangent_c1.is_homogeneous(1):
            raise ValueError("tangent_c1 must be homogeneous of degree 1")
        if not self.tangent_c2.is_homogeneous(2):
            raise ValueError("tangent_c2 must be homogeneous of degree 2")
        if self.B.rank != self.A.rank + 1:
            raise RankError(
                f"rank B must be rank A + 1, got rank A = {self.A.rank}, rank B = {self.B.rank}"
            )


@dataclass(frozen=True)
class VirtualChernNumbers:
    """Degree-4 classes for c_1(Z)^2 and c_2(Z) together with their integrals,
    and the virtual class B - A they were computed from."""

    c1_sq_class: ChowElement
    c2_class: ChowElement
    c1_sq: Fraction
    c2: Fraction
    difference: BundleClass


def ambient_tangent_of_product(space: ProductSpace) -> tuple[ChowElement, ChowElement]:
    """c_1 and c_2 of the tangent bundle of a product of projective spaces.

    The Euler sequence gives c(T) = prod_i (1 + H_i)^{n_i + 1}, reduced, whose
    coefficient of H^e is prod_i binomial(n_i + 1, e_i); both classes are read
    off from that with no ring product.
    """
    table = _table(space.dims)
    parts = [[0] * len(table.monomials) for _ in range(3)]  # c_0, c_1, c_2 of c(T)
    for k, (exps, degree) in enumerate(zip(table.monomials, table.degrees)):
        if degree <= 2:
            parts[degree][k] = prod(comb(n + 1, e) for n, e in zip(space.dims, exps))
    return _make(space, parts[1], 1), _make(space, parts[2], 1)


def _degree4_integral(x: ChowElement) -> Fraction:
    """Integrate a class that must be concentrated in degree 4."""
    if not x.is_homogeneous(4):
        raise InternalCheckError(f"expected a degree-4 class, got {x}")
    return x.integrate()


def virtual_chern_numbers(inp: DegeneracyInput) -> VirtualChernNumbers:
    """Evaluate both corrected formulas and integrate over the ambient space."""
    diff = virtual_difference(inp.B, inp.A)
    c1 = chern(diff, 1)
    c2 = chern(diff, 2)
    c3 = chern(diff, 3)
    c4 = chern(diff, 4)
    c1M = inp.tangent_c1
    c2M = inp.tangent_c2

    c1_sq_class = (c1M - c1) ** 2 * c2 - 2 * (c1M - c1) * c3 + c4

    c2_class = (
        c2M
        - c1M * c1
        + chern(inp.A, 2)
        - chern(inp.B, 2)
        + chern(inp.B, 1) ** 2
        - chern(inp.A, 1) * chern(inp.B, 1)
    ) * c2 + (-c1M + 2 * c1) * c3 + c4

    return VirtualChernNumbers(
        c1_sq_class=c1_sq_class,
        c2_class=c2_class,
        c1_sq=_degree4_integral(c1_sq_class),
        c2=_degree4_integral(c2_class),
        difference=diff,
    )


def double_point_check(
    inp: DegeneracyInput, numbers: VirtualChernNumbers
) -> Fraction:
    """Recompute c_2(Z) by a rearrangement of the same data.

    ``numbers`` is ``virtual_chern_numbers(inp)``, which the caller already
    has.  Returns c_1(Z)^2 + int[ -((c_1(M) - c_1) c_1(M) c_2 - c_1(M) c_3)
    + c_2(M) c_2 - c_2^2 ], with c_1(Z)^2 and c_i = c_i(B - A) read from
    ``numbers``.  Callers compare the result against ``numbers.c2``; both
    share c(B - A), so they agree identically and a mismatch shows a ring
    slip, never a wrong formula.
    """
    c1 = chern(numbers.difference, 1)
    c2 = chern(numbers.difference, 2)
    c3 = chern(numbers.difference, 3)
    c1M = inp.tangent_c1
    c2M = inp.tangent_c2

    correction = -((c1M - c1) * c1M * c2 - c1M * c3) + c2M * c2 - c2 * c2
    return numbers.c1_sq + _degree4_integral(correction)


def degeneracy_class(inp: DegeneracyInput) -> ChowElement:
    """The expected class of Z: c_2(B - A)."""
    return chern(virtual_difference(inp.B, inp.A), 2)
