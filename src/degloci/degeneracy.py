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

Each formula is the degree-4 part of a multiplier of degree at most 2 times
the total class c(B - A) = 1 + c_1 + c_2 + c_3 + c_4, so it is evaluated as
one pairing of the two (``ChowElement._paired``), with no degree-4 product
built.  With u = c_1(M) - c_1:

    c_1(Z)^2 = int (1 - 2u + u^2) c(B - A)  =  int (1 - u)^2 c(B - A)

    c_2(Z)   = int (1 + (2 c_1 - c_1(M)) + X) c(B - A),  where

    X = c_2(M) - c_1(M) c_1 + c_2(A) - c_2(B) + c_1(B)^2 - c_1(A) c_1(B).

A multiplier term of degree 3 or more would pair with c_1 or c_0 and add a
term the formulas do not have, so every multiplier is checked to vanish
above degree 2 before it is paired; a failure raises ``InternalCheckError``.
The parts c_1..c_4 are split from c(B - A) in one pass (``chern_classes``).

``double_point_check`` recomputes c_2(Z) by a double-point style
rearrangement of the numbers ``virtual_chern_numbers`` returned: it adds a
correction built from their c(B - A) to their c_1(Z)^2,

    c_2(Z) = c_1(Z)^2 + int w c(B - A),
    w = c_1(M) + c_2(M) - c_2 - (c_1(M) - c_1) c_1(M).

It is not an independent route: it shares c(B - A) with the formulas above,
and its difference from c_2(Z) vanishes identically once c(B - A) =
c(B) / c(A).  So it catches slips in the ring arithmetic, but not an error
in either formula.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, prod

from .bundles import BundleClass, chern, chern_classes, virtual_difference
from .chow import ChowElement, ProductSpace, _make, _table
from .errors import InternalCheckError, RankError, SpaceMismatchError
from .exact import message_text
from .record import Record


class DegeneracyInput(Record):
    """Ambient tangent data and the bundle pair (A, B) with rank B = rank A + 1."""

    __slots__ = ("space", "tangent_c1", "tangent_c2", "A", "B")

    def __init__(
        self, space: ProductSpace, tangent_c1: ChowElement, tangent_c2: ChowElement,
        A: BundleClass, B: BundleClass,
    ):
        if space.total_dimension != 4:
            raise ValueError(
                "ambient space must have total dimension 4, got "
                f"{message_text(space.total_dimension)}"
            )
        for part in (tangent_c1, tangent_c2, A.total_chern, B.total_chern):
            if part.space != space:
                raise SpaceMismatchError("all inputs must live on the ambient space")
        if not tangent_c1.is_homogeneous(1):
            raise ValueError("tangent_c1 must be homogeneous of degree 1")
        if not tangent_c2.is_homogeneous(2):
            raise ValueError("tangent_c2 must be homogeneous of degree 2")
        if B.rank != A.rank + 1:
            raise RankError(
                f"rank B must be rank A + 1, got rank A = {message_text(A.rank)}, "
                f"rank B = {message_text(B.rank)}"
            )
        self._fill(space, tangent_c1, tangent_c2, A, B)


class VirtualChernNumbers(Record):
    """The integrals c_1(Z)^2 and c_2(Z), and the virtual class B - A they
    were computed from."""

    __slots__ = ("c1_sq", "c2", "difference")

    def __init__(self, c1_sq: Fraction, c2: Fraction, difference: BundleClass):
        self._fill(c1_sq, c2, difference)


@cache
def ambient_tangent_of_product(space: ProductSpace) -> tuple[ChowElement, ChowElement]:
    """c_1 and c_2 of the tangent bundle of a product of projective spaces.

    The Euler sequence gives c(T) = prod_i (1 + H_i)^{n_i + 1}, reduced, whose
    coefficient of H^e is prod_i binomial(n_i + 1, e_i); both classes are read
    off from that with no ring product.  They depend on the space alone, so
    they are built once per space and kept for the life of the process, like
    the product table of ``chow``.
    """
    table = _table(space.dims)
    parts = [[0] * len(table.monomials) for _ in range(3)]  # c_0, c_1, c_2 of c(T)
    for k, (exps, degree) in enumerate(zip(table.monomials, table.degrees)):
        if degree <= 2:
            parts[degree][k] = prod(comb(n + 1, e) for n, e in zip(space.dims, exps))
    return _make(space, parts[1], 1), _make(space, parts[2], 1)


def _integral_against(multiplier: ChowElement, total: ChowElement) -> Fraction:
    """int multiplier * total, for a multiplier that must vanish above degree 2."""
    if not multiplier._vanishes_above(2):
        raise InternalCheckError(
            f"expected a multiplier of degree at most 2, got {message_text(multiplier)}"
        )
    return multiplier._paired(total)


def virtual_chern_numbers(inp: DegeneracyInput) -> VirtualChernNumbers:
    """Evaluate both corrected formulas, each as one pairing with c(B - A)."""
    diff = virtual_difference(inp.B, inp.A)
    total = diff.total_chern
    c1 = chern_classes(diff)[1]
    c1M = inp.tangent_c1
    c1B = chern(inp.B, 1)
    u = c1M - c1
    one_minus_u = 1 - u
    x = (
        inp.tangent_c2
        - c1M * c1
        + chern(inp.A, 2)
        - chern(inp.B, 2)
        + c1B**2
        - chern(inp.A, 1) * c1B
    )
    return VirtualChernNumbers(
        # (1 - u)^2 = 1 - 2u + u^2
        c1_sq=_integral_against(one_minus_u**2, total),
        # 1 + (2 c_1 - c_1(M)) + X, where 2 c_1 - c_1(M) = c_1 - u
        c2=_integral_against(one_minus_u + c1 + x, total),
        difference=diff,
    )


def double_point_check(
    inp: DegeneracyInput, numbers: VirtualChernNumbers
) -> Fraction:
    """Recompute c_2(Z) by a rearrangement of the same data.

    ``numbers`` is ``virtual_chern_numbers(inp)``, which the caller already
    has.  Returns c_1(Z)^2 + int w c(B - A), with w = c_1(M) + c_2(M) - c_2
    - (c_1(M) - c_1) c_1(M), the pairing form of c_1(Z)^2 + int[ -((c_1(M)
    - c_1) c_1(M) c_2 - c_1(M) c_3) + c_2(M) c_2 - c_2^2 ]; c_1(Z)^2 and c_i =
    c_i(B - A) are read from ``numbers``.  Callers compare the result against
    ``numbers.c2``; both share c(B - A), so they agree identically and a
    mismatch shows a ring slip, never a wrong formula.
    """
    _, c1, c2, *_ = chern_classes(numbers.difference)
    c1M = inp.tangent_c1
    w = c1M + inp.tangent_c2 - c2 - (c1M - c1) * c1M
    return numbers.c1_sq + _integral_against(w, numbers.difference.total_chern)


def degeneracy_class(inp: DegeneracyInput) -> ChowElement:
    """The expected class of Z: c_2(B - A)."""
    return chern(virtual_difference(inp.B, inp.A), 2)
