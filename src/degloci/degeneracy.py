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
the total class T = c(B - A) = 1 + c_1 + c_2 + c_3 + c_4, that is its
integral against T.  With u = c_1(M) - c_1:

    c_1(Z)^2 = int (1 - u)^2 T  =  int T - 2 int u T + int u^2 T

    c_2(Z)   = int (1 + (c_1 - u) + X) T,  where

    X = c_2(M) - c_1(M) c_1 + c_2(A) - c_2(B) + c_1(B)^2 - c_1(A) c_1(B).

No multiplier is built.  Index i and index N - 1 - i are complementary
monomials (``ChowElement._paired``), so each term is an integer pairing read
from the dense numerators of T, c(A), c(B) and the tangent classes, at the
complements ``chow._dual_indices`` lists once per space:

- int T is the socle entry of T;
- int l T, for a linear l, reads T at the complements of the H_i;
- int l l' T is a k x k form read at the complements of H_i H_j, and is
  zero where H_i H_j = 0 (i = j on a factor P^1);
- int x T, for the degree-2 part of x, is a dot product over the degree-2
  monomials.

Each pairing is an integer over the denominators of its classes, and each
number is built as one Fraction from them.  The one ring operation left is
the division c(B) / c(A).

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
from math import comb, lcm, prod

from .bundles import BundleClass, chern, virtual_difference
from .chow import ChowElement, ProductSpace, _dual_indices, _make, _table
from .errors import RankError, SpaceMismatchError
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


def _linear(x: ChowElement, lin: list) -> list[int]:
    """The numerators of the H_i coefficients of x, over x's denominator."""
    nums = x._nums
    return [nums[i] for i in lin]


# The pairings with a total class T, from its numerators t and one list of
# ``_dual_indices``; each is an integral times the denominators of its classes.


def _pair_linear(x: list, t: list, duals: list) -> int:
    """int x T for x = sum_i x_i H_i: T read at the complements of the H_i."""
    return sum(a * t[c] for a, c in zip(x, duals))


def _pair_bilinear(x: list, y: list, t: list, pairs: list) -> int:
    """int x y T for linear x and y: T read at the complements of H_i H_j."""
    return sum(x[i] * y[j] * t[c] for i, j, c in pairs)


def _pair_degree2(x: list, t: list, degree2: list) -> int:
    """int x T for the degree-2 part of x, given by its numerators."""
    return sum(x[m] * t[c] for m, c in degree2)


def _fraction(*terms: tuple[int, int]) -> Fraction:
    """The sum of n / d over the (n, d) pairs, built as one Fraction."""
    den = lcm(*[d for _, d in terms])
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def virtual_chern_numbers(inp: DegeneracyInput) -> VirtualChernNumbers:
    """Evaluate both corrected formulas as integer pairings with c(B - A)."""
    diff = virtual_difference(inp.B, inp.A)
    T, cA, cB = diff.total_chern, inp.A.total_chern, inp.B.total_chern
    c2M = inp.tangent_c2
    t, dT, dA, dB, dM = T._nums, T._den, cA._den, cB._den, inp.tangent_c1._den
    lin, duals, pairs, degree2 = _dual_indices(inp.space.dims)
    c1, c1M = _linear(T, lin), _linear(inp.tangent_c1, lin)
    c1A, c1B = _linear(cA, lin), _linear(cB, lin)
    s = dM * dT
    u = [m * dT - c * dM for m, c in zip(c1M, c1)]  # c_1(M) - c_1, over s
    c1_minus_u = [2 * c * dM - m * dT for m, c in zip(c1M, c1)]  # 2 c_1 - c_1(M)
    return VirtualChernNumbers(
        c1_sq=_fraction(
            (t[-1], dT),
            (-2 * _pair_linear(u, t, duals), s * dT),
            (_pair_bilinear(u, u, t, pairs), s * s * dT),
        ),
        c2=_fraction(
            (t[-1], dT),
            (_pair_linear(c1_minus_u, t, duals), s * dT),
            (_pair_degree2(c2M._nums, t, degree2), c2M._den * dT),
            (_pair_degree2(cA._nums, t, degree2), dA * dT),
            (-_pair_degree2(cB._nums, t, degree2), dB * dT),
            (-_pair_bilinear(c1M, c1, t, pairs), s * dT),
            (_pair_bilinear(c1B, c1B, t, pairs), dB * dB * dT),
            (-_pair_bilinear(c1A, c1B, t, pairs), dA * dB * dT),
        ),
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
    c_i(B - A) are read from ``numbers``, each term of w as one pairing.
    Callers compare the result against ``numbers.c2``; both share c(B - A),
    so they agree identically and a mismatch shows a ring slip, never a wrong
    formula.
    """
    T, c2M = numbers.difference.total_chern, inp.tangent_c2
    t, dT, dM = T._nums, T._den, inp.tangent_c1._den
    lin, duals, pairs, degree2 = _dual_indices(inp.space.dims)
    c1, c1M = _linear(T, lin), _linear(inp.tangent_c1, lin)
    s = dM * dT
    u = [m * dT - c * dM for m, c in zip(c1M, c1)]  # c_1(M) - c_1, over s
    return _fraction(
        numbers.c1_sq.as_integer_ratio(),
        (_pair_linear(c1M, t, duals), s),
        (_pair_degree2(c2M._nums, t, degree2), c2M._den * dT),
        (-_pair_degree2(t, t, degree2), dT * dT),
        (-_pair_bilinear(u, c1M, t, pairs), s * s),
    )


def degeneracy_class(inp: DegeneracyInput) -> ChowElement:
    """The expected class of Z: c_2(B - A)."""
    return chern(virtual_difference(inp.B, inp.A), 2)
