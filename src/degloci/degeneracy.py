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

    X = c_2(M) - c_1(M) c_1 + c_2(A) - c_2(B) + c_1(B)^2 - c_1(A) c_1(B)
      = c_2(M) - c_1(M) c_1 + c_1^2 - c_2  =  c_2(T_M + A - B),

as c(B) = c(A) T gives c_1(B) = c_1(A) + c_1 and c_2(B) = c_2(A) + c_1(A) c_1
+ c_2.  So both numbers read only T and c(T_M), with X = c_2(M) - c_2 - u c_1.

No multiplier is built.  Each term is an integer pairing read from the
dense numerators of T and the tangent classes, at the complements that
``chow._dual_indices`` lists once per space:

- int T is the socle entry of T;
- int x T, for the degree-1 or degree-2 part of x, is a dot product of x
  with T at the complements of the monomials of that degree;
- int l l' T, for linear l and l', is a k x k form read at the complements
  of H_i H_j, and is zero where H_i H_j = 0 (i = j on a factor P^1).

All three classes are read over one denominator D, the lcm of theirs, so
each number is one integer over D^3.  The one ring operation left is the
division c(B) / c(A) that builds T.

``double_point_check`` recomputes c_2(Z) by a double-point style
rearrangement of the numbers ``virtual_chern_numbers`` returned: it adds a
correction built from their c(B - A) to their c_1(Z)^2,

    c_2(Z) = c_1(Z)^2 + int w c(B - A),
    w = c_1(M) + c_2(M) - c_2 - (c_1(M) - c_1) c_1(M).

It is the difference of the two formulas, so it agrees with c_2(Z)
identically in T and c(T_M).  It catches an error in one formula alone: on
the bundled m15 scenario it gives 336 where the superseded c_2(Z) gives 648.
It cannot catch an error common to both formulas, such as 2 c_4 for c_4 in
each, nor a slip in T, which both read; the tests check the division that
builds T, by each ring kernel's loop and a sympy oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, lcm, prod

from .bundles import BundleClass, virtual_difference
from .chow import ChowElement, ProductSpace, _dual_indices, _make, _table
from .errors import RankError, SpaceMismatchError
from .exact import message_text, refuse
from .record import Record


class DegeneracyInput(Record):
    """Ambient tangent data and the bundle pair (A, B) with rank B = rank A + 1."""

    __slots__ = ("space", "tangent_c1", "tangent_c2", "A", "B")

    def __init__(
        self, space: ProductSpace, tangent_c1: ChowElement, tangent_c2: ChowElement,
        A: BundleClass, B: BundleClass,
    ):
        if space.total_dimension != 4:
            refuse(space.total_dimension, "ambient space must have total dimension 4")
        for part in (tangent_c1, tangent_c2, A.total_chern, B.total_chern):
            if part._space is not space and part._space != space:
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


def _over_one_denominator(
    inp: DegeneracyInput, T: ChowElement
) -> tuple[int, list[list[int]]]:
    """D and the numerators over D of T, c_1(M) and c_2(M).

    D is the lcm of their denominators, so the integral of k of these classes
    against T is an integer over D^(k + 1).  A class already over D keeps its
    numerator list.
    """
    classes = (T, inp.tangent_c1, inp.tangent_c2)
    D = lcm(*[x._den for x in classes])
    return D, [
        x._nums if x._den == D else [v * (D // x._den) for v in x._nums] for x in classes
    ]


# The pairings with T, from numerator lists and one list of ``_dual_indices``.


def _pair(x: list, t: list, pairs: list) -> int:
    """int x_d T for the degree-d part x_d of x, given the pairs of degree d."""
    return sum(x[m] * t[c] for m, c in pairs)


def _pair_bilinear(x: list, y: list, t: list, triples: list) -> int:
    """int x_1 y_1 T for the linear parts x_1 and y_1 of x and y."""
    return sum(x[i] * y[j] * t[c] for i, j, c in triples)


def virtual_chern_numbers(inp: DegeneracyInput) -> VirtualChernNumbers:
    """Evaluate both corrected formulas as integer pairings with c(B - A)."""
    diff = virtual_difference(inp.B, inp.A)
    D, (t, m1, m2) = _over_one_denominator(inp, diff.total_chern)
    linear, quadratic, triples = _dual_indices(inp.space.dims)
    u = [m - c for m, c in zip(m1, t)]  # c_1(M) - c_1 in degree 1
    c1_sq = D * D * t[-1] - 2 * D * _pair(u, t, linear) + _pair_bilinear(u, u, t, triples)
    c2 = (
        D * D * t[-1]
        + D * _pair([2 * c - m for m, c in zip(m1, t)], t, linear)
        + D * _pair([m - c for m, c in zip(m2, t)], t, quadratic)
        - _pair_bilinear(u, t, t, triples)
    )
    cube = D**3
    return VirtualChernNumbers(Fraction(c1_sq, cube), Fraction(c2, cube), diff)


def double_point_check(
    inp: DegeneracyInput, numbers: VirtualChernNumbers
) -> Fraction:
    """Recompute c_2(Z) by a rearrangement of the same data.

    ``numbers`` is ``virtual_chern_numbers(inp)``, which the caller already
    has.  Returns c_1(Z)^2 + int w c(B - A), with w = c_1(M) + c_2(M) - c_2
    - (c_1(M) - c_1) c_1(M), the pairing form of c_1(Z)^2 + int[ -((c_1(M)
    - c_1) c_1(M) c_2 - c_1(M) c_3) + c_2(M) c_2 - c_2^2 ]; c_1(Z)^2 and c_i =
    c_i(B - A) are read from ``numbers``, each term of w as one pairing.
    Callers compare the result against ``numbers.c2``.  Both read the same
    c(B - A) and c(T_M) and agree identically, so a mismatch shows an error in
    one of the two formulas alone; an error common to both formulas, or a slip
    in c(B - A), is not seen.
    """
    D, (t, m1, m2) = _over_one_denominator(inp, numbers.difference.total_chern)
    linear, quadratic, triples = _dual_indices(inp.space.dims)
    u = [m - c for m, c in zip(m1, t)]  # c_1(M) - c_1 in degree 1
    w = (
        D * _pair(m1, t, linear)
        + D * _pair([m - c for m, c in zip(m2, t)], t, quadratic)
        - _pair_bilinear(u, m1, t, triples)
    )
    return numbers.c1_sq + Fraction(w, D**3)
