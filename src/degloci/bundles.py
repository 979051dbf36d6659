"""Bundle classes on a product of projective spaces.

A bundle is tracked only through the pair (rank, total Chern class); that is
enough for every operation offered here.  Direct sums multiply total Chern
classes (Whitney), duals flip the sign of the odd-degree parts, a twist by a
line bundle L with l = c_1(L) is c(E (x) L) = sum_i c_i(E) (1 + l)^{r - i}
(Fulton, Intersection Theory, Ex. 3.2.2), and short exact sequences determine
the kernel class by division in the Chow ring.  Virtual differences B - A are
allowed to carry any integer rank.  The total Chern class of a line bundle
comes from the binomial series, a twist is one product weighted by binomials,
and a kernel or difference is one division; none takes repeated products.

>>> from .chow import ProductSpace
>>> P13 = ProductSpace((1, 3))
>>> middle = direct_sum(line_bundle(P13, (1, 0), 8), line_bundle(P13, (0, -1)))
>>> E = kernel_from_sequence(middle, line_bundle(P13, (1, 1), 4))
>>> E.rank, str(chern(E, 1))
(5, '4*H1 + -5*H2')
>>> B = twist(E, line_bundle(P13, (0, 2)))
>>> str(chern(B, 1))
'4*H1 + 5*H2'
"""

from __future__ import annotations

from .chow import ChowElement, ProductSpace, _one_plus_linear_power
from .errors import RankError, SpaceMismatchError
from .exact import _all_int, integer, message_text, refuse
from .record import Record, _setters


class BundleClass(Record):
    """A vector bundle or virtual class: rank plus total Chern class.

    The rank may be negative for virtual differences.  The degree-0 part of
    ``total_chern`` must be 1.
    """

    __slots__ = ("space", "rank", "total_chern")

    def __init__(self, space: ProductSpace, rank: int, total_chern: ChowElement):
        integer(rank, "rank must be an integer", error=TypeError)
        if total_chern.space is not space and total_chern.space != space:
            raise SpaceMismatchError(
                "total Chern class lives on a different space than the bundle"
            )
        if total_chern._nums[0] != total_chern._den:  # the degree-0 part, densely
            raise ValueError(
                "total Chern class must have degree-0 part 1, got "
                f"{total_chern.constant_term()}"
            )
        _set_space(self, space)
        _set_rank(self, rank)
        _set_total_chern(self, total_chern)


_set_space, _set_rank, _set_total_chern = _setters(BundleClass)


def _bundle(space: ProductSpace, rank: int, total_chern: ChowElement) -> BundleClass:
    """An operation's result, unchecked: ring operations keep a unit on its space."""
    E = object.__new__(BundleClass)
    _set_space(E, space)
    _set_rank(E, rank)
    _set_total_chern(E, total_chern)
    return E


def _check_same_space(E: BundleClass, F: BundleClass):
    if E.space is not F.space and E.space != F.space:
        raise SpaceMismatchError(
            f"bundles live on different spaces: {E.space} vs {F.space}"
        )


def line_bundle(
    space: ProductSpace, degrees, multiplicity: int = 1
) -> BundleClass:
    """O(a_1,...,a_k)^m: rank m with total Chern class (1 + sum a_i H_i)^m."""
    degrees = tuple(degrees)
    k = len(space.dims)
    if len(degrees) != k:
        refuse(len(degrees), f"expected {k} twisting degrees")
    # One pass over the types; the loop runs only for an entry that is not an int.
    if not _all_int(map(type, degrees)):
        for a in degrees:
            integer(a, "twisting degrees must be integers")
    integer(multiplicity, "multiplicity must be a positive integer", low=1)
    total = _one_plus_linear_power(space, degrees, multiplicity)
    return _bundle(space, multiplicity, total)


def trivial_bundle(space: ProductSpace, rank: int = 1) -> BundleClass:
    """O^rank: the trivial bundle with total Chern class 1."""
    return line_bundle(space, (0,) * space.num_factors, rank)


def direct_sum(E: BundleClass, F: BundleClass) -> BundleClass:
    """Whitney sum: ranks add, total Chern classes multiply."""
    _check_same_space(E, F)
    return _bundle(E.space, E.rank + F.rank, E.total_chern * F.total_chern)


def dual(E: BundleClass) -> BundleClass:
    """Dual class: c_i(E^v) = (-1)^i c_i(E); rank unchanged."""
    return _bundle(E.space, E.rank, E.total_chern._odd_negated())


def twist(E: BundleClass, L: BundleClass) -> BundleClass:
    """Tensor by a line bundle: c(E(x)L) = sum_i c_i(E) (1 + l)^{r-i}, l = c_1(L).

    Computed as sum_{i,m} binomial(r - i, m) c_i(E) l^m in one weighted
    product.  A kernel class can have c_i != 0 for i > r, so r - i goes
    negative there.  Negative r is refused, and so is an L of rank 1 whose
    total Chern class is not 1 + c_1(L), such as a kernel: it is not a line
    bundle.
    """
    _check_same_space(E, L)
    if L.rank != 1:
        raise RankError(
            f"twisting requires a rank-1 bundle, got rank {message_text(L.rank)}"
        )
    if not L.total_chern._vanishes_above(1):  # its degree-0 part is 1 already
        raise RankError(
            "twisting requires a line bundle, got a rank-1 class with total "
            f"Chern class {message_text(L.total_chern)}"
        )
    if E.rank < 0:
        raise RankError(
            f"cannot twist a virtual class of negative rank {message_text(E.rank)}"
        )
    total = E.total_chern._twisted(L.total_chern, E.rank)
    return _bundle(E.space, E.rank, total)


def kernel_from_sequence(middle: BundleClass, quotient: BundleClass) -> BundleClass:
    """The kernel class of a short exact sequence 0 -> K -> middle -> quotient -> 0."""
    _check_same_space(middle, quotient)
    if middle.rank < quotient.rank:
        raise RankError(
            f"middle rank {message_text(middle.rank)} is smaller than quotient "
            f"rank {message_text(quotient.rank)}"
        )
    total = middle.total_chern._divided_by(quotient.total_chern)
    return _bundle(middle.space, middle.rank - quotient.rank, total)


def virtual_difference(B: BundleClass, A: BundleClass) -> BundleClass:
    """The K-theory difference B - A with total Chern class c(B)/c(A)."""
    _check_same_space(B, A)
    total = B.total_chern._divided_by(A.total_chern)
    return _bundle(B.space, B.rank - A.rank, total)


def chern(E: BundleClass, i: int) -> ChowElement:
    """The i-th Chern class, the degree-i part of the total Chern class."""
    integer(i, "Chern-class index must be a nonnegative integer", low=0)
    return E.total_chern.graded_part(i)
