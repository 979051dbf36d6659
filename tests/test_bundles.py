"""Bundle calculus: line bundles, sums, duals, twists, sequences, differences."""

import pytest

from degloci import (
    BundleClass,
    ChowElement,
    ProductSpace,
    RankError,
    SpaceMismatchError,
    chern,
    direct_sum,
    dual,
    hyperplane,
    kernel_from_sequence,
    line_bundle,
    trivial_bundle,
    twist,
    virtual_difference,
)

P13 = ProductSpace((1, 3))
H1 = hyperplane(P13, 1)
H2 = hyperplane(P13, 2)


def m15_kernel():
    """E = ker(O(1,0)^8 + O(0,-1) -> O(1,1)^4), the rank-5 kernel bundle."""
    middle = direct_sum(line_bundle(P13, (1, 0), 8), line_bundle(P13, (0, -1)))
    return kernel_from_sequence(middle, line_bundle(P13, (1, 1), 4))


def test_line_bundle_examples():
    eight = line_bundle(P13, (1, 0), 8)
    assert eight.rank == 8
    assert eight.total_chern == 1 + 8 * H1
    one = line_bundle(P13, (0, -1))
    assert one.rank == 1
    assert one.total_chern == 1 - H2
    four = line_bundle(P13, (0, 0), 4)
    assert four.rank == 4
    assert four.total_chern == ChowElement.one(P13)
    assert trivial_bundle(P13, 4) == four


def test_line_bundle_validation():
    with pytest.raises(ValueError):
        line_bundle(P13, (1, 0), 0)
    with pytest.raises(ValueError):
        line_bundle(P13, (1,), 1)
    with pytest.raises(ValueError):
        line_bundle(P13, (1, 0), -2)
    with pytest.raises(ValueError, match=r"got '2'$"):
        line_bundle(P13, (1, 0), "2")
    with pytest.raises(ValueError) as info:
        line_bundle(P13, (0, 0), -(10**4300))
    assert str(info.value) == (
        "multiplicity must be a positive integer, got "
        "(not shown: a number has more than 4300 digits)"
    )


def test_bundle_class_requires_unit_total_chern():
    with pytest.raises(ValueError):
        BundleClass(P13, 1, H1)


def test_direct_sum_examples():
    middle = direct_sum(line_bundle(P13, (1, 0), 8), line_bundle(P13, (0, -1)))
    assert middle.rank == 9
    assert middle.total_chern == (1 + H1) ** 8 * (1 - H2)
    E = m15_kernel()
    assert direct_sum(E, trivial_bundle(P13)).rank == E.rank + 1
    assert direct_sum(E, trivial_bundle(P13)).total_chern == E.total_chern
    two = direct_sum(line_bundle(P13, (1, 0)), line_bundle(P13, (0, 1)))
    assert two.rank == 2
    assert two.total_chern == (1 + H1) * (1 + H2)
    with pytest.raises(SpaceMismatchError):
        direct_sum(E, trivial_bundle(ProductSpace((2, 2))))


def test_dual_examples():
    L = line_bundle(P13, (1, 1))
    assert dual(L).total_chern == 1 - H1 - H2
    E = m15_kernel()
    assert dual(dual(E)) == E
    assert dual(trivial_bundle(P13, 4)) == trivial_bundle(P13, 4)


def test_twist_examples():
    assert twist(line_bundle(P13, (1, 0)), line_bundle(P13, (0, 2))).total_chern == (
        1 + H1 + 2 * H2
    )
    E = m15_kernel()
    assert chern(twist(E, line_bundle(P13, (0, 2))), 1) == 4 * H1 + 5 * H2
    assert twist(E, line_bundle(P13, (0, 0))) == E


def test_twist_rank_errors():
    E = m15_kernel()
    with pytest.raises(RankError):
        twist(E, trivial_bundle(P13, 2))
    virtual = virtual_difference(trivial_bundle(P13), trivial_bundle(P13, 3))
    with pytest.raises(RankError):
        twist(virtual, line_bundle(P13, (0, 1)))


def test_twist_refuses_rank_one_class_that_is_not_a_line_bundle():
    # ker(O^2 -> O(0,1)) has rank 1 but c = 1/(1 + H2) = 1 - H2 + H2^2 - H2^3.
    kernel = kernel_from_sequence(trivial_bundle(P13, 2), line_bundle(P13, (0, 1)))
    assert kernel.rank == 1
    with pytest.raises(RankError, match="line bundle"):
        twist(line_bundle(P13, (1, 0)), kernel)
    # On P^2 x P^2, ker(O(1,0)^2 -> O(2,0)) has c = (1 + H1)^2 / (1 + 2 H1) = 1 + H1^2:
    # no c_1 and nothing above degree 2.
    P22 = ProductSpace((2, 2))
    kernel = kernel_from_sequence(line_bundle(P22, (1, 0), 2), line_bundle(P22, (2, 0)))
    assert str(kernel.total_chern) == "1*H1^2 + 1"
    with pytest.raises(RankError, match="line bundle"):
        twist(line_bundle(P22, (0, 1)), kernel)


def test_kernel_from_sequence_examples():
    E = m15_kernel()
    assert E.rank == 5
    assert chern(E, 1) == 4 * H1 - 5 * H2
    F = line_bundle(P13, (0, 2), 2)
    G = line_bundle(P13, (1, -1), 3)
    recovered = kernel_from_sequence(direct_sum(F, G), G)
    assert recovered.rank == F.rank
    assert recovered.total_chern == F.total_chern
    zero = kernel_from_sequence(trivial_bundle(P13, 4), trivial_bundle(P13, 4))
    assert zero.rank == 0
    assert zero.total_chern == ChowElement.one(P13)
    with pytest.raises(RankError):
        kernel_from_sequence(trivial_bundle(P13, 2), trivial_bundle(P13, 3))


def test_virtual_difference_examples():
    A = trivial_bundle(P13, 4)
    B = twist(m15_kernel(), line_bundle(P13, (0, 2)))
    diff = virtual_difference(B, A)
    assert diff.rank == 1
    assert diff.total_chern == B.total_chern

    E = m15_kernel()
    self_diff = virtual_difference(E, E)
    assert self_diff.rank == 0
    assert self_diff.total_chern == ChowElement.one(P13)

    pair = direct_sum(line_bundle(P13, (1, 0)), line_bundle(P13, (0, 1)))
    diff2 = virtual_difference(pair, trivial_bundle(P13))
    assert diff2.rank == 1
    assert diff2.total_chern == (1 + H1) * (1 + H2)

    negative = virtual_difference(trivial_bundle(P13), pair)
    assert negative.rank == -1
    assert negative.total_chern * pair.total_chern == ChowElement.one(P13)


def test_chern_accessor():
    B = twist(m15_kernel(), line_bundle(P13, (0, 2)))
    assert chern(B, 0) == ChowElement.one(P13)
    assert chern(B, 2) == 16 * H1 * H2 + 14 * H2**2
    assert chern(trivial_bundle(P13, 4), 2).is_zero()
    with pytest.raises(ValueError):
        chern(B, -1)


def test_virtual_difference_defining_identity():
    A = line_bundle(P13, (2, -1), 3)
    B = direct_sum(line_bundle(P13, (0, 1), 2), line_bundle(P13, (-1, 2)))
    diff = virtual_difference(B, A)
    assert diff.total_chern * A.total_chern == B.total_chern
