"""Cross-validation of the package against the independent sympy engine.

The oracle in oracle.py shares no code or representation with the package:
sympy expressions, no truncation during arithmetic, series inversion by
sympy, twists as degree shifts on summand lists.  These tests drive both
sides with the same inputs and require exact agreement.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as stg
from degloci import (
    DegeneracyInput,
    ProductSpace,
    ambient_tangent_of_product,
    chern,
    double_point_check,
    line_bundle,
    twist,
    virtual_chern_numbers,
    virtual_difference,
)
from oracle import Oracle, m15_totals, m15_numbers, m16_numbers

ORACLE_EXAMPLES = settings(max_examples=25, deadline=None)


def test_m15_full_agreement():
    expected = m15_numbers()
    assert expected["c1_sq"] == 216
    assert expected["c2"] == 336
    assert expected["double_point"] == 336
    assert expected["kappa"] == 328
    assert expected["delta"] == 392
    assert expected["lambda"] == 60
    assert expected["slope"] == Fraction(98, 15)
    assert expected["curve_degree"] == 14
    assert expected["surface_degree"] == 16


def test_m16_full_agreement():
    expected = m16_numbers()
    assert expected["rel_omega"] == 220
    assert expected["sigma_sq"] == -3096
    assert expected["correction"] == -6192
    assert expected["lambda_B"] == 11760
    assert expected["delta0_B"] == 70640
    assert expected["delta1_B"] == 16
    assert expected["slope_B"] == Fraction(1472, 245)


def test_m15_bundle_classes_match_oracle():
    """The package's E(2) total Chern class agrees with the oracle's, where
    the oracle twists the defining sequence termwise instead of using the
    binomial formula."""
    from degloci import direct_sum, kernel_from_sequence, trivial_bundle

    space = ProductSpace((1, 3))
    middle = direct_sum(line_bundle(space, (1, 0), 8), line_bundle(space, (0, -1)))
    kernel = kernel_from_sequence(middle, line_bundle(space, (1, 1), 4))
    B = twist(kernel, line_bundle(space, (0, 2)))
    A = trivial_bundle(space, 4)

    oracle = Oracle(space.dims)
    cA, cB = m15_totals(oracle)
    for i in range(5):
        assert oracle.matches(chern(A, i), oracle.chern(cA, i))
        assert oracle.matches(chern(B, i), oracle.chern(cB, i))
    diff_pkg = virtual_difference(B, A)
    diff_orc = cB * oracle.invert(cA)
    for i in range(5):
        assert oracle.matches(chern(diff_pkg, i), oracle.chern(diff_orc, i))


def test_tangent_classes_match_oracle():
    for dims in ((1, 3), (2, 2), (4,), (1, 1, 2)):
        space = ProductSpace(dims)
        oracle = Oracle(dims)
        c1_pkg, c2_pkg = ambient_tangent_of_product(space)
        c1_orc, c2_orc = oracle.tangent_classes()
        assert oracle.matches(c1_pkg, c1_orc)
        assert oracle.matches(c2_pkg, c2_orc)


@ORACLE_EXAMPLES
@given(stg.honest_degeneracy_data())
def test_line_sum_chern_matches_oracle(data):
    space, a_summands, b_summands, _ = data
    oracle = Oracle(space.dims)
    A = stg.bundle_from_summands(space, a_summands)
    cA = oracle.line_sum_total(a_summands)
    for i in range(space.total_dimension + 1):
        assert oracle.matches(chern(A, i), oracle.chern(cA, i))
    B = stg.bundle_from_summands(space, b_summands)
    diff_pkg = virtual_difference(B, A)
    diff_orc = oracle.line_sum_total(b_summands) * oracle.invert(cA)
    for i in range(space.total_dimension + 1):
        assert oracle.matches(chern(diff_pkg, i), oracle.chern(diff_orc, i))


@ORACLE_EXAMPLES
@given(stg.honest_degeneracy_data())
def test_twist_matches_oracle_degree_shift(data):
    """Binomial-formula twist against the oracle's summand degree shifts."""
    space, a_summands, _, twist_degrees = data
    oracle = Oracle(space.dims)
    E = stg.bundle_from_summands(space, a_summands)
    L = line_bundle(space, twist_degrees)
    twisted_pkg = twist(E, L)
    shifted = oracle.line_sum_total(Oracle.shift_summands(a_summands, twist_degrees))
    assert twisted_pkg.rank == E.rank
    for i in range(space.total_dimension + 1):
        assert oracle.matches(chern(twisted_pkg, i), oracle.chern(shifted, i))


@ORACLE_EXAMPLES
@given(stg.honest_degeneracy_data())
def test_virtual_chern_numbers_match_oracle(data):
    space, a_summands, b_summands, _ = data
    oracle = Oracle(space.dims)
    A = stg.bundle_from_summands(space, a_summands)
    B = stg.bundle_from_summands(space, b_summands)
    c1, c2 = ambient_tangent_of_product(space)
    inp = DegeneracyInput(space, c1, c2, A, B)
    numbers = virtual_chern_numbers(inp)
    dp = double_point_check(inp, numbers)

    cA = oracle.line_sum_total(a_summands)
    cB = oracle.line_sum_total(b_summands)
    c1_sq_orc, c2_orc, dp_orc = oracle.degeneracy_numbers(cA, cB)
    assert numbers.c1_sq == c1_sq_orc
    assert numbers.c2 == c2_orc
    assert dp == dp_orc
