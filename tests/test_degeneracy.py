"""Degeneracy-locus formulas: ambient tangent data, both virtual Chern
numbers, the double-point cross-check, and the expected class."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as stg
from degloci import (
    BundleClass,
    ChowElement,
    DegeneracyInput,
    ProductSpace,
    RankError,
    ambient_tangent_of_product,
    chern,
    degeneracy_class,
    direct_sum,
    double_point_check,
    hyperplane,
    kernel_from_sequence,
    line_bundle,
    trivial_bundle,
    twist,
    virtual_chern_numbers,
)
from degloci.chow import _dual_indices
from degloci.degeneracy import _pair, _pair_bilinear

P13 = ProductSpace((1, 3))
H1 = hyperplane(P13, 1)
H2 = hyperplane(P13, 2)


def m15_input() -> DegeneracyInput:
    middle = direct_sum(line_bundle(P13, (1, 0), 8), line_bundle(P13, (0, -1)))
    kernel = kernel_from_sequence(middle, line_bundle(P13, (1, 1), 4))
    B = twist(kernel, line_bundle(P13, (0, 2)))
    A = trivial_bundle(P13, 4)
    c1, c2 = ambient_tangent_of_product(P13)
    return DegeneracyInput(P13, c1, c2, A, B)


def small_input() -> DegeneracyInput:
    A = trivial_bundle(P13)
    B = direct_sum(line_bundle(P13, (1, 0)), line_bundle(P13, (0, 1)))
    c1, c2 = ambient_tangent_of_product(P13)
    return DegeneracyInput(P13, c1, c2, A, B)


def test_ambient_tangent_of_product():
    c1, c2 = ambient_tangent_of_product(P13)
    assert c1 == 2 * H1 + 4 * H2
    assert c2 == 8 * H1 * H2 + 6 * H2**2

    P4 = ProductSpace((4,))
    h = hyperplane(P4, 1)
    c1, c2 = ambient_tangent_of_product(P4)
    assert c1 == 5 * h
    assert c2 == 10 * h**2


def test_ambient_tangent_matches_euler_sequence_product():
    # c(T) = prod_i c(O(H_i)^{n_i + 1}), multiplied out in the ring.
    for space in stg.KERNEL_SPACES:
        total = ChowElement.one(space)
        for i, n in enumerate(space.dims):
            unit = [int(j == i) for j in range(space.num_factors)]
            total = total * line_bundle(space, unit, n + 1).total_chern
        assert ambient_tangent_of_product(space) == (
            total.graded_part(1),
            total.graded_part(2),
        ), space


def closed_forms(inp: DegeneracyInput, difference: BundleClass):
    """The displayed formulas in product form, as degree-4 classes."""
    c1, c2, c3, c4 = (chern(difference, i) for i in range(1, 5))
    c1M, c2M = inp.tangent_c1, inp.tangent_c2
    c1_sq_class = (c1M - c1) ** 2 * c2 - 2 * (c1M - c1) * c3 + c4
    c2_class = (
        c2M
        - c1M * c1
        + chern(inp.A, 2)
        - chern(inp.B, 2)
        + chern(inp.B, 1) ** 2
        - chern(inp.A, 1) * chern(inp.B, 1)
    ) * c2 + (-c1M + 2 * c1) * c3 + c4
    return c1_sq_class, c2_class


def test_m15_virtual_chern_numbers():
    inp = m15_input()
    numbers = virtual_chern_numbers(inp)
    assert numbers.c1_sq == 216
    assert numbers.c2 == 336

    c1_sq_class, c2_class = closed_forms(inp, numbers.difference)
    assert c1_sq_class.is_homogeneous(4)
    assert c2_class.is_homogeneous(4)
    assert (c1_sq_class.integrate(), c2_class.integrate()) == (216, 336)


def test_m15_double_point_check():
    inp = m15_input()
    numbers = virtual_chern_numbers(inp)
    assert double_point_check(inp, numbers) == 336
    assert double_point_check(inp, numbers) == numbers.c2


def test_small_instance():
    inp = small_input()
    numbers = virtual_chern_numbers(inp)
    assert (numbers.c1_sq, numbers.c2) == (9, 3)
    assert double_point_check(inp, numbers) == 3


def test_trivial_instance_is_zero():
    A = trivial_bundle(P13)
    B = trivial_bundle(P13, 2)
    c1, c2 = ambient_tangent_of_product(P13)
    inp = DegeneracyInput(P13, c1, c2, A, B)
    numbers = virtual_chern_numbers(inp)
    assert (numbers.c1_sq, numbers.c2) == (0, 0)
    assert double_point_check(inp, numbers) == 0


def test_degeneracy_class_and_geometric_degrees():
    inp = m15_input()
    cls = degeneracy_class(inp)
    assert cls == 16 * H1 * H2 + 14 * H2**2
    assert (cls * H1 * H2).integrate() == 14
    assert (cls * H2**2).integrate() == 16

    A = trivial_bundle(P13, 3)
    B = direct_sum(A, trivial_bundle(P13))
    c1, c2 = ambient_tangent_of_product(P13)
    assert degeneracy_class(DegeneracyInput(P13, c1, c2, A, B)).is_zero()


def test_input_validation():
    c1, c2 = ambient_tangent_of_product(P13)
    A = trivial_bundle(P13, 4)
    B = trivial_bundle(P13, 4)
    with pytest.raises(RankError):
        DegeneracyInput(P13, c1, c2, A, B)

    P12 = ProductSpace((1, 2))
    with pytest.raises(ValueError):
        DegeneracyInput(
            P12,
            *ambient_tangent_of_product(P12),
            trivial_bundle(P12),
            trivial_bundle(P12, 2),
        )

    with pytest.raises(ValueError):
        DegeneracyInput(P13, c1 + c2, c2, A, trivial_bundle(P13, 5))
    with pytest.raises(ValueError):
        DegeneracyInput(P13, c1, c1, A, trivial_bundle(P13, 5))


def test_rank_refusal_survives_a_rank_too_long_to_print():
    c1, c2 = ambient_tangent_of_product(P13)
    A = line_bundle(P13, (0, 0), 10**4300)
    with pytest.raises(RankError) as info:
        DegeneracyInput(P13, c1, c2, A, line_bundle(P13, (0, 0), 4))
    assert str(info.value) == (
        "rank B must be rank A + 1, got rank A = (not shown: a number has more "
        "than 4300 digits), rank B = 4"
    )


def test_rational_chern_coefficients():
    # Every class below has its own denominator, so the pairings must carry them.
    A = BundleClass(
        P13,
        3,
        1 + Fraction(1, 2) * H1 - Fraction(3, 2) * H2 + Fraction(5, 3) * H2**2
        + Fraction(1, 4) * H1 * H2,
    )
    B = BundleClass(P13, 4, 1 + 2 * H1 + Fraction(1, 3) * H2 + Fraction(7, 5) * H1 * H2**2)
    inp = DegeneracyInput(P13, *ambient_tangent_of_product(P13), A, B)
    numbers = virtual_chern_numbers(inp)
    assert (numbers.c1_sq, numbers.c2) == (Fraction(2389, 270), Fraction(709, 1080))
    assert double_point_check(inp, numbers) == Fraction(709, 1080)


@pytest.mark.parametrize("space", stg.PIPELINE_SPACES, ids=str)
def test_rational_classes_match_the_product_form(space):
    """Classes over several denominators: each number is the integral of its
    multiplier or closed form times T, built with ring products."""
    rng = random.Random(f"rational classes {space.dims}")
    monomials = list(product(*(range(n + 1) for n in space.dims)))

    def element(*degrees):
        return ChowElement(space, {
            e: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5, 7, 9, 12)))
            for e in monomials
            if sum(e) in degrees
        })

    for rank in range(6):
        A = BundleClass(space, rank, 1 + element(1, 2, 3, 4))
        B = BundleClass(space, rank + 1, 1 + element(1, 2, 3, 4))
        inp = DegeneracyInput(space, element(1), element(2), A, B)
        numbers = virtual_chern_numbers(inp)
        T, c1 = numbers.difference.total_chern, chern(numbers.difference, 1)
        u = inp.tangent_c1 - c1
        c1_sq_class, c2_class = closed_forms(inp, numbers.difference)
        assert numbers.c1_sq == ((1 - u) ** 2 * T).integrate() == c1_sq_class.integrate()
        assert numbers.c2 == c2_class.integrate()
        assert double_point_check(inp, numbers) == numbers.c2


@pytest.mark.parametrize("space", stg.KERNEL_SPACES, ids=str)
def test_pairings_match_ring_products(space):
    """Each integer pairing with T is the integral of the product it stands
    for, reading only the graded parts it names from full numerator lists."""
    rng = random.Random(f"pairings {space.dims}")
    monomials = list(product(*(range(n + 1) for n in space.dims)))

    def element():
        return ChowElement(space, {
            e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3, 4)))
            for e in monomials
        })

    def over(numerator, *classes):
        return Fraction(numerator, prod(x._den for x in classes))

    linear, quadratic, triples = _dual_indices(space.dims)
    for _ in range(3):
        T, x, y = element(), element(), element()
        t, xs, ys = T._nums, x._nums, y._nums
        x1, x2, y1 = x.graded_part(1), x.graded_part(2), y.graded_part(1)
        assert over(_pair(xs, t, linear), x, T) == (x1 * T).integrate()
        assert over(_pair(xs, t, quadratic), x, T) == (x2 * T).integrate()
        assert over(_pair_bilinear(xs, ys, t, triples), x, y, T) == (x1 * y1 * T).integrate()
        assert over(_pair_bilinear(xs, xs, t, triples), x, x, T) == (x1 * x1 * T).integrate()


@settings(max_examples=200, deadline=None)
@given(stg.line_sum_pairs())
def test_trivial_kill_property(setup):
    """If B = A + O then c_i(B - A) = 0 for i > 0 and both numbers vanish."""
    space, A, _ = setup
    B = direct_sum(A, trivial_bundle(space))
    c1, c2 = ambient_tangent_of_product(space)
    numbers = virtual_chern_numbers(DegeneracyInput(space, c1, c2, A, B))
    assert numbers.c1_sq == 0
    assert numbers.c2 == 0


@settings(max_examples=60, deadline=None)
@given(stg.honest_degeneracy_data())
def test_joint_twist_invariance(data):
    """Twisting A and B by one line bundle leaves the virtual numbers alone.

    Hom(A, B) and Hom(A(L), B(L)) have the same rank-drop locus, so this is
    forced geometrically; it exercises the formulas well beyond the identity
    twist because every individual c_i(B - A) does change.
    """
    space, a_summands, b_summands, twist_degrees = data
    A = stg.bundle_from_summands(space, a_summands)
    B = stg.bundle_from_summands(space, b_summands)
    L = line_bundle(space, twist_degrees)
    c1, c2 = ambient_tangent_of_product(space)
    plain = virtual_chern_numbers(DegeneracyInput(space, c1, c2, A, B))
    twisted = virtual_chern_numbers(
        DegeneracyInput(space, c1, c2, twist(A, L), twist(B, L))
    )
    assert (plain.c1_sq, plain.c2) == (twisted.c1_sq, twisted.c2)
