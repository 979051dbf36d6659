"""Chow ring arithmetic: construction, truncation, serialization, integration."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings

from strategies import KERNEL_SPACES, chow_elements, spaces
from degloci import (
    BundleClass,
    ChowElement,
    NonUnitError,
    ProductSpace,
    SpaceMismatchError,
    hyperplane,
)
from degloci.bundles import chern_classes

P13 = ProductSpace((1, 3))
H1 = hyperplane(P13, 1)
H2 = hyperplane(P13, 2)


def test_product_space_basics():
    assert P13.num_factors == 2
    assert P13.total_dimension == 4
    assert str(P13) == "P^1 x P^3"
    assert ProductSpace((4,)).total_dimension == 4


def test_product_space_rejects_bad_dims():
    with pytest.raises(ValueError):
        ProductSpace(())
    with pytest.raises(ValueError):
        ProductSpace((0,))
    with pytest.raises(ValueError):
        ProductSpace((1, -3))


def test_hyperplane_generators():
    assert H1.terms == {(1, 0): Fraction(1)}
    assert H2.terms == {(0, 1): Fraction(1)}
    with pytest.raises(ValueError):
        hyperplane(P13, 3)
    with pytest.raises(ValueError):
        hyperplane(P13, 0)


def test_truncation_at_construction():
    x = ChowElement(P13, {(2, 0): 5, (1, 1): 3, (0, 4): 7})
    assert x.terms == {(1, 1): Fraction(3)}


def test_zero_coefficients_dropped():
    x = ChowElement(P13, [((1, 0), 2), ((1, 0), -2), ((0, 1), 1)])
    assert x.terms == {(0, 1): Fraction(1)}


def test_mul_examples():
    assert (H1 * H1).is_zero()
    c1m = 2 * H1 + 4 * H2
    assert c1m * c1m == ChowElement(P13, {(1, 1): 16, (0, 2): 16})
    assert (H1 + H2) * H2**3 == ChowElement(P13, {(1, 3): 1})


def test_space_mismatch_raises():
    other = hyperplane(ProductSpace((2, 2)), 1)
    with pytest.raises(SpaceMismatchError):
        H1 + other
    with pytest.raises(SpaceMismatchError):
        H1 * other


def test_scalar_arithmetic():
    x = 1 + 2 * H1
    assert x.constant_term() == 1
    assert (x - 1) == 2 * H1
    assert (3 - 2 * H1) == ChowElement(P13, {(0, 0): 3, (1, 0): -2})
    assert Fraction(1, 2) * H1 == ChowElement(P13, {(1, 0): Fraction(1, 2)})


def test_pow():
    assert (H1 + H2) ** 0 == ChowElement.one(P13)
    assert (H1 + H2) ** 4 == ChowElement(P13, {(1, 3): 4})
    with pytest.raises(ValueError):
        (H1 + H2) ** -1


def test_graded_part_and_homogeneity():
    x = 1 + H1 + 3 * H2**2
    assert x.graded_part(0) == ChowElement.one(P13)
    assert x.graded_part(1) == H1
    assert x.graded_part(2) == 3 * H2**2
    assert x.graded_part(3).is_zero()
    assert x.graded_part(1).is_homogeneous(1)
    assert not x.is_homogeneous(1)
    assert ChowElement.zero(P13).is_homogeneous(17)


def test_integrate():
    assert (H1 * H2**3).integrate() == 1
    assert ((H1 + H2) ** 4).integrate() == 4
    assert H1.integrate() == 0
    assert ChowElement.one(P13).integrate() == 0


def test_invert_unit_series():
    u = 1 + H1 + H2
    assert u * u.invert_unit_series() == ChowElement.one(P13)
    with pytest.raises(NonUnitError):
        H1.invert_unit_series()
    with pytest.raises(NonUnitError):
        (2 + H1).invert_unit_series()


def test_str_canonical_form():
    assert str(ChowElement.zero(P13)) == "0"
    assert str(ChowElement.one(P13)) == "1"
    assert str(2 * H1 + 4 * H2) == "2*H1 + 4*H2"
    assert str((H1 + H2) * H2**3) == "1*H1*H2^3"
    assert str(-5 * H2 + 4 * H1) == "4*H1 + -5*H2"
    assert str(Fraction(1, 2) * H2**2) == "1/2*H2^2"


def _reference_str(x: ChowElement) -> str:
    """The canonical form from one Fraction per term, highest monomial first."""
    parts = []
    for exps, coeff in sorted(x.terms.items(), reverse=True):
        factors = [str(coeff)]
        factors += [f"H{f + 1}" if e == 1 else f"H{f + 1}^{e}" for f, e in enumerate(exps) if e]
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


@settings(max_examples=60)
@example(ChowElement.zero(P13))
@example(Fraction(-1, 2) * H1 + Fraction(2, 3) * H2**3 - Fraction(5, 6))
@given(spaces().flatmap(chow_elements))
def test_str_matches_fraction_per_term_printer(x):
    assert str(x) == _reference_str(x)
    assert ChowElement.from_text(x.space, str(x)) == x


def test_from_text_round_trip():
    for x in (
        ChowElement.zero(P13),
        ChowElement.one(P13),
        2 * H1 + 4 * H2,
        H1 * H2**3,
        1 + 4 * H1 - 5 * H2 + Fraction(7, 3) * H1 * H2**2,
    ):
        assert ChowElement.from_text(P13, str(x)) == x


def test_from_text_accepts_explicit_exponent_one():
    assert ChowElement.from_text(P13, "2*H1^1 + 4*H2^1") == 2 * H1 + 4 * H2


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        ChowElement.from_text(P13, "2*H3")
    with pytest.raises(ValueError):
        ChowElement.from_text(P13, "two*H1")
    with pytest.raises(ValueError):
        ChowElement.from_text(P13, "")
    with pytest.raises(ValueError, match="^zero denominator in '1/0'$"):
        ChowElement.from_text(P13, "1/0*H1")
    for term in ("1/" + "0" * 5000 + "*H1", "1*H" + "1" * 5000, "1*H1^" + "9" * 5000):
        with pytest.raises(ValueError) as info:
            ChowElement.from_text(P13, term)
        assert str(info.value) == (
            f"cannot parse term {term!r}: a number in it has more than 4300 digits"
        )


def test_immutability_and_hash():
    x = H1 + H2
    with pytest.raises(AttributeError):
        x._terms = {}
    assert hash(H1 + H2) == hash(H2 + H1)
    assert len({H1, H1, H2}) == 2


def test_coefficients_reject_floats():
    with pytest.raises(TypeError):
        ChowElement(P13, {(1, 0): 0.5})


@settings(max_examples=150, deadline=None)
@example(1 + H1 + Fraction(3, 2) * H2**2 + Fraction(1, 2) * H1 * H2**3)
@given(spaces(KERNEL_SPACES).flatmap(lambda space: chow_elements(space, 10)))
def test_graded_parts_split_the_element(x):
    parts = x._graded_parts()
    assert len(parts) == x.space.total_dimension + 1
    assert sum(parts, ChowElement.zero(x.space)) == x
    for d, part in enumerate(parts):
        assert part == x.graded_part(d)


@pytest.mark.parametrize("space", KERNEL_SPACES, ids=str)
def test_graded_texts_print_each_chern_class(space):
    """The one-pass texts of the graded parts, which the report prints c_i(B - A)
    from, against printing each Chern class on its own: denominators other
    than 1, parts that vanish and negative coefficients."""
    rng = random.Random(f"texts {space.dims}")
    monomials = list(product(*(range(n + 1) for n in space.dims)))
    top = space.total_dimension
    for _ in range(20):
        vanishing = set(rng.sample(range(1, top + 1), rng.randint(0, 2)))
        terms = {
            e: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 12)))
            for e in monomials
            if sum(e) not in vanishing
        }
        terms[monomials[0]] = 1
        E = BundleClass(space, rng.randint(0, 5), ChowElement(space, terms))
        texts = E.total_chern._graded_texts()
        assert texts == [str(part) for part in chern_classes(E)]
        assert all(texts[d] == "0" for d in vanishing)


_NOT_NONNEGATIVE = "exponents must be nonnegative integers, got "
_NOT_RATIONAL = "cannot parse rational from 'x'; expected '<int>' or '<int>/<int>'"


@pytest.mark.parametrize(
    "terms, error, message",
    [
        # (1.0, 0) and (True, 0) equal (1, 0), so they would hit the index.
        ({(1.0, 0): 1}, ValueError, _NOT_NONNEGATIVE + "1.0"),
        ({(True, 0): 1}, ValueError, _NOT_NONNEGATIVE + "True"),
        ({(1, 0, 0): 1}, ValueError, "exponent vector (1, 0, 0) has length 3, expected 2"),
        ({(-1, 0): 1}, ValueError, _NOT_NONNEGATIVE + "-1"),
        ([(([1], 0), 1)], ValueError, _NOT_NONNEGATIVE + "[1]"),
        # A term outside the truncation still has its coefficient checked.
        (
            {(5, 0): 1.5},
            TypeError,
            "floating point value 1.5 refused; pass an int, Fraction, or 'p/q' string",
        ),
        ({(1, 0): True}, TypeError, "booleans are not rational scalars"),
        ({(1, 0): Decimal(1)}, TypeError, "expected an exact rational, got Decimal"),
        ({(1, 0): "1/0"}, ValueError, "zero denominator in '1/0'"),
        # The first faulty term is the one reported.
        ([((0, 1), "x"), ((1.0, 0), 1)], ValueError, _NOT_RATIONAL),
        ([((1.0, 0), 1), ((0, 1), "x")], ValueError, _NOT_NONNEGATIVE + "1.0"),
    ],
)
def test_constructor_refuses_bad_terms(terms, error, message):
    with pytest.raises(error) as info:
        ChowElement(P13, terms)
    assert str(info.value) == message


def test_constructor_edge_cases():
    assert ChowElement(P13, {(1, 0): "1/2"}) == Fraction(1, 2) * H1
    assert ChowElement(P13, {(5, 0): 1}).is_zero()
    with pytest.raises(TypeError, match="^expected a ProductSpace, got tuple$"):
        ChowElement((1, 3), {})


@pytest.mark.parametrize("space", KERNEL_SPACES + (ProductSpace((1, 3, 7)),), ids=str)
def test_dense_elements(space):
    """Whole rows of the multiplication table, which the property suites never fill."""
    rng = random.Random(f"dense {space.dims}")
    monomials = list(product(*(range(n + 1) for n in space.dims)))
    for _ in range(3):
        terms = {
            e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3, 4)))
            for e in monomials
        }
        x = ChowElement(space, terms)
        assert x.terms == terms
        assert x._square() == x * x
        assert x**3 == x * x * x
        assert x**4 == x * x * x * x
        assert ChowElement(space, dict(x.terms)) == x
