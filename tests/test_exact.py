"""Scalar coercion and rendering, and refusals whose number is too long to print."""

from decimal import ROUND_DOWN, DefaultContext, Inexact, localcontext
from fractions import Fraction

import pytest

from strategies import minimal_data
from degloci import (
    BaseChangeParams,
    BundleClass,
    ChowElement,
    DegeneracyInput,
    ProductSpace,
    as_fraction,
    chern,
    decimal_text,
    hyperplane,
    invariants_from_chern_numbers,
    line_bundle,
    trivial_bundle,
)
from degloci.chow import MAX_MONOMIALS, _Table
from degloci.scenario import parse_scenario_data

_NOT_SHOWN = "(not shown: a number has more than 4300 digits)"
_BIG = 10**4300  # one digit beyond the int-to-string limit
_P13 = ProductSpace((1, 3))


def test_as_fraction_accepts_int_fraction_and_string():
    assert as_fraction(7) == Fraction(7)
    assert as_fraction(Fraction(-3, 4)) == Fraction(-3, 4)
    assert as_fraction("98/15") == Fraction(98, 15)
    assert as_fraction(" -5 ") == Fraction(-5)


def test_as_fraction_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(TypeError):
        as_fraction(None)
    with pytest.raises(ValueError):
        as_fraction("1.5")
    with pytest.raises(ValueError):
        as_fraction("3/0")


def test_decimal_text_six_significant_digits():
    assert decimal_text(Fraction(216)) == "216"
    assert decimal_text(Fraction(98, 15)) == "6.53333"
    assert decimal_text(Fraction(1472, 245)) == "6.00816"
    assert decimal_text(Fraction(-3096)) == "-3096"
    assert decimal_text(Fraction(1, 3), significant_digits=3) == "0.333"


@pytest.mark.parametrize(
    "n, digits, text",
    [
        (0, 3, "0"),
        (999, 3, "999"),
        (-999, 3, "-999"),
        (1000, 3, "1.00E+3"),
        (-1000, 3, "-1.00E+3"),
        (0, 6, "0"),
        (999999, 6, "999999"),
        (-999999, 6, "-999999"),
        (10**6, 6, "1.00000E+6"),
        (-(10**6), 6, "-1.00000E+6"),
    ],
)
def test_decimal_text_integers_at_the_precision(n, digits, text):
    # An integer of at most ``digits`` digits prints as itself, without the
    # division; one digit more rounds to the precision.
    assert decimal_text(Fraction(n), digits) == text


def test_decimal_text_rejects_bad_precision():
    with pytest.raises(ValueError):
        decimal_text(Fraction(1), significant_digits=0)


def test_decimal_text_ignores_the_callers_context():
    cases = {
        Fraction(2, 3): "0.666667",
        Fraction(-2, 3): "-0.666667",
        Fraction(10**7, 3): "3.33333E+6",
    }
    with localcontext() as ctx:
        ctx.prec = 2
        ctx.rounding = ROUND_DOWN
        ctx.capitals = 0
        ctx.traps[Inexact] = True
        for q, text in cases.items():
            assert decimal_text(q) == text
    # Nor does decimal.DefaultContext, whence a new Context() copies unset fields.
    saved = DefaultContext.rounding, DefaultContext.capitals, dict(DefaultContext.traps)
    try:
        DefaultContext.rounding = ROUND_DOWN
        DefaultContext.capitals = 0
        DefaultContext.traps[Inexact] = True
        for q, text in cases.items():
            assert decimal_text(q) == text
    finally:
        DefaultContext.rounding, DefaultContext.capitals, DefaultContext.traps = saved


def _params(**changes):
    return BaseChangeParams(1, 1, 0, 0, 0, 0, 0, 0, 1, 1)._replace(**changes)


@pytest.mark.parametrize(
    "refused, message",
    [
        (
            lambda: ProductSpace((-_BIG,)),
            f"factor dimensions must be positive integers, got {_NOT_SHOWN}",
        ),
        (
            lambda: _params(m1=-_BIG),
            f"multisection degrees must be at least 1, got m1={_NOT_SHOWN}, m2=1",
        ),
        (lambda: _params(m2=[_BIG]), f"m2 must be an integer, got {_NOT_SHOWN}"),
        (lambda: _params(A12=-_BIG), f"A1.A2 must be nonnegative, got {_NOT_SHOWN}"),
        (
            lambda: _params()._side(10 * _BIG),
            f"multisection index must be 1 or 2, got {_NOT_SHOWN}",
        ),
        (
            lambda: invariants_from_chern_numbers(0, 0, -_BIG, 0),
            f"fiber genus must be a nonnegative integer, got {_NOT_SHOWN}",
        ),
        (
            lambda: invariants_from_chern_numbers(0, 0, 2, -_BIG),
            f"base genus must be a nonnegative integer, got {_NOT_SHOWN}",
        ),
        (
            lambda: ChowElement(ProductSpace((1, 3)), {(-_BIG, 0): 1}),
            f"exponents must be nonnegative integers, got {_NOT_SHOWN}",
        ),
        (
            lambda: ChowElement(ProductSpace((1, 3)), {(_BIG, 0, 0): 1}),
            f"exponent vector {_NOT_SHOWN} has length 3, expected 2",
        ),
        (
            lambda: hyperplane(_P13, 1) ** -_BIG,
            f"exponent must be a nonnegative integer, got {_NOT_SHOWN}",
        ),
        (
            lambda: ChowElement.one(_P13).graded_part(-_BIG),
            f"degree must be a nonnegative integer, got {_NOT_SHOWN}",
        ),
        (
            lambda: ChowElement.one(ProductSpace((_BIG,))),
            f"a Chow ring may have at most 2500 basis monomials, got {_NOT_SHOWN}",
        ),
        (
            lambda: hyperplane(_P13, _BIG),
            f"factor index must be between 1 and 2, got {_NOT_SHOWN}",
        ),
        (
            lambda: chern(trivial_bundle(_P13), -_BIG),
            f"Chern-class index must be a nonnegative integer, got {_NOT_SHOWN}",
        ),
        (
            lambda: line_bundle(_P13, ([_BIG], 0)),
            f"twisting degrees must be integers, got {_NOT_SHOWN}",
        ),
        (
            lambda: line_bundle(_P13, (0, 0), -_BIG),
            f"multiplicity must be a positive integer, got {_NOT_SHOWN}",
        ),
        (
            # The dimension is checked first, so no ring element is needed.
            lambda: DegeneracyInput(ProductSpace((_BIG,)), None, None, None, None),
            f"ambient space must have total dimension 4, got {_NOT_SHOWN}",
        ),
        (
            lambda: parse_scenario_data(minimal_data(space=[_BIG])),
            "<scenario>: space: the degeneracy pipeline needs total dimension 4, "
            f"got {_NOT_SHOWN}",
        ),
        (
            lambda: parse_scenario_data(
                minimal_data(family={"fiber_genus": [_BIG], "base_genus": 0})
            ),
            f"<scenario>: family.fiber_genus: expected an integer, got {_NOT_SHOWN}",
        ),
    ],
    ids=[
        "dims", "m1", "m2", "A12", "ell", "g", "q", "exponent", "exponent vector",
        "power", "degree", "ring size", "factor index", "Chern index", "twisting degree",
        "multiplicity", "ambient dimension", "pipeline dimension", "schema",
    ],
)
def test_refusal_survives_a_number_too_long_to_print(refused, message):
    with pytest.raises(ValueError) as info:
        refused()
    assert str(info.value) == message


# Each site of exact.integer, as a call on a bad value, and the text it refuses with.
_INTEGER_SITES = [
    (lambda v: ProductSpace((v,)), "factor dimensions must be positive integers"),
    (lambda v: ChowElement(_P13, {(v, 0): 1}), "exponents must be nonnegative integers"),
    (lambda v: hyperplane(_P13, 1) ** v, "exponent must be a nonnegative integer"),
    (lambda v: ChowElement.one(_P13).graded_part(v), "degree must be a nonnegative integer"),
    (lambda v: hyperplane(_P13, v), "factor index must be between 1 and 2"),
    (lambda v: line_bundle(_P13, (v, 0)), "twisting degrees must be integers"),
    (lambda v: line_bundle(_P13, (0, 0), v), "multiplicity must be a positive integer"),
    (
        lambda v: chern(trivial_bundle(_P13), v),
        "Chern-class index must be a nonnegative integer",
    ),
    (
        lambda v: invariants_from_chern_numbers(0, 0, v, 0),
        "fiber genus must be a nonnegative integer",
    ),
    (
        lambda v: invariants_from_chern_numbers(0, 0, 2, v),
        "base genus must be a nonnegative integer",
    ),
    (lambda v: _params(m2=v), "m2 must be an integer"),
    # The type test of the eight integers comes before A1.A2 >= 0.
    (lambda v: _params(A12=v), "A12 must be an integer"),
    (lambda v: _params()._side(v), "multisection index must be 1 or 2"),
    (
        lambda v: parse_scenario_data(minimal_data(family={"fiber_genus": v, "base_genus": 0})),
        "<scenario>: family.fiber_genus: expected an integer",
    ),
    (lambda v: decimal_text(Fraction(1, 3), v), "significant_digits must be >= 1"),
]


@pytest.mark.parametrize("bad", [True, 1.0], ids=["True", "1.0"])
@pytest.mark.parametrize(
    "refused, expectation",
    _INTEGER_SITES,
    ids=[
        "dims", "exponent", "power", "degree", "factor index", "twisting degree",
        "multiplicity", "Chern index", "g", "q", "m2", "A12", "ell", "schema",
        "significant digits",
    ],
)
def test_integer_arguments_refuse_a_bool_and_a_float(refused, expectation, bad):
    with pytest.raises(ValueError) as info:
        refused(bad)
    assert str(info.value) == f"{expectation}, got {bad!r}"


def test_rank_refuses_a_bool_and_a_float_as_a_type_error():
    for bad in (True, 1.0):
        with pytest.raises(TypeError) as info:
            BundleClass(_P13, bad, ChowElement.one(_P13))
        assert str(info.value) == f"rank must be an integer, got {bad!r}"


def test_ring_tables_stop_at_the_monomial_bound():
    # (80, 80) would take seconds to tabulate; the bound refuses it at once.
    for dims, count in (((80, 80), 6561), ((2500,), 2501)):
        with pytest.raises(ValueError) as info:
            ChowElement.one(ProductSpace(dims))
        assert str(info.value) == (
            f"a Chow ring may have at most {MAX_MONOMIALS} basis monomials, got {count}"
        )
    assert len(_Table((4, 4, 4, 4, 3)).monomials) == MAX_MONOMIALS == 2500


def test_rank_refusal_stays_a_type_error_for_a_number_too_long_to_print():
    with pytest.raises(TypeError) as info:
        BundleClass(_P13, [_BIG], ChowElement.one(_P13))
    assert str(info.value) == f"rank must be an integer, got {_NOT_SHOWN}"
