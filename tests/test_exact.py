"""Scalar coercion and rendering, and refusals whose number is too long to print."""

from decimal import ROUND_DOWN, DefaultContext, Inexact, localcontext
from fractions import Fraction

import pytest

from degloci import (
    BaseChangeParams,
    ChowElement,
    ProductSpace,
    as_fraction,
    decimal_text,
    invariants_from_chern_numbers,
)

_NOT_SHOWN = "(not shown: a number has more than 4300 digits)"
_BIG = 10**4300  # one digit beyond the int-to-string limit


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
    ],
    ids=["dims", "m1", "m2", "A12", "ell", "g", "q", "exponent", "exponent vector"],
)
def test_refusal_survives_a_number_too_long_to_print(refused, message):
    with pytest.raises(ValueError) as info:
        refused()
    assert str(info.value) == message
