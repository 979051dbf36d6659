"""Scalar coercion and rendering."""

from decimal import ROUND_DOWN, DefaultContext, Inexact, localcontext
from fractions import Fraction

import pytest

from degloci import as_fraction, decimal_text


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
