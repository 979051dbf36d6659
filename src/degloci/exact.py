"""Exact rational scalars and their text renderings.

Everything numeric in this package is an exact ``fractions.Fraction``; floats
are refused at every boundary so that no rounding can creep into a result.
Decimal renderings are produced only at output time, from the exact value.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction.

    Floats (and bools) are rejected: a float argument is almost always an
    upstream rounding bug, and exactness is the whole point of the package.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(
                f"cannot parse rational from {value!r}; expected '<int>' or '<int>/<int>'"
            )
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        raise TypeError(
            f"floating point value {value!r} refused; pass an int, Fraction, or 'p/q' string"
        )
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def rational_text(q: Fraction) -> str:
    """Canonical exact rendering: '216', '-3096', '98/15'."""
    return str(q)


def decimal_text(q: Fraction, significant_digits: int = 6) -> str:
    """Decimal rendering to the given number of significant digits.

    Derived from the exact value at call time; exact integers print without
    padding (216 -> '216') while true rationals round (98/15 -> '6.53333').
    """
    if significant_digits < 1:
        raise ValueError("significant_digits must be >= 1")
    with localcontext() as ctx:
        ctx.prec = significant_digits
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)
