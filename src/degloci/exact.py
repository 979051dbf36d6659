"""Exact rational scalars and their text renderings.

Everything numeric in this package is an exact ``fractions.Fraction``; floats
are refused at every boundary so that no rounding can creep into a result.
Decimal renderings are produced only at output time, from the exact value,
in a decimal context of their own, so they do not depend on the calling
thread's context (its precision, rounding, traps or exponent letter).
Error messages show their numbers through ``message_text``, which cannot
raise, so a refusal keeps its reason even for a number too long to print.
"""

from __future__ import annotations

import re
import sys
from decimal import ROUND_HALF_EVEN, Context, DivisionByZero, InvalidOperation, Overflow
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# The context of every decimal rendering, less its precision.  Every field is
# named, since Context() copies an unnamed one from decimal.DefaultContext,
# which a caller may change.  It is only ever copied, so no rendering sees
# another's flags.
_DECIMAL_CONTEXT = Context(
    rounding=ROUND_HALF_EVEN,
    Emin=-999999,
    Emax=999999,
    capitals=1,
    clamp=0,
    flags=[],
    traps=[InvalidOperation, DivisionByZero, Overflow],
)


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


def decimal_text(q: Fraction, significant_digits: int = 6) -> str:
    """Decimal rendering to the given number of significant digits.

    Derived from the exact value at call time, rounding half to even;
    exact integers print without padding (216 -> '216') while true rationals
    round (98/15 -> '6.53333').  The caller's decimal context plays no part.
    An integer of at most that many digits is ``str(n)``: the division is exact.
    """
    if significant_digits < 1:
        raise ValueError("significant_digits must be >= 1")
    if q.denominator == 1 and abs(q.numerator) < 10**significant_digits:
        return str(q.numerator)
    ctx = _DECIMAL_CONTEXT.copy()
    ctx.prec = significant_digits
    return ctx.to_sci_string(ctx.divide(q.numerator, q.denominator))


def message_text(value, convert=str) -> str:
    """``convert(value)`` (``str`` or ``repr``) for an error message, or a note
    in its place when an integer in it is beyond Python's int-to-string digit
    limit.

    Formatting such an integer raises ``ValueError``, which would replace the
    refusal the message was meant to report.
    """
    try:
        return convert(value)
    except ValueError:
        return f"(not shown: a number has more than {sys.get_int_max_str_digits()} digits)"
