"""Invariants of a 1-parameter family of curves from surface Chern numbers.

Given the Chern numbers c_1^2 and c_2 of the total space of a family of
genus-g curves over a base of genus q, the standard relative invariants are

    kappa  = c_1^2 - 2 (2g - 2)(2q - 2)
    delta  = c_2 - (2 - 2g)(2 - 2q)
    lambda = (kappa + delta) / 12

and the slope of the induced map to moduli is delta / lambda.  The Mumford
relation 12 lambda = kappa + delta holds by construction and is asserted.

With c_1^2 and c_2 over one denominator d, kappa d, delta d and 12 lambda d are
integers, so each value is one integer ratio: slope = 12 delta d / (12 lambda d).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalCheckError
from .exact import as_fraction, message_text
from .record import Record


class FamilyInvariants(Record):
    """kappa, delta, lambda and slope of a family of curves.

    ``slope`` is None exactly when lambda vanishes.
    """

    __slots__ = ("kappa", "delta", "lambda_", "slope", "fiber_genus", "base_genus")

    def __init__(
        self, kappa: Fraction, delta: Fraction, lambda_: Fraction,
        slope: Fraction | None, fiber_genus: int, base_genus: int,
    ):
        self._fill(kappa, delta, lambda_, slope, fiber_genus, base_genus)


def invariants_from_chern_numbers(
    c1_sq,
    c2,
    g: int,
    q: int,
    *,
    allow_low_genus: bool = False,
) -> FamilyInvariants:
    """Convert surface Chern numbers into family invariants.

    Fiber genus below 2 is rejected unless ``allow_low_genus`` is set, since
    the slope story is only meaningful for stable fibers.
    """
    if not isinstance(g, int) or isinstance(g, bool) or g < 0:
        raise ValueError(
            f"fiber genus must be a nonnegative integer, got {message_text(g, repr)}"
        )
    if not isinstance(q, int) or isinstance(q, bool) or q < 0:
        raise ValueError(
            f"base genus must be a nonnegative integer, got {message_text(q, repr)}"
        )
    if g < 2 and not allow_low_genus:
        raise ValueError(
            f"fiber genus {g} is below 2; pass allow_low_genus=True to accept it"
        )
    p1, q1 = as_fraction(c1_sq).as_integer_ratio()
    p2, q2 = as_fraction(c2).as_integer_ratio()
    d = q1 * q2
    kappa_d = p1 * q2 - 2 * (2 * g - 2) * (2 * q - 2) * d
    delta_d = p2 * q1 - (2 - 2 * g) * (2 - 2 * q) * d
    kappa, delta = Fraction(kappa_d, d), Fraction(delta_d, d)
    lambda_ = Fraction(kappa_d + delta_d, 12 * d)
    if 12 * lambda_ != kappa + delta:
        raise InternalCheckError("Mumford relation 12*lambda = kappa + delta violated")
    slope = Fraction(12 * delta_d, kappa_d + delta_d) if lambda_ else None

    return FamilyInvariants(
        kappa=kappa,
        delta=delta,
        lambda_=lambda_,
        slope=slope,
        fiber_genus=g,
        base_genus=q,
    )
