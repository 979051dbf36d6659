"""Invariants of a 1-parameter family of curves from surface Chern numbers.

Given the Chern numbers c_1^2 and c_2 of the total space of a family of
genus-g curves over a base of genus q, the standard relative invariants are

    kappa  = c_1^2 - 2 (2g - 2)(2q - 2)
    delta  = c_2 - (2 - 2g)(2 - 2q)
    lambda = (kappa + delta) / 12

and the slope of the induced map to moduli is delta / lambda.  The Mumford
relation 12 lambda = kappa + delta holds by construction and is asserted.
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
    c1_sq = as_fraction(c1_sq)
    c2 = as_fraction(c2)

    kappa = c1_sq - 2 * (2 * g - 2) * (2 * q - 2)
    delta = c2 - (2 - 2 * g) * (2 - 2 * q)
    lambda_ = (kappa + delta) / 12
    if 12 * lambda_ != kappa + delta:
        raise InternalCheckError("Mumford relation 12*lambda = kappa + delta violated")
    slope = delta / lambda_ if lambda_ != 0 else None

    return FamilyInvariants(
        kappa=kappa,
        delta=delta,
        lambda_=lambda_,
        slope=slope,
        fiber_genus=g,
        base_genus=q,
    )
