"""Slope of a family after base change along a pair of multisections.

Start from a family of curves over a base of genus h carrying two
multisections A_1, A_2 of degrees m_1, m_2 that meet transversally and avoid
each other's tangency points.  Pulling the family back to the normalization
of the fiber product turns the multisections into sections; blowing up their
intersection points then separates them.  The pulled-back divisor degrees
pick up correction terms concentrated at those new sections:

    lambda_B  = m_1 m_2 * lambda
    delta_1,B = A_1 . A_2
    delta_0,B = m_1 m_2 * delta_0
                + sum_l [ m_{3-l} (m_l (2h-2) - (2 g(A_l) - 2) + A_l^2) - A_1.A_2 ]
    delta_j,B = m_1 m_2 * delta_j  for the remaining boundary indices

The delta_0 correction equals the sum of the self-intersections of the two
proper-transform sections,

    sigma_l^2 = m_{3-l} * (-(A_l . omega)) - A_1.A_2,
    A_l . omega = (2 g(A_l) - 2) - A_l^2 - m_l (2h - 2),

an identity this module exposes on both sides so it can be checked exactly.
An earlier published version of the delta_0 and delta_j formulas omitted the
multiplicities on the uncorrected terms; the forms above are the corrected
ones.

Each value is one integer ratio: the multisection data are integers, and the
slope's numerator is summed over the lcm of the denominators of its terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import SlopeUndefinedError
from .exact import as_fraction, message_text
from .record import Record


class BaseChangeParams(Record):
    """Numeric data of the two multisections and of the original family.

    ``base_lambda``, ``base_delta0`` and ``base_delta_rest`` are the degrees
    of lambda, delta_0 and the remaining boundary divisors on the original
    (pre-base-change) family.
    """

    __slots__ = (
        "m1", "m2", "g_A1", "g_A2", "A1_sq", "A2_sq", "A12", "base_genus",
        "base_lambda", "base_delta0", "base_delta_rest",
    )

    def __init__(
        self, m1: int, m2: int, g_A1: int, g_A2: int, A1_sq: int, A2_sq: int,
        A12: int, base_genus: int, base_lambda: Fraction, base_delta0: Fraction,
        base_delta_rest: tuple[Fraction, ...] = (),
    ):
        ints = (m1, m2, g_A1, g_A2, A1_sq, A2_sq, A12, base_genus)
        for name, v in zip(self.__slots__, ints):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {message_text(v, repr)}")
        if m1 < 1 or m2 < 1:
            raise ValueError(
                "multisection degrees must be at least 1, "
                f"got m1={message_text(m1)}, m2={message_text(m2)}"
            )
        if A12 < 0:
            raise ValueError(f"A1.A2 must be nonnegative, got {message_text(A12)}")
        self._fill(
            *ints,
            as_fraction(base_lambda),
            as_fraction(base_delta0),
            tuple(as_fraction(d) for d in base_delta_rest),
        )

    def _side(self, ell: int) -> tuple[int, int, int, int]:
        """(m_l, g(A_l), A_l^2, m_{3-l}) for l in {1, 2}."""
        if ell == 1:
            return self.m1, self.g_A1, self.A1_sq, self.m2
        if ell == 2:
            return self.m2, self.g_A2, self.A2_sq, self.m1
        raise ValueError(f"multisection index must be 1 or 2, got {message_text(ell, repr)}")


class PullbackSlope(Record):
    """Pulled-back divisor degrees and the resulting slope.

    ``delta0_correction`` is ``beta_delta0_correction(params)``, the part of
    ``delta0_B`` added by the blow-ups.
    """

    __slots__ = (
        "lambda_B", "delta0_correction", "delta0_B", "delta1_B", "delta_rest_B", "slope"
    )

    def __init__(
        self, lambda_B: Fraction, delta0_correction: Fraction, delta0_B: Fraction,
        delta1_B: Fraction, delta_rest_B: tuple[Fraction, ...], slope: Fraction,
    ):
        self._fill(lambda_B, delta0_correction, delta0_B, delta1_B, delta_rest_B, slope)


def relative_omega_degree(params: BaseChangeParams, ell: int) -> Fraction:
    """A_l . omega of the family: (2 g(A_l) - 2) - A_l^2 - m_l (2h - 2)."""
    m, g, a_sq, _ = params._side(ell)
    h = params.base_genus
    return Fraction((2 * g - 2) - a_sq - m * (2 * h - 2))


def sigma_tilde_self_intersection(params: BaseChangeParams, ell: int) -> Fraction:
    """Self-intersection of the proper-transform section over multisection l."""
    _, _, _, m_other = params._side(ell)
    return Fraction(-m_other * relative_omega_degree(params, ell).numerator - params.A12)


def beta_delta0_correction(params: BaseChangeParams) -> Fraction:
    """The correction added to m_1 m_2 * delta_0 after the blow-ups.

    Equals sigma_tilde_self_intersection(1) + sigma_tilde_self_intersection(2)
    identically; this form evaluates the displayed sum directly.
    """
    h = params.base_genus
    total = 0
    for ell in (1, 2):
        m, g, a_sq, m_other = params._side(ell)
        total += m_other * (m * (2 * h - 2) - (2 * g - 2) + a_sq) - params.A12
    return Fraction(total)


def beta_delta_j(params: BaseChangeParams, F_delta_j) -> Fraction:
    """Boundary degrees away from delta_0, delta_1 scale by m_1 m_2."""
    p, q = as_fraction(F_delta_j).as_integer_ratio()
    return Fraction(params.m1 * params.m2 * p, q)


def pullback_slope(params: BaseChangeParams) -> PullbackSlope:
    """Assemble all pulled-back degrees and the slope of the new family."""
    if params.base_lambda == 0:
        raise SlopeUndefinedError(
            "slope after base change is undefined: the base family has lambda = 0"
        )
    mm = params.m1 * params.m2
    lam, lam_den = params.base_lambda.as_integer_ratio()
    d0, d0_den = params.base_delta0.as_integer_ratio()
    correction = beta_delta0_correction(params)
    delta0_num = mm * d0 + correction.numerator * d0_den  # delta0_B over d0_den
    delta_rest_B = tuple(beta_delta_j(params, d) for d in params.base_delta_rest)
    # delta0_B + delta1_B + sum_j delta_j,B over den.
    den = lcm(d0_den, *[d.denominator for d in delta_rest_B])
    total = delta0_num * (den // d0_den) + params.A12 * den
    for d in delta_rest_B:
        total += d.numerator * (den // d.denominator)
    return PullbackSlope(
        Fraction(mm * lam, lam_den), correction, Fraction(delta0_num, d0_den),
        Fraction(params.A12), delta_rest_B, Fraction(total * lam_den, den * mm * lam),
    )
