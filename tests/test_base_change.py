"""Base change along two multisections: corrections and the pulled-back slope."""

import random
from fractions import Fraction

import pytest

from degloci import (
    BaseChangeParams,
    PullbackSlope,
    SlopeUndefinedError,
    beta_delta0_correction,
    beta_delta_j,
    pullback_slope,
    relative_omega_degree,
    sigma_tilde_self_intersection,
)


def m16_params(**overrides) -> BaseChangeParams:
    fields = dict(
        m1=14,
        m2=14,
        g_A1=105,
        g_A2=105,
        A1_sq=16,
        A2_sq=16,
        A12=16,
        base_genus=0,
        base_lambda=Fraction(60),
        base_delta0=Fraction(392),
        base_delta_rest=(),
    )
    fields.update(overrides)
    return BaseChangeParams(**fields)


def test_relative_omega_degree():
    assert relative_omega_degree(m16_params(), 1) == 220
    assert relative_omega_degree(m16_params(), 2) == 220
    flat = m16_params(g_A1=1, A1_sq=0, base_genus=1, base_lambda=1)
    assert relative_omega_degree(flat, 1) == 0
    tiny = m16_params(m1=1, g_A1=0, A1_sq=-1)
    assert relative_omega_degree(tiny, 1) == 1
    with pytest.raises(ValueError):
        relative_omega_degree(m16_params(), 3)


def test_sigma_tilde_self_intersection():
    assert sigma_tilde_self_intersection(m16_params(), 1) == -3096
    assert sigma_tilde_self_intersection(m16_params(), 2) == -3096
    zero = m16_params(m2=1, g_A1=1, A1_sq=0, A12=0, base_genus=1)
    assert sigma_tilde_self_intersection(zero, 1) == 0
    small = m16_params(m1=1, m2=2, g_A1=3, A1_sq=2, A12=1, base_genus=1)
    assert relative_omega_degree(small, 1) == 2
    assert sigma_tilde_self_intersection(small, 1) == 2 * (-2) - 1


def test_beta_delta0_correction():
    assert beta_delta0_correction(m16_params()) == -6192
    assert beta_delta0_correction(m16_params()) + 16 == -(2 * (14 * 220 + 16)) + 16

    trivial = m16_params(
        m1=1, m2=1, g_A1=1, g_A2=1, A1_sq=0, A2_sq=0, A12=0, base_genus=1
    )
    assert beta_delta0_correction(trivial) == 0

    asym = m16_params(
        m1=2, m2=3, g_A1=0, g_A2=0, A1_sq=0, A2_sq=0, A12=0, base_genus=0
    )
    assert beta_delta0_correction(asym) == -14


def test_beta_delta_j():
    assert beta_delta_j(m16_params(), 0) == 0
    assert beta_delta_j(m16_params(m1=1, m2=1), Fraction(7, 3)) == Fraction(7, 3)
    assert beta_delta_j(m16_params(m1=2, m2=3), 5) == 30


def test_pullback_slope_m16_values():
    pb = pullback_slope(m16_params())
    assert pb.lambda_B == 11760
    assert pb.delta0_correction == beta_delta0_correction(m16_params()) == -6192
    assert pb.delta0_B == 70640
    assert pb.delta1_B == 16
    assert pb.delta_rest_B == ()
    assert pb.delta0_B + pb.delta1_B + sum(pb.delta_rest_B) == 70656
    assert pb.slope == Fraction(1472, 245)


def test_pullback_slope_trivial_base_change():
    trivial = m16_params(
        m1=1, m2=1, g_A1=1, g_A2=1, A1_sq=0, A2_sq=0, A12=0, base_genus=1
    )
    pb = pullback_slope(trivial)
    assert pb.lambda_B == trivial.base_lambda
    assert pb.delta0_B == trivial.base_delta0
    assert pb.delta1_B == 0
    assert pb.slope == trivial.base_delta0 / trivial.base_lambda


def test_pullback_slope_with_extra_boundary():
    params = m16_params(base_delta0=Fraction(390), base_delta_rest=(Fraction(2),))
    pb = pullback_slope(params)
    assert pb.delta_rest_B == (196 * Fraction(2),)
    assert pb.lambda_B == 11760
    added = pb.delta0_B + pb.delta1_B + 392
    assert pb.slope == added / pb.lambda_B


def test_pullback_slope_requires_nonzero_lambda():
    with pytest.raises(SlopeUndefinedError):
        pullback_slope(m16_params(base_lambda=0))


def test_params_validation():
    with pytest.raises(ValueError):
        m16_params(m1=0)
    with pytest.raises(ValueError):
        m16_params(A12=-1)
    with pytest.raises(ValueError):
        m16_params(g_A1="105")
    with pytest.raises(TypeError):
        m16_params(base_lambda=60.0)


def _rational(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 12))


def test_outputs_match_the_displayed_formulas():
    """sigma_tilde_self_intersection and every field of pullback_slope against
    the module docstring's formulas, evaluated naively in Fraction: rational
    base degrees with denominators up to 12, a nonempty base_delta_rest,
    negative A_l^2 and base genus h >= 2."""
    rng = random.Random(1703)
    for _ in range(500):
        m = (rng.randint(1, 9), rng.randint(1, 9))
        g_A = (rng.randint(0, 40), rng.randint(0, 40))
        A_sq = (rng.randint(-30, -1), rng.randint(-30, 30))
        A12, h = rng.randint(0, 20), rng.randint(2, 6)
        lam = _rational(rng, 300) or Fraction(1, 7)
        delta0 = _rational(rng, 300)
        rest = tuple(_rational(rng, 60) for _ in range(rng.randint(1, 3)))
        params = BaseChangeParams(
            m[0], m[1], g_A[0], g_A[1], A_sq[0], A_sq[1], A12, h, lam, delta0, rest
        )
        sigma = []
        correction = 0
        for ell in (0, 1):
            other = m[1 - ell]
            omega = (2 * g_A[ell] - 2) - A_sq[ell] - m[ell] * (2 * h - 2)
            sigma.append(other * (-omega) - A12)
            correction += (
                other * (m[ell] * (2 * h - 2) - (2 * g_A[ell] - 2) + A_sq[ell]) - A12
            )
        mm = m[0] * m[1]
        delta0_B = mm * delta0 + correction
        delta_rest_B = tuple(mm * d for d in rest)
        slope = (delta0_B + A12 + sum(delta_rest_B)) / (mm * lam)
        assert [sigma_tilde_self_intersection(params, ell) for ell in (1, 2)] == sigma
        assert pullback_slope(params) == PullbackSlope(
            mm * lam, Fraction(correction), delta0_B, Fraction(A12), delta_rest_B, slope
        )
