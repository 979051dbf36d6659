"""Family invariants: kappa, delta, lambda, slope."""

import random
from fractions import Fraction

import pytest

from degloci import FamilyInvariants, invariants_from_chern_numbers


def test_m15_values():
    fam = invariants_from_chern_numbers(216, 336, 15, 0)
    assert fam.kappa == 328
    assert fam.delta == 392
    assert fam.lambda_ == 60
    assert fam.slope == Fraction(98, 15)


def test_lambda_zero_leaves_slope_undefined():
    fam = invariants_from_chern_numbers(0, 0, 1, 1, allow_low_genus=True)
    assert fam.kappa == 0
    assert fam.delta == 0
    assert fam.lambda_ == 0
    assert fam.slope is None


def test_small_derived_example():
    fam = invariants_from_chern_numbers(4, 8, 2, 0)
    assert (fam.kappa, fam.delta, fam.lambda_) == (12, 12, 2)
    assert fam.slope == 6


def test_monotonicity_in_c2():
    base = invariants_from_chern_numbers(216, 336, 15, 0)
    bumped = invariants_from_chern_numbers(216, 348, 15, 0)
    assert bumped.delta == base.delta + 12
    assert bumped.lambda_ == base.lambda_ + 1
    assert bumped.kappa == base.kappa


def test_genus_validation():
    with pytest.raises(ValueError):
        invariants_from_chern_numbers(0, 0, 1, 0)
    with pytest.raises(ValueError):
        invariants_from_chern_numbers(0, 0, -1, 0, allow_low_genus=True)
    with pytest.raises(ValueError):
        invariants_from_chern_numbers(0, 0, 2, -1)
    fam = invariants_from_chern_numbers(0, 0, 0, 0, allow_low_genus=True)
    assert fam.fiber_genus == 0


def test_rational_inputs_accepted():
    fam = invariants_from_chern_numbers(Fraction(1, 2), "3/2", 2, 0)
    assert 12 * fam.lambda_ == fam.kappa + fam.delta
    with pytest.raises(TypeError):
        invariants_from_chern_numbers(216.0, 336, 15, 0)


def test_non_integral_lambda_kept_exact():
    fam = invariants_from_chern_numbers(1, 0, 2, 0)
    assert fam.lambda_ == Fraction(13, 12)


def test_outputs_match_the_displayed_formulas():
    """Every field against the module docstring's formulas, evaluated naively
    in Fraction, on rational Chern numbers with denominators up to 12."""
    rng = random.Random(1701)
    for _ in range(500):
        c1_sq = Fraction(rng.randint(-600, 600), rng.randint(1, 12))
        c2 = Fraction(rng.randint(-600, 600), rng.randint(1, 12))
        g, q = rng.randint(0, 30), rng.randint(0, 6)
        kappa = c1_sq - 2 * (2 * g - 2) * (2 * q - 2)
        delta = c2 - (2 - 2 * g) * (2 - 2 * q)
        lambda_ = (kappa + delta) / 12
        slope = delta / lambda_ if lambda_ != 0 else None
        fam = invariants_from_chern_numbers(c1_sq, c2, g, q, allow_low_genus=True)
        assert fam == FamilyInvariants(kappa, delta, lambda_, slope, g, q)
        assert all(type(v) is Fraction for v in (fam.kappa, fam.delta, fam.lambda_))
