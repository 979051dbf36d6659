"""Family invariants: kappa, delta, lambda, slope."""

from fractions import Fraction

import pytest

from degloci import invariants_from_chern_numbers


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
