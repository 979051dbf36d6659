"""Randomized property suites, each sized to 200 cases.

The exception is ``dense_kernel_matches_naive`` at 40: its naive reference
convolutions and Horner twists on spaces with up to 81 monomials cost far
more per case.

Every suite is a plain callable (hypothesis drives the randomization inside),
and acceptance criterion 6 is their only runner: it runs every suite in
``ALL_SUITES`` and names each one that fails.  No topic test module runs them
again.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as stg
from degloci import (
    BaseChangeParams,
    BundleClass,
    ChowElement,
    NonUnitError,
    beta_delta0_correction,
    direct_sum,
    dual,
    invariants_from_chern_numbers,
    kernel_from_sequence,
    line_bundle,
    pullback_slope,
    sigma_tilde_self_intersection,
    twist,
    virtual_difference,
)

SUITE = settings(max_examples=200, deadline=None)


def _assert_canonical(r: ChowElement):
    """Ring results skip the constructor's checks, so check its invariants."""
    for exps, coeff in r.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert all(e <= n for e, n in zip(exps, r.space.dims))
    assert ChowElement(r.space, dict(r.terms)).terms == r.terms


def _assert_checked(*results: BundleClass):
    """Bundle results skip BundleClass's checks, so rebuild each through them."""
    for E in results:
        assert BundleClass(E.space, E.rank, E.total_chern) == E


@SUITE
@given(stg.element_triples())
def ring_axioms(triple):
    x, y, z = triple
    space = x.space
    zero = ChowElement.zero(space)
    one = ChowElement.one(space)
    for r in (x + y, x + (-x), x * y, zero * x, 0 * x, x**3):
        _assert_canonical(r)
    for d in range(space.total_dimension + 1):
        _assert_canonical(x.graded_part(d))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + zero == x
    assert x + (-x) == zero
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert one * x == x
    assert zero * x == zero


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def _naive_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _nonzero(out)


def _naive_mul(dims, a: dict, b: dict) -> dict:
    """Truncated convolution of two exponent-to-Fraction dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if all(x <= n for x, n in zip(e, dims)):
                out[e] = out.get(e, 0) + c1 * c2
    return _nonzero(out)


def _naive_unit_inverse(dims, positive: dict) -> dict:
    """The inverse of 1 + p by the fixed point y = 1 - p*y, reached after dim steps."""
    one = {(0,) * len(dims): Fraction(1)}
    y = one
    for _ in range(sum(dims)):
        y = _naive_add(one, {e: -c for e, c in _naive_mul(dims, positive, y).items()})
    return y


def _naive_power(dims, a: dict, k: int) -> dict:
    y = {(0,) * len(dims): Fraction(1)}
    for _ in range(k):
        y = _naive_mul(dims, y, a)
    return y


def _horner_twist(c: ChowElement, ell: ChowElement, rank: int) -> ChowElement:
    """sum_i c_i (1 + l)^{r - i} as Horner in w = (1 + l)^{-1}, times (1 + l)^r."""
    w = (1 + ell).invert_unit_series()
    series = ChowElement.zero(c.space)
    for i in range(c.space.total_dimension, -1, -1):
        series = series * w + c.graded_part(i)
    return series * (1 + ell) ** rank


@settings(max_examples=40, deadline=None)
@given(stg.kernel_setups())
def dense_kernel_matches_naive(setup):
    space, a, b, s, linear, degrees, multiplicity = setup
    dims = space.dims
    a, b = _nonzero(a), _nonzero(b)
    x, y = ChowElement(space, a), ChowElement(space, b)
    one, zero = ChowElement.one(space), ChowElement.zero(space)
    assert dict(x.terms) == a
    assert dict((x * y).terms) == _naive_mul(dims, a, b)
    assert dict((x + y).terms) == _naive_add(a, b)
    assert dict((s * x).terms) == _nonzero({e: s * c for e, c in a.items()})
    for d in range(space.total_dimension + 1):
        assert dict(x.graded_part(d).terms) == {e: c for e, c in a.items() if sum(e) == d}
    assert x.integrate() == a.get(dims, 0)
    for k in range(6):
        assert dict((x**k).terms) == _naive_power(dims, a, k)
    positive = {e: c for e, c in a.items() if sum(e) > 0}
    unit = 1 + ChowElement(space, positive)
    inverse = unit.invert_unit_series()
    assert dict(inverse.terms) == _naive_unit_inverse(dims, positive)
    q = 1 + ChowElement(space, {e: c for e, c in b.items() if sum(e) > 0})
    q_inverse = q.invert_unit_series()
    assert x._divided_by(q) == x * q_inverse
    Q = BundleClass(space, 1, q)
    quotient = unit * q_inverse
    assert kernel_from_sequence(BundleClass(space, 3, unit), Q).total_chern == quotient
    assert virtual_difference(BundleClass(space, 0, unit), Q).total_chern == quotient
    for non_unit in (2 * q, q - 1):
        message = f"cannot invert: degree-0 part is {non_unit.constant_term()}, not 1"
        with pytest.raises(NonUnitError, match=message):
            x._divided_by(non_unit)
        with pytest.raises(NonUnitError, match=message):
            non_unit.invert_unit_series()
    units = [tuple(int(j == i) for j in range(len(dims))) for i in range(len(dims))]
    one_plus_d = {(0,) * len(dims): Fraction(1), **dict(zip(units, map(Fraction, degrees)))}
    assert dict(line_bundle(space, degrees, multiplicity).total_chern.terms) == _naive_power(
        dims, one_plus_d, multiplicity
    )
    ell = ChowElement(space, dict(zip(units, linear)))
    L = BundleClass(space, 1, 1 + ell)
    for r in range(-3, 9):
        power = one._twisted(1 + ell, r)
        assert power * one._twisted(1 + ell, -r) == one
        if r >= 0:
            assert power == (1 + ell) ** r
    # Rank 0, a rank below the top degree (so c_i != 0 above the rank), and l
    # with denominators: the weighted product against Horner written here.
    for rank in (0, multiplicity):
        for E in (BundleClass(space, rank, unit), BundleClass(space, rank, q)):
            assert twist(E, L).total_chern == _horner_twist(E.total_chern, ell, rank)
    halves = [(e, c / 2) for e, c in a.items()]
    cancelling = list(a.items()) + [(e, -c) for e, c in a.items()]
    for lhs, rhs in (
        ((x * Fraction(1, 2)) * 2, x),
        ((x + y) - y, x),
        (x * y, y * x),
        (ChowElement(space, dict(x.terms)), x),
        (ChowElement.from_text(space, str(x)), x),
        (ChowElement(space, halves + halves), x),
        (ChowElement(space, cancelling), zero),
    ):
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)


@SUITE
@given(stg.raw_term_dicts())
def truncation_idempotence(space_and_terms):
    space, terms = space_and_terms
    x = ChowElement(space, terms)
    for exps, coeff in x.terms.items():
        assert coeff != 0
        assert all(0 <= e <= n for e, n in zip(exps, space.dims))
    in_range = {
        e: c for e, c in terms.items() if all(ei <= n for ei, n in zip(e, space.dims))
    }
    assert x == ChowElement(space, in_range)
    assert ChowElement(space, dict(x.terms)) == x


@SUITE
@given(stg.unit_elements())
def mul_invert_is_one(u):
    assert u * u.invert_unit_series() == ChowElement.one(u.space)


@SUITE
@given(stg.line_sum_pairs())
def whitney_cancellation(setup):
    space, E, F = setup
    total = direct_sum(E, F)
    recovered = kernel_from_sequence(total, F)
    # E and F are line bundles or direct sums of them.
    _assert_checked(E, F, total, recovered)
    assert recovered.rank == E.rank
    assert recovered.total_chern == E.total_chern


@SUITE
@given(stg.twist_setups())
def twist_sequence_commutation(setup):
    M, Q, L = setup
    K = kernel_from_sequence(M, Q)
    lhs = twist(K, L)
    twisted_M, twisted_Q = twist(M, L), twist(Q, L)
    rhs = kernel_from_sequence(twisted_M, twisted_Q)
    _assert_checked(
        L, K, lhs, twisted_M, twisted_Q, rhs, dual(K), virtual_difference(Q, twisted_M)
    )
    assert lhs.rank == rhs.rank
    assert lhs.total_chern == rhs.total_chern


@SUITE
@given(stg.base_change_params())
def beta_sigma_identity(params):
    total = sigma_tilde_self_intersection(params, 1) + sigma_tilde_self_intersection(
        params, 2
    )
    assert beta_delta0_correction(params) == total


def _swapped(params: BaseChangeParams) -> BaseChangeParams:
    return BaseChangeParams(
        m1=params.m2,
        m2=params.m1,
        g_A1=params.g_A2,
        g_A2=params.g_A1,
        A1_sq=params.A2_sq,
        A2_sq=params.A1_sq,
        A12=params.A12,
        base_genus=params.base_genus,
        base_lambda=params.base_lambda,
        base_delta0=params.base_delta0,
        base_delta_rest=params.base_delta_rest,
    )


@SUITE
@given(stg.base_change_params(nonzero_lambda=True))
def index_swap_symmetry(params):
    swapped = _swapped(params)
    assert beta_delta0_correction(params) == beta_delta0_correction(swapped)
    assert pullback_slope(params) == pullback_slope(swapped)


@SUITE
@given(
    c1_sq=stg.rationals,
    c2=stg.rationals,
    g=st.integers(0, 30),
    q=st.integers(0, 5),
)
def mumford_relation(c1_sq, c2, g, q):
    fam = invariants_from_chern_numbers(c1_sq, c2, g, q, allow_low_genus=True)
    assert 12 * fam.lambda_ == fam.kappa + fam.delta
    if fam.lambda_ != 0:
        assert fam.slope * fam.lambda_ == fam.delta
    else:
        assert fam.slope is None


# Every module-level callable hypothesis drives, so a new suite cannot be left out.
ALL_SUITES = tuple(
    (name, value)
    for name, value in globals().items()
    if callable(value) and hasattr(value, "hypothesis")
)
