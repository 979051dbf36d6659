"""Chow ring arithmetic: construction, truncation, serialization, integration."""

import random
from decimal import Decimal
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from properties import _naive_mul, _naive_power
from strategies import KERNEL_SPACES, chow_elements, exponent_vectors, rationals, spaces
from degloci import (
    BundleClass,
    ChowElement,
    NonUnitError,
    ProductSpace,
    SpaceMismatchError,
    hyperplane,
)
from degloci import chow

P13 = ProductSpace((1, 3))
H1 = hyperplane(P13, 1)
H2 = hyperplane(P13, 2)


def test_product_space_basics():
    assert P13.num_factors == 2
    assert P13.total_dimension == 4
    assert str(P13) == "P^1 x P^3"
    assert ProductSpace((4,)).total_dimension == 4


def test_product_space_rejects_bad_dims():
    with pytest.raises(ValueError):
        ProductSpace(())
    with pytest.raises(ValueError):
        ProductSpace((0,))
    with pytest.raises(ValueError):
        ProductSpace((1, -3))


def test_hyperplane_generators():
    assert H1.terms == {(1, 0): Fraction(1)}
    assert H2.terms == {(0, 1): Fraction(1)}
    with pytest.raises(ValueError):
        hyperplane(P13, 3)
    with pytest.raises(ValueError):
        hyperplane(P13, 0)


def test_truncation_at_construction():
    x = ChowElement(P13, {(2, 0): 5, (1, 1): 3, (0, 4): 7})
    assert x.terms == {(1, 1): Fraction(3)}


def test_zero_coefficients_dropped():
    x = ChowElement(P13, [((1, 0), 2), ((1, 0), -2), ((0, 1), 1)])
    assert x.terms == {(0, 1): Fraction(1)}


def test_mul_examples():
    assert (H1 * H1).is_zero()
    c1m = 2 * H1 + 4 * H2
    assert c1m * c1m == ChowElement(P13, {(1, 1): 16, (0, 2): 16})
    assert (H1 + H2) * H2**3 == ChowElement(P13, {(1, 3): 1})


def test_space_mismatch_raises():
    other = hyperplane(ProductSpace((2, 2)), 1)
    with pytest.raises(SpaceMismatchError):
        H1 + other
    with pytest.raises(SpaceMismatchError):
        H1 * other


def test_scalar_arithmetic():
    x = 1 + 2 * H1
    assert x.constant_term() == 1
    assert (x - 1) == 2 * H1
    assert (3 - 2 * H1) == ChowElement(P13, {(0, 0): 3, (1, 0): -2})
    assert Fraction(1, 2) * H1 == ChowElement(P13, {(1, 0): Fraction(1, 2)})
    assert (3 * ChowElement.one(P13) == 3) is False
    # Only ints (not bools) and Fractions are scalars.
    for operation in (
        lambda: x + 1.5, lambda: x + True, lambda: x - None, lambda: "a" - x, lambda: x * "a",
    ):
        with pytest.raises(TypeError):
            operation()


def test_pow():
    assert (H1 + H2) ** 0 == ChowElement.one(P13)
    assert (H1 + H2) ** 4 == ChowElement(P13, {(1, 3): 4})
    with pytest.raises(ValueError):
        (H1 + H2) ** -1


def test_graded_part_and_homogeneity():
    x = 1 + H1 + 3 * H2**2
    assert x.graded_part(0) == ChowElement.one(P13)
    assert x.graded_part(1) == H1
    assert x.graded_part(2) == 3 * H2**2
    assert x.graded_part(3).is_zero()
    assert x.graded_part(1).is_homogeneous(1)
    assert not x.is_homogeneous(1)
    assert ChowElement.zero(P13).is_homogeneous(17)


def test_integrate():
    assert (H1 * H2**3).integrate() == 1
    assert ((H1 + H2) ** 4).integrate() == 4
    assert H1.integrate() == 0
    assert ChowElement.one(P13).integrate() == 0


def test_invert_unit_series():
    u = 1 + H1 + H2
    assert u * u.invert_unit_series() == ChowElement.one(P13)
    with pytest.raises(NonUnitError):
        H1.invert_unit_series()
    with pytest.raises(NonUnitError):
        (2 + H1).invert_unit_series()


def test_str_canonical_form():
    assert str(ChowElement.zero(P13)) == "0"
    assert str(ChowElement.one(P13)) == "1"
    assert str(2 * H1 + 4 * H2) == "2*H1 + 4*H2"
    assert str((H1 + H2) * H2**3) == "1*H1*H2^3"
    assert str(-5 * H2 + 4 * H1) == "4*H1 + -5*H2"
    assert str(Fraction(1, 2) * H2**2) == "1/2*H2^2"


def _reference_str(x: ChowElement) -> str:
    """The canonical form from one Fraction per term, highest monomial first."""
    parts = []
    for exps, coeff in sorted(x.terms.items(), reverse=True):
        factors = [str(coeff)]
        factors += [f"H{f + 1}" if e == 1 else f"H{f + 1}^{e}" for f, e in enumerate(exps) if e]
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


@settings(max_examples=60)
@example(ChowElement.zero(P13))
@example(Fraction(-1, 2) * H1 + Fraction(2, 3) * H2**3 - Fraction(5, 6))
@given(spaces().flatmap(chow_elements))
def test_str_matches_fraction_per_term_printer(x):
    assert str(x) == _reference_str(x)
    assert ChowElement.from_text(x.space, str(x)) == x


def test_from_text_round_trip():
    for x in (
        ChowElement.zero(P13),
        ChowElement.one(P13),
        2 * H1 + 4 * H2,
        H1 * H2**3,
        1 + 4 * H1 - 5 * H2 + Fraction(7, 3) * H1 * H2**2,
    ):
        assert ChowElement.from_text(P13, str(x)) == x


def test_from_text_accepts_explicit_exponent_one():
    assert ChowElement.from_text(P13, "2*H1^1 + 4*H2^1") == 2 * H1 + 4 * H2


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        ChowElement.from_text(P13, "2*H3")
    with pytest.raises(ValueError):
        ChowElement.from_text(P13, "two*H1")
    with pytest.raises(ValueError):
        ChowElement.from_text(P13, "")
    with pytest.raises(ValueError, match="^zero denominator in '1/0'$"):
        ChowElement.from_text(P13, "1/0*H1")
    for term in ("1/" + "0" * 5000 + "*H1", "1*H" + "1" * 5000, "1*H1^" + "9" * 5000):
        with pytest.raises(ValueError) as info:
            ChowElement.from_text(P13, term)
        assert str(info.value) == (
            f"cannot parse term {term!r}: a number in it has more than 4300 digits"
        )


def test_immutability_and_hash():
    x = H1 + H2
    with pytest.raises(AttributeError):
        x._terms = {}
    with pytest.raises(AttributeError, match="cannot delete field '_den'"):
        del x._den
    assert x + x == 2 * (H1 + H2)
    assert hash(H1 + H2) == hash(H2 + H1)
    assert len({H1, H1, H2}) == 2


def test_replace_is_refused_by_name():
    # The constructor takes terms, not the stored fields Record._replace would pass.
    with pytest.raises(TypeError) as info:
        H1._replace(_den=2)
    assert str(info.value) == (
        "ChowElement has no _replace: its constructor takes terms, not fields"
    )


def test_coefficients_reject_floats():
    with pytest.raises(TypeError):
        ChowElement(P13, {(1, 0): 0.5})


@settings(max_examples=150, deadline=None)
@example(1 + H1 + Fraction(3, 2) * H2**2 + Fraction(1, 2) * H1 * H2**3)
@given(spaces(KERNEL_SPACES).flatmap(lambda space: chow_elements(space, 10)))
def test_graded_parts_split_the_element(x):
    parts = [x.graded_part(d) for d in range(x.space.total_dimension + 1)]
    assert len(parts) == x.space.total_dimension + 1
    assert sum(parts, ChowElement.zero(x.space)) == x
    for d, part in enumerate(parts):
        assert part.is_homogeneous(d)


@pytest.mark.parametrize("space", KERNEL_SPACES, ids=str)
def test_graded_texts_print_each_chern_class(space):
    """The one-pass texts of the graded parts, which the report prints c_i(B - A)
    from, against printing each Chern class on its own: denominators other
    than 1, parts that vanish and negative coefficients."""
    rng = random.Random(f"texts {space.dims}")
    monomials = list(product(*(range(n + 1) for n in space.dims)))
    top = space.total_dimension
    for _ in range(20):
        vanishing = set(rng.sample(range(1, top + 1), rng.randint(0, 2)))
        terms = {
            e: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 12)))
            for e in monomials
            if sum(e) not in vanishing
        }
        terms[monomials[0]] = 1
        E = BundleClass(space, rng.randint(0, 5), ChowElement(space, terms))
        texts = E.total_chern._graded_texts()
        assert texts == [str(E.total_chern.graded_part(d)) for d in range(top + 1)]
        assert all(texts[d] == "0" for d in vanishing)


_NOT_NONNEGATIVE = "exponents must be nonnegative integers, got "
_NOT_RATIONAL = "cannot parse rational from 'x'; expected '<int>' or '<int>/<int>'"


@pytest.mark.parametrize(
    "terms, error, message",
    [
        # (1.0, 0) and (True, 0) equal (1, 0), so they would hit the index.
        ({(1.0, 0): 1}, ValueError, _NOT_NONNEGATIVE + "1.0"),
        ({(True, 0): 1}, ValueError, _NOT_NONNEGATIVE + "True"),
        ({(1, 0, 0): 1}, ValueError, "exponent vector (1, 0, 0) has length 3, expected 2"),
        ({(-1, 0): 1}, ValueError, _NOT_NONNEGATIVE + "-1"),
        ([(([1], 0), 1)], ValueError, _NOT_NONNEGATIVE + "[1]"),
        # A term outside the truncation still has its coefficient checked.
        (
            {(5, 0): 1.5},
            TypeError,
            "floating point value 1.5 refused; pass an int, Fraction, or 'p/q' string",
        ),
        ({(1, 0): True}, TypeError, "booleans are not rational scalars"),
        ({(1, 0): Decimal(1)}, TypeError, "expected an exact rational, got Decimal"),
        ({(1, 0): "1/0"}, ValueError, "zero denominator in '1/0'"),
        # The first faulty term is the one reported.
        ([((0, 1), "x"), ((1.0, 0), 1)], ValueError, _NOT_RATIONAL),
        ([((1.0, 0), 1), ((0, 1), "x")], ValueError, _NOT_NONNEGATIVE + "1.0"),
        # The same terms as dicts, which are first tested as a whole map.
        ({(0, 1): "x", (1.0, 0): 1}, ValueError, _NOT_RATIONAL),
        ({(1.0, 0): 1, (0, 1): "x"}, ValueError, _NOT_NONNEGATIVE + "1.0"),
        # Fraction(1) hashes like 1 too.
        ({(Fraction(1), 0): 1}, ValueError, _NOT_NONNEGATIVE + "Fraction(1, 1)"),
    ],
)
def test_constructor_refuses_bad_terms(terms, error, message):
    with pytest.raises(error) as info:
        ChowElement(P13, terms)
    assert str(info.value) == message


def test_constructor_edge_cases():
    assert ChowElement(P13, {(1, 0): "1/2"}) == Fraction(1, 2) * H1
    assert ChowElement(P13, {(5, 0): 1}).is_zero()
    with pytest.raises(TypeError, match="^expected a ProductSpace, got tuple$"):
        ChowElement((1, 3), {})


@pytest.mark.parametrize("space", KERNEL_SPACES + (ProductSpace((1, 3, 7)),), ids=str)
def test_dense_elements(space):
    """Whole rows of the multiplication table, which the property suites never
    fill.  A cube squares through the square kernel and multiplies through the
    product kernel, so it and an inverse are also checked against a naive
    Fraction convolution."""
    rng = random.Random(f"dense {space.dims}")
    monomials = list(product(*(range(n + 1) for n in space.dims)))
    one = {monomials[0]: 1}
    for _ in range(3):
        terms = {
            e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3, 4)))
            for e in monomials
        }
        x = ChowElement(space, terms)
        assert x.terms == terms
        assert x**3 == x * x * x
        assert x**4 == x * x * x * x
        assert dict((x**3).terms) == _naive_power(space.dims, terms, 3)
        unit = ChowElement(space, {**terms, monomials[0]: 1})
        inverse = unit.invert_unit_series()
        assert _naive_mul(space.dims, unit.terms, inverse.terms) == one
        assert ChowElement(space, dict(x.terms)) == x


# Spaces of up to 100 partner pairs, each kernel one function: the
# pipeline's four fourfolds, reordered factors, one factor and two of
# dimension 5 and 6.  ring_dense's spaces have 784 to 1296 pairs, all within
# chow._KERNEL_PAIRS, and compile their products, solves and twists in chunks.
_KERNEL_DIMS = ((1, 3), (3, 1), (2, 2), (1, 1, 2), (1, 2, 1), (1, 1, 1, 1), (4,), (2, 3), (3, 3))
_CHUNKED_DIMS = ((3, 3, 3), (6, 6), (2, 2, 2, 2))


def _integers(rng: random.Random, count: int) -> list[int]:
    """Zeros, small integers of both signs and numerators of about 4300 digits."""
    big = 10**4299
    return [rng.choice((0, rng.randint(-9, 9), rng.randint(-big, big))) for _ in range(count)]


@pytest.mark.parametrize("dims", _KERNEL_DIMS + _CHUNKED_DIMS, ids=str)
def test_kernels_match_their_loops(dims):
    """Each generated kernel against the loop it replaces, on the same integers."""
    rng = random.Random(f"kernels {dims}")
    table = chow._table(dims)
    n, top = len(table.monomials), table.degrees[-1]
    for _ in range(3 if dims in _CHUNKED_DIMS else 10):
        xs, ys = _integers(rng, n), _integers(rng, n)
        r = rng.randint(-3, top)  # r - i < 0 for the terms of degree i > r
        rows = [chow._binomials(r - g, top - g) for g in range(top + 1)]
        cases = {
            "mul": (xs, ys),
            "square": (xs,),
            "solve": (xs, [0] + ys[1:]),
            "twist": (xs, ys, rows),
            "powers": (_integers(rng, len(dims)), _integers(rng, top + 1)),
        }
        for name, args in cases.items():
            kernel = chow._kernel(dims, name)
            assert not isinstance(kernel, partial)
            before = [list(a) for a in args]
            assert kernel(*args) == chow._LOOPS[name](table, *args)
            assert [list(a) for a in args] == before


def test_binomial_rows_are_exact_immutable_and_cached_in_a_bounded_store():
    """Each row of ``_binomials`` against math.comb, extended to negative n by
    binomial(n, s) = (-1)^s binomial(s - n - 1, s)."""

    def binomial(n: int, s: int) -> int:
        return comb(n, s) if n >= 0 else (-1) ** s * comb(s - n - 1, s)

    for n in range(-40, 41):
        for top in range(10):
            row = chow._binomials(n, top)
            # A tuple: no caller can change a row that later callers share.
            assert type(row) is tuple
            assert row == tuple(binomial(n, s) for s in range(top + 1))
            assert chow._binomials(n, top) is row
    info = chow._binomials.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 81 * 10


def _operations(space: ProductSpace, rng: random.Random) -> list[ChowElement]:
    """Products, squares and odd powers, divisions by units over 1 and over
    other denominators, twists with negative r - i, and powers of linear
    classes, from seeded elements."""
    monomials = list(product(*(range(n + 1) for n in space.dims)))
    top = space.total_dimension

    def element(dens, degrees=range(top + 1)):
        """Numerators from _integers over denominators drawn from ``dens``."""
        nums = _integers(rng, len(monomials))
        pairs = zip(monomials, nums)
        return ChowElement(
            space, {e: Fraction(v, rng.choice(dens)) for e, v in pairs if sum(e) in degrees}
        )

    results = []
    for _ in range(4):
        x, y = element((1, 2, 3, 12)), element((1, 5))
        positive = range(1, top + 1)
        unit_one, unit_other = 1 + element((1,), positive), 1 + element((6, 35), positive)
        assert unit_one._den == 1 and unit_other._den != 1
        line = 1 + element((1, 4), (1,))
        coeffs = tuple(rng.randint(-3, 3) for _ in space.dims)
        for r in (rng.randint(-2, top), rng.randint(0, 2)):
            results.append(x._twisted(line, r))
            results.append(chow._one_plus_linear_power(space, coeffs, r))
        results += [x * y, x**2, x**5, x._divided_by(unit_one), x._divided_by(unit_other)]
        results.append(unit_other.invert_unit_series())
    return results


@pytest.mark.parametrize("dims", _KERNEL_DIMS + ((6, 6),), ids=str)
def test_operations_agree_on_kernels_and_loops(dims, monkeypatch):
    """The ring operations around the kernels, rerun with every space on the loops."""
    space = ProductSpace(dims)
    with_kernels = _operations(space, random.Random(f"operations {dims}"))
    monkeypatch.setattr(chow, "_KERNEL_PAIRS", -1)
    monkeypatch.setattr(chow, "_kernel", cache(chow._kernel.__wrapped__))
    assert isinstance(chow._kernel(dims, "mul"), partial)
    assert _operations(space, random.Random(f"operations {dims}")) == with_kernels


def test_kernel_selection():
    """(1,1,1,1) compiles each kernel as one function, ring_dense's spaces
    compile mul, solve and twist in several chunks and powers in one, square
    in one on (3,3,3) and (6,6) (504 and 400 unordered pairs) and in two on
    (2,2,2,2) (656), and (9,9), above _KERNEL_PAIRS, takes the loops;
    KERNEL_SPACES, which the dense-kernel property draws from, has spaces on
    both sides."""
    for name, loop in chow._LOOPS.items():
        small = chow._kernel((1, 1, 1, 1), name)
        assert small.__code__.co_filename == f"<chow {name} (1, 1, 1, 1)>"
        for dims in _CHUNKED_DIMS:
            assert not isinstance(chow._kernel(dims, name), partial)
            chunks = chow._chunks(chow._table(dims), name)
            several = name != "powers" and (name != "square" or dims == (2, 2, 2, 2))
            assert (len(chunks) > 1) == several
        large = chow._kernel((9, 9), name)
        assert large.func is loop and large.args == (chow._table((9, 9)),)
    paths = {isinstance(chow._kernel(s.dims, "mul"), partial) for s in KERNEL_SPACES}
    assert paths == {True, False}


class _Int(int):
    """An int subclass, which the constructor reads through ``as_fraction``."""


@st.composite
def _term_maps(draw):
    """(space, terms) on a kernel or chunked space.  In about half the draws
    some keys lie outside the truncation and some coefficients are 'p/q' texts
    or int subclasses, so the whole-map path hands the map to the loop."""
    space = ProductSpace(draw(st.sampled_from(_KERNEL_DIMS + _CHUNKED_DIMS)))
    plain = draw(st.booleans())
    coefficients = rationals | st.integers(-9, 9)
    if not plain:
        coefficients |= rationals.map(str) | st.integers(-9, 9).map(_Int)
    keys = exponent_vectors(space, slack=0 if plain else 1)
    return space, draw(st.dictionaries(keys, coefficients, max_size=81))


@settings(max_examples=100)
@example((ProductSpace((1, 3)), {}), [])
@example((ProductSpace((1, 3)), {(1, 0): Fraction(1, 2), (0, 1): 0}), [1])
@given(_term_maps(), st.lists(st.integers(0, 2), max_size=3))
def test_a_map_and_its_pairs_build_the_same_element(case, cancelling):
    """A dict (the whole-map path or its fallback) and the same terms as a list
    of pairs (the loop), with pairs that cancel appended, build one element:
    the exact sum of the terms inside the truncation."""
    space, terms = case
    pairs = list(terms.items())
    for first in cancelling:
        e = (first,) + (0,) * (space.num_factors - 1)
        pairs += [(e, Fraction(5, 3)), (e, Fraction(-5, 3))]
    x = ChowElement(space, terms)
    inside = {e: Fraction(c) for e, c in terms.items() if all(map(int.__le__, e, space.dims))}
    assert x.terms == {e: c for e, c in inside.items() if c}
    assert ChowElement(space, pairs) == x
    assert ChowElement(space, x.terms) == x


def test_a_dense_fraction_map_is_read_in_whole_map_passes(monkeypatch):
    """ring_dense's inputs, 81 Fraction terms on (2, 2, 2, 2) as a dict or as a
    term view, are type-checked in a constant number of ``_all_int`` calls,
    where the same terms as pairs take one call per term."""
    space = ProductSpace((2, 2, 2, 2))
    terms = {
        e: Fraction(i % 7 - 3, i % 4 + 1)
        for i, e in enumerate(chow._table(space.dims).monomials)
    }
    calls = []

    def counted(types):
        calls.append(types)
        return all_int(types)

    all_int = chow._all_int
    monkeypatch.setattr(chow, "_all_int", counted)
    x = ChowElement(space, terms)
    assert len(calls) == 1
    assert ChowElement(space, x.terms) == x and len(calls) == 2
    assert ChowElement(space, list(terms.items())) == x and len(calls) == 2 + len(terms)
    assert x.terms == {e: c for e, c in terms.items() if c}
