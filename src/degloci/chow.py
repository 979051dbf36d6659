"""Exact arithmetic in the Chow ring of a product of projective spaces.

The Chow ring of P^{n_1} x ... x P^{n_k} with rational coefficients is the
truncated polynomial ring Q[H_1, ..., H_k] / (H_1^{n_1+1}, ..., H_k^{n_k+1}),
where H_i is the hyperplane class pulled back from the i-th factor.  Elements
are stored sparsely as a map from exponent vectors to nonzero exact rational
coefficients and are fully reduced (no term has e_i > n_i), so two elements
are equal exactly when their term collections coincide.  The public
constructor validates and reduces outside input; ring operations build their
results in this canonical form directly and skip that validation.

The degree map ``integrate`` reads off the coefficient of the socle monomial
H_1^{n_1} ... H_k^{n_k}; ``invert_unit_series`` inverts any element with
constant term 1 via the terminating geometric series, which is what division
of total Chern classes amounts to in this ring.

>>> P13 = ProductSpace((1, 3))
>>> h1, h2 = hyperplane(P13, 1), hyperplane(P13, 2)
>>> print((h1 + h2) * h2 ** 3)
1*H1*H2^3
>>> ((h1 + h2) ** 4).integrate()
Fraction(4, 1)
>>> print((1 + h1 + h2) * (1 + h1 + h2).invert_unit_series())
1
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import NonUnitError, SpaceMismatchError
from .exact import as_fraction


@dataclass(frozen=True)
class ProductSpace:
    """A product of projective spaces P^{n_1} x ... x P^{n_k}."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        if not dims:
            raise ValueError("a product space needs at least one projective factor")
        for n in dims:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(f"factor dimensions must be positive integers, got {n!r}")
        object.__setattr__(self, "dims", dims)

    @property
    def num_factors(self) -> int:
        return len(self.dims)

    @property
    def total_dimension(self) -> int:
        return sum(self.dims)

    def __str__(self):
        return " x ".join(f"P^{n}" for n in self.dims)


class ChowElement:
    """An element of the truncated ring Q[H_1..H_k] / (H_i^{n_i+1}).

    Immutable after construction; all operations return new elements.  The
    constructor accepts any mapping or iterable of ``(exponent_vector,
    coefficient)`` pairs, merges duplicates, coerces coefficients to exact
    rationals, drops zeros, and reduces eagerly modulo the truncation ideal.
    """

    __slots__ = ("_space", "_terms")

    def __init__(self, space: ProductSpace, terms=()):
        if not isinstance(space, ProductSpace):
            raise TypeError(f"expected a ProductSpace, got {type(space).__name__}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        dims = space.dims
        k = len(dims)
        reduced: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != k:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {k}"
                )
            for e in exps:
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise ValueError(f"exponents must be nonnegative integers, got {e!r}")
            c = as_fraction(coeff)
            if c == 0:
                continue
            if any(e > n for e, n in zip(exps, dims)):
                continue
            reduced[exps] = reduced.get(exps, Fraction(0)) + c
        object.__setattr__(self, "_space", space)
        object.__setattr__(
            self, "_terms", {e: c for e, c in reduced.items() if c != 0}
        )

    @classmethod
    def _canonical(cls, space: ProductSpace, terms: dict) -> "ChowElement":
        """Wrap in-range, zero-free terms with Fraction coefficients as they are."""
        x = object.__new__(cls)
        object.__setattr__(x, "_space", space)
        object.__setattr__(x, "_terms", terms)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("ChowElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: ProductSpace) -> "ChowElement":
        return cls._canonical(space, {})

    @classmethod
    def one(cls, space: ProductSpace) -> "ChowElement":
        return cls._canonical(space, {(0,) * space.num_factors: Fraction(1)})

    # -- basic accessors ---------------------------------------------------

    @property
    def space(self) -> ProductSpace:
        return self._space

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only view of the canonical sparse term collection."""
        return MappingProxyType(self._terms)

    def coefficient(self, exponents: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(exponents), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self._space.num_factors)

    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self, degree: int) -> bool:
        """True when every stored term has the given total degree."""
        return all(sum(e) == degree for e in self._terms)

    # -- ring operations ---------------------------------------------------

    def _check_space(self, other: "ChowElement"):
        if self._space != other._space:
            raise SpaceMismatchError(
                f"operands live on different spaces: {self._space} vs {other._space}"
            )

    def _scalar(self, value) -> Fraction | None:
        if isinstance(value, bool):
            return None
        if isinstance(value, (int, Fraction)):
            return as_fraction(value)
        return None

    def __add__(self, other):
        if isinstance(other, ChowElement):
            self._check_space(other)
            merged = dict(self._terms)
            for e, c in other._terms.items():
                merged[e] = merged.get(e, 0) + c
            return self._canonical(self._space, {e: c for e, c in merged.items() if c})
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return self + c * ChowElement.one(self._space)

    __radd__ = __add__

    def __neg__(self):
        return self._canonical(self._space, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, ChowElement):
            return self + (-other)
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return self + (-c)

    def __rsub__(self, other):
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return (-self) + c

    def __mul__(self, other):
        if isinstance(other, ChowElement):
            self._check_space(other)
            dims = self._space.dims
            acc: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    if any(x > n for x, n in zip(e, dims)):
                        continue
                    acc[e] = acc.get(e, 0) + c1 * c2
            return self._canonical(self._space, {e: c for e, c in acc.items() if c})
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return self._canonical(
            self._space, {e: v * c for e, v in self._terms.items()} if c else {}
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = ChowElement.one(self._space)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- grading and the degree map ----------------------------------------

    def graded_part(self, degree: int) -> "ChowElement":
        """The sum of terms of the given total degree."""
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {degree!r}")
        return self._canonical(
            self._space, {e: c for e, c in self._terms.items() if sum(e) == degree}
        )

    def integrate(self) -> Fraction:
        """Degree map: the coefficient of H_1^{n_1} ... H_k^{n_k}."""
        return self.coefficient(self._space.dims)

    def invert_unit_series(self) -> "ChowElement":
        """Multiplicative inverse of an element with constant term 1.

        Computed as the geometric series sum_j (1 - x)^j, which terminates
        because positive-degree elements are nilpotent in the truncated ring.
        """
        if self.constant_term() != 1:
            raise NonUnitError(
                f"cannot invert: degree-0 part is {self.constant_term()}, not 1"
            )
        one = ChowElement.one(self._space)
        u = one - self
        result = one
        power = one
        for _ in range(self._space.total_dimension):
            power = power * u
            if power.is_zero():
                break
            result = result + power
        return result

    # -- comparison and hashing --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ChowElement):
            return NotImplemented
        return self._space == other._space and self._terms == other._terms

    def __hash__(self):
        return hash((self._space, frozenset(self._terms.items())))

    # -- canonical text form -----------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in sorted(self._terms.items(), reverse=True):
            factors = [str(coeff)]
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                factors.append(f"H{i + 1}" if e == 1 else f"H{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<ChowElement {self} on {self._space}>"

    _TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)((?:\*H\d+(?:\^\d+)?)*)$")
    _FACTOR_RE = re.compile(r"\*H(\d+)(?:\^(\d+))?")

    @classmethod
    def from_text(cls, space: ProductSpace, text: str) -> "ChowElement":
        """Parse the canonical text form back into an element.

        Accepts exactly the shapes ``__str__`` emits (plus explicit ``^1``
        exponents and flexible whitespace around ``+``).
        """
        s = text.strip()
        if s == "0":
            return cls.zero(space)
        terms: dict[tuple[int, ...], Fraction] = {}
        for raw in s.split("+"):
            part = raw.strip().replace(" ", "")
            m = cls._TERM_RE.match(part)
            if not m:
                raise ValueError(f"cannot parse term {part!r}")
            coeff = Fraction(m.group(1))
            exps = [0] * space.num_factors
            for fm in cls._FACTOR_RE.finditer(m.group(2)):
                i = int(fm.group(1))
                if not 1 <= i <= space.num_factors:
                    raise ValueError(
                        f"variable H{i} out of range for {space} in term {part!r}"
                    )
                exps[i - 1] += int(fm.group(2) or "1")
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return cls(space, terms)


def hyperplane(space: ProductSpace, i: int) -> ChowElement:
    """The hyperplane class H_i of the i-th factor (1-based index)."""
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= space.num_factors:
        raise ValueError(
            f"factor index must be between 1 and {space.num_factors}, got {i!r}"
        )
    exps = [0] * space.num_factors
    exps[i - 1] = 1
    return ChowElement._canonical(space, {tuple(exps): Fraction(1)})


def linear_combine(coeffs, elems) -> ChowElement:
    """The linear combination sum_i coeffs[i] * elems[i] in canonical form."""
    coeffs = list(coeffs)
    elems = list(elems)
    if len(coeffs) != len(elems):
        raise ValueError(
            f"got {len(coeffs)} coefficients for {len(elems)} elements"
        )
    if not elems:
        raise ValueError("cannot combine an empty list of elements")
    space = elems[0].space
    acc = ChowElement.zero(space)
    for c, x in zip(coeffs, elems):
        if x.space != space:
            raise SpaceMismatchError(
                f"elements live on different spaces: {space} vs {x.space}"
            )
        acc = acc + as_fraction(c) * x
    return acc
