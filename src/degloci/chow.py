"""Exact arithmetic in the Chow ring of a product of projective spaces.

The Chow ring of P^{n_1} x ... x P^{n_k} with rational coefficients is the
truncated polynomial ring Q[H_1, ..., H_k] / (H_1^{n_1+1}, ..., H_k^{n_k+1}),
where H_i is the hyperplane class pulled back from the i-th factor.  It has
one basis monomial per exponent vector with e_i <= n_i, N = prod_i (n_i + 1)
of them, taken in lexicographic order.  An element is stored densely: a list
of N integer numerators over one positive integer denominator, kept in lowest
terms (gcd(den, *nums) == 1), so two elements are equal exactly when their
denominators and numerator lists coincide.  That costs N numerators per
element whatever its sparsity: 8 to 16 on the fourfolds the pipeline uses.

Products read one table per space, built on first use and kept for the life
of the process: for each monomial, the monomials whose product with it stays
inside the truncation, in ascending index order.  With lexicographic
(mixed-radix) indexing, such a product has index i + j, so a product visits
only those pairs and does integer multiply-adds; squaring visits each
unordered pair once, from the table's lists of partners of larger index.  The
public constructor checks an exponent vector in full only when its lookup
misses or holds a non-int, reads int and Fraction coefficients as integer
ratios, accumulates integer numerators over one lcm of the denominators and
reduces once; ring operations build their results canonical directly and
skip it.

The degree map ``integrate`` reads off the coefficient of the socle monomial
H_1^{n_1} ... H_k^{n_k}, the last index N - 1.  Index i and index N - 1 - i
are complementary monomials (their exponent vectors sum to (n_1, ..., n_k)),
which is Poincare duality in this ring (Fulton, Intersection Theory), so
the integral of a product x * y is the dot product sum_i x_i y_{N-1-i},
with no product class built; ``_dual_indices`` lists the complements that
the degeneracy stage reads.  ``_graded_parts`` splits an element into all
of its graded parts in one pass over its terms; ``_graded_texts`` prints them so.

Division by an element with constant term 1, which is what division of
total Chern classes amounts to in this ring, is one triangular solve of
q * y = x in index order: every partner of y_k in that equation has a
smaller index.  ``invert_unit_series`` is that solve with x = 1.  Powers
(1 + l)^r of a linear class, for any integer r, come from the binomial
series in one pass over the monomials, and the twist sum
sum_i c_i (1 + l)^{r - i} of Fulton, Intersection Theory, Ex. 3.2.2, is one
product of c with the powers of l, weighted by a table of binomials.

The text form prints each nonzero term as its coefficient followed by the
monomial's label (``*H1*H2^3``), read from the same table; a term's fraction
is reduced by one gcd only when the denominator is not 1 (``_term_text``).

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
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, gcd, lcm, prod
from types import MappingProxyType
from typing import Mapping

from .errors import NonUnitError, SpaceMismatchError
from .exact import as_fraction, message_text
from .record import Record, _set


class ProductSpace(Record):
    """A product of projective spaces P^{n_1} x ... x P^{n_k}."""

    __slots__ = ("dims",)

    def __init__(self, dims: tuple[int, ...]):
        dims = tuple(dims)
        if not dims:
            raise ValueError("a product space needs at least one projective factor")
        for n in dims:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(
                    "factor dimensions must be positive integers, "
                    f"got {message_text(n, repr)}"
                )
        _set(self, "dims", dims)

    # Spaces are compared on every bundle operation: compare dims directly.
    def __eq__(self, other):
        if other.__class__ is not ProductSpace:
            return NotImplemented
        return self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    @property
    def num_factors(self) -> int:
        return len(self.dims)

    @property
    def total_dimension(self) -> int:
        return sum(self.dims)

    def __str__(self):
        return " x ".join(f"P^{n}" for n in self.dims)


class _Table:
    """The monomial basis of one space and its multiplication pattern."""

    __slots__ = (
        "monomials", "index", "degrees", "multinomials", "partners", "squares", "above",
        "linear", "labels",
    )

    def __init__(self, dims: tuple[int, ...]):
        self.monomials = list(product(*(range(n + 1) for n in dims)))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.degrees = [sum(m) for m in self.monomials]
        # |e|! / prod_i e_i!, the multinomial coefficient of each monomial H^e.
        self.multinomials = [
            factorial(d) // prod(map(factorial, m))
            for m, d in zip(self.monomials, self.degrees)
        ]
        # Per factor, the index offsets of the partner exponents f <= n - e.
        offsets = []
        stride = 1
        for n in reversed(dims):
            offsets.append([[f * stride for f in range(n + 1 - e)] for e in range(n + 1)])
            stride *= n + 1
        offsets.reverse()
        self.partners = [
            [sum(p) for p in product(*(per[e] for per, e in zip(offsets, m)))]
            for m in self.monomials
        ]
        # For squaring: whether i pairs with itself, and its partners j > i.
        self.squares = [i in row for i, row in enumerate(self.partners)]
        self.above = [row[bisect_right(row, i):] for i, row in enumerate(self.partners)]
        # The indices of H_1, ..., H_k: the strides of the mixed radix.
        self.linear = [offsets[i][0][1] for i in range(len(dims))]
        # The text of each monomial after its coefficient: "", "*H1", "*H1*H2^3".
        self.labels = [
            "".join(f"*H{f}" if e == 1 else f"*H{f}^{e}" for f, e in enumerate(m, 1) if e)
            for m in self.monomials
        ]


_table = cache(_Table)


_new = object.__new__


def _make(space: ProductSpace, nums: list, den: int) -> "ChowElement":
    """Wrap numerators over a denominator that are already in lowest terms."""
    x = _new(ChowElement)
    _set(x, "_space", space)
    _set(x, "_nums", nums)
    _set(x, "_den", den)
    return x


def _lowest(nums: list, den: int) -> tuple[list, int]:
    """Numerators over a positive denominator, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
    return nums, den


def _reduced(space: ProductSpace, nums: list, den: int) -> "ChowElement":
    """Wrap numerators over a positive denominator, bringing them to lowest terms."""
    if den == 1:
        return _make(space, nums, 1)
    return _make(space, *_lowest(nums, den))


def _check_exponents(exps: tuple, k: int):
    """Refuse an exponent vector of the wrong length or with a bad entry."""
    if len(exps) != k:
        raise ValueError(
            f"exponent vector {message_text(exps)} has length {len(exps)}, expected {k}"
        )
    for e in exps:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(
                f"exponents must be nonnegative integers, got {message_text(e, repr)}"
            )


_INT = frozenset({int})


def _scalar(value) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or Fraction; None for anything else."""
    if isinstance(value, int):
        return None if isinstance(value, bool) else (value, 1)
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    return None


def _term_text(v: int, den: int, label: str) -> str:
    """The text of a nonzero term v / den times the monomial labelled ``label``."""
    return f"{v}{label}" if den == 1 else f"{Fraction(v, den)}{label}"


class ChowElement:
    """An element of the truncated ring Q[H_1..H_k] / (H_i^{n_i+1}).

    Immutable after construction; all operations return new elements.  The
    constructor accepts any mapping or iterable of ``(exponent_vector,
    coefficient)`` pairs, merges duplicates, coerces coefficients to exact
    rationals, drops zeros, and reduces eagerly modulo the truncation ideal.
    """

    __slots__ = ("_space", "_nums", "_den")

    def __init__(self, space: ProductSpace, terms=()):
        if not isinstance(space, ProductSpace):
            raise TypeError(f"expected a ProductSpace, got {type(space).__name__}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        k = space.num_factors
        index = _table(space.dims).index
        where, ps, qs = [], [], []
        for exps, coeff in items:
            exps = tuple(exps)
            # (1.0, 0) and (True, 0) equal (1, 0), so only all-int tuples skip the check.
            i = index.get(exps) if _INT.issuperset(map(type, exps)) else None
            if i is None:
                _check_exponents(exps, k)
                i = index.get(exps)
            t = type(coeff)
            c = coeff if t is int or t is Fraction else as_fraction(coeff)
            p, q = c.as_integer_ratio()
            if i is not None:
                where.append(i)
                ps.append(p)
                qs.append(q)
        den = lcm(*qs)
        nums = [0] * len(index)
        for i, p, q in zip(where, ps, qs):
            nums[i] += p * (den // q)
        # Terms of one monomial can cancel, so the sums may share a factor with den.
        nums, den = _lowest(nums, den)
        _set(self, "_space", space)
        _set(self, "_nums", nums)
        _set(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("ChowElement is immutable")

    # Copies and pickles rebuild through _make: the default slot-state restore
    # would call the __setattr__ above.
    def __reduce__(self):
        return _make, (self._space, self._nums, self._den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: ProductSpace) -> "ChowElement":
        return _make(space, [0] * len(_table(space.dims).monomials), 1)

    @classmethod
    def one(cls, space: ProductSpace) -> "ChowElement":
        nums = [0] * len(_table(space.dims).monomials)
        nums[0] = 1
        return _make(space, nums, 1)

    # -- basic accessors ---------------------------------------------------

    @property
    def space(self) -> ProductSpace:
        return self._space

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only map from the exponent vectors of nonzero terms to coefficients."""
        monomials, den = _table(self._space.dims).monomials, self._den
        return MappingProxyType(
            {monomials[i]: Fraction(v, den) for i, v in enumerate(self._nums) if v}
        )

    def constant_term(self) -> Fraction:
        return Fraction(self._nums[0], self._den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_homogeneous(self, degree: int) -> bool:
        """True when every nonzero term has the given total degree."""
        degrees = _table(self._space.dims).degrees
        return all(d == degree for v, d in zip(self._nums, degrees) if v)

    def _vanishes_above(self, degree: int) -> bool:
        """True when every term of total degree above ``degree`` is zero."""
        degrees = _table(self._space.dims).degrees
        return not any(v for v, d in zip(self._nums, degrees) if d > degree)

    # -- ring operations ---------------------------------------------------

    def _check_space(self, other: "ChowElement"):
        if self._space is not other._space and self._space != other._space:
            raise SpaceMismatchError(
                f"operands live on different spaces: {self._space} vs {other._space}"
            )

    def __add__(self, other):
        if isinstance(other, ChowElement):
            self._check_space(other)
            d1, d2 = self._den, other._den
            den = lcm(d1, d2)
            f1, f2 = den // d1, den // d2
            return _reduced(
                self._space,
                [a * f1 + b * f2 for a, b in zip(self._nums, other._nums)],
                den,
            )
        c = _scalar(other)
        if c is None:
            return NotImplemented
        p, q = c
        nums = [v * q for v in self._nums] if q != 1 else list(self._nums)
        nums[0] += p * self._den
        return _reduced(self._space, nums, self._den * q)

    __radd__ = __add__

    def __neg__(self):
        return _make(self._space, [-v for v in self._nums], self._den)

    def __sub__(self, other):
        if not isinstance(other, ChowElement) and _scalar(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if _scalar(other) is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, ChowElement):
            self._check_space(other)
            partners = _table(self._space.dims).partners
            ys = other._nums
            acc = [0] * len(ys)
            for i, a in enumerate(self._nums):
                if a:
                    for j in partners[i]:
                        b = ys[j]
                        if b:
                            acc[i + j] += a * b
            return _reduced(self._space, acc, self._den * other._den)
        c = _scalar(other)
        if c is None:
            return NotImplemented
        p, q = c
        if not p:
            return ChowElement.zero(self._space)
        return _reduced(self._space, [v * p for v in self._nums], self._den * q)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = None
        base = self
        n = exponent
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base._square()
        return ChowElement.one(self._space) if result is None else result

    def _square(self) -> "ChowElement":
        """self * self, visiting each unordered pair of monomials once."""
        table = _table(self._space.dims)
        xs = self._nums
        acc = [0] * len(xs)
        for i, (a, square, above) in enumerate(zip(xs, table.squares, table.above)):
            if a:
                if square:
                    acc[i + i] += a * a
                twice = a + a
                for j in above:
                    b = xs[j]
                    if b:
                        acc[i + j] += twice * b
        return _reduced(self._space, acc, self._den * self._den)

    # -- grading and the degree map ----------------------------------------

    def graded_part(self, degree: int) -> "ChowElement":
        """The sum of terms of the given total degree."""
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {degree!r}")
        degrees = _table(self._space.dims).degrees
        return _reduced(
            self._space,
            [v if d == degree else 0 for v, d in zip(self._nums, degrees)],
            self._den,
        )

    def _graded_parts(self) -> list["ChowElement"]:
        """[graded_part(0), ..., graded_part(top)], from one pass over the terms."""
        degrees = _table(self._space.dims).degrees
        parts = [[0] * len(degrees) for _ in range(degrees[-1] + 1)]
        for i, (v, d) in enumerate(zip(self._nums, degrees)):
            if v:
                parts[d][i] = v
        return [_reduced(self._space, nums, self._den) for nums in parts]

    def _odd_negated(self) -> "ChowElement":
        """The image under every H_i -> -H_i: odd-degree terms change sign."""
        degrees = _table(self._space.dims).degrees
        return _make(
            self._space,
            [-v if d & 1 else v for v, d in zip(self._nums, degrees)],
            self._den,
        )

    def integrate(self) -> Fraction:
        """Degree map: the coefficient of H_1^{n_1} ... H_k^{n_k}."""
        return Fraction(self._nums[-1], self._den)

    def invert_unit_series(self) -> "ChowElement":
        """Multiplicative inverse of an element with constant term 1."""
        return ChowElement.one(self._space)._divided_by(self)

    def _divided_by(self, unit: "ChowElement") -> "ChowElement":
        """self / unit, for a unit with constant term 1, by one triangular solve.

        Writing self = X / d and unit = Q / e, the y with unit * y = self has
        y_k = W_k / (d e^{deg k}), where W_k = X_k e^{deg k} - sum_{i > 0}
        Q_i e^{deg i - 1} W_{k - i}.  Every k - i is a smaller index, so one
        pass in index order, from the seed X_k e^{deg k} and pushing each
        finished W_j to its partners, solves it in integers.
        """
        self._check_space(unit)
        qs, e = unit._nums, unit._den
        if qs[0] != e:
            raise NonUnitError(
                f"cannot invert: degree-0 part is {unit.constant_term()}, not 1"
            )
        table = _table(self._space.dims)
        partners, degrees = table.partners, table.degrees
        top = degrees[-1]
        epow = [1]
        for _ in range(top):
            epow.append(epow[-1] * e)
        scaled = [0] + [-v * epow[g - 1] for v, g in zip(qs[1:], degrees[1:])]
        if e == 1:
            ws = list(self._nums)
        else:
            ws = [v * epow[g] for v, g in zip(self._nums, degrees)]
        # Every push goes to a larger index, so enumerate reads each W_j complete.
        for j, w in enumerate(ws):
            if w:
                for i in partners[j]:
                    a = scaled[i]
                    if a:
                        ws[i + j] += a * w
        if e != 1:
            ws = [w * epow[top - g] for w, g in zip(ws, degrees)]
        return _reduced(self._space, ws, self._den * epow[top])

    def _twisted(self, line: "ChowElement", r: int) -> "ChowElement":
        """sum_i c_i (1 + l)^{r - i} for any integer r, where c_i is the
        degree-i part of self and l the degree-1 part of line.

        Expanded as sum_{i, m} binomial(r - i, m) c_i l^m, this is one product
        of self with the powers of l, each pair of terms weighted by the
        binomial for (degree of the self term, degree of the l term).
        """
        self._check_space(line)
        table = _table(self._space.dims)
        partners, degrees = table.partners, table.degrees
        top = degrees[-1]
        # l = sum_i L_i H_i / den, so l^m has the numerator (sum_i L_i H_i)^m
        # over den^m, that is den^{top - m} over den^top.
        den = line._den
        powers = _linear_powers(
            self._space,
            [line._nums[i] for i in table.linear],
            [den ** (top - m) for m in range(top + 1)],
        )
        binomials = [_binomials(r - g, top) for g in range(top + 1)]
        acc = [0] * len(powers)
        for i, a in enumerate(self._nums):
            if a:
                row = binomials[degrees[i]]
                for j in partners[i]:
                    q = powers[j]
                    if q:
                        acc[i + j] += a * row[degrees[j]] * q
        return _reduced(self._space, acc, self._den * den**top)

    # -- comparison and hashing --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ChowElement):
            return NotImplemented
        return (
            self._space == other._space
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self._space, self._den, tuple(self._nums)))

    # -- canonical text form -----------------------------------------------

    def __str__(self):
        labels, den = _table(self._space.dims).labels, self._den
        pairs = zip(reversed(self._nums), reversed(labels))
        return " + ".join([_term_text(v, den, label) for v, label in pairs if v]) or "0"

    def _graded_texts(self) -> list[str]:
        """[str(graded_part(0)), ..., str(graded_part(top))], in one pass over the terms."""
        table, den = _table(self._space.dims), self._den
        parts = [[] for _ in range(table.degrees[-1] + 1)]
        terms = zip(reversed(self._nums), reversed(table.degrees), reversed(table.labels))
        for v, d, label in terms:
            if v:
                parts[d].append(_term_text(v, den, label))
        return [" + ".join(p) or "0" for p in parts]

    def __repr__(self):
        return f"<ChowElement {self} on {self._space}>"

    _TERM_RE = r"^(-?\d+(?:/\d+)?)((?:\*H\d+(?:\^\d+)?)*)$"
    _FACTOR_RE = r"\*H(\d+)(?:\^(\d+))?"

    @classmethod
    def from_text(cls, space: ProductSpace, text: str) -> "ChowElement":
        """Parse the canonical text form back into an element.

        Accepts exactly the shapes ``__str__`` emits (plus explicit ``^1``
        exponents and flexible whitespace around ``+``).  A term holding a
        number beyond Python's int-string conversion limit is refused by name.
        """
        s = text.strip()
        if s == "0":
            return cls.zero(space)
        terms: dict[tuple[int, ...], Fraction] = {}
        limit = sys.get_int_max_str_digits()  # 0 when there is no limit
        for raw in s.split("+"):
            part = raw.strip().replace(" ", "")
            m = re.match(cls._TERM_RE, part)
            if not m:
                raise ValueError(f"cannot parse term {part!r}")
            if limit and any(len(run) > limit for run in re.findall(r"\d+", part)):
                raise ValueError(
                    f"cannot parse term {part!r}: a number in it has more than "
                    f"{limit} digits"
                )
            coeff = as_fraction(m.group(1))
            exps = [0] * space.num_factors
            for fm in re.finditer(cls._FACTOR_RE, m.group(2)):
                i = int(fm.group(1))
                if not 1 <= i <= space.num_factors:
                    raise ValueError(
                        f"variable H{i} out of range for {space} in term {part!r}"
                    )
                exps[i - 1] += int(fm.group(2) or "1")
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return cls(space, terms)


@cache
def _dual_indices(dims: tuple[int, ...]) -> tuple[list, list, list]:
    """Where a class of degree at most 2 meets its complements, for pairings.

    Index N - 1 - i is the complement of i, so the integral of x * y is
    sum_i x_i y_{N-1-i}, and no other pair of monomials reaches the socle.
    Returns, as full monomial indices, the pairs (m, complement of m) for
    the monomials m of degree 1, the same for degree 2, and a triple (H_i,
    H_j, complement of H_i H_j) for each ordered pair with H_i H_j != 0,
    which leaves out H_i^2 on a factor P^1.  Kept per space, apart from
    ``_Table``.
    """
    table = _table(dims)
    top = len(table.monomials) - 1
    linear, quadratic = (
        [(m, top - m) for m, d in enumerate(table.degrees) if d == g] for g in (1, 2)
    )
    lin = table.linear
    triples = [
        (a, b, top - a - b)
        for i, a in enumerate(lin)
        for j, b in enumerate(lin)
        if i != j or dims[i] > 1
    ]
    return linear, quadratic, triples


def hyperplane(space: ProductSpace, i: int) -> ChowElement:
    """The hyperplane class H_i of the i-th factor (1-based index)."""
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= space.num_factors:
        raise ValueError(
            f"factor index must be between 1 and {space.num_factors}, got {i!r}"
        )
    table = _table(space.dims)
    nums = [0] * len(table.monomials)
    nums[table.linear[i - 1]] = 1
    return _make(space, nums, 1)


def _binomials(n: int, top: int) -> list[int]:
    """binomial(n, s) for s = 0..top; n may be any integer, negative too."""
    row = [1]
    for s in range(top):
        row.append(row[-1] * (n - s) // (s + 1))
    return row


def _linear_powers(space: ProductSpace, coeffs, weights: list[int]) -> list[int]:
    """sum_m weights[m] l^m for l = sum_i coeffs[i] H_{i+1}, as a numerator list.

    The term H^e of l^{|e|} is |e|! / prod_i e_i! * prod_i coeffs[i]^{e_i},
    and each monomial belongs to one power of l, so one pass builds the sum.
    """
    table = _table(space.dims)
    # prod_i coeffs[i]^{e_i} in index order, one factor at a time: the first
    # factor's exponent varies slowest, as in the lexicographic monomial order.
    powers = [1]
    for c, n in zip(coeffs, space.dims):
        row = [c**e for e in range(n + 1)]
        powers = [p * q for p in powers for q in row]
    return [
        v * m * weights[s] for v, m, s in zip(powers, table.multinomials, table.degrees)
    ]


def _one_plus_linear_power(space: ProductSpace, coeffs, r: int) -> ChowElement:
    """(1 + sum_i coeffs[i] H_{i+1})^r for integer coeffs and any integer r.

    By the binomial series this is sum_m binomial(r, m) l^m; the binomial is
    an integer for negative r too.
    """
    lead = _binomials(r, space.total_dimension)
    return _make(space, _linear_powers(space, coeffs, lead), 1)
