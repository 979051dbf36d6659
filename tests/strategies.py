"""Hypothesis strategies shared by the property suites and unit tests."""

import json
from fractions import Fraction

from hypothesis import strategies as st

from degloci import (
    BaseChangeParams,
    BundleClass,
    ChowElement,
    ProductSpace,
    direct_sum,
    line_bundle,
)
from degloci.expressions import _KEYWORDS, _OPERATORS, Apply, LineBundleExpr, NameRef

CHOW_SPACES = (
    ProductSpace((1,)),
    ProductSpace((3,)),
    ProductSpace((1, 1)),
    ProductSpace((1, 2)),
    ProductSpace((1, 3)),
    ProductSpace((2, 2)),
    ProductSpace((1, 1, 2)),
)

DIM4_SPACES = (
    ProductSpace((4,)),
    ProductSpace((1, 3)),
    ProductSpace((2, 2)),
    ProductSpace((1, 1, 2)),
)

PIPELINE_SPACES = (
    ProductSpace((1, 3)),
    ProductSpace((2, 2)),
    ProductSpace((1, 1, 2)),
    ProductSpace((1, 1, 1, 1)),
)

KERNEL_SPACES = PIPELINE_SPACES + (
    ProductSpace((3, 3, 3)),
    ProductSpace((6, 6)),
    ProductSpace((2, 2, 2, 2)),
)

def minimal_data(**overrides) -> dict:
    """A small valid scenario document, with top-level keys replaced."""
    data = {
        "name": "small",
        "space": [1, 3],
        "bundles": {"A": "O(0,0)^1", "B": "sum(O(1,0), O(0,1))"},
        "degeneracy": {"a": "A", "b": "B"},
        "family": {"fiber_genus": 2, "base_genus": 0},
    }
    data.update(overrides)
    return data


rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12
)


def spaces(pool=CHOW_SPACES):
    return st.sampled_from(pool)


def exponent_vectors(space: ProductSpace, slack: int = 0):
    """Exponent tuples; with slack > 0 some exceed the truncation bounds."""
    return st.tuples(*[st.integers(0, n + slack) for n in space.dims])


@st.composite
def chow_elements(draw, space: ProductSpace, max_terms: int = 6):
    terms = draw(
        st.dictionaries(exponent_vectors(space), rationals, max_size=max_terms)
    )
    return ChowElement(space, terms)


@st.composite
def kernel_setups(draw):
    """(space, terms, terms, scalar, linear, degrees, multiplicity): in-range
    term dicts with mixed denominators, one rational coefficient per
    hyperplane class, and the twisting degrees and multiplicity of a line
    bundle."""
    space = draw(spaces(KERNEL_SPACES))
    terms = st.dictionaries(exponent_vectors(space), rationals, max_size=10)
    return (
        space,
        draw(terms),
        draw(terms),
        draw(rationals),
        [draw(rationals) for _ in space.dims],
        draw(degree_vectors(space)),
        draw(st.integers(1, 8)),
    )


@st.composite
def element_triples(draw):
    """Three elements sharing one randomly chosen space."""
    space = draw(spaces())
    return tuple(draw(chow_elements(space)) for _ in range(3))


@st.composite
def raw_term_dicts(draw):
    """(space, dict) where exponents may exceed the truncation bounds."""
    space = draw(spaces())
    terms = draw(
        st.dictionaries(exponent_vectors(space, slack=2), rationals, max_size=6)
    )
    return space, terms


@st.composite
def unit_elements(draw):
    """Elements with constant term exactly 1."""
    space = draw(spaces())
    x = draw(chow_elements(space))
    positive_part = {e: c for e, c in x.terms.items() if sum(e) > 0}
    return ChowElement.one(space) + ChowElement(space, positive_part)


def degree_vectors(space: ProductSpace, lo: int = -3, hi: int = 3):
    return st.tuples(*[st.integers(lo, hi) for _ in space.dims])


@st.composite
def line_summands(draw, space: ProductSpace, max_summands: int = 3, max_mult: int = 3):
    """A list of (degrees, multiplicity) pairs describing a sum of line bundles."""
    count = draw(st.integers(1, max_summands))
    return [
        (draw(degree_vectors(space)), draw(st.integers(1, max_mult)))
        for _ in range(count)
    ]


def bundle_from_summands(space: ProductSpace, summands) -> BundleClass:
    acc = None
    for degrees, mult in summands:
        piece = line_bundle(space, degrees, mult)
        acc = piece if acc is None else direct_sum(acc, piece)
    return acc


@st.composite
def line_sum_pairs(draw):
    """(space, E, F) with E, F honest sums of line bundles on one space."""
    space = draw(spaces(DIM4_SPACES))
    E = bundle_from_summands(space, draw(line_summands(space)))
    F = bundle_from_summands(space, draw(line_summands(space)))
    return space, E, F


@st.composite
def twist_setups(draw):
    """(M, Q, L): line sums M and Q with rank M - rank Q in 0..2, plus a
    twisting line bundle, on a pipeline space.

    M and Q are drawn independently, so the kernel class c(M)/c(Q) mostly has
    nonzero Chern classes above its rank.
    """
    space = draw(spaces(PIPELINE_SPACES))
    m_summands = draw(line_summands(space))
    rank_m = sum(mult for _, mult in m_summands)
    rank_q = rank_m - draw(st.integers(0, min(2, rank_m - 1)))
    q_summands = [(draw(degree_vectors(space)), 1) for _ in range(rank_q)]
    L = line_bundle(space, draw(degree_vectors(space)))
    return (
        bundle_from_summands(space, m_summands),
        bundle_from_summands(space, q_summands),
        L,
    )


@st.composite
def honest_degeneracy_data(draw):
    """(space, A summands, B summands, twist degrees) with rank B = rank A + 1."""
    space = draw(spaces(DIM4_SPACES))
    r = draw(st.integers(1, 3))
    a_summands = [(draw(degree_vectors(space, -2, 2)), 1) for _ in range(r)]
    b_summands = [(draw(degree_vectors(space, -2, 2)), 1) for _ in range(r + 1)]
    twist_degrees = draw(degree_vectors(space, -2, 2))
    return space, a_summands, b_summands, twist_degrees


@st.composite
def base_change_params(draw, nonzero_lambda: bool = False):
    lam = draw(rationals)
    if nonzero_lambda and lam == 0:
        lam = Fraction(1)
    return BaseChangeParams(
        m1=draw(st.integers(1, 20)),
        m2=draw(st.integers(1, 20)),
        g_A1=draw(st.integers(0, 120)),
        g_A2=draw(st.integers(0, 120)),
        A1_sq=draw(st.integers(-25, 25)),
        A2_sq=draw(st.integers(-25, 25)),
        A12=draw(st.integers(0, 25)),
        base_genus=draw(st.integers(0, 3)),
        base_lambda=lam,
        base_delta0=draw(rationals),
        base_delta_rest=tuple(draw(st.lists(rationals, max_size=3))),
    )


# -- bundle expressions -----------------------------------------------------

_NAME_CHARS = "ABEOZabdeksx_"  # a sample, with the first letters of the keywords
bundle_names = st.builds(
    str.__add__, st.sampled_from(_NAME_CHARS), st.text(_NAME_CHARS + "0129", max_size=4)
).filter(lambda name: name not in _KEYWORDS)

line_bundle_exprs = st.builds(
    LineBundleExpr,
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4).map(tuple),
    st.integers(1, 20),
)


def _applications(children):
    return st.one_of(
        *(
            st.tuples(*[children] * (1 if separator is None else 2)).map(
                lambda args, op=op: Apply(op, args)
            )
            for op, (_, separator) in _OPERATORS.items()
        )
    )


# Well-formed ASTs with at most 8 leaves.
expression_asts = st.recursive(
    st.one_of(line_bundle_exprs, bundle_names.map(NameRef)), _applications, max_leaves=8
)


def expression_tokens(expr) -> list[str]:
    """The tokens of the canonical text of an AST, in order."""
    if isinstance(expr, NameRef):
        return [expr.name]
    if isinstance(expr, LineBundleExpr):
        tokens = ["O", "("]
        for degree in expr.degrees:
            tokens += [str(degree), ","]
        tokens[-1] = ")"
        if expr.multiplicity != 1:
            tokens += ["^", str(expr.multiplicity)]
        return tokens
    separator = _OPERATORS[expr.op][1]
    tokens = [expr.op, "(", *expression_tokens(expr.args[0])]
    if separator is not None:
        tokens += [separator, *expression_tokens(expr.args[1])]
    return tokens + [")"]


blanks = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \r\n "])


@st.composite
def printed_expressions(draw):
    """(AST, its text with random blanks around every token)."""
    expr = draw(expression_asts)
    tokens = expression_tokens(expr)
    gaps = draw(st.lists(blanks, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return expr, "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1]


# Pieces of the grammar's alphabet, some malformed, and literals near and
# beyond the int-string digit limit.
_EXPRESSION_PIECES = [
    "O", "(", ")", ",", "^", "->", "-", ">", "0", "1", "-3", "42", "sum", "dual",
    "twist", "ker", "E", "x_1", " ", "\t", "$", ".", "*", "\u00e9", "\u0663",
    "9" * 4300, "9" * 4301,
]

expression_texts = st.one_of(
    st.text(alphabet="O(),^->0123456789 sumdualtwistkerE_\t$.", max_size=40),
    st.lists(st.sampled_from(_EXPRESSION_PIECES), max_size=30).map("".join),
)


# -- hostile scenario files -------------------------------------------------

# Integer literals within and just beyond the 4300-digit int-string limit.
_LONG_LITERALS = ["9" * 4299, "9" * 4300, "-" + "9" * 4300, "1" + "0" * 4299, "9" * 4301]


# Long p/q strings for the rationals of a base_change block.
_LONG_RATIONALS = [
    "9" * 4300, "-" + "9" * 4300, "9" * 4301, "1/" + "9" * 4300, "9" * 4300 + "/7",
    "2/" + "9" * 4301,
]


@st.composite
def hostile_scenario_texts(draw):
    """The JSON text of minimal_data() with long literals and long name chains.

    Up to two long literals go into a degree, a multiplicity, a twisting or
    kernel degree, or a genus (written into the text unquoted, so a JSON
    integer may exceed the limit too); then A or B may be routed through a
    chain of up to 400 names.  Sometimes a base_change block is added, which
    agrees with the family stage of minimal_data() (lambda 2, delta 7) until
    a long literal goes into one of its integers or a long 'p/q' string into
    one of its rationals.
    """
    data = minimal_data()
    bundles = data["bundles"]
    integers = {}
    for _ in range(draw(st.integers(0, 2))):
        literal = draw(st.sampled_from(_LONG_LITERALS))
        place = draw(
            st.sampled_from(["degree", "multiplicity", "twist", "ker", "genus"])
        )
        if place == "degree":
            bundles["B"] = f"sum(O({literal},0), O(0,1))"
        elif place == "multiplicity":
            bundles[draw(st.sampled_from(["A", "B"]))] = f"sum(O(0,0)^{literal}, O(0,1))"
        elif place == "twist":
            bundles["B"] = f"twist(sum(O(1,0), O(0,1)), O(0,{literal}))"
        elif place == "ker":
            bundles["B"] = f"ker(sum(O(1,0)^2, O(0,1)) -> O({literal},1))"
        else:
            key = draw(st.sampled_from(["fiber_genus", "base_genus"]))
            integers[f"@{key}@"] = literal
            data["family"][key] = f"@{key}@"
    if draw(st.booleans()):
        block = {
            "m1": 2, "m2": 3, "g_a1": 1, "g_a2": 4, "a1_sq": -1, "a2_sq": 2, "a12": 5,
            "base_lambda": 2, "base_delta0": "13/2", "base_delta_rest": ["1/2"],
        }
        for _ in range(draw(st.integers(1, 2))):
            key = draw(st.sampled_from(sorted(block)))
            if key.startswith("base_"):
                value = draw(st.sampled_from(_LONG_RATIONALS))
                if key == "base_delta_rest":
                    block[key] = [value, "1/2"]
                else:
                    block[key] = value
            else:
                integers[f"@{key}@"] = draw(st.sampled_from(_LONG_LITERALS))
                block[key] = f"@{key}@"
        data["base_change"] = block
    links = draw(st.integers(0, 400))
    if links:
        target = draw(st.sampled_from(["A", "B"]))
        bundles[f"N{links - 1}"] = bundles[target]
        bundles.update({f"N{i}": f"N{i + 1}" for i in range(links - 1)})
        bundles[target] = "N0"
    text = json.dumps(data)
    for placeholder, literal in integers.items():
        text = text.replace(f'"{placeholder}"', literal)
    return text
