"""Parser and evaluator for the bundle-expression grammar.

Scenario files name bundles by small expressions:

    expr := O(a1,...,ak)        line bundle, integer twisting degrees
          | O(a1,...,ak)^m      direct sum of m copies, m >= 1
          | sum(expr, expr)     direct sum
          | dual(expr)
          | twist(expr, expr)   second operand must evaluate to a line bundle
          | ker(expr -> expr)   kernel of a surjection middle -> quotient
          | name                reference to another named bundle

The four operators live in one table, ``_OPERATORS``; parsing builds a small
AST with one node type per kind of leaf and one, ``Apply``, for operators:

>>> parse_expression("twist(E, O(0,2))")
Apply(op='twist', args=(NameRef(name='E'), LineBundleExpr(degrees=(0, 2), multiplicity=1)))

Evaluation maps an AST to a BundleClass through a caller-supplied resolver
for names.  An expression may nest at most ``MAX_DEPTH`` levels deep
(``O(..)`` and a name count as one level each); deeper input is an
ExpressionError, and so is an integer literal beyond Python's int-string
conversion limit (4300 digits by default).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Callable, Union

from . import bundles
from .bundles import BundleClass
from .chow import ProductSpace
from .errors import ExpressionError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>-?\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>->|[(),^]))"
)

# operator -> (name of its function in ``bundles``, token between its two
# operands, or None for one operand).  The function is looked up by name at
# each call, so a wrapper put on ``bundles.<function>`` sees every call.
_OPERATORS = {
    "sum": ("direct_sum", ","),
    "dual": ("dual", None),
    "twist": ("twist", ","),
    "ker": ("kernel_from_sequence", "->"),
}

_KEYWORDS = frozenset({"O", *_OPERATORS})

MAX_DEPTH = 100


@dataclass(frozen=True)
class LineBundleExpr:
    degrees: tuple[int, ...]
    multiplicity: int


@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class Apply:
    op: str
    args: tuple["Expression", ...]


Expression = Union[LineBundleExpr, NameRef, Apply]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, position); kinds: int, name, sym."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ExpressionError(
                f"unexpected character {rest[0]!r} at position {pos} in {text!r}"
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def _expect(self, kind: str, value: str | None = None):
        tok = self._next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ExpressionError(
                f"expected {want!r} at position {tok[2]} in {self.text!r}, got {tok[1]!r}"
            )
        return tok

    def _expect_int(self) -> int:
        _, digits, pos = self._expect("int")
        try:
            return int(digits)
        except ValueError as exc:  # beyond the int-string conversion limit
            raise ExpressionError(
                f"integer literal at position {pos} has more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from exc

    def parse(self) -> Expression:
        expr = self._parse_expr(1)
        tok = self._peek()
        if tok is not None:
            raise ExpressionError(
                f"unexpected trailing {tok[1]!r} at position {tok[2]} in {self.text!r}"
            )
        return expr

    def _parse_expr(self, depth: int) -> Expression:
        tok = self._next()
        if depth > MAX_DEPTH:
            raise ExpressionError(
                f"expression nested deeper than {MAX_DEPTH} levels at position {tok[2]}"
            )
        if tok[0] != "name":
            raise ExpressionError(
                f"expected an expression at position {tok[2]} in {self.text!r}, got {tok[1]!r}"
            )
        head = tok[1]
        if head == "O":
            return self._parse_line_bundle()
        if head not in _OPERATORS:
            return NameRef(head)
        separator = _OPERATORS[head][1]
        self._expect("sym", "(")
        args = [self._parse_expr(depth + 1)]
        if separator is not None:
            self._expect("sym", separator)
            args.append(self._parse_expr(depth + 1))
        self._expect("sym", ")")
        return Apply(head, tuple(args))

    def _parse_line_bundle(self) -> LineBundleExpr:
        self._expect("sym", "(")
        degrees = [self._expect_int()]
        while True:
            tok = self._next()
            if tok[0] == "sym" and tok[1] == ")":
                break
            if tok[0] != "sym" or tok[1] != ",":
                raise ExpressionError(
                    f"expected ',' or ')' at position {tok[2]} in {self.text!r}, got {tok[1]!r}"
                )
            degrees.append(self._expect_int())
        multiplicity = 1
        tok = self._peek()
        if tok is not None and tok[0] == "sym" and tok[1] == "^":
            self._next()
            multiplicity = self._expect_int()
            if multiplicity < 1:
                raise ExpressionError(
                    f"multiplicity must be at least 1, got {multiplicity} in {self.text!r}"
                )
        return LineBundleExpr(tuple(degrees), multiplicity)


def parse_expression(text: str) -> Expression:
    """Parse an expression string to its AST, raising ExpressionError on bad input."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError(f"expected a nonempty expression string, got {text!r}")
    return _Parser(text).parse()


def _referenced_names(expr: Expression) -> list[str]:
    """The bundle names an AST refers to, in the order evaluation reaches them."""
    names = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, NameRef):
            names.append(node.name)
        elif isinstance(node, Apply):
            stack += reversed(node.args)
    return names


def evaluate_expression(
    expr: Union[str, Expression],
    space: ProductSpace,
    resolve: Callable[[str], BundleClass] | None = None,
) -> BundleClass:
    """Evaluate an expression (or its text) to a BundleClass.

    ``resolve`` maps a bare name to its BundleClass; without it any name
    reference is an error.
    """
    node = parse_expression(expr) if isinstance(expr, str) else expr
    return _evaluate(node, space, resolve)


def _evaluate(node: Expression, space, resolve) -> BundleClass:
    if isinstance(node, LineBundleExpr):
        if len(node.degrees) != space.num_factors:
            raise ExpressionError(
                f"O(...) needs {space.num_factors} degrees on {space}, "
                f"got {len(node.degrees)}"
            )
        return bundles.line_bundle(space, node.degrees, node.multiplicity)
    if isinstance(node, NameRef):
        if resolve is None:
            raise ExpressionError(f"unknown bundle name {node.name!r}")
        return resolve(node.name)
    if isinstance(node, Apply):
        function = getattr(bundles, _OPERATORS[node.op][0])
        return function(*(_evaluate(arg, space, resolve) for arg in node.args))
    raise ExpressionError(f"unhandled expression node {node!r}")
