"""Parser and evaluator for the bundle-expression grammar.

Scenario files name bundles by small expressions:

    expr := O(a1,...,ak)        line bundle, integer twisting degrees
          | O(a1,...,ak)^m      direct sum of m copies, m >= 1
          | sum(expr, expr)     direct sum
          | dual(expr)
          | twist(expr, expr)   second operand must evaluate to a line bundle
          | ker(expr -> expr)   kernel of a surjection middle -> quotient
          | name                reference to another named bundle

Parsing builds a small AST; evaluation maps it to BundleClass values through
a caller-supplied resolver for names, which is where reference cycles are
caught.  An expression may nest at most ``MAX_DEPTH`` levels deep (``O(..)``
and a name count as one level each); deeper input is an ExpressionError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

from . import bundles
from .bundles import BundleClass
from .chow import ProductSpace
from .errors import ExpressionError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<int>-?\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[(),^]))"
)

_KEYWORDS = frozenset({"O", "sum", "dual", "twist", "ker"})

MAX_DEPTH = 100


@dataclass(frozen=True)
class LineBundleExpr:
    degrees: tuple[int, ...]
    multiplicity: int


@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class SumExpr:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class DualExpr:
    inner: "Expression"


@dataclass(frozen=True)
class TwistExpr:
    inner: "Expression"
    line: "Expression"


@dataclass(frozen=True)
class KerExpr:
    middle: "Expression"
    quotient: "Expression"


Expression = Union[LineBundleExpr, NameRef, SumExpr, DualExpr, TwistExpr, KerExpr]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, position); kinds: arrow, int, name, sym."""
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
        if head == "sum":
            self._expect("sym", "(")
            left = self._parse_expr(depth + 1)
            self._expect("sym", ",")
            right = self._parse_expr(depth + 1)
            self._expect("sym", ")")
            return SumExpr(left, right)
        if head == "dual":
            self._expect("sym", "(")
            inner = self._parse_expr(depth + 1)
            self._expect("sym", ")")
            return DualExpr(inner)
        if head == "twist":
            self._expect("sym", "(")
            inner = self._parse_expr(depth + 1)
            self._expect("sym", ",")
            line = self._parse_expr(depth + 1)
            self._expect("sym", ")")
            return TwistExpr(inner, line)
        if head == "ker":
            self._expect("sym", "(")
            middle = self._parse_expr(depth + 1)
            self._expect("arrow")
            quotient = self._parse_expr(depth + 1)
            self._expect("sym", ")")
            return KerExpr(middle, quotient)
        return NameRef(head)

    def _parse_line_bundle(self) -> LineBundleExpr:
        self._expect("sym", "(")
        degrees = [int(self._expect("int")[1])]
        while True:
            tok = self._next()
            if tok[0] == "sym" and tok[1] == ")":
                break
            if tok[0] != "sym" or tok[1] != ",":
                raise ExpressionError(
                    f"expected ',' or ')' at position {tok[2]} in {self.text!r}, got {tok[1]!r}"
                )
            degrees.append(int(self._expect("int")[1]))
        multiplicity = 1
        tok = self._peek()
        if tok is not None and tok[0] == "sym" and tok[1] == "^":
            self._next()
            mtok = self._expect("int")
            multiplicity = int(mtok[1])
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
        elif isinstance(node, SumExpr):
            stack += (node.right, node.left)
        elif isinstance(node, DualExpr):
            stack.append(node.inner)
        elif isinstance(node, TwistExpr):
            stack += (node.line, node.inner)
        elif isinstance(node, KerExpr):
            stack += (node.quotient, node.middle)
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
    if isinstance(node, SumExpr):
        return bundles.direct_sum(
            _evaluate(node.left, space, resolve), _evaluate(node.right, space, resolve)
        )
    if isinstance(node, DualExpr):
        return bundles.dual(_evaluate(node.inner, space, resolve))
    if isinstance(node, TwistExpr):
        return bundles.twist(
            _evaluate(node.inner, space, resolve), _evaluate(node.line, space, resolve)
        )
    if isinstance(node, KerExpr):
        return bundles.kernel_from_sequence(
            _evaluate(node.middle, space, resolve),
            _evaluate(node.quotient, space, resolve),
        )
    raise ExpressionError(f"unhandled expression node {node!r}")
