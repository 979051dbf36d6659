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

A text is split into its tokens, a leaf with no blanks as one, by one
regular-expression call and parsed from that list by index.  Errors are
worded from a split into one token per symbol; where each token starts is
worked out only when an error message names it.

Evaluation maps an AST to a BundleClass through a caller-supplied resolver
for names.  An expression may nest at most ``MAX_DEPTH`` levels deep
(``O(..)`` and a name count as one level each); deeper input is an
ExpressionError, and so is an integer literal beyond Python's int-string
conversion limit (4300 digits by default).
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable

from . import bundles
from .bundles import BundleClass
from .chow import ProductSpace
from .errors import ExpressionError
from .exact import refuse
from .record import Record, _setters

# One token after optional blanks.  Splitting a text on this pattern leaves
# the tokens at odd indices; the pieces between them are empty or blanks
# unless the text holds a character no token starts with.
_TOKEN_RE = re.compile(r"\s*(-?\d+|[A-Za-z_][A-Za-z0-9_]*|->|[(),^])")
# The same tokens, but first a leaf with no blanks in it as one token; a
# multiplicity of 0 is left to the per-symbol split to refuse.
_LEAF_TOKEN_RE = re.compile(r"\s*(O\(-?\d+(?:,-?\d+)*\)(?:\^0*[1-9]\d*)?|" + _TOKEN_RE.pattern[4:])
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_SYMBOLS = frozenset({"(", ")", ",", "^", "->"})

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


# On ASCII text, str.isidentifier is exactly the name token [A-Za-z_][A-Za-z0-9_]*.
def _is_bundle_name(text) -> bool:
    """Whether ``text`` is one whole name token of ``_TOKEN_RE``, not a keyword."""
    return (
        isinstance(text, str) and text.isascii() and text.isidentifier()
        and text not in _KEYWORDS
    )


MAX_DEPTH = 100


class LineBundleExpr(Record):
    __slots__ = ("degrees", "multiplicity")

    def __init__(self, degrees: tuple[int, ...], multiplicity: int):
        _set_degrees(self, degrees)
        _set_multiplicity(self, multiplicity)


class NameRef(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)


class Apply(Record):
    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple[Expression, ...]):
        _set_op(self, op)
        _set_args(self, args)


_set_degrees, _set_multiplicity = _setters(LineBundleExpr)
(_set_name,) = _setters(NameRef)
_set_op, _set_args = _setters(Apply)

Expression = LineBundleExpr | NameRef | Apply


def parse_expression(text: str) -> Expression:
    """Parse an expression string to its AST, raising ExpressionError on bad input."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError(f"expected a nonempty expression string, got {text!r}")
    pieces = _LEAF_TOKEN_RE.split(text)
    # Both patterns leave the same characters out, so this test serves both.
    if "".join(pieces[::2]).strip():
        raise _bad_character(text)
    try:
        return _parse_all(text, pieces[1::2])
    except ValueError:  # an ExpressionError, or int() of a too-long leaf number
        pass  # worded below, from one token per symbol
    return _parse_all(text, _TOKEN_RE.split(text)[1::2])


def _parse_all(text: str, tokens: list[str]) -> Expression:
    tokens.append("")  # the end: no token is empty
    expr, i = _parse(text, tokens, 0, 1)
    if tokens[i]:
        raise ExpressionError(
            f"unexpected trailing {tokens[i]!r} at position {_position(text, i)} in {text!r}"
        )
    return expr


# Each parsing function takes the index of the first token of its phrase and
# returns the phrase's AST with the index after it.


def _parse(text: str, tokens: list[str], i: int, depth: int) -> tuple[Expression, int]:
    head = tokens[i]
    if depth > MAX_DEPTH or head[:1] not in _NAME_START:
        if head and depth > MAX_DEPTH:
            raise ExpressionError(
                f"expression nested deeper than {MAX_DEPTH} levels at position "
                f"{_position(text, i)}"
            )
        raise _unexpected(text, tokens, i, "expected an expression")
    if head[1:2] == "(":  # a whole leaf token: no other token holds "(" after a letter
        degrees, _, power = head[2:].partition(")")
        return LineBundleExpr(tuple(map(int, degrees.split(","))), int(power[1:] or 1)), i + 1
    if head == "O":
        return _parse_line_bundle(text, tokens, i + 1)
    operator = _OPERATORS.get(head)
    if operator is None:
        return NameRef(head), i + 1
    if tokens[i + 1] != "(":
        raise _unexpected(text, tokens, i + 1, "expected '('")
    first, i = _parse(text, tokens, i + 2, depth + 1)
    separator = operator[1]
    if separator is None:
        args = (first,)
    else:
        if tokens[i] != separator:
            raise _unexpected(text, tokens, i, f"expected {separator!r}")
        second, i = _parse(text, tokens, i + 1, depth + 1)
        args = (first, second)
    if tokens[i] != ")":
        raise _unexpected(text, tokens, i, "expected ')'")
    return Apply(head, args), i + 1


def _parse_line_bundle(text: str, tokens: list[str], i: int) -> tuple[LineBundleExpr, int]:
    """The rest of ``O(a1,...,ak)`` or ``O(a1,...,ak)^m`` from its "("."""
    if tokens[i] != "(":
        raise _unexpected(text, tokens, i, "expected '('")
    degrees = []
    while True:
        degrees.append(_integer(text, tokens, i + 1))
        i += 2
        tok = tokens[i]
        if tok == ")":
            break
        if tok != ",":
            raise _unexpected(text, tokens, i, "expected ',' or ')'")
    i += 1
    multiplicity = 1
    if tokens[i] == "^":
        multiplicity = _integer(text, tokens, i + 1)
        i += 2
        if multiplicity < 1:
            raise ExpressionError(
                f"multiplicity must be at least 1, got {multiplicity} in {text!r}"
            )
    return LineBundleExpr(tuple(degrees), multiplicity), i


def _integer(text: str, tokens: list[str], i: int) -> int:
    tok = tokens[i]
    try:
        return int(tok)
    except ValueError as exc:
        if not tok or tok[0] in _NAME_START or tok in _SYMBOLS:
            raise _unexpected(text, tokens, i, "expected 'int'") from None
        # An integer token beyond the int-string conversion limit.
        raise ExpressionError(
            f"integer literal at position {_position(text, i)} has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc


def _unexpected(text: str, tokens: list[str], i: int, expected: str) -> ExpressionError:
    """The error for token i where the grammar wanted something else."""
    if not tokens[i]:
        return ExpressionError(f"unexpected end of expression in {text!r}")
    return ExpressionError(
        f"{expected} at position {_position(text, i)} in {text!r}, got {tokens[i]!r}"
    )


def _position(text: str, i: int) -> int:
    """Where token i of a text with no bad character starts."""
    return [match.start(1) for match in _TOKEN_RE.finditer(text)][i]


def _bad_character(text: str) -> ExpressionError:
    """The error for the first character of a text that starts no token."""
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        if match.start() != pos:
            break
        pos = match.end()
    return ExpressionError(
        f"unexpected character {text[pos:].lstrip()[0]!r} at position {pos} in {text!r}"
    )


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
    expr: str | Expression,
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
    if type(node) is Apply:
        function = getattr(bundles, _OPERATORS[node.op][0])
        if len(node.args) == 1:
            return function(_evaluate(node.args[0], space, resolve))
        first, second = node.args
        return function(_evaluate(first, space, resolve), _evaluate(second, space, resolve))
    if type(node) is LineBundleExpr:
        if len(node.degrees) != space.num_factors:
            expected = f"O(...) needs {space.num_factors} degrees on {space}"
            refuse(len(node.degrees), expected, ExpressionError)
        return bundles.line_bundle(space, node.degrees, node.multiplicity)
    if type(node) is NameRef:
        if resolve is None:
            raise ExpressionError(f"unknown bundle name {node.name!r}")
        return resolve(node.name)
    raise ExpressionError(f"unhandled expression node {node!r}")
