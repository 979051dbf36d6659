"""The bundle-expression grammar: parsing and evaluation."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from degloci import (
    ExpressionError,
    ProductSpace,
    RankError,
    direct_sum,
    dual,
    evaluate_expression,
    kernel_from_sequence,
    line_bundle,
    parse_expression,
    twist,
)
from degloci.expressions import (
    _KEYWORDS,
    _OPERATORS,
    MAX_DEPTH,
    Apply,
    LineBundleExpr,
    NameRef,
)
from strategies import expression_texts, printed_expressions

P13 = ProductSpace((1, 3))


def test_parse_line_bundle():
    assert parse_expression("O(1,0)") == LineBundleExpr((1, 0), 1)
    assert parse_expression("O(1,0)^8") == LineBundleExpr((1, 0), 8)
    assert parse_expression("O(0,-1)^1") == LineBundleExpr((0, -1), 1)
    assert parse_expression(" O( -2 , 3 ) ^ 2 ") == LineBundleExpr((-2, 3), 2)


def test_parse_compound_expressions():
    assert parse_expression("sum(O(1,0), O(0,1))") == Apply(
        "sum", (LineBundleExpr((1, 0), 1), LineBundleExpr((0, 1), 1))
    )
    assert parse_expression("dual(E)") == Apply("dual", (NameRef("E"),))
    assert parse_expression("twist(E, O(0,2))") == Apply(
        "twist", (NameRef("E"), LineBundleExpr((0, 2), 1))
    )
    assert parse_expression("ker(sum(O(1,0)^8, O(0,-1)^1) -> O(1,1)^4)") == Apply(
        "ker",
        (
            Apply("sum", (LineBundleExpr((1, 0), 8), LineBundleExpr((0, -1), 1))),
            LineBundleExpr((1, 1), 4),
        ),
    )


# Each malformed input with the exact message it must raise.
_BIG = "9" * 5001
PARSE_ERRORS = [
    ("", "expected a nonempty expression string, got ''"),
    ("   ", "expected a nonempty expression string, got '   '"),
    ("O(1,0", "unexpected end of expression in 'O(1,0'"),
    ("O(1,0)^", "unexpected end of expression in 'O(1,0)^'"),
    ("dual(", "unexpected end of expression in 'dual('"),
    ("O()", "expected 'int' at position 2 in 'O()', got ')'"),
    ("O(1,0)^0", "multiplicity must be at least 1, got 0 in 'O(1,0)^0'"),
    ("O(1,0)^-2", "multiplicity must be at least 1, got -2 in 'O(1,0)^-2'"),
    ("sum(O(1,0))", "expected ',' at position 10 in 'sum(O(1,0))', got ')'"),
    (
        "sum(O(1,0), O(0,1), O(0,0))",
        "expected ')' at position 18 in 'sum(O(1,0), O(0,1), O(0,0))', got ','",
    ),
    ("twist(O(1,0))", "expected ',' at position 12 in 'twist(O(1,0))', got ')'"),
    (
        "ker(O(1,0), O(0,1))",
        "expected '->' at position 10 in 'ker(O(1,0), O(0,1))', got ','",
    ),
    (
        "sum(O(1,0) -> O(0,1))",
        "expected ',' at position 11 in 'sum(O(1,0) -> O(0,1))', got '->'",
    ),
    (
        "dual(O(1,0), O(0,1))",
        "expected ')' at position 11 in 'dual(O(1,0), O(0,1))', got ','",
    ),
    ("O(1;0)", "unexpected character ';' at position 3 in 'O(1;0)'"),
    ("O(1 0)", "expected ',' or ')' at position 4 in 'O(1 0)', got '0'"),
    ("O(1,0)->O(0,1)", "unexpected trailing '->' at position 6 in 'O(1,0)->O(0,1)'"),
    ("dual O(1,0)", "expected '(' at position 5 in 'dual O(1,0)', got 'O'"),
    ("O(1,0) extra", "unexpected trailing 'extra' at position 7 in 'O(1,0) extra'"),
    ("O(1.5,0)", "unexpected character '.' at position 3 in 'O(1.5,0)'"),
    ("2*H1", "unexpected character '*' at position 1 in '2*H1'"),
    # The position is where the scan stopped, before the blank.
    ("O(1,0) $", "unexpected character '$' at position 6 in 'O(1,0) $'"),
    ("sum(E, -)", "unexpected character '-' at position 6 in 'sum(E, -)'"),
    ("->", "expected an expression at position 0 in '->', got '->'"),
    ("sum(E, 3)", "expected an expression at position 7 in 'sum(E, 3)', got '3'"),
    (f"O(0,{_BIG})", "integer literal at position 4 has more than 4300 digits"),
    (f"O(1,0)^{_BIG}", "integer literal at position 7 has more than 4300 digits"),
]


def test_parse_errors():
    for text, message in PARSE_ERRORS:
        with pytest.raises(ExpressionError) as caught:
            parse_expression(text)
        assert str(caught.value) == message, text[:40]


@settings(max_examples=100, deadline=None)
@given(printed_expressions())
def test_parse_printed_ast_round_trip(case):
    expr, text = case
    assert parse_expression(text) == expr


@settings(max_examples=200, deadline=None)
@given(expression_texts)
def test_parse_arbitrary_text_parses_or_raises_expression_error(text):
    try:
        parse_expression(text)
    except ExpressionError:
        pass


def test_nesting_depth_bound():
    def nested(depth):
        return "dual(" * (depth - 1) + "O(1,0)" + ")" * (depth - 1)

    assert parse_expression(nested(MAX_DEPTH)).op == "dual"
    with pytest.raises(ExpressionError, match="nested deeper than"):
        parse_expression(nested(MAX_DEPTH + 1))


def test_evaluate_matches_direct_construction():
    # Every operator of the grammar, against its bundles function called directly.
    direct_calls = {
        "sum": ("sum(O(1,0)^2, O(0,-1))", direct_sum, ((1, 0), 2), ((0, -1), 1)),
        "dual": ("dual(O(1,1)^3)", dual, ((1, 1), 3)),
        "twist": ("twist(O(0,1)^2, O(2,-1))", twist, ((0, 1), 2), ((2, -1), 1)),
        "ker": ("ker(O(1,0)^3 -> O(1,1))", kernel_from_sequence, ((1, 0), 3), ((1, 1), 1)),
    }
    assert set(direct_calls) == set(_OPERATORS)
    for text, function, *operands in direct_calls.values():
        expected = function(*(line_bundle(P13, d, m) for d, m in operands))
        assert evaluate_expression(text, P13) == expected

    text = "twist(ker(sum(O(1,0)^8, O(0,-1)^1) -> O(1,1)^4), O(0,2))"
    via_grammar = evaluate_expression(text, P13)
    middle = direct_sum(line_bundle(P13, (1, 0), 8), line_bundle(P13, (0, -1)))
    kernel = kernel_from_sequence(middle, line_bundle(P13, (1, 1), 4))
    direct = twist(kernel, line_bundle(P13, (0, 2)))
    assert via_grammar == direct

    assert evaluate_expression("dual(O(1,1))", P13) == dual(line_bundle(P13, (1, 1)))


def test_evaluate_resolves_names():
    env = {"E": line_bundle(P13, (1, 0), 2)}
    value = evaluate_expression("sum(E, O(0,1))", P13, env.__getitem__)
    assert value == direct_sum(env["E"], line_bundle(P13, (0, 1)))


def test_evaluate_unknown_name():
    with pytest.raises(ExpressionError):
        evaluate_expression("sum(E, O(0,1))", P13)


def test_evaluate_wrong_arity_for_space():
    with pytest.raises(ExpressionError):
        evaluate_expression("O(1,0,0)", P13)


def test_evaluate_rank_errors_surface():
    with pytest.raises(RankError):
        evaluate_expression("twist(O(1,0), O(0,1)^2)", P13)
    with pytest.raises(RankError):
        evaluate_expression("ker(O(0,0)^2 -> O(0,0)^3)", P13)


def test_documented_grammar_keywords_match_table():
    doc = (Path(__file__).parents[1] / "docs" / "scenario-format.md").read_text()
    grammar = doc.split("## Bundle expression grammar", 1)[1].split("```")[1]
    assert set(re.findall(r"\b([A-Za-z_]\w*)\(", grammar)) == _KEYWORDS
