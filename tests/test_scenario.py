"""Scenario schema validation, bundled scenarios, and the pipeline runner."""

import copy
import gc
import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degloci.degeneracy
import degloci.scenario
from degloci import (
    ScenarioError,
    chern,
    dual,
    load_bundled_scenario,
    load_scenario,
    resolve_bundles,
    run_scenario,
)
from degloci.expressions import _KEYWORDS
from degloci.scenario import parse_scenario_data
from strategies import minimal_data


BASE_CHANGE = {
    "m1": 14,
    "m2": 14,
    "g_a1": 105,
    "g_a2": 105,
    "a1_sq": 16,
    "a2_sq": 16,
    "a12": 16,
    "base_lambda": 60,
    "base_delta0": 392,
}


def full_data() -> dict:
    """minimal_data() with every optional block: base_change and notes."""
    return minimal_data(base_change=copy.deepcopy(BASE_CHANGE), notes=["a note"])


def test_bundled_scenarios_load():
    m15 = load_bundled_scenario("m15")
    assert m15.name == "m15"
    assert m15.space.dims == (1, 3)
    assert m15.base_change is None
    m16 = load_bundled_scenario("m16")
    assert m16.base_change is not None
    assert m16.base_change.m1 == 14
    with pytest.raises(ScenarioError):
        load_bundled_scenario("m17")


def test_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/no/such/scenario.json")


def test_bytes_path_is_refused_as_pathlib_refuses_it():
    with pytest.raises(TypeError) as expected:
        pathlib.PurePosixPath(b"x.json")
    with pytest.raises(TypeError) as refused:
        load_scenario(b"x.json")
    assert str(refused.value) == str(expected.value)


def test_bundle_name_rules():
    for keyword in sorted(_KEYWORDS):
        with pytest.raises(ScenarioError, match="not a usable bundle name"):
            parse_scenario_data(minimal_data(bundles={keyword: "O(0,0)^1"}))
    # A decoded document passed in directly may have keys that are not strings.
    with pytest.raises(ScenarioError, match="bundles: 1 is not a usable bundle name"):
        parse_scenario_data(minimal_data(bundles={1: "O(0,0)^1"}))


def test_reference_cycle_detected():
    cases = [
        ({"A": "sum(B, O(0,0))", "B": "sum(A, O(0,0))"}, "A -> B -> A"),
        (
            {"A": "sum(B, O(0,0))", "B": "sum(C, O(0,1))", "C": "dual(A)"},
            "A -> B -> C -> A",
        ),
        ({"A": "sum(A, O(0,0))", "B": "sum(O(1,0), O(0,1))"}, "A -> A"),
    ]
    for bundles, cycle in cases:
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_data(minimal_data(bundles=bundles))
        assert str(excinfo.value) == (
            f"<scenario>: bundles.A: bundle reference cycle: {cycle}"
        )


def test_long_chain_of_names_resolves():
    bundles = {f"N{i}": f"N{i + 1}" for i in range(400)}
    bundles.update(N400="O(0,0)", A="N0", B="sum(N0, O(0,1))")
    env = resolve_bundles(parse_scenario_data(minimal_data(bundles=bundles)))
    assert env["N0"].rank == env["A"].rank == 1
    assert env["B"].rank == 2


def test_base_change_block_validation():
    block = BASE_CHANGE
    scenario = parse_scenario_data(minimal_data(base_change=dict(block)))
    assert scenario.base_change.base_lambda == 60

    good = dict(block)
    good["base_lambda"] = "60/1"
    assert parse_scenario_data(
        minimal_data(base_change=good)
    ).base_change.base_lambda == Fraction(60)


def test_resolve_bundles_results():
    env = resolve_bundles(load_bundled_scenario("m15"))
    assert set(env) == {"A", "E", "B"}
    assert env["A"].rank == 4
    assert env["E"].rank == 5
    assert env["B"].rank == 5


def test_resolve_bundles_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        resolve_bundles(load_bundled_scenario("m15"))
        assert gc.collect() == 0
    finally:
        gc.enable()


# Loaders of one bundled and one generated-style scenario: named bundles that
# refer to each other through ker and twist.
SINGLE_PASS_LOADERS = {
    "m15": lambda: load_bundled_scenario("m15"),
    "m16": lambda: load_bundled_scenario("m16"),
    "generated": lambda: parse_scenario_data(
        minimal_data(
            bundles={
                "E": "ker(sum(O(1,0)^2, O(0,1)) -> O(1,1))",
                "A": "O(0,0)^1",
                "B": "twist(E, O(0,1))",
            }
        )
    ),
}


@pytest.mark.parametrize("name", sorted(SINGLE_PASS_LOADERS))
def test_an_item_resolves_and_evaluates_the_formulas_once(monkeypatch, name):
    calls = Counter()

    def counted(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        degloci.scenario,
        "resolve_bundles",
        counted("resolve_bundles", degloci.scenario.resolve_bundles),
    )
    # The degeneracy module's own name and the one scenario imported.
    numbers = counted("virtual_chern_numbers", degloci.degeneracy.virtual_chern_numbers)
    monkeypatch.setattr(degloci.degeneracy, "virtual_chern_numbers", numbers)
    monkeypatch.setattr(degloci.scenario, "virtual_chern_numbers", numbers)

    report = run_scenario(SINGLE_PASS_LOADERS[name](), check=True)
    assert report.all_checks_passed
    assert calls == {"resolve_bundles": 1, "virtual_chern_numbers": 1}


@pytest.mark.parametrize(
    "perturb",
    [
        lambda numbers: numbers._replace(c1_sq=numbers.c1_sq + 1),
        lambda numbers: numbers._replace(difference=dual(numbers.difference)),
    ],
    ids=["c1_sq", "difference"],
)
@pytest.mark.parametrize("name", sorted(SINGLE_PASS_LOADERS))
def test_double_point_check_fails_on_perturbed_numbers(monkeypatch, name, perturb):
    check = degloci.scenario.double_point_check
    monkeypatch.setattr(
        degloci.scenario,
        "double_point_check",
        lambda inp, numbers: check(inp, perturb(numbers)),
    )
    report = run_scenario(SINGLE_PASS_LOADERS[name](), check=True)
    assert [c.key for c in report.checks if not c.passed] == ["double_point_c2"]


def _superseded_c2(inp, numbers):
    """c_2(Z) with the superseded c_3 coefficient, +c_1(M) + 2 c_1."""
    c3_term = (inp.tangent_c1 * chern(numbers.difference, 3)).integrate()
    return numbers._replace(c2=numbers.c2 + 2 * c3_term)


def _plus_c4_in_both(inp, numbers):
    c4 = chern(numbers.difference, 4).integrate()  # 24 on m15
    return numbers._replace(c1_sq=numbers.c1_sq + c4, c2=numbers.c2 + c4)


# Known formula errors, each applied to the numbers that run_scenario gets:
# the c1(Z)^2 and c2(Z) that m15 then reports, and the check lines that must
# read FAIL with their details.
FORMULA_ERRORS = [
    pytest.param(
        _superseded_c2, ("216", "648"), {"double_point_c2": "336 vs 648"}, id="superseded_c2"
    ),
    pytest.param(
        lambda inp, numbers: numbers._replace(c1_sq=numbers.c1_sq + 1),
        ("217", "336"),
        {"double_point_c2": "337 vs 336", "noether_lambda": "c1(Z)^2 + c2(Z) = 553"},
        id="c1_sq_plus_1",
    ),
    pytest.param(
        lambda inp, numbers: numbers._replace(c1_sq=numbers.c1_sq + 1, c2=numbers.c2 + 1),
        ("217", "337"),
        {"noether_lambda": "c1(Z)^2 + c2(Z) = 554"},
        id="both_plus_1",
    ),
    pytest.param(
        _plus_c4_in_both, ("240", "360"), {}, id="both_plus_c4",
        marks=pytest.mark.xfail(
            strict=True,
            reason="an error common to both formulas that keeps 12 | c1(Z)^2 + c2(Z) "
            "passes every check line; ROADMAP item 1's resolution check is to catch it",
        ),
    ),
]


@pytest.mark.parametrize("mutate, reported, fails", FORMULA_ERRORS)
def test_check_lines_catch_each_known_formula_error_on_m15(
    monkeypatch, mutate, reported, fails
):
    evaluate = degloci.scenario.virtual_chern_numbers
    monkeypatch.setattr(
        degloci.scenario, "virtual_chern_numbers", lambda inp: mutate(inp, evaluate(inp))
    )
    report = run_scenario(load_bundled_scenario("m15"), check=True)
    assert (report.value("c1(Z)^2"), report.value("c2(Z)")) == reported
    failed = {check.key: check.detail for check in report.checks if not check.passed}
    assert failed, "no check line reads FAIL"
    assert failed == fails


def test_base_change_cross_check_against_family_stage():
    data = minimal_data(
        name="m16-bad",
        bundles={
            "A": "O(0,0)^4",
            "E": "ker(sum(O(1,0)^8, O(0,-1)^1) -> O(1,1)^4)",
            "B": "twist(E, O(0,2))",
        },
        degeneracy={"a": "A", "b": "B"},
        family={"fiber_genus": 15, "base_genus": 0},
        base_change={
            "m1": 14,
            "m2": 14,
            "g_a1": 105,
            "g_a2": 105,
            "a1_sq": 16,
            "a2_sq": 16,
            "a12": 16,
            "base_lambda": 61,
            "base_delta0": 392,
        },
    )
    scenario = parse_scenario_data(data)
    with pytest.raises(ScenarioError, match="base_lambda"):
        run_scenario(scenario)

    data["base_change"]["base_lambda"] = 60
    data["base_change"]["base_delta0"] = 391
    with pytest.raises(ScenarioError, match="delta"):
        run_scenario(parse_scenario_data(data))


def test_low_genus_needs_acknowledgment():
    scenario = parse_scenario_data(minimal_data(family={"fiber_genus": 1, "base_genus": 0}))
    with pytest.raises(ScenarioError, match="family"):
        run_scenario(scenario)
    eased = parse_scenario_data(
        minimal_data(family={"fiber_genus": 1, "base_genus": 0, "allow_low_genus": True})
    )
    report = run_scenario(eased)
    assert report.value("c1(Z)^2") == "9"
    assert report.value("c2(Z)") == "3"
    # Without a base_change block, the report holds no base-change entries.
    with pytest.raises(KeyError):
        report.value("sigma_tilde_1^2")


_DROP = object()


def _edited(edits) -> object:
    """full_data() with each dotted path set to a value, or removed by _DROP.

    A non-dict ``edits`` is the whole document.
    """
    if not isinstance(edits, dict):
        return edits
    data = full_data()
    for path, value in edits.items():
        *parents, key = path.split(".")
        node = data
        for parent in parents:
            node = node[parent]
        if value is _DROP:
            del node[key]
        else:
            node[key] = value
    return data


_NINES = "9" * 4300  # the longest integer literal an expression accepts
_NOT_SHOWN = "(not shown: a number has more than 4300 digits)"
_DEEP = "dual(" * 3000 + "O(1,0)" + ")" * 3000

# Each document's error, less its "bad.json: " prefix, which it carries once.
LOAD_ERRORS = [
    ([], "expected an object, got list"),
    ("small", "expected an object, got str"),
    ({"surprise": 1}, "unknown key(s) 'surprise'"),
    ({"zz": 1, "aa": 2}, "unknown key(s) 'aa', 'zz'"),
    ({"family": _DROP}, "missing required key(s) 'family'"),
    ({"space": _DROP, "name": _DROP}, "missing required key(s) 'name', 'space'"),
    ({"name": 1}, "name: expected a nonempty string, got 1"),
    ({"name": "  "}, "name: expected a nonempty string, got '  '"),
    ({"name": 10**4301}, f"name: expected a nonempty string, got {_NOT_SHOWN}"),
    # A line break would let a name forge a line of the report.
    ({"name": "m15\nslope = 7"}, "name: expected a single line, got 'm15\\nslope = 7'"),
    ({"space": "1,3"}, "space: expected a nonempty list of dimensions"),
    ({"space": []}, "space: expected a nonempty list of dimensions"),
    ({"space": [1, "3"]}, "space: expected an integer, got '3'"),
    ({"space": [True, 3]}, "space: expected an integer, got True"),
    ({"space": [0, 4]}, "space: factor dimensions must be positive integers, got 0"),
    (
        {"space": [-(10**4300), 4]},
        f"space: factor dimensions must be positive integers, got {_NOT_SHOWN}",
    ),
    ({"space": [1, 2]}, "space: the degeneracy pipeline needs total dimension 4, got 3"),
    ({"space": [2, 3]}, "space: the degeneracy pipeline needs total dimension 4, got 5"),
    ({"bundles": []}, "bundles: expected an object, got list"),
    ({"bundles": {}}, "bundles: at least one bundle is required"),
    (
        {"bundles": {"A": "O(0,0)^1", "sum": "O(1,0)^2"}},
        "bundles: 'sum' is not a usable bundle name",
    ),
    (
        {"bundles": {"A": "O(0,0)^1", "1B": "O(1,0)^2"}},
        "bundles: '1B' is not a usable bundle name",
    ),
    (
        {"bundles": {"A": "O(0,0)^1", "A\n": "O(1,0)^2"}},
        "bundles: 'A\\n' is not a usable bundle name",
    ),
    (
        {"bundles": {"A": "O(0,0)^1", "\u00c9": "O(1,0)^2"}},
        "bundles: '\u00c9' is not a usable bundle name",
    ),
    ({"bundles.B": 5}, "bundles.B: expected a nonempty string, got 5"),
    ({"bundles.B": ""}, "bundles.B: expected a nonempty string, got ''"),
    ({"bundles.B": "O(0,0"}, "bundles.B: unexpected end of expression in 'O(0,0'"),
    (
        {"bundles.B": "sum(O(1,0))"},
        "bundles.B: expected ',' at position 10 in 'sum(O(1,0))', got ')'",
    ),
    (
        {"bundles.B": "O(1,0) $"},
        "bundles.B: unexpected character '$' at position 6 in 'O(1,0) $'",
    ),
    (
        {"bundles.B": f"sum(O(0,1), {_DEEP})"},
        "bundles.B: expression nested deeper than 100 levels at position 507",
    ),
    (
        {"bundles.B": "O(" + "1" * 5001 + ",0)^2"},
        "bundles.B: integer literal at position 2 has more than 4300 digits",
    ),
    (
        {"bundles.B": "O(1,0)^" + "1" * 5001},
        "bundles.B: integer literal at position 7 has more than 4300 digits",
    ),
    ({"bundles.B": "sum(C, O(0,1))"}, "bundles.B: undefined bundle name 'C'"),
    (
        {"bundles.A": "sum(B, O(0,0))", "bundles.B": "sum(A, O(0,0))"},
        "bundles.A: bundle reference cycle: A -> B -> A",
    ),
    ({"bundles.A": "dual(A)"}, "bundles.A: bundle reference cycle: A -> A"),
    (
        {"bundles.B": "sum(O(1,0,0), O(0,1))"},
        "bundles.B: O(...) needs 2 degrees on P^1 x P^3, got 3",
    ),
    (
        {"bundles.B": "ker(O(0,0) -> O(1,0)^2)"},
        "bundles.B: middle rank 1 is smaller than quotient rank 2",
    ),
    (
        {"bundles.B": "twist(sum(O(1,0), O(0,1)), O(0,0)^2)"},
        "bundles.B: twisting requires a rank-1 bundle, got rank 2",
    ),
    (
        {"bundles.B": "sum(O(0,0), twist(O(1,0), ker(O(0,0)^2 -> O(0,1))))"},
        "bundles.B: twisting requires a line bundle, got a rank-1 class with total "
        "Chern class -1*H2^3 + 1*H2^2 + -1*H2 + 1",
    ),
    (
        {"bundles.B": "O(1,1)^3"},
        "degeneracy: rank of 'B' must be rank of 'A' plus 1, got 3 and 1",
    ),
    # A number beyond the int-to-string digit limit in a refusal: the message
    # still names the refusal.
    (
        {"bundles.A": f"sum(O(0,0)^{_NINES}, O(0,1))"},
        f"degeneracy: rank of 'B' must be rank of 'A' plus 1, got 2 and {_NOT_SHOWN}",
    ),
    (
        {"space": [10**4300 - 1, 1]},
        f"space: the degeneracy pipeline needs total dimension 4, got {_NOT_SHOWN}",
    ),
    (
        {"bundles.B": f"twist(O(1,0)^2, sum(O(0,0)^{_NINES}, O(0,0)^{_NINES}))"},
        f"bundles.B: twisting requires a rank-1 bundle, got rank {_NOT_SHOWN}",
    ),
    (
        {"bundles.B": f"ker(O(0,0) -> sum(O(0,0)^{_NINES}, O(0,0)^{_NINES}))"},
        f"bundles.B: middle rank 1 is smaller than quotient rank {_NOT_SHOWN}",
    ),
    (
        {"bundles.B": f"twist(O(1,0)^2, ker(O(1,0)^2 -> O(0,{_NINES})))"},
        "bundles.B: twisting requires a line bundle, got a rank-1 class with total "
        f"Chern class {_NOT_SHOWN}",
    ),
    ({"degeneracy": "A"}, "degeneracy: expected an object, got str"),
    ({"degeneracy.b": _DROP}, "degeneracy: missing required key(s) 'b'"),
    ({"degeneracy.c": "A"}, "degeneracy: unknown key(s) 'c'"),
    ({"degeneracy.a": 1}, "degeneracy.a: expected a nonempty string, got 1"),
    ({"degeneracy.b": "C"}, "degeneracy.b: 'C' is not a defined bundle name"),
    (
        {"degeneracy.a": "C", "degeneracy.b": "D"},
        "degeneracy.a: 'C' is not a defined bundle name",
    ),
    ({"family": []}, "family: expected an object, got list"),
    ({"family.base_genus": _DROP}, "family: missing required key(s) 'base_genus'"),
    ({"family.extra": 0}, "family: unknown key(s) 'extra'"),
    ({"family.fiber_genus": "2"}, "family.fiber_genus: expected an integer, got '2'"),
    ({"family.fiber_genus": True}, "family.fiber_genus: expected an integer, got True"),
    (
        {"family.fiber_genus": [10**4300]},
        f"family.fiber_genus: expected an integer, got {_NOT_SHOWN}",
    ),
    ({"family.base_genus": 2.0}, "family.base_genus: expected an integer, got 2.0"),
    (
        {"family.allow_low_genus": "yes"},
        "family.allow_low_genus: expected true or false, got 'yes'",
    ),
    (
        {"family.allow_low_genus": 1},
        "family.allow_low_genus: expected true or false, got 1",
    ),
    (
        {"family.allow_low_genus": 10**4301},
        f"family.allow_low_genus: expected true or false, got {_NOT_SHOWN}",
    ),
    ({"base_change": []}, "base_change: expected an object, got list"),
    ({"base_change.extra": 1}, "base_change: unknown key(s) 'extra'"),
    (
        {"base_change.base_lambda": _DROP, "base_change.a12": _DROP},
        "base_change: missing required key(s) 'a12', 'base_lambda'",
    ),
    (
        {"base_change.base_lambda": _DROP},
        "base_change: missing required key(s) 'base_lambda'",
    ),
    (
        {"base_change.base_delta_rest": 5},
        "base_change.base_delta_rest: expected a list of rationals",
    ),
    ({"base_change.notes": "x"}, "base_change.notes: expected a list of strings"),
    ({"base_change.notes": [1]}, "base_change.notes: expected a nonempty string, got 1"),
    ({"base_change.m1": "14"}, "base_change.m1: expected an integer, got '14'"),
    ({"base_change.a12": True}, "base_change.a12: expected an integer, got True"),
    ({"base_change.g_a2": None}, "base_change.g_a2: expected an integer, got None"),
    (
        {"base_change.base_lambda": "x"},
        "base_change.base_lambda: expected an integer or 'p/q' string, got 'x'",
    ),
    (
        {"base_change.base_delta0": "1/0"},
        "base_change.base_delta0: expected an integer or 'p/q' string, got '1/0'",
    ),
    (
        {"base_change.base_delta_rest": [1, 1.5]},
        "base_change.base_delta_rest: expected an integer or 'p/q' string, got 1.5",
    ),
    (
        {"base_change.base_lambda": [10**4300]},
        f"base_change.base_lambda: expected an integer or 'p/q' string, got {_NOT_SHOWN}",
    ),
    (
        {"base_change.m1": 0},
        "base_change: multisection degrees must be at least 1, got m1=0, m2=14",
    ),
    (
        {"base_change.m2": -(10**4300)},
        f"base_change: multisection degrees must be at least 1, got m1=14, m2={_NOT_SHOWN}",
    ),
    ({"base_change.a12": -1}, "base_change: A1.A2 must be nonnegative, got -1"),
    (
        {"base_change.a12": -(10**4300)},
        f"base_change: A1.A2 must be nonnegative, got {_NOT_SHOWN}",
    ),
    ({"notes": "x"}, "notes: expected a list of strings"),
    ({"notes": ["ok", ""]}, "notes: expected a nonempty string, got ''"),
    ({"notes": [3]}, "notes: expected a nonempty string, got 3"),
    # Checks fire in document order: names, space, bundle syntax, degeneracy,
    # family, base_change, notes, then total dimension, resolution and ranks.
    ({"name": 1, "space": []}, "name: expected a nonempty string, got 1"),
    (
        {"space": [1, 2], "bundles.B": "O(0,0"},
        "bundles.B: unexpected end of expression in 'O(0,0'",
    ),
    (
        {"space": [1, 2], "bundles.A": "O(0,0", "bundles.B": "O(1,0)^2"},
        "bundles.A: unexpected end of expression in 'O(0,0'",
    ),
    (
        {"space": [1, 2], "bundles.B": "O(1,1)^3"},
        "space: the degeneracy pipeline needs total dimension 4, got 3",
    ),
    ({"bundles.B": "O(1,1)^3", "notes": [3]}, "notes: expected a nonempty string, got 3"),
    ({"base_change.m1": "14", "notes": 1}, "base_change.m1: expected an integer, got '14'"),
    (
        {"base_change.m2": "x", "base_change.m1": "y"},
        "base_change.m1: expected an integer, got 'y'",
    ),
]

# Texts that fail before the schema, each with its error less the file's prefix.
LOAD_TEXT_ERRORS = [
    (
        '{"name": 1.5}',
        "floating-point literal '1.5' is not allowed; use an integer or a 'p/q' string",
    ),
    (
        '{"name": NaN}',
        "floating-point literal 'NaN' is not allowed; use an integer or a 'p/q' string",
    ),
    (
        '{"name": -Infinity}',
        "floating-point literal '-Infinity' is not allowed; use an integer or a 'p/q' "
        "string",
    ),
    (
        json.dumps(minimal_data(family={"fiber_genus": 2.0, "base_genus": 0})),
        "floating-point literal '2.0' is not allowed; use an integer or a 'p/q' string",
    ),
    (
        "{not json",
        "not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    ("", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[" * 100000, "not valid JSON: arrays or objects nested too deeply"),
    (
        '{"name": ' + "1" * 5000 + "}",
        "not valid JSON: Exceeds the limit (4300 digits) for integer string "
        "conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
        "to increase the limit",
    ),
]


def _load_error(load) -> str:
    with pytest.raises(ScenarioError) as excinfo:
        load()
    return str(excinfo.value)


def test_load_error_messages(tmp_path):
    expected, got = [], []
    for edits, message in LOAD_ERRORS:
        expected.append(f"bad.json: {message}")
        got.append(_load_error(lambda: parse_scenario_data(_edited(edits), "bad.json")))
    path = tmp_path / "bad.json"
    for text, message in LOAD_TEXT_ERRORS:
        path.write_text(text)
        expected.append(f"{path}: {message}")
        got.append(_load_error(lambda: load_scenario(path)))
    assert got == expected


_JSON_VALUES = st.sampled_from(
    [None, True, False, 0, -1, 2, 4, 10**4300, -(10**4301), "", "x", "1/2", "1/0", "A",
     "O(1,0)", [], [1, 3], {}]
).map(copy.deepcopy)
_KEYS = st.sampled_from(["extra", "notes", "allow_low_genus", "base_delta_rest", "a", "C"])


def _slots(data) -> list:
    """Every (container, key) pair of a decoded JSON document."""
    slots, stack = [], [data]
    while stack:
        container = stack.pop()
        keys = list(container) if isinstance(container, dict) else range(len(container))
        for key in keys:
            slots.append((container, key))
            if isinstance(container[key], (dict, list)):
                stack.append(container[key])
    return slots


@st.composite
def mutated_documents(draw):
    """full_data() with one to four keys dropped, values retyped or keys added."""
    data = full_data()
    for _ in range(draw(st.integers(1, 4))):
        slots = _slots(data)
        if not slots:
            break
        container, key = slots[draw(st.integers(0, len(slots) - 1))]
        action = draw(st.sampled_from(["drop", "retype", "add"]))
        if action == "drop":
            del container[key]
        elif action == "retype":
            container[key] = draw(_JSON_VALUES)
        elif isinstance(container, dict):
            container[draw(_KEYS)] = draw(_JSON_VALUES)
        else:
            container.append(draw(_JSON_VALUES))
    return data


@settings(max_examples=100, deadline=None)
@given(mutated_documents())
def test_mutated_documents_fail_only_with_one_source_prefix(data):
    try:
        parse_scenario_data(data, "SRC")
    except ScenarioError as exc:
        message = str(exc)
        assert message.startswith("SRC: ")
        assert message.count("SRC: ") == 1
