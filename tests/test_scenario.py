"""Scenario schema validation, bundled scenarios, and the pipeline runner."""

import gc
import json
from fractions import Fraction

import pytest

from degloci import (
    ScenarioError,
    load_bundled_scenario,
    load_scenario,
    render_exact,
    render_json,
    resolve_bundles,
    run_scenario,
)
from degloci.expressions import _KEYWORDS
from degloci.scenario import parse_scenario_data


def minimal_data(**overrides) -> dict:
    data = {
        "name": "small",
        "space": [1, 3],
        "bundles": {"A": "O(0,0)^1", "B": "sum(O(1,0), O(0,1))"},
        "degeneracy": {"a": "A", "b": "B"},
        "family": {"fiber_genus": 2, "base_genus": 0},
    }
    data.update(overrides)
    return data


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


def test_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)
    path.write_text("")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_float_literals_rejected(tmp_path):
    path = tmp_path / "floaty.json"
    data = minimal_data()
    data["family"]["fiber_genus"] = 2.0
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_unknown_and_missing_keys():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario_data(minimal_data(surprise=1))
    data = minimal_data()
    del data["family"]
    with pytest.raises(ScenarioError, match="missing required key"):
        parse_scenario_data(data)
    with pytest.raises(ScenarioError, match="degeneracy"):
        parse_scenario_data(minimal_data(degeneracy={"a": "A"}))


def test_space_validation():
    with pytest.raises(ScenarioError):
        parse_scenario_data(minimal_data(space=[]))
    with pytest.raises(ScenarioError):
        parse_scenario_data(minimal_data(space=[0, 4]))
    with pytest.raises(ScenarioError, match="total dimension 4"):
        parse_scenario_data(minimal_data(space=[1, 2]))


def test_degeneracy_names_must_be_defined():
    with pytest.raises(ScenarioError, match="not a defined bundle name"):
        parse_scenario_data(minimal_data(degeneracy={"a": "A", "b": "C"}))


def test_bundle_name_rules():
    for keyword in sorted(_KEYWORDS):
        with pytest.raises(ScenarioError, match="not a usable bundle name"):
            parse_scenario_data(minimal_data(bundles={keyword: "O(0,0)^1"}))


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


def test_unresolved_reference_in_expression():
    data = minimal_data(bundles={"A": "O(0,0)^1", "B": "sum(C, O(0,1))"})
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_data(data)
    assert str(excinfo.value) == "<scenario>: bundles.B: undefined bundle name 'C'"


def test_long_chain_of_names_resolves():
    bundles = {f"N{i}": f"N{i + 1}" for i in range(400)}
    bundles.update(N400="O(0,0)", A="N0", B="sum(N0, O(0,1))")
    env = resolve_bundles(parse_scenario_data(minimal_data(bundles=bundles)))
    assert env["N0"].rank == env["A"].rank == 1
    assert env["B"].rank == 2


def test_syntax_error_reported_before_space_checks():
    data = minimal_data(space=[1, 2], bundles={"A": "O(0,0", "B": "O(1,0)^2"})
    with pytest.raises(ScenarioError, match="bundles.A: unexpected end of expression"):
        parse_scenario_data(data)


def test_rank_mismatch_rejected():
    data = minimal_data(bundles={"A": "O(0,0)^1", "B": "O(1,1)^3"})
    with pytest.raises(ScenarioError, match="rank"):
        parse_scenario_data(data)


def test_base_change_block_validation():
    block = {
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
    scenario = parse_scenario_data(minimal_data(base_change=dict(block)))
    assert scenario.base_change.base_lambda == 60

    bad = dict(block)
    bad["m1"] = 0
    with pytest.raises(ScenarioError):
        parse_scenario_data(minimal_data(base_change=bad))

    bad = dict(block)
    bad["extra"] = 1
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario_data(minimal_data(base_change=bad))

    bad = dict(block)
    del bad["base_lambda"]
    with pytest.raises(ScenarioError, match="missing required key"):
        parse_scenario_data(minimal_data(base_change=bad))

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


def test_run_m15_report_values():
    report = run_scenario(load_bundled_scenario("m15"))
    assert report.scenario == "m15"
    assert report.space == "P^1 x P^3"
    assert report.value("c1(M)") == "2*H1 + 4*H2"
    assert report.value("c2(M)") == "8*H1*H2 + 6*H2^2"
    assert report.value("c1(B-A)") == "4*H1 + 5*H2"
    assert report.value("c2(B-A)") == "16*H1*H2 + 14*H2^2"
    assert report.value("c1(Z)^2") == "216"
    assert report.value("c2(Z)") == "336"
    assert report.value("kappa") == "328"
    assert report.value("delta") == "392"
    assert report.value("lambda") == "60"
    assert report.value("slope") == "98/15"
    assert report.checks == ()
    with pytest.raises(KeyError):
        report.value("sigma_tilde_1^2")


def test_run_m16_report_values():
    report = run_scenario(load_bundled_scenario("m16"), check=True)
    assert report.value("sigma_tilde_1^2") == "-3096"
    assert report.value("sigma_tilde_2^2") == "-3096"
    assert report.value("beta_delta0_correction") == "-6192"
    assert report.value("lambda_B") == "11760"
    assert report.value("delta0_B") == "70640"
    assert report.value("delta1_B") == "16"
    assert report.value("slope_B") == "1472/245"
    assert report.all_checks_passed
    assert {c.key for c in report.checks} == {"double_point_c2", "beta_sigma_identity"}


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


def test_determinism_two_fresh_runs():
    for name in ("m15", "m16"):
        first = run_scenario(load_bundled_scenario(name), check=True)
        second = run_scenario(load_bundled_scenario(name), check=True)
        assert render_exact(first) == render_exact(second)
        assert render_json(first) == render_json(second)
        assert first == second


def test_report_renderings_are_parseable():
    report = run_scenario(load_bundled_scenario("m16"))
    doc = json.loads(render_json(report))
    assert doc["values"]["slope_B"]["exact"] == "1472/245"
    assert doc["values"]["slope_B"]["decimal"] == "6.00816"
    assert doc["values"]["c2(M)"] == {"kind": "class", "exact": "8*H1*H2 + 6*H2^2"}
