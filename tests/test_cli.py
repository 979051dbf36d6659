"""CLI behavior: flags, formats, exit codes, determinism."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as stg
import degloci
from degloci import (
    ExpressionError,
    InternalCheckError,
    ScenarioError,
    load_scenario,
    run_scenario,
)
from degloci.cli import main
from degloci.report import RENDERERS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_m15_exact_output(capsys):
    code, out, err = run_cli(capsys, "--scenario", "m15")
    assert code == 0
    assert err == ""
    assert "c1(Z)^2 = 216" in out
    assert "c2(Z) = 336" in out
    assert "kappa = 328" in out
    assert "delta = 392" in out
    assert "lambda = 60" in out
    assert "slope = 98/15" in out


def test_m16_exact_output_with_check(capsys):
    code, out, err = run_cli(capsys, "--scenario", "m16", "--check")
    assert code == 0
    assert "sigma_tilde_1^2 = -3096" in out
    assert "sigma_tilde_2^2 = -3096" in out
    assert "lambda_B = 11760" in out
    assert "delta1_B = 16" in out
    assert "slope_B = 1472/245" in out
    assert "check double_point_c2 = pass" in out
    assert "check beta_sigma_identity = pass" in out


def test_decimal_format(capsys):
    code, out, _ = run_cli(capsys, "--scenario", "m16", "--format", "decimal")
    assert code == 0
    assert "slope = 6.53333" in out
    assert "slope_B = 6.00816" in out


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "--scenario", "m15", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "m15"
    assert doc["values"]["slope"]["exact"] == "98/15"


def test_config_file(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(
        json.dumps(
            {
                "name": "small",
                "space": [1, 3],
                "bundles": {"A": "O(0,0)^1", "B": "sum(O(1,0), O(0,1))"},
                "degeneracy": {"a": "A", "b": "B"},
                "family": {"fiber_genus": 2, "base_genus": 0},
            }
        )
    )
    code, out, _ = run_cli(capsys, "--config", str(path))
    assert code == 0
    assert "c1(Z)^2 = 9" in out
    assert "c2(Z) = 3" in out


def test_missing_config_exits_1(capsys):
    code, out, err = run_cli(capsys, "--config", "/no/such/file.json")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_bad_scenario_data_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad"}')
    code, _, err = run_cli(capsys, "--config", str(path))
    assert code == 1
    assert "missing required key" in err


def test_overlong_integer_literal_exits_1(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"family": {"fiber_genus": ' + "1" * 5000 + "}}")
    code, out, err = run_cli(capsys, "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def _scenario_file(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(stg.minimal_data(**overrides)))
    return str(path)


def test_twist_by_rank_one_kernel_exits_1(tmp_path, capsys):
    path = _scenario_file(
        tmp_path,
        bundles={"A": "O(0,0)^1", "B": "sum(O(0,0), twist(O(1,0), ker(O(0,0)^2 -> O(0,1))))"},
    )
    code, out, err = run_cli(capsys, "--config", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "line bundle" in err


def test_deeply_nested_expression_exits_1(tmp_path, capsys):
    deep = "dual(" * 3000 + "O(1,0)" + ")" * 3000
    path = _scenario_file(
        tmp_path, bundles={"A": "O(0,0)^1", "B": f"sum(O(0,1), {deep})"}
    )
    code, out, err = run_cli(capsys, "--config", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "nested deeper than" in err
    assert "Traceback" not in err


def test_resolution_error_carries_the_file_prefix(tmp_path, capsys):
    path = _scenario_file(tmp_path, bundles={"A": "O(0,0)^1", "B": "sum(C, O(0,1))"})
    code, out, err = run_cli(capsys, "--config", path)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: bundles.B: undefined bundle name 'C'\n"


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


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"base_change": {**BASE_CHANGE, "m1": "14"}},
            "base_change.m1: expected an integer, got '14'",
        ),
        ({"space": [1, "3"]}, "space: expected an integer, got '3'"),
        (
            {"family": {"fiber_genus": 15.0, "base_genus": 0}},
            "floating-point literal '15.0' is not allowed; "
            "use an integer or a 'p/q' string",
        ),
    ],
    ids=["base_change", "space", "float"],
)
def test_load_error_names_the_file_once(tmp_path, capsys, overrides, message):
    path = _scenario_file(tmp_path, **overrides)
    code, out, err = run_cli(capsys, "--config", path)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: {message}\n"
    assert err.count(path) == 1
    assert "Traceback" not in err


def test_report_number_beyond_digit_limit_exits_1(tmp_path, capsys):
    # Every literal fits the 4300-digit bound, but c(B-A) does not.
    path = _scenario_file(
        tmp_path,
        bundles={
            "L": "O(0," + "9" * 4000 + ")",
            "A": "O(0,0)^1",
            "B": "twist(sum(O(1,0), O(0,1)), L)",
        },
    )
    code, out, err = run_cli(capsys, "--config", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: report: c2(B-A): a number has more than 4300 digits")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "expression",
    ["O(" + "1" * 5001 + ",0)^2", "O(1,0)^" + "1" * 5001],
    ids=["degree", "multiplicity"],
)
def test_overlong_integer_in_expression_exits_1(tmp_path, capsys, expression):
    path = _scenario_file(tmp_path, bundles={"A": "O(0,0)^1", "B": expression})
    code, out, err = run_cli(capsys, "--config", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@settings(max_examples=40, deadline=None)
@given(stg.hostile_scenario_texts(), st.sampled_from(sorted(RENDERERS)))
def test_hostile_files_end_in_a_report_an_error_or_a_failed_check(
    tmp_path_factory, text, output_format
):
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_text(text)
    try:
        report = run_scenario(load_scenario(path), check=True)
        expected = 0 if report.all_checks_passed else 2
    except (ScenarioError, ExpressionError):
        expected = 1
    except InternalCheckError:
        expected = 2

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--check", "--format", output_format])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code == expected
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_cli(capsys, "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_usage_errors_exit_1(capsys):
    for argv in ([], ["--scenario", "m99"], ["--scenario", "m15", "--format", "csv"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        capsys.readouterr()


def test_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "--scenario", "m16", "--format", "exact")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_cold_start_imports_no_code_introspection_modules():
    # dataclasses imports inspect, which imports ast, dis and tokenize; the
    # CLI needs none of them, and on a fresh interpreter each one costs time.
    src = str(Path(degloci.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import degloci.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} "
        "& set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
