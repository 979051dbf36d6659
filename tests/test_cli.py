"""CLI behavior: flags, exit codes and hostile files.

Each format's output is pinned by ``test_golden``; each load error that the
catalogue in ``test_scenario`` lists runs through the CLI here.
"""

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
from test_scenario import LOAD_ERRORS, LOAD_TEXT_ERRORS, _edited


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_m16_exact_output_with_check(capsys):
    code, out, err = run_cli(capsys, "--scenario", "m16", "--check")
    assert code == 0
    assert err == ""
    golden = (Path(__file__).parent / "golden" / "m16.exact.txt").read_text(encoding="utf-8")
    assert out == golden + (
        "check double_point_c2 = pass (336 vs 336)\n"
        "check beta_sigma_identity = pass (-6192 vs -6192)\n"
    )


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


def _holds_float(node) -> bool:
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return any(map(_holds_float, node))
    return isinstance(node, float)


def test_bad_scenario_data_exits_1(tmp_path, capsys):
    """Every load error catalogued in ``test_scenario`` through ``cli.main``:
    exit 1, nothing on stdout, and on stderr ``error: `` and the path once
    before the message.

    A document holding a float, or an integer too long to write, is left
    out: as a file, the JSON loader refuses it before the schema sees it.
    """
    cases = list(LOAD_TEXT_ERRORS)
    for edits, message in LOAD_ERRORS:
        data = _edited(edits)
        if not _holds_float(data):
            try:
                cases.append((json.dumps(data), message))
            except ValueError:  # an integer beyond the int-to-string digit limit
                pass
    path = tmp_path / "bad.json"
    expected, got = [], []
    for text, message in cases:
        path.write_text(text)
        expected.append((1, "", f"error: {path}: {message}\n"))
        code = main(["--config", str(path)])
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    assert got == expected


def _scenario_file(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(stg.minimal_data(**overrides)))
    return str(path)


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


def test_base_change_refusal_keeps_its_reason_for_a_long_number(tmp_path, capsys):
    # The family stage gives lambda = 2 and delta = 7; base_delta0 + 1 has 4301 digits.
    base_change = {**BASE_CHANGE, "base_lambda": 2, "base_delta0": "9" * 4300}
    path = _scenario_file(tmp_path, base_change={**base_change, "base_delta_rest": [1]})
    code, out, err = run_cli(capsys, "--config", path, "--check")
    assert code == 1
    assert out == ""
    assert err == (
        "error: base_change delta degrees sum to (not shown: a number has more than "
        "4300 digits), but the family stage's delta = 7\n"
    )


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


def test_usage_errors_exit_1(capsys):
    for argv in ([], ["--scenario", "m99"], ["--scenario", "m15", "--format", "csv"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        capsys.readouterr()


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
