"""CLI behavior: flags, exit codes and hostile files.

Each format's output is pinned by ``test_golden``; each load error that the
catalogue in ``test_scenario`` lists runs through the CLI here.
"""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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
        "check noether_lambda = pass (c1(Z)^2 + c2(Z) = 552)\n"
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


def test_slope_of_a_family_with_lambda_zero_is_undefined(tmp_path, capsys):
    # m15 with fiber genus 47 over a genus-2 base: kappa + delta = 0.
    m15 = Path(degloci.__file__).parent / "scenarios" / "m15.json"
    data = json.loads(m15.read_text(encoding="utf-8"))
    data["family"] = {"fiber_genus": 47, "base_genus": 2}
    path = tmp_path / "lambda0.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for fmt in ("exact", "decimal"):
        code, out, err = run_cli(capsys, "--config", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        assert "\nlambda = 0\nslope = undefined\n" in out
    code, out, err = run_cli(capsys, "--config", str(path), "--format", "json")
    assert (code, err) == (0, "")
    values = json.loads(out)["values"]
    assert values["lambda"]["exact"] == "0"
    assert values["slope"] == {"kind": "rational", "exact": None, "decimal": None}


def test_missing_config_exits_1(capsys):
    code, out, err = run_cli(capsys, "--config", "/no/such/file.json")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read scenario file {path}: 'utf-8' codec")
    assert "Traceback" not in err


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


@pytest.mark.parametrize(
    "name, encoding",
    [("m15 \u00e9", "ascii"), ("\ud800", "utf-8")],
    ids=["ascii", "lone surrogate"],
)
def test_report_that_stdout_cannot_encode_exits_1(tmp_path, name, encoding):
    """Exact and decimal reports print the name as it is; JSON escapes it."""
    path = _scenario_file(tmp_path, name=name)
    for output_format, expected in (("exact", 1), ("decimal", 1), ("json", 0)):
        out, err = io.TextIOWrapper(io.BytesIO(), encoding=encoding), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", path, "--format", output_format])
        out.flush()
        assert code == expected
        if expected:
            assert out.buffer.getvalue() == b""
            assert err.getvalue().startswith("error: cannot write the report: ")
        else:
            assert json.loads(out.buffer.getvalue())["scenario"] == name
            assert err.getvalue() == ""


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["closed pipe", "full device", "closed stdout"])
def test_report_that_cannot_be_written_exits_1_without_a_traceback(target, buffered):
    """A pipe with no reader, a full device and a closed stdout each end in one
    error line and exit 1, with nothing printed when the interpreter exits."""
    src = str(Path(degloci.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "degloci.cli", "--scenario", "m16"]
    run = partial(subprocess.run, stderr=subprocess.PIPE, text=True, env=env)
    if target == "closed pipe":
        reader, writer = os.pipe()
        os.close(reader)
        with open(writer, "wb") as stdout:
            proc = run(argv, stdout=stdout)
        reason = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    elif target == "full device":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as stdout:
            proc = run(argv, stdout=stdout)
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    else:
        proc = run(["sh", "-c", 'exec "$@" >&-', "sh", *argv])
        reason = "standard output is closed"
    assert (proc.returncode, proc.stderr) == (1, f"error: cannot write the report: {reason}\n")


def test_noether_check_fails_on_an_error_common_to_both_formulas(monkeypatch, capsys):
    """Adding 1 to both c1(Z)^2 and c2(Z) keeps the double-point identity."""
    numbers = degloci.scenario.virtual_chern_numbers

    def shifted(inp):
        n = numbers(inp)
        return n._replace(c1_sq=n.c1_sq + 1, c2=n.c2 + 1)

    monkeypatch.setattr(degloci.scenario, "virtual_chern_numbers", shifted)
    code, out, err = run_cli(capsys, "--scenario", "m15", "--check")
    assert code == 2
    assert "check double_point_c2 = pass (337 vs 337)\n" in out
    assert "check noether_lambda = FAIL (c1(Z)^2 + c2(Z) = 554)\n" in out
    assert err == "error: cross-checks failed\n"


def test_noether_line_survives_a_sum_too_long_to_print(monkeypatch, capsys):
    """c1(Z)^2 and c2(Z) print with 4300 digits each; their sum has 4301."""
    big = Fraction(6 * 10**4299)
    numbers = degloci.scenario.virtual_chern_numbers
    monkeypatch.setattr(
        degloci.scenario,
        "virtual_chern_numbers",
        lambda inp: numbers(inp)._replace(c1_sq=big, c2=big),
    )
    monkeypatch.setattr(degloci.scenario, "double_point_check", lambda inp, n: n.c2)
    code, out, err = run_cli(capsys, "--scenario", "m15", "--check")
    assert (code, err) == (0, "")
    assert out.endswith(
        "check noether_lambda = pass (c1(Z)^2 + c2(Z) = "
        "(not shown: a number has more than 4300 digits))\n"
    )


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


# The sum base_delta0 + 1/2 has a numerator of 4301 digits, too long to print,
# in the refusal of the delta degrees; the generator rarely reaches it.
_LONG_DELTA_SUM = json.dumps(
    stg.minimal_data(
        base_change={
            **BASE_CHANGE, "base_lambda": 2, "base_delta0": "9" * 4300,
            "base_delta_rest": ["1/2"],
        }
    )
)

_M15 = Path(degloci.__file__).parent / "scenarios" / "m15.json"
# m15 with a name that would print a forged "slope = 7" line before the real one.
_FORGED_SLOPE = json.dumps({**json.loads(_M15.read_text()), "name": "m15\nslope = 7"})


@settings(max_examples=40, deadline=None)
@given(stg.hostile_scenario_texts(), st.sampled_from(sorted(RENDERERS)))
@example(_LONG_DELTA_SUM, "exact")
@example(_FORGED_SLOPE, "exact")
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
    # Exact and decimal reports are two header lines, then one line per entry and check.
    if code == 0 and output_format != "json":
        lines = out.getvalue().splitlines()
        assert len(lines) == 2 + len(report.entries) + len(report.checks)
    # Python's digit-limit text replaces a refusal's reason, except where
    # the JSON parser's own message is quoted.
    limit_text = err.getvalue().find("for integer string conversion")
    assert limit_text == -1 or -1 < err.getvalue().find("not valid JSON: ") < limit_text


def test_usage_errors_exit_1(capsys):
    for argv in ([], ["--scenario", "m99"], ["--scenario", "m15", "--format", "csv"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        capsys.readouterr()


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_m16_check_as_a_process(flags):
    # ``python -m`` needs cli's own loader; a lazily registered cli makes
    # runpy warn on stderr.
    src = str(Path(degloci.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "degloci.cli", "--scenario", "m16", "--check"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    golden = (Path(__file__).parent / "golden" / "m16.exact.txt").read_text(encoding="utf-8")
    lines = proc.stdout.splitlines(keepends=True)
    assert "".join(line for line in lines if not line.startswith("check ")) == golden
    assert sum(line.startswith("check ") for line in lines) == 3


def test_cold_start_imports_no_code_introspection_modules():
    # dataclasses imports inspect, which imports ast, dis and tokenize;
    # importlib.resources and pathlib import the rest of the set.  The CLI
    # needs none of them, and on a fresh interpreter each one costs time.
    src = str(Path(degloci.__file__).resolve().parents[1])
    unwanted = {
        "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "pathlib",
        "importlib.resources", "importlib.readers", "tempfile", "shutil", "zipfile",
        "bz2", "lzma", "zlib", "random", "threading", "weakref", "urllib", "ipaddress",
        "fnmatch", "ntpath", "struct", "binascii", "bisect", "errno",
    }
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import degloci.cli; "
        f"print(sorted({unwanted!r} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
