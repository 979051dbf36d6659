"""Deterministic report assembly and rendering.

A report is an ordered list of labeled values (Chow classes, exact rationals,
plain text) plus optional named cross-checks.  Three renderers share the same
entry list: ``exact`` prints rationals as p/q, ``decimal`` re-renders the
rational scalars to 6 significant digits, and ``json`` carries both forms.
Decimal strings are derived from the exact values at render time only, and
every renderer is a pure function of the report, so equal reports produce
byte-identical output.  The JSON document is written by a short recursive
writer that gives the bytes of ``json.dumps(doc, indent=2)``: with ``indent``
set, ``json`` falls back to its pure-Python encoder, which costs several times
more.  A value whose text would need an integer beyond Python's int-to-string
digit limit (4300 digits by default) is refused with a ``ScenarioError``; the
process-wide limit is left as it is.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .chow import ChowElement
from .errors import ScenarioError
from .exact import decimal_text


@dataclass(frozen=True)
class ReportEntry:
    """One labeled value; ``exact`` is None for an undefined rational."""

    key: str
    kind: str
    exact: str | None
    decimal: str | None = None


@dataclass(frozen=True)
class CheckResult:
    key: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Report:
    scenario: str
    space: str
    entries: tuple[ReportEntry, ...]
    checks: tuple[CheckResult, ...] = ()

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def value(self, key: str) -> str | None:
        """Exact text of the entry with the given key (for tests and audits)."""
        for entry in self.entries:
            if entry.key == key:
                return entry.exact
        raise KeyError(key)


def _text(key: str, value: Fraction | ChowElement) -> str:
    try:
        return str(value)
    except ValueError as exc:  # an integer beyond the int-to-string digit limit
        raise ScenarioError(
            f"report: {key}: a number has more than {sys.get_int_max_str_digits()} "
            "digits, the limit for writing an integer as text"
        ) from exc


def rational_entry(key: str, value: Fraction | None) -> ReportEntry:
    if value is None:
        return ReportEntry(key, "rational", None, None)
    return ReportEntry(key, "rational", _text(key, value), decimal_text(value))


def class_entry(key: str, value: ChowElement) -> ReportEntry:
    return ReportEntry(key, "class", _text(key, value))


def text_entry(key: str, value: str) -> ReportEntry:
    return ReportEntry(key, "text", value)


def _lines(report: Report, use_decimal: bool) -> list[str]:
    lines = [f"scenario = {report.scenario}", f"space = {report.space}"]
    for entry in report.entries:
        if entry.exact is None:
            shown = "undefined"
        elif use_decimal and entry.kind == "rational":
            shown = entry.decimal
        else:
            shown = entry.exact
        lines.append(f"{entry.key} = {shown}")
    for check in report.checks:
        verdict = "pass" if check.passed else "FAIL"
        lines.append(f"check {check.key} = {verdict} ({check.detail})")
    return lines


def render_exact(report: Report) -> str:
    return "\n".join(_lines(report, use_decimal=False)) + "\n"


def render_decimal(report: Report) -> str:
    return "\n".join(_lines(report, use_decimal=True)) + "\n"


def render_json(report: Report) -> str:
    values = {}
    for entry in report.entries:
        item: dict = {"kind": entry.kind, "exact": entry.exact}
        if entry.kind == "rational":
            item["decimal"] = entry.decimal
        values[entry.key] = item
    doc: dict = {
        "scenario": report.scenario,
        "space": report.space,
        "values": values,
    }
    if report.checks:
        doc["checks"] = {
            c.key: {"passed": c.passed, "detail": c.detail} for c in report.checks
        }
    return _json(doc, "") + "\n"


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` for the str, dict, bool and None of a report."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = ",\n".join(
            f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
            for k, v in value.items()
        )
        return f"{{\n{items}\n{pad}}}"
    return _JSON_CONSTANTS[value]


RENDERERS = {
    "exact": render_exact,
    "decimal": render_decimal,
    "json": render_json,
}
