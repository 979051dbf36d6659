"""Deterministic report assembly and rendering.

A report is an ordered list of labeled values (Chow classes, exact rationals,
plain text) plus optional named cross-checks.  Three renderers share the same
entry list: ``exact`` prints rationals as p/q, ``decimal`` re-renders the
rational scalars to 6 significant digits, and ``json`` carries both forms.
Decimal strings are derived from the exact values at render time only, and
every renderer is a pure function of the report, so equal reports produce
byte-identical output.  The JSON renderer writes its fixed schema (scenario,
space, values, then checks when there are any) directly, with the bytes of
``json.dumps(doc, indent=2)``: with ``indent`` set, ``json`` falls back to its
pure-Python encoder, which costs several times more.  A value whose text
would need an integer beyond Python's int-to-string digit limit (4300 digits
by default) is refused with a ``ScenarioError``; the process-wide limit is
left as it is.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .chow import ChowElement
from .errors import ScenarioError
from .exact import decimal_text
from .record import Record, _setters


class ReportEntry(Record):
    """One labeled value; ``exact`` is None for an undefined rational."""

    __slots__ = ("key", "kind", "exact", "decimal")

    def __init__(self, key: str, kind: str, exact: str | None, decimal: str | None = None):
        _set_key(self, key)
        _set_kind(self, kind)
        _set_exact(self, exact)
        _set_decimal(self, decimal)


_set_key, _set_kind, _set_exact, _set_decimal = _setters(ReportEntry)


class CheckResult(Record):
    __slots__ = ("key", "passed", "detail")

    def __init__(self, key: str, passed: bool, detail: str):
        self._fill(key, passed, detail)


class Report(Record):
    __slots__ = ("scenario", "space", "entries", "checks")

    def __init__(
        self, scenario: str, space: str, entries: tuple[ReportEntry, ...],
        checks: tuple[CheckResult, ...] = (),
    ):
        self._fill(scenario, space, entries, checks)

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


def graded_entries(key: str, value: ChowElement, degrees: range) -> list[ReportEntry]:
    """``class_entry(key.format(d), value.graded_part(d))`` for d in ``degrees``."""
    try:
        texts = value._graded_texts()
    except ValueError:  # a number too long to print: refuse it under its part's key
        texts = {d: _text(key.format(d), value.graded_part(d)) for d in degrees}
    return [ReportEntry(key.format(d), "class", texts[d]) for d in degrees]


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
    # A repeated key keeps the place of its first entry and the value of its
    # last, as in a dict.
    values = {entry.key: entry for entry in report.entries}
    checks = {check.key: check for check in report.checks}
    out = [
        '{\n  "scenario": ', _quote(report.scenario),
        ',\n  "space": ', _quote(report.space),
        ',\n  "values": ',
    ]
    if values:
        items = []
        for key, entry in values.items():
            item = (
                f'    {_quote(key)}: {{\n      "kind": {_quote(entry.kind)},'
                f'\n      "exact": {_quote(entry.exact)}'
            )
            if entry.kind == "rational":
                item += f',\n      "decimal": {_quote(entry.decimal)}'
            items.append(item + "\n    }")
        out += ["{\n", ",\n".join(items), "\n  }"]
    else:
        out.append("{}")
    if checks:
        items = [
            f'    {_quote(key)}: {{\n      "passed": {"true" if check.passed else "false"},'
            f'\n      "detail": {_quote(check.detail)}\n    }}'
            for key, check in checks.items()
        ]
        out += [',\n  "checks": {\n', ",\n".join(items), "\n  }"]
    out.append("\n}\n")
    return "".join(out)


def _quote(text: str | None) -> str:
    """A JSON string literal, as ``json.dumps`` writes it, or null for None."""
    return "null" if text is None else encode_basestring_ascii(text)


RENDERERS = {
    "exact": render_exact,
    "decimal": render_decimal,
    "json": render_json,
}
