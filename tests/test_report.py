"""Report rendering: the JSON writer against the standard library's encoder."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from degloci.report import CheckResult, Report, ReportEntry, render_json

# Quotes, backslashes, control characters, non-ASCII, a lone surrogate and an
# astral character: everything the encoder escapes.
_SPECIAL = '"\\/\n\t\x00\x1f\x7fé\u2028\udc80😀a'
texts = st.one_of(st.text(max_size=12), st.text(st.sampled_from(_SPECIAL), max_size=12))
# A small pool of keys, so that entries and checks repeat keys.
keys = st.one_of(st.sampled_from(["c1(M)", "slope", 'k"\\']), texts)


@st.composite
def entries(draw):
    kind = draw(st.sampled_from(["rational", "class", "text"]))
    exact = draw(st.one_of(st.none(), texts))
    decimal = draw(st.one_of(st.none(), texts)) if kind == "rational" else None
    return ReportEntry(draw(keys), kind, exact, decimal)


reports = st.builds(
    Report,
    scenario=texts,
    space=texts,
    entries=st.lists(entries(), max_size=6).map(tuple),
    checks=st.lists(
        st.builds(CheckResult, keys, st.booleans(), texts), max_size=3
    ).map(tuple),
)


def _doc(report: Report) -> dict:
    values = {}
    for entry in report.entries:
        item = {"kind": entry.kind, "exact": entry.exact}
        if entry.kind == "rational":
            item["decimal"] = entry.decimal
        values[entry.key] = item
    doc = {"scenario": report.scenario, "space": report.space, "values": values}
    if report.checks:
        doc["checks"] = {
            c.key: {"passed": c.passed, "detail": c.detail} for c in report.checks
        }
    return doc


@settings(max_examples=200, deadline=None)
@given(reports)
def test_render_json_matches_json_dumps(report):
    assert render_json(report) == json.dumps(_doc(report), indent=2) + "\n"
