"""The benchmark's tracer patches degloci by name: every name it lists must exist,
and every call to a traced function must go through the name it patches.

``bench/degbench/tracing.TARGETS`` names module functions and ``ChowElement``
methods.  Opening a ``Tracer`` looks each one up, so a renamed or deleted
target raises there (``AttributeError`` for a module attribute, ``KeyError``
for a class attribute), and closing it must put every original back.
"""

import json
from collections import Counter
from importlib import resources
from pathlib import Path

from degloci.cli import main
from degloci.expressions import _OPERATORS, Apply, LineBundleExpr, parse_expression

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from degbench.tracing import Tracer, patched_names

    with Tracer():
        assert patched_names()
    assert patched_names() == []


def test_tracer_counts_every_bundle_and_base_change_call(monkeypatch, capsys):
    """m16 through the CLI with --check, traced: one call of a bundle operation
    per node of that kind in m16's expressions, plus the virtual difference of
    the degeneracy stage, and the base-change calls its block implies.

    A module that binds a traced function where the tracer cannot replace it
    (``expressions._evaluate`` taking the bundle operations at import, say)
    makes these counts fall short.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    from degbench.tracing import Tracer

    text = resources.files("degloci").joinpath("scenarios", "m16.json").read_text("utf-8")
    data = json.loads(text)
    expected = Counter(virtual_difference=1)
    stack = [parse_expression(expr) for expr in data["bundles"].values()]
    while stack:
        node = stack.pop()
        if isinstance(node, LineBundleExpr):
            expected["line_bundle"] += 1
        elif isinstance(node, Apply):
            expected[_OPERATORS[node.op][0]] += 1
            stack += node.args

    with Tracer() as tracer:
        assert main(["--scenario", "m16", "--check"]) == 0
    capsys.readouterr()
    calls = {name: count for name, (count, _) in tracer.layer_totals().items()}
    bundle_calls = {
        name.removeprefix("bundles."): count
        for name, count in calls.items()
        if name.startswith("bundles.")
    }
    assert bundle_calls == {name: expected[name] for name in bundle_calls}
    # Per multisection, sigma_tilde_self_intersection and the
    # relative_omega_degree it reads; then pullback_slope, its
    # beta_delta0_correction and one beta_delta_j per further boundary degree.
    rest = data["base_change"]["base_delta_rest"]
    assert calls["base_change.total"] == 2 * 2 + 2 + len(rest)
