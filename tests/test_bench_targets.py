"""The benchmark's tracer patches degloci by name: every name it lists must exist.

``bench/degbench/tracing.TARGETS`` names module functions and ``ChowElement``
methods.  Opening a ``Tracer`` looks each one up, so a renamed or deleted
target raises there (``AttributeError`` for a module attribute, ``KeyError``
for a class attribute), and closing it must put every original back.
"""

from pathlib import Path

import degloci  # noqa: F401  (the tracer patches the modules this imports)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from degbench.tracing import Tracer, patched_names

    with Tracer():
        assert patched_names()
    assert patched_names() == []
