"""External per-layer trace: wrap degloci's public functions from outside.

Each traced callable is replaced, for the duration of a ``Tracer`` context,
by a wrapper that records a span ``(name, start, end, parent, item)``.  A
function is replaced in the module that defines it and wherever another
degloci module holds the same object, under a module attribute or as a value
of a module-level dict (``report.RENDERERS``), so both
``degloci.degeneracy.virtual_chern_numbers`` and
``degloci.scenario.virtual_chern_numbers`` are traced.  ``ChowElement``
methods are replaced on the class.  Leaving the context puts every original
back.

Spans stay in memory and are written out once, after the run.  A span's self
time is its duration minus the time covered by its direct children; the
bookkeeping a wrapper does after its callee returns (counting the terms of a
product) is charged to no span.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# span name -> (module, class or None, attribute names)
TARGETS = {
    "chow.init": ("degloci.chow", "ChowElement", ("__init__",)),
    "chow.mul": ("degloci.chow", "ChowElement", ("__mul__", "__rmul__")),
    "chow.add": ("degloci.chow", "ChowElement", ("__add__", "__radd__")),
    "chow.pow": ("degloci.chow", "ChowElement", ("__pow__",)),
    "chow.invert": ("degloci.chow", "ChowElement", ("invert_unit_series",)),
    "chow.graded_part": ("degloci.chow", "ChowElement", ("graded_part",)),
    "bundles.line_bundle": ("degloci.bundles", None, ("line_bundle",)),
    "bundles.twist": ("degloci.bundles", None, ("twist",)),
    "bundles.kernel_from_sequence": ("degloci.bundles", None, ("kernel_from_sequence",)),
    "bundles.direct_sum": ("degloci.bundles", None, ("direct_sum",)),
    "bundles.dual": ("degloci.bundles", None, ("dual",)),
    "bundles.virtual_difference": ("degloci.bundles", None, ("virtual_difference",)),
    "expressions.parse_expression": ("degloci.expressions", None, ("parse_expression",)),
    "scenario.load": ("degloci.scenario", None, ("parse_scenario_data",)),
    "scenario.resolve_bundles": ("degloci.scenario", None, ("resolve_bundles",)),
    "scenario.run_scenario": ("degloci.scenario", None, ("run_scenario",)),
    "degeneracy.virtual_chern_numbers": (
        "degloci.degeneracy", None, ("virtual_chern_numbers",)
    ),
    "degeneracy.double_point_check": ("degloci.degeneracy", None, ("double_point_check",)),
    "degeneracy.ambient_tangent": (
        "degloci.degeneracy", None, ("ambient_tangent_of_product",)
    ),
    "families.invariants": ("degloci.families", None, ("invariants_from_chern_numbers",)),
    "base_change.total": (
        "degloci.base_change",
        None,
        (
            "relative_omega_degree",
            "sigma_tilde_self_intersection",
            "beta_delta0_correction",
            "beta_delta_j",
            "pullback_slope",
        ),
    ),
    "report.render_exact": ("degloci.report", None, ("render_exact",)),
    "report.render_decimal": ("degloci.report", None, ("render_decimal",)),
    "report.render_json": ("degloci.report", None, ("render_json",)),
}


def _degloci_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "degloci" or name.startswith("degloci."))
    ]


def _holders(original):
    """Every (container, key) in degloci's modules that holds ``original``."""
    found = []
    for module in _degloci_modules():
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key))
            elif type(value) is dict:
                found.extend((value, k) for k, v in value.items() if v is original)
    return found


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def patched_names() -> list[str]:
    """Names in degloci that still hold a tracing wrapper (empty when clean)."""
    out = []
    for module in _degloci_modules():
        for key, value in vars(module).items():
            if isinstance(value, type):
                candidates = vars(value).values()
            elif type(value) is dict:
                candidates = value.values()
            else:
                candidates = (value,)
            if any(getattr(v, "__degbench_wrapped__", False) for v in candidates):
                out.append(f"{module.__name__}.{key}")
    return out


class Tracer:
    """Context manager that traces the ``TARGETS`` while it is open."""

    def __init__(self):
        self.names = list(TARGETS)
        self.spans: list = []
        self.item = -1
        self.terms_out = 0
        self.coef_bits_max = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        self._element_type = sys.modules["degloci.chow"].ChowElement
        for name_id, (module_name, cls_name, attrs) in enumerate(TARGETS.values()):
            post = self._count_product if self.names[name_id] == "chow.mul" else None
            for attr in attrs:
                if cls_name is not None:
                    cls = getattr(sys.modules[module_name], cls_name)
                    original = vars(cls)[attr]
                    self._patch(cls, attr, original, self._wrap(name_id, original, post))
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(name_id, original, post)
                for container, key in _holders(original):
                    self._patch(container, key, original, wrapper)
        return self

    def _patch(self, container, key, original, wrapper):
        self._undo.append((container, key, original))
        _set(container, key, wrapper)

    def __exit__(self, *exc):
        while self._undo:
            container, key, original = self._undo.pop()
            _set(container, key, original)
        return False

    # -- recording ---------------------------------------------------------

    def _wrap(self, name_id, fn, post):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.item, end)
            if post is not None:
                post(result)
                spans[index] = (name_id, start, end, parent, tracer.item, clock())
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        traced.__degbench_wrapped__ = True
        return traced

    def _count_product(self, result):
        if isinstance(result, self._element_type):
            terms = result.terms
            self.terms_out += len(terms)
            for c in terms.values():
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.coef_bits_max:
                    self.coef_bits_max = bits

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """{span name: (calls, self_ns)} over every recorded span."""
        covered = defaultdict(int)
        for name_id, start, end, parent, item, cover_end in self.spans:
            if parent >= 0:
                covered[parent] += cover_end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for index, (name_id, start, end, parent, item, cover_end) in enumerate(self.spans):
            calls[name_id] += 1
            self_ns[name_id] += end - start - covered[index]
        return {n: (calls[i], self_ns[i]) for i, n in enumerate(self.names)}

    def write(self, path, header: dict):
        """Write the spans as gzipped JSON lines: a header, then one span a line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({**header, "names": self.names,
                                  "fields": ["name", "start_ns", "end_ns", "parent",
                                             "item"]}) + "\n")
            for name_id, start, end, parent, item, _ in self.spans:
                out.write(f"[{name_id},{start},{end},{parent},{item}]\n")
