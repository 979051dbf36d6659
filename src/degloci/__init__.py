"""degloci: exact Chern-class computations for degeneracy loci of bundle maps.

The package chains four small exact-arithmetic layers:

- ``chow``: the Chow ring of a product of projective spaces as a truncated
  polynomial ring over the rationals.
- ``bundles``: bundle classes (rank, total Chern class) built from line
  bundles by sums, duals, rank-1 twists, and exact sequences.
- ``degeneracy``: the corrected closed formulas for the virtual Chern numbers
  c_1(Z)^2 and c_2(Z) of a rank-drop locus on a 4-dimensional ambient space,
  with a double-point cross-check that catches an error in one formula alone,
  but not one common to both or a slip in the c(B - A) that both read.
- ``families`` and ``base_change``: the invariants kappa, delta, lambda and
  slope of the induced family of curves, and the corrected behavior of those
  degrees under base change along a pair of multisections.

Everything is computed over ``fractions.Fraction``; no value is ever rounded
except in explicitly requested decimal renderings.  The ``cli`` module and the
bundled scenarios tie the layers together into reproducible reports.

``import degloci`` runs no submodule.  Each one but ``cli`` is put in
``sys.modules`` through ``importlib.util.LazyLoader``, so its source is
compiled and run on the first attribute read from it, and a caller pays only
for the layers it touches: a ring product loads ``chow``, ``errors``,
``exact`` and ``record``, a scenario run loads them all.  ``cli`` is imported
as usual, as ``python -m degloci.cli`` needs.  The names in ``__all__``
resolve through ``__getattr__`` to their submodule's attribute on every read
and are never stored on the package, so a name rebound in its submodule (by
``monkeypatch.setattr``, say) reads the same through ``degloci``.  Python
3.11's ``LazyLoader`` takes no lock: when two threads first touch a submodule
at once, one can read it while the other is still running it, and get
``AttributeError`` for a name not yet defined.  A threaded caller should touch
the submodules it needs (``degloci.scenario.run_scenario`` loads every layer)
before it starts its threads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "1.0.0"

# Each lazily loaded submodule and the names the package exports from it.
_EXPORTS = {
    "base_change": (
        "BaseChangeParams", "PullbackSlope", "beta_delta0_correction", "beta_delta_j",
        "pullback_slope", "relative_omega_degree", "sigma_tilde_self_intersection",
    ),
    "bundles": (
        "BundleClass", "chern", "direct_sum", "dual", "kernel_from_sequence",
        "line_bundle", "trivial_bundle", "twist", "virtual_difference",
    ),
    "chow": ("ChowElement", "ProductSpace", "hyperplane"),
    "degeneracy": (
        "DegeneracyInput", "VirtualChernNumbers", "ambient_tangent_of_product",
        "double_point_check", "virtual_chern_numbers",
    ),
    "errors": (
        "ExpressionError", "InternalCheckError", "NonUnitError", "RankError",
        "ScenarioError", "SlopeUndefinedError", "SpaceMismatchError",
    ),
    "exact": ("as_fraction", "decimal_text"),
    "expressions": ("evaluate_expression", "parse_expression"),
    "families": ("FamilyInvariants", "invariants_from_chern_numbers"),
    "record": (),
    "report": ("Report", "render_decimal", "render_exact", "render_json"),
    "scenario": (
        "BUNDLED_SCENARIOS", "Scenario", "load_bundled_scenario", "load_scenario",
        "resolve_bundles", "run_scenario",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)

for _name in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = globals()[_name] = sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
