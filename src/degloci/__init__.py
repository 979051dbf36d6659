"""degloci: exact Chern-class computations for degeneracy loci of bundle maps.

The package chains four small exact-arithmetic layers:

- ``chow``: the Chow ring of a product of projective spaces as a truncated
  polynomial ring over the rationals.
- ``bundles``: bundle classes (rank, total Chern class) built from line
  bundles by sums, duals, rank-1 twists, and exact sequences.
- ``degeneracy``: the corrected closed formulas for the virtual Chern numbers
  c_1(Z)^2 and c_2(Z) of a rank-drop locus on a 4-dimensional ambient space,
  with a double-point cross-check that catches a slip in the ring arithmetic
  or an error in one formula alone, but not an error common to both.
- ``families`` and ``base_change``: the invariants kappa, delta, lambda and
  slope of the induced family of curves, and the corrected behavior of those
  degrees under base change along a pair of multisections.

Everything is computed over ``fractions.Fraction``; no value is ever rounded
except in explicitly requested decimal renderings.  The ``cli`` module and the
bundled scenarios tie the layers together into reproducible reports.
"""

from .base_change import (
    BaseChangeParams,
    PullbackSlope,
    beta_delta0_correction,
    beta_delta_j,
    pullback_slope,
    relative_omega_degree,
    sigma_tilde_self_intersection,
)
from .bundles import (
    BundleClass,
    chern,
    direct_sum,
    dual,
    kernel_from_sequence,
    line_bundle,
    trivial_bundle,
    twist,
    virtual_difference,
)
from .chow import ChowElement, ProductSpace, hyperplane
from .degeneracy import (
    DegeneracyInput,
    VirtualChernNumbers,
    ambient_tangent_of_product,
    degeneracy_class,
    double_point_check,
    virtual_chern_numbers,
)
from .errors import (
    ExpressionError,
    InternalCheckError,
    NonUnitError,
    RankError,
    ScenarioError,
    SlopeUndefinedError,
    SpaceMismatchError,
)
from .exact import as_fraction, decimal_text
from .expressions import evaluate_expression, parse_expression
from .families import FamilyInvariants, invariants_from_chern_numbers
from .report import Report, render_decimal, render_exact, render_json
from .scenario import (
    BUNDLED_SCENARIOS,
    Scenario,
    load_bundled_scenario,
    load_scenario,
    resolve_bundles,
    run_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "BUNDLED_SCENARIOS",
    "BaseChangeParams",
    "BundleClass",
    "ChowElement",
    "DegeneracyInput",
    "ExpressionError",
    "FamilyInvariants",
    "InternalCheckError",
    "NonUnitError",
    "ProductSpace",
    "PullbackSlope",
    "RankError",
    "Report",
    "Scenario",
    "ScenarioError",
    "SlopeUndefinedError",
    "SpaceMismatchError",
    "VirtualChernNumbers",
    "ambient_tangent_of_product",
    "as_fraction",
    "beta_delta0_correction",
    "beta_delta_j",
    "chern",
    "decimal_text",
    "degeneracy_class",
    "direct_sum",
    "double_point_check",
    "dual",
    "evaluate_expression",
    "hyperplane",
    "invariants_from_chern_numbers",
    "kernel_from_sequence",
    "line_bundle",
    "load_bundled_scenario",
    "load_scenario",
    "parse_expression",
    "pullback_slope",
    "relative_omega_degree",
    "render_decimal",
    "render_exact",
    "render_json",
    "resolve_bundles",
    "run_scenario",
    "sigma_tilde_self_intersection",
    "trivial_bundle",
    "twist",
    "virtual_chern_numbers",
    "virtual_difference",
]
