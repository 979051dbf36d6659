"""The package surface: 47 names resolved from submodules that load on first use."""

import subprocess
import sys
from pathlib import Path

import pytest

import degloci

# Each submodule and the names the package exports from it.
EXPORTS = {
    "base_change": [
        "BaseChangeParams", "PullbackSlope", "beta_delta0_correction", "beta_delta_j",
        "pullback_slope", "relative_omega_degree", "sigma_tilde_self_intersection",
    ],
    "bundles": [
        "BundleClass", "chern", "direct_sum", "dual", "kernel_from_sequence",
        "line_bundle", "trivial_bundle", "twist", "virtual_difference",
    ],
    "chow": ["ChowElement", "ProductSpace", "hyperplane"],
    "degeneracy": [
        "DegeneracyInput", "VirtualChernNumbers", "ambient_tangent_of_product",
        "double_point_check", "virtual_chern_numbers",
    ],
    "errors": [
        "ExpressionError", "InternalCheckError", "NonUnitError", "RankError",
        "ScenarioError", "SlopeUndefinedError", "SpaceMismatchError",
    ],
    "exact": ["as_fraction", "decimal_text"],
    "expressions": ["evaluate_expression", "parse_expression"],
    "families": ["FamilyInvariants", "invariants_from_chern_numbers"],
    "report": ["Report", "render_decimal", "render_exact", "render_json"],
    "scenario": [
        "BUNDLED_SCENARIOS", "Scenario", "load_bundled_scenario", "load_scenario",
        "resolve_bundles", "run_scenario",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
SUBMODULES = sorted([*EXPORTS, "record"])


def test_all_lists_the_47_exported_names():
    assert len(NAMES) == 47
    assert degloci.__all__ == NAMES


def test_each_name_is_its_submodules_object():
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(degloci, name) is getattr(getattr(degloci, module), name)


def test_star_import_and_dir_cover_every_name():
    namespace = {}
    exec("from degloci import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {
        name: getattr(degloci, name) for name in NAMES
    }
    assert set(NAMES) <= set(dir(degloci))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'degloci' has no attribute 'nope'"):
        degloci.nope
    # The expected class of Z is chern(virtual_difference(B, A), 2); no alias is kept.
    with pytest.raises(AttributeError):
        degloci.degeneracy_class
    assert not hasattr(degloci.degeneracy, "degeneracy_class")


def test_a_name_rebound_in_its_submodule_reads_the_same_through_the_package(monkeypatch):
    # The package must look each name up anew, never keep what it read.
    original = degloci.virtual_chern_numbers

    def replacement(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(degloci.degeneracy, "virtual_chern_numbers", replacement)
    assert degloci.virtual_chern_numbers is replacement
    monkeypatch.undo()
    assert degloci.virtual_chern_numbers is original


def test_a_ring_product_loads_only_the_ring_layers():
    src = str(Path(degloci.__file__).resolve().parents[1])
    probe = (
        f"import sys, types; sys.path.insert(0, {src!r}); import degloci\n"
        f"loaded = lambda: [m for m in {SUBMODULES!r} "
        "if type(getattr(degloci, m)) is types.ModuleType]\n"
        "print(loaded(), 'degloci.cli' in sys.modules)\n"
        "h = degloci.hyperplane(degloci.ProductSpace((1, 3)), 1)\n"
        "print(h * h == h ** 2, loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[] False\nTrue ['chow', 'errors', 'exact', 'record']\n"
