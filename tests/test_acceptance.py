"""Acceptance gate: the seven primary criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
directly; each criterion prints `[criterion N] <label>: PASS|FAIL` and then
asserts, so a failure is visible both in the line and in the pytest output.

Criterion 6 is the only runner of the randomized suites in ``properties``; no
topic test module runs them again.
"""

import pathlib
import time
from fractions import Fraction

import properties
from degloci import (
    beta_delta0_correction,
    decimal_text,
    load_bundled_scenario,
    render_exact,
    render_json,
    run_scenario,
)
from degloci.report import RENDERERS


def _verdict(num: int, label: str, checks):
    failing = [desc for desc, ok in checks if not ok]
    passed = not failing
    print(f"[criterion {num}] {label}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({label}); failing checks: {failing}"


def test_criterion_1_m15_pipeline():
    report = run_scenario(load_bundled_scenario("m15"))
    checks = [
        ("c1(Z)^2 = 216", report.value("c1(Z)^2") == "216"),
        ("c2(Z) = 336", report.value("c2(Z)") == "336"),
        ("kappa = 328", report.value("kappa") == "328"),
        ("delta = 392", report.value("delta") == "392"),
        ("lambda = 60", report.value("lambda") == "60"),
        ("slope = 98/15", report.value("slope") == "98/15"),
    ]
    _verdict(1, "m15 pipeline reproduces all six values exactly", checks)


def test_criterion_2_m16_pipeline():
    report = run_scenario(load_bundled_scenario("m16"))
    checks = [
        ("sigma_tilde_1^2 = -3096", report.value("sigma_tilde_1^2") == "-3096"),
        ("sigma_tilde_2^2 = -3096", report.value("sigma_tilde_2^2") == "-3096"),
        ("lambda_B = 60*14^2 = 11760", report.value("lambda_B") == "11760"),
        ("delta1_B = 16", report.value("delta1_B") == "16"),
        ("slope_B = 1472/245", report.value("slope_B") == "1472/245"),
        (
            "decimal rendering 6.00816",
            decimal_text(Fraction(1472, 245)) == "6.00816",
        ),
    ]
    _verdict(2, "m16 pipeline reproduces the base-change values exactly", checks)


def test_criterion_3_corrected_formula_identity():
    params = load_bundled_scenario("m16").base_change
    correction = beta_delta0_correction(params)
    combined = correction + params.A12
    checks = [
        ("correction = -6192", correction == -6192),
        ("combined delta correction = -6176", combined == -6176),
        ("matches -2*(14*220+16)+16", combined == -2 * (14 * 220 + 16) + 16),
    ]
    _verdict(3, "corrected delta_0 formula matches the anchored expression", checks)


def test_criterion_4_geometric_degree_audit():
    from degloci import (
        DegeneracyInput,
        ambient_tangent_of_product,
        degeneracy_class,
        hyperplane,
        resolve_bundles,
    )

    scenario = load_bundled_scenario("m15")
    env = resolve_bundles(scenario)
    c1, c2 = ambient_tangent_of_product(scenario.space)
    inp = DegeneracyInput(scenario.space, c1, c2, env["A"], env["B"])
    cls = degeneracy_class(inp)
    h1 = hyperplane(scenario.space, 1)
    h2 = hyperplane(scenario.space, 2)
    checks = [
        ("class = 16*H1*H2 + 14*H2^2", str(cls) == "16*H1*H2 + 14*H2^2"),
        ("pairing with H1*H2 = 14", (cls * h1 * h2).integrate() == 14),
        ("pairing with H2^2 = 16", (cls * h2**2).integrate() == 16),
    ]
    _verdict(4, "degeneracy class pairs to the quoted geometric degrees", checks)


def test_criterion_5_oracle_equivalence():
    from degloci import (
        DegeneracyInput,
        ambient_tangent_of_product,
        direct_sum,
        double_point_check,
        line_bundle,
        resolve_bundles,
        trivial_bundle,
        virtual_chern_numbers,
    )
    from degloci.chow import ProductSpace

    scenario = load_bundled_scenario("m15")
    env = resolve_bundles(scenario)
    c1, c2 = ambient_tangent_of_product(scenario.space)
    m15_inp = DegeneracyInput(scenario.space, c1, c2, env["A"], env["B"])

    space = ProductSpace((1, 3))
    small_inp = DegeneracyInput(
        space,
        *ambient_tangent_of_product(space),
        trivial_bundle(space),
        direct_sum(line_bundle(space, (1, 0)), line_bundle(space, (0, 1))),
    )
    m15 = virtual_chern_numbers(m15_inp)
    small = virtual_chern_numbers(small_inp)
    checks = [
        ("double_point_check(m15) = 336", double_point_check(m15_inp, m15) == 336),
        (
            "agrees with virtual_chern_numbers(m15).c2",
            double_point_check(m15_inp, m15) == m15.c2,
        ),
        ("small instance c2 = 3 directly", small.c2 == 3),
        (
            "small instance c2 = 3 via double point",
            double_point_check(small_inp, small) == 3,
        ),
    ]
    _verdict(5, "double-point cross-check agrees on both anchored instances", checks)


def test_criterion_6_property_suites():
    failures = []
    for name, suite in properties.ALL_SUITES:
        try:
            suite()
        except Exception as exc:  # hypothesis failures include asserts
            # Hypothesis attaches the falsifying example as a note.
            notes = "; ".join(getattr(exc, "__notes__", ()))
            failures.append((f"{name}: {exc!r}; {notes}", False))
    checks = failures or [("all randomized suites (200 cases each, dense kernel 40)", True)]
    _verdict(6, "randomized property suites hold at 200 cases each (dense kernel 40)", checks)


def test_criterion_7_determinism():
    checks = []
    for name in ("m15", "m16"):
        started = time.perf_counter()
        first = run_scenario(load_bundled_scenario(name), check=True)
        elapsed = time.perf_counter() - started
        second = run_scenario(load_bundled_scenario(name), check=True)
        checks.append(
            (f"{name} exact renders byte-identical", render_exact(first) == render_exact(second))
        )
        checks.append(
            (f"{name} json renders byte-identical", render_json(first) == render_json(second))
        )
        checks.append((f"{name} reports equal", first == second))
        checks.append((f"{name} pipeline under 1 second", elapsed < 1.0))
        plain = run_scenario(load_bundled_scenario(name))
        for fmt, suffix in (("exact", "exact.txt"), ("decimal", "decimal.txt"), ("json", "json")):
            golden = (
                pathlib.Path(__file__).parent / "golden" / f"{name}.{suffix}"
            ).read_text(encoding="utf-8")
            checks.append(
                (f"{name} {fmt} matches committed golden", RENDERERS[fmt](plain) == golden)
            )
    _verdict(7, "reports are deterministic and match the committed goldens", checks)
