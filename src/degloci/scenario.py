"""Scenario files: schema validation, bundle resolution, pipeline execution.

A scenario is a JSON document describing one complete computation:

    {
      "name": "...",
      "space": [n1, ..., nk],
      "bundles": {"name": "expression", ...},
      "degeneracy": {"a": "name", "b": "name"},
      "family": {"fiber_genus": g, "base_genus": q},
      "base_change": {...},            // optional
      "notes": ["..."]                 // optional, ignored by the pipeline
    }

Rationals are written as integers or "p/q" strings; floating-point literals
are rejected everywhere so no value can silently lose exactness.  The
``base_change`` block carries the multisection data plus the base family's
explicit lambda and delta degrees, which the runner cross-checks against the
family stage of the same scenario before using them.

Loading a scenario resolves its named bundles once, since the rank check
needs them; the loaded ``Scenario`` carries the resolved classes, and
``run_scenario`` reads them from it rather than resolving again.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import cache

from .base_change import (
    BaseChangeParams,
    pullback_slope,
    sigma_tilde_self_intersection,
)
from .bundles import BundleClass
from .chow import ProductSpace
from .degeneracy import (
    DegeneracyInput,
    ambient_tangent_of_product,
    double_point_check,
    virtual_chern_numbers,
)
from .errors import ExpressionError, ScenarioError
from .exact import as_fraction, integer, message_text, refuse
from .expressions import (
    Expression,
    _is_bundle_name,
    _referenced_names,
    evaluate_expression,
    parse_expression,
)
from .families import invariants_from_chern_numbers
from .record import Record
from .report import (
    CheckResult, Report, ReportEntry, class_entry, graded_entries, rational_entry, text_entry,
)

BUNDLED_SCENARIOS = ("m15", "m16")


class Scenario(Record):
    """A validated scenario, ready to run.

    ``bundles`` holds the class of each named bundle of ``bundle_exprs``, as
    ``resolve_bundles`` evaluated it at load: each name after every name it
    refers to.
    """

    __slots__ = (
        "name", "space", "bundle_exprs", "bundles", "degeneracy_a", "degeneracy_b",
        "fiber_genus", "base_genus", "allow_low_genus", "base_change", "notes",
    )

    def __init__(
        self, name: str, space: ProductSpace,
        bundle_exprs: tuple[tuple[str, Expression], ...],
        bundles: tuple[tuple[str, BundleClass], ...],
        degeneracy_a: str, degeneracy_b: str, fiber_genus: int, base_genus: int,
        allow_low_genus: bool, base_change: BaseChangeParams | None,
        notes: tuple[str, ...],
    ):
        self._fill(
            name, space, bundle_exprs, bundles, degeneracy_a, degeneracy_b,
            fiber_genus, base_genus, allow_low_genus, base_change, notes,
        )


_set_bundles = Scenario.bundles.__set__


# -- schema helpers ---------------------------------------------------------
#
# Each helper names the place of a value inside the document ("family.base_genus",
# or None for the document itself); parse_scenario_data adds the source once.


# The integer keys of a base_change block, read in this order, and the
# BaseChangeParams field each one fills.
_BASE_CHANGE_INTS = {
    "m1": "m1", "m2": "m2", "g_a1": "g_A1", "g_a2": "g_A2",
    "a1_sq": "A1_sq", "a2_sq": "A2_sq", "a12": "A12",
}

# The required and optional keys of each object whose keys are fixed.
_OBJECT_KEYS = {
    None: (("name", "space", "bundles", "degeneracy", "family"), ("base_change", "notes")),
    "degeneracy": (("a", "b"), ()),
    "family": (("fiber_genus", "base_genus"), ("allow_low_genus",)),
    "base_change": (
        (*_BASE_CHANGE_INTS, "base_lambda", "base_delta0"),
        ("base_delta_rest", "notes"),
    ),
}


def _fail(where: str | None, message: str):
    raise ScenarioError(f"{where}: {message}" if where else message)


# Per object of fixed keys, the set of its required keys and of all its keys.
_KEY_SETS = {w: (frozenset(r), frozenset(r + o)) for w, (r, o) in _OBJECT_KEYS.items()}


def _as_object(value, where: str | None) -> dict:
    """An object, with no unknown and no missing key if its keys are fixed."""
    if not isinstance(value, dict):
        _fail(where, f"expected an object, got {type(value).__name__}")
    # Two set comparisons; the keys at fault are listed only for a refusal.
    if where in _KEY_SETS and not _KEY_SETS[where][0] <= value.keys() <= _KEY_SETS[where][1]:
        required, optional = _OBJECT_KEYS[where]
        unknown = sorted(set(value) - set(required) - set(optional))
        if unknown:
            _fail(where, f"unknown key(s) {', '.join(map(repr, unknown))}")
        missing = [k for k in required if k not in value]
        _fail(where, f"missing required key(s) {', '.join(map(repr, missing))}")
    return value


def _as_list(value, where: str, what: str, *, nonempty: bool = False) -> list:
    if not isinstance(value, list) or (nonempty and not value):
        _fail(where, f"expected a {what}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str) or not value.strip():
        refuse(value, f"{where}: expected a nonempty string", ScenarioError)
    return value


def _as_int(value, where: str) -> int:
    # The refusal text is built only for a value that is not a plain int.
    if value.__class__ is int:
        return value
    return integer(value, f"{where}: expected an integer", error=ScenarioError)


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        refuse(value, f"{where}: expected true or false", ScenarioError)
    return value


def _as_rational(value, where: str) -> Fraction:
    try:
        return as_fraction(value)
    except (TypeError, ValueError):
        refuse(value, f"{where}: expected an integer or 'p/q' string", ScenarioError)


def _notes_list(value, where: str) -> tuple[str, ...]:
    return tuple(_as_str(n, where) for n in _as_list(value, where, "list of strings"))


def _reject_float(text: str):
    raise ScenarioError(
        f"floating-point literal {text!r} is not allowed; use an integer or a 'p/q' string"
    )


class _Stage:
    """A context that relabels a ValueError or ZeroDivisionError from an inner
    module as a ScenarioError naming the stage; a ScenarioError passes through."""

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, traceback):
        # An InternalCheckError is an AssertionError, so it passes through too.
        relabel = isinstance(exc, (ValueError, ZeroDivisionError))
        if relabel and not isinstance(exc, ScenarioError):
            raise ScenarioError(f"{self.label}: {exc}") from exc


# A stage's context holds only its label, so one per label serves every use.
_stage = cache(_Stage)


# -- parsing ----------------------------------------------------------------


def parse_scenario_data(data, source: str = "<scenario>") -> Scenario:
    """Validate a decoded JSON document and return a runnable Scenario.

    Every error names ``source`` once, then the faulty place in the document.
    """
    try:
        scenario = _read_document(data)
        # Stored before the record escapes, so it is built once.
        _set_bundles(scenario, _validate(scenario))
        return scenario
    except ScenarioError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc


def _read_document(data) -> Scenario:
    top = _as_object(data, None)

    name = _as_str(top["name"], "name")
    # A report is one "key = value" line each, so a line break would forge lines.
    if name.splitlines() != [name]:
        refuse(name, "name: expected a single line", ScenarioError)

    dims = _as_list(top["space"], "space", "nonempty list of dimensions", nonempty=True)
    with _stage("space"):
        space = ProductSpace(tuple(_as_int(n, "space") for n in dims))

    bundles_raw = _as_object(top["bundles"], "bundles")
    if not bundles_raw:
        _fail("bundles", "at least one bundle is required")
    bundle_exprs = []
    for bname, expr in bundles_raw.items():
        if not _is_bundle_name(bname):
            _fail("bundles", f"{bname!r} is not a usable bundle name")
        text = _as_str(expr, f"bundles.{bname}")
        try:
            bundle_exprs.append((bname, parse_expression(text)))
        except ExpressionError as exc:
            raise ScenarioError(f"bundles.{bname}: {exc}") from exc

    degen = _as_object(top["degeneracy"], "degeneracy")
    a_name = _as_str(degen["a"], "degeneracy.a")
    b_name = _as_str(degen["b"], "degeneracy.b")
    for key, value in (("a", a_name), ("b", b_name)):
        if value not in bundles_raw:
            _fail(f"degeneracy.{key}", f"{value!r} is not a defined bundle name")

    family = _as_object(top["family"], "family")
    fiber_genus = _as_int(family["fiber_genus"], "family.fiber_genus")
    base_genus = _as_int(family["base_genus"], "family.base_genus")
    allow_low_genus = _as_bool(
        family.get("allow_low_genus", False), "family.allow_low_genus"
    )

    base_change = None
    if "base_change" in top:
        bc = _as_object(top["base_change"], "base_change")
        rest_raw = bc.get("base_delta_rest", [])
        _as_list(rest_raw, "base_change.base_delta_rest", "list of rationals")
        _notes_list(bc.get("notes", []), "base_change.notes")
        with _stage("base_change"):
            base_change = BaseChangeParams(
                **{
                    field: _as_int(bc[key], f"base_change.{key}")
                    for key, field in _BASE_CHANGE_INTS.items()
                },
                base_genus=base_genus,
                base_lambda=_as_rational(bc["base_lambda"], "base_change.base_lambda"),
                base_delta0=_as_rational(bc["base_delta0"], "base_change.base_delta0"),
                base_delta_rest=tuple(
                    _as_rational(d, "base_change.base_delta_rest") for d in rest_raw
                ),
            )

    return Scenario(
        name=name,
        space=space,
        bundle_exprs=tuple(bundle_exprs),
        bundles=(),  # resolved by _validate
        degeneracy_a=a_name,
        degeneracy_b=b_name,
        fiber_genus=fiber_genus,
        base_genus=base_genus,
        allow_low_genus=allow_low_genus,
        base_change=base_change,
        notes=_notes_list(top.get("notes", []), "notes"),
    )


def _validate(scenario: Scenario) -> tuple[tuple[str, BundleClass], ...]:
    """Check the cross-field invariants that need bundle resolution.

    Returns the resolved bundles, in the order ``resolve_bundles`` evaluated
    them.
    """
    if scenario.space.total_dimension != 4:
        expected = "space: the degeneracy pipeline needs total dimension 4"
        refuse(scenario.space.total_dimension, expected, ScenarioError)
    env = resolve_bundles(scenario)
    A = env[scenario.degeneracy_a]
    B = env[scenario.degeneracy_b]
    if B.rank != A.rank + 1:
        _fail(
            "degeneracy",
            f"rank of {scenario.degeneracy_b!r} must be "
            f"rank of {scenario.degeneracy_a!r} plus 1, "
            f"got {message_text(B.rank)} and {message_text(A.rank)}",
        )
    return tuple(env.items())


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    path = _path_text(path)
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return _parse_text(text, path)


def _path_text(path) -> str:
    """``str(pathlib.Path(path))`` on POSIX, without importing ``pathlib``: empty
    and ``.`` segments and a trailing slash are dropped, and a root of exactly
    two slashes is kept, so ``./x.json`` reads ``x.json``."""
    text = os.fspath(path)
    if not isinstance(text, str):
        raise TypeError(
            "argument should be a str object or an os.PathLike object returning str, "
            f"not {type(text)!r}"
        )
    rel = text.lstrip("/")
    root = "//" if len(text) - len(rel) == 2 else "/" if rel != text else ""
    return root + "/".join(p for p in rel.split("/") if p not in ("", ".")) or "."


def load_bundled_scenario(name: str) -> Scenario:
    """Load one of the scenarios shipped with the package."""
    if name not in BUNDLED_SCENARIOS:
        raise ScenarioError(
            f"unknown bundled scenario {name!r}; available: {', '.join(BUNDLED_SCENARIOS)}"
        )
    # Through the package's loader, which can also read from a zip archive.
    path = os.path.join(os.path.dirname(__file__), "scenarios", f"{name}.json")
    text = sys.modules[__package__].__loader__.get_data(path).decode("utf-8")
    return _parse_text(text, f"bundled scenario {name!r}")


def _parse_text(text: str, source: str) -> Scenario:
    try:
        data = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except ScenarioError as exc:  # a floating-point literal
        raise ScenarioError(f"{source}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer beyond the digit limit
        raise ScenarioError(f"{source}: not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nested array or object
        raise ScenarioError(
            f"{source}: not valid JSON: arrays or objects nested too deeply"
        ) from exc
    return parse_scenario_data(data, source)


# -- bundle resolution ------------------------------------------------------


def resolve_bundles(scenario: Scenario) -> dict[str, BundleClass]:
    """Evaluate every named bundle expression, catching unknown names and cycles.

    An undefined name is reported first, under the bundle that refers to it.
    Then a depth-first walk starts from each name in file order and evaluates
    each name once every name it refers to is resolved, taking the references
    in the order evaluation reaches them.  The walk keeps its path in a dict
    used as an explicit stack, so a long chain of references costs no
    recursion, and a name met again on its own path closes a cycle, reported
    under that name, where the walk entered the cycle.
    """
    asts = dict(scenario.bundle_exprs)
    refs = {bname: _referenced_names(ast) for bname, ast in asts.items()}
    for bname, names in refs.items():
        for ref in names:
            if ref not in asts:
                raise ScenarioError(f"bundles.{bname}: undefined bundle name {ref!r}")

    resolved: dict[str, BundleClass] = {}
    for root in asts:
        if root in resolved:
            continue
        # The names being resolved, each referring to the next, with the
        # references each has left to visit.
        path = {root: iter(refs[root])}
        while path:
            bname = next(reversed(path))
            ref = next((r for r in path[bname] if r not in resolved), None)
            if ref is None:
                del path[bname]
                try:
                    resolved[bname] = evaluate_expression(
                        asts[bname], scenario.space, resolved.__getitem__
                    )
                except (ExpressionError, ValueError) as exc:
                    raise ScenarioError(f"bundles.{bname}: {exc}") from exc
            elif ref in path:
                names = list(path)
                cycle = names[names.index(ref):] + [ref]
                raise ScenarioError(
                    f"bundles.{ref}: bundle reference cycle: {' -> '.join(cycle)}"
                )
            else:
                path[ref] = iter(refs[ref])
    return resolved


# -- pipeline ---------------------------------------------------------------


@cache
def _tangent_entries(space: ProductSpace) -> tuple[ReportEntry, ReportEntry]:
    """The c1(M) and c2(M) report entries: immutable, printed once per space."""
    tangent_c1, tangent_c2 = ambient_tangent_of_product(space)
    return class_entry("c1(M)", tangent_c1), class_entry("c2(M)", tangent_c2)


def run_scenario(scenario: Scenario, *, check: bool = False) -> Report:
    """Run the full pipeline and assemble the deterministic report.

    The bundle pair comes from ``scenario.bundles``, resolved when the
    scenario was loaded, and the degeneracy formulas are evaluated once.
    With ``check`` the report also carries the double-point cross-check of
    c_2(Z), computed from those same numbers, Noether's integrality
    12 | c_1(Z)^2 + c_2(Z) (lambda is the integer chi(O_Z)), and, when a
    base-change block is present, the identity between the delta_0
    correction and the sum of section self-intersections.
    """
    with _stage("space"):
        tangent_c1, tangent_c2 = ambient_tangent_of_product(scenario.space)
    entries = list(_tangent_entries(scenario.space))

    bundles = dict(scenario.bundles)
    A = bundles[scenario.degeneracy_a]
    B = bundles[scenario.degeneracy_b]
    entries.append(
        text_entry("degeneracy", f"{scenario.degeneracy_a} -> {scenario.degeneracy_b}")
    )
    entries.append(rational_entry("rank(A)", Fraction(A.rank)))
    entries.append(rational_entry("rank(B)", Fraction(B.rank)))

    with _stage("degeneracy"):
        inp = DegeneracyInput(scenario.space, tangent_c1, tangent_c2, A, B)
        numbers = virtual_chern_numbers(inp)
    entries += graded_entries("c{}(B-A)", numbers.difference.total_chern, range(1, 5))
    entries.append(rational_entry("c1(Z)^2", numbers.c1_sq))
    entries.append(rational_entry("c2(Z)", numbers.c2))

    with _stage("family"):
        fam = invariants_from_chern_numbers(
            numbers.c1_sq,
            numbers.c2,
            scenario.fiber_genus,
            scenario.base_genus,
            allow_low_genus=scenario.allow_low_genus,
        )
    entries.append(rational_entry("kappa", fam.kappa))
    entries.append(rational_entry("delta", fam.delta))
    entries.append(rational_entry("lambda", fam.lambda_))
    entries.append(rational_entry("slope", fam.slope))

    checks = []
    if scenario.base_change is not None:
        params = scenario.base_change
        with _stage("base_change"):
            if params.base_lambda != fam.lambda_:
                raise ScenarioError(
                    f"base_change.base_lambda = {message_text(params.base_lambda)} "
                    f"does not match the family stage's lambda = {message_text(fam.lambda_)}"
                )
            delta_total = sum(params.base_delta_rest, params.base_delta0)
            if delta_total != fam.delta:
                raise ScenarioError(
                    f"base_change delta degrees sum to {message_text(delta_total)}, but "
                    f"the family stage's delta = {message_text(fam.delta)}"
                )
            sigma = tuple(sigma_tilde_self_intersection(params, ell) for ell in (1, 2))
            pb = pullback_slope(params)
        entries.append(rational_entry("sigma_tilde_1^2", sigma[0]))
        entries.append(rational_entry("sigma_tilde_2^2", sigma[1]))
        entries.append(rational_entry("beta_delta0_correction", pb.delta0_correction))
        entries.append(rational_entry("lambda_B", pb.lambda_B))
        entries.append(rational_entry("delta0_B", pb.delta0_B))
        entries.append(rational_entry("delta1_B", pb.delta1_B))
        for j, value in enumerate(pb.delta_rest_B, start=2):
            entries.append(rational_entry(f"delta{j}_B", value))
        entries.append(rational_entry("slope_B", pb.slope))

    if check:
        with _stage("check"):
            dp = double_point_check(inp, numbers)
        checks.append(
            CheckResult("double_point_c2", dp == numbers.c2, f"{dp} vs {numbers.c2}")
        )
        s = numbers.c1_sq + numbers.c2
        checks.append(
            CheckResult("noether_lambda", s % 12 == 0, f"c1(Z)^2 + c2(Z) = {message_text(s)}")
        )
        if scenario.base_change is not None:
            correction, rhs = pb.delta0_correction, sigma[0] + sigma[1]
            checks.append(
                CheckResult(
                    "beta_sigma_identity", correction == rhs, f"{correction} vs {rhs}"
                )
            )

    return Report(
        scenario=scenario.name,
        space=str(scenario.space),
        entries=tuple(entries),
        checks=tuple(checks),
    )
