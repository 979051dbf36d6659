"""The package's value classes: equality, hashing, immutability, copies and
pickles, repr and ``_replace``, one parametrized case per class."""

import copy
import pickle
from fractions import Fraction

import pytest

from degloci import (
    BaseChangeParams,
    ChowElement,
    DegeneracyInput,
    FamilyInvariants,
    ProductSpace,
    PullbackSlope,
    Report,
    Scenario,
    VirtualChernNumbers,
    hyperplane,
    trivial_bundle,
)
from degloci.expressions import Apply, LineBundleExpr, NameRef
from degloci.report import CheckResult, ReportEntry

P13 = ProductSpace((1, 3))
ZERO = ChowElement.zero(P13)
O_REPR = (
    "BundleClass(space=ProductSpace(dims=(1, 3)), rank=1, "
    "total_chern=<ChowElement 1 on P^1 x P^3>)"
)

# (build a value, a field change that makes it unequal, its repr)
CASES = {
    "ProductSpace": (
        lambda: ProductSpace((1, 3)), {"dims": (2, 2)}, "ProductSpace(dims=(1, 3))"
    ),
    "BundleClass": (lambda: trivial_bundle(P13), {"rank": 2}, O_REPR),
    "DegeneracyInput": (
        lambda: DegeneracyInput(P13, ZERO, ZERO, trivial_bundle(P13), trivial_bundle(P13, 2)),
        {"tangent_c1": hyperplane(P13, 1)},
        "DegeneracyInput(space=ProductSpace(dims=(1, 3)), "
        "tangent_c1=<ChowElement 0 on P^1 x P^3>, tangent_c2=<ChowElement 0 on P^1 x P^3>, "
        f"A={O_REPR}, B={O_REPR.replace('rank=1', 'rank=2')})",
    ),
    "VirtualChernNumbers": (
        lambda: VirtualChernNumbers(Fraction(216), Fraction(336), trivial_bundle(P13)),
        {"c2": Fraction(648)},
        f"VirtualChernNumbers(c1_sq=Fraction(216, 1), c2=Fraction(336, 1), difference={O_REPR})",
    ),
    "LineBundleExpr": (
        lambda: LineBundleExpr((0, 2), 1),
        {"multiplicity": 2},
        "LineBundleExpr(degrees=(0, 2), multiplicity=1)",
    ),
    "NameRef": (lambda: NameRef("E"), {"name": "F"}, "NameRef(name='E')"),
    "Apply": (
        lambda: Apply("dual", (NameRef("E"),)),
        {"op": "sum"},
        "Apply(op='dual', args=(NameRef(name='E'),))",
    ),
    "FamilyInvariants": (
        lambda: FamilyInvariants(Fraction(1), Fraction(2), Fraction(1, 4), Fraction(8), 2, 0),
        {"slope": None},
        "FamilyInvariants(kappa=Fraction(1, 1), delta=Fraction(2, 1), "
        "lambda_=Fraction(1, 4), slope=Fraction(8, 1), fiber_genus=2, base_genus=0)",
    ),
    "BaseChangeParams": (
        lambda: BaseChangeParams(1, 1, 0, 0, 0, 0, 0, 0, 1, "2"),
        {"A12": 1},
        "BaseChangeParams(m1=1, m2=1, g_A1=0, g_A2=0, A1_sq=0, A2_sq=0, A12=0, "
        "base_genus=0, base_lambda=Fraction(1, 1), base_delta0=Fraction(2, 1), "
        "base_delta_rest=())",
    ),
    "PullbackSlope": (
        lambda: PullbackSlope(
            Fraction(1), Fraction(0), Fraction(2), Fraction(0), (), Fraction(2)
        ),
        {"delta_rest_B": (Fraction(1),)},
        "PullbackSlope(lambda_B=Fraction(1, 1), delta0_correction=Fraction(0, 1), "
        "delta0_B=Fraction(2, 1), delta1_B=Fraction(0, 1), delta_rest_B=(), "
        "slope=Fraction(2, 1))",
    ),
    "ReportEntry": (
        lambda: ReportEntry("c2(Z)", "rational", "336", "336"),
        {"decimal": None},
        "ReportEntry(key='c2(Z)', kind='rational', exact='336', decimal='336')",
    ),
    "CheckResult": (
        lambda: CheckResult("double_point_c2", True, "336 vs 336"),
        {"passed": False},
        "CheckResult(key='double_point_c2', passed=True, detail='336 vs 336')",
    ),
    "Report": (
        lambda: Report("m15", "P^1 x P^3", (ReportEntry("k", "text", "v"),)),
        {"checks": (CheckResult("k", True, ""),)},
        "Report(scenario='m15', space='P^1 x P^3', entries=(ReportEntry(key='k', "
        "kind='text', exact='v', decimal=None),), checks=())",
    ),
    "Scenario": (
        lambda: Scenario("s", P13, (), (), "A", "B", 2, 0, False, None, ()),
        {"notes": ("a note",)},
        "Scenario(name='s', space=ProductSpace(dims=(1, 3)), bundle_exprs=(), "
        "bundles=(), degeneracy_a='A', degeneracy_b='B', fiber_genus=2, base_genus=0, "
        "allow_low_genus=False, base_change=None, notes=())",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_record(name):
    build, change, shown = CASES[name]
    value = build()
    assert type(value).__name__ == name

    twin = build()
    assert value == twin and value is not twin
    assert hash(value) == hash(twin)
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert clone(value) == value
    changed = value._replace(**change)
    assert changed != value
    assert changed._replace(**{k: getattr(value, k) for k in change}) == value
    other = NameRef("E") if name != "NameRef" else LineBundleExpr((0,), 1)
    assert value.__eq__(other) is NotImplemented
    assert value != other

    field = next(iter(change))
    with pytest.raises(AttributeError):
        setattr(value, field, change[field])
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin

    assert repr(value) == shown
    with pytest.raises(TypeError):
        value._replace(no_such_field=1)


def test_replace_runs_the_constructor_checks():
    bundle = trivial_bundle(P13)
    with pytest.raises(TypeError, match="rank must be an integer, got '1'"):
        bundle._replace(rank="1")
    with pytest.raises(ValueError, match="A1.A2 must be nonnegative, got -1"):
        CASES["BaseChangeParams"][0]()._replace(A12=-1)
    # The constructor's coercions apply to replaced fields too.
    params = CASES["BaseChangeParams"][0]()._replace(base_lambda="3/6")
    assert params.base_lambda == Fraction(1, 2)
