"""Seeded inputs for the three workloads.

Every input is a pure function of ``(seed, index)``: each item draws from its
own ``random.Random`` seeded with a string, so the same seed yields
byte-identical inputs in any process and any order.  A scenario's shape (its
depth, operations, multiplicities, which degrees are 0 and whether it has a
``base_change`` block) is drawn from a stream of the index alone, and its
other degrees and numbers from a stream of the seed and the index.  So every seed asks for
about the same work, with other numbers, and a run's figures move little
with the seed.  Nothing here imports
``degloci``; the package only ever sees the texts and term maps built here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .reference import expected_report

PIPELINE_SPACES = ((1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1))
RING_SPACES = ((3, 3, 3), (6, 6), (2, 2, 2, 2))
RING_OPS = ("mul", "pow", "invert")
FORMATS = ("exact", "decimal", "json")

MAX_DEGREE = 3
MAX_MULTIPLICITY = 8


def space_label(dims) -> str:
    return "_".join(map(str, dims))


def _rng(kind: str, seed: int, index: int) -> random.Random:
    return random.Random(f"degbench/{kind}/{seed}/{index}")


# -- scenario_batch ---------------------------------------------------------


@dataclass(frozen=True)
class ScenarioItem:
    """One scenario text plus the reference values its report must show."""

    index: int
    dims: tuple[int, ...]
    text: str
    expected: dict
    golden: str | None = None  # "m15" / "m16" for the bundled scenarios


@dataclass
class _Bundle:
    text: str
    kclass: dict
    is_line: bool = False

    @property
    def rank(self) -> int:
        return sum(self.kclass.values())


def _o(degrees, mult=1) -> _Bundle:
    text = "O(" + ",".join(map(str, degrees)) + ")"
    if mult > 1:
        text += f"^{mult}"
    return _Bundle(text, {tuple(degrees): mult}, is_line=mult == 1)


def _add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for d, m in y.items():
        out[d] = out.get(d, 0) + sign * m
    return {d: m for d, m in out.items() if m}


def _sum(x: _Bundle, y: _Bundle) -> _Bundle:
    return _Bundle(f"sum({x.text}, {y.text})", _add(x.kclass, y.kclass))


def _dual(x: _Bundle) -> _Bundle:
    flipped = {tuple(-a for a in d): m for d, m in x.kclass.items()}
    return _Bundle(f"dual({x.text})", flipped, is_line=x.is_line)


def _twist(x: _Bundle, line: _Bundle) -> _Bundle:
    (shift,) = line.kclass
    moved = {}
    for d, m in x.kclass.items():
        key = tuple(a + b for a, b in zip(d, shift))
        moved[key] = moved.get(key, 0) + m
    return _Bundle(
        f"twist({x.text}, {line.text})",
        {d: m for d, m in moved.items() if m},
        is_line=x.is_line,
    )


def _ker(middle: _Bundle, quotient: _Bundle) -> _Bundle:
    return _Bundle(
        f"ker({middle.text} -> {quotient.text})",
        _add(middle.kclass, quotient.kclass, -1),
    )


class _ScenarioDraft:
    """Named bundles in levels; level L refers to a bundle of level L - 1."""

    def __init__(self, rng: random.Random, values: random.Random, dims):
        self.rng = rng  # the shape
        self.values = values  # the degrees
        self.k = len(dims)
        self.bundles: dict[str, str] = {}
        self.levels: list[list[_Bundle]] = []
        self.lines: list[_Bundle] = []

    def degrees(self):
        """Uniform on -3..3; which entries are 0 is part of the shape."""
        return tuple(
            0 if self.rng.randrange(2 * MAX_DEGREE + 1) == 0
            else self.values.choice((-1, 1)) * self.values.randint(1, MAX_DEGREE)
            for _ in range(self.k)
        )

    def power(self, most=MAX_MULTIPLICITY) -> _Bundle:
        return _o(self.degrees(), self.rng.randint(1, most))

    def line(self) -> _Bundle:
        """A genuine line bundle, the only kind ``twist`` may take second."""
        r = self.rng.random()
        if self.lines and r < 0.35:
            return self.rng.choice(self.lines)
        line = _o(self.degrees())
        return _dual(line) if r > 0.8 else line

    def define(self, prefix: str, b: _Bundle) -> _Bundle:
        name = f"{prefix}{len(self.bundles)}"
        self.bundles[name] = b.text
        named = _Bundle(name, b.kclass, b.is_line)
        if b.is_line:
            self.lines.append(named)
        return named

    def kernel_of(self, middle: _Bundle) -> _Bundle:
        quotient = self.power(max(1, min(MAX_MULTIPLICITY, middle.rank - 1)))
        if quotient.rank > middle.rank:
            middle = _sum(middle, self.power())
        return _ker(middle, quotient)

    def base(self) -> _Bundle:
        shape = self.rng.randrange(4)
        if shape == 0:
            return self.power()
        if shape == 1:
            return _sum(self.power(), self.power())
        if shape == 2:
            return self.kernel_of(_sum(self.power(), self.power()))
        return _dual(_sum(self.power(), _o(self.degrees())))

    def step(self, prev: _Bundle) -> _Bundle:
        earlier = [b for level in self.levels for b in level]
        shape = self.rng.randrange(5)
        if shape == 0:
            other = self.rng.choice(earlier) if self.rng.random() < 0.5 else self.power()
            return _sum(prev, other)
        if shape == 1:
            return _dual(_sum(prev, self.power(3)))
        if shape == 2:
            return _twist(prev, self.line())
        if shape == 3:
            return self.kernel_of(prev)
        return _twist(self.kernel_of(_sum(prev, self.power())), self.line())

    def build(self, depth: int) -> _Bundle:
        self.levels.append([self.define("L", self.line())])
        self.levels[0].append(self.define("E", self.base()))
        top = self.levels[0][-1]
        for _ in range(depth - 1):
            level = [self.define("E", self.step(top))]
            if self.rng.random() < 0.3:
                level.append(self.define("F", self.step(top)))
            self.levels.append(level)
            top = level[0]
        if top.rank < 2:
            top = self.define("E", _sum(top, _o(self.degrees(), self.rng.randint(2, MAX_MULTIPLICITY))))
        return top

    def source(self, rank: int) -> _Bundle:
        """A bundle of exactly the given rank, in pieces of at most 8."""
        pieces = []
        while rank > 0:
            m = min(rank, self.rng.randint(1, MAX_MULTIPLICITY))
            pieces.append(_o(self.degrees(), m))
            rank -= m
        out = pieces[0]
        for piece in pieces[1:]:
            out = _sum(out, piece)
        return out


def _rational_json(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scenario_item(seed: int, index: int) -> ScenarioItem:
    """A generated scenario; about a third carry a ``base_change`` block."""
    rng = random.Random(f"degbench/scenario-shape/{index}")
    values = _rng("scenario", seed, index)
    dims = PIPELINE_SPACES[index % len(PIPELINE_SPACES)]
    draft = _ScenarioDraft(rng, values, dims)
    b = draft.build(rng.randint(2, 4))
    a = draft.define("A", draft.source(b.rank - 1))
    fiber_genus = values.randint(2, 40)
    base_genus = values.randint(0, 3)
    expected = expected_report(dims, a.kclass, b.kclass, fiber_genus, base_genus)
    doc = {
        "name": f"gen-{seed}-{index}",
        "space": list(dims),
        "bundles": draft.bundles,
        "degeneracy": {"a": a.text, "b": b.text},
        "family": {"fiber_genus": fiber_genus, "base_genus": base_genus},
    }
    lambda_ = Fraction(expected["lambda"])
    if rng.random() < 1 / 3 and lambda_ != 0:
        delta = Fraction(expected["delta"])
        rest = [values.randint(0, 20)] if values.random() < 0.5 else []
        doc["base_change"] = {
            "m1": values.randint(1, 6),
            "m2": values.randint(1, 6),
            "g_a1": values.randint(0, 60),
            "g_a2": values.randint(0, 60),
            "a1_sq": values.randint(-20, 20),
            "a2_sq": values.randint(-20, 20),
            "a12": values.randint(0, 20),
            "base_lambda": _rational_json(lambda_),
            "base_delta0": _rational_json(delta - sum(rest)),
            "base_delta_rest": rest,
        }
        bc = doc["base_change"]
        expected["lambda_B"] = str(bc["m1"] * bc["m2"] * lambda_)
        expected["delta1_B"] = str(bc["a12"])
    return ScenarioItem(index, dims, json.dumps(doc, indent=2) + "\n", expected)


# -- ring_dense -------------------------------------------------------------


@dataclass(frozen=True)
class RingItem:
    """Two dense unit elements, as term maps, and the operation to apply."""

    index: int
    dims: tuple[int, ...]
    op: str  # "mul": x * y, "pow": x ** 4, "invert": x.invert_unit_series()
    x: dict
    y: dict


def _dense_unit(rng: random.Random, dims) -> dict:
    """Every monomial present, constant term 1, small rational coefficients."""
    terms = {
        e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 1, 2, 3)))
        for e in product(*(range(n + 1) for n in dims))
    }
    terms[(0,) * len(dims)] = Fraction(1)
    return terms


def ring_item(seed: int, index: int) -> RingItem:
    """Every nine items cover each space with each operation."""
    rng = _rng("ring", seed, index)
    dims = RING_SPACES[index % len(RING_SPACES)]
    op = RING_OPS[index // len(RING_SPACES) % len(RING_OPS)]
    return RingItem(index, dims, op, _dense_unit(rng, dims), _dense_unit(rng, dims))
