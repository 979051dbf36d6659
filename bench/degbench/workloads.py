"""The three workloads: what one item is, how it runs and how it is checked.

A workload object is built before ``degloci`` is imported; ``bind`` hands it
the package's modules afterwards, and it calls the package only through
those module attributes, so the tracer's wrappers are seen.  ``run`` is the
timed work; ``verify`` runs outside the timed region and returns a list of
problems, empty when the output is right.  ``warmup`` is the item run before
timing starts; it is the same for every seed, so set-up time does not depend
on the seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass

from .env import GOLDEN, OUT, ROOT, SRC, child_env
from .generate import (
    FORMATS,
    PIPELINE_SPACES,
    ScenarioItem,
    ring_item,
    scenario_item,
)
from .reference import truncated_product

BUNDLED = ("m15", "m16")
_GOLDEN_SUFFIX = {"exact": ".exact.txt", "decimal": ".decimal.txt", "json": ".json"}


def golden(name: str, fmt: str) -> str:
    return (GOLDEN / f"{name}{_GOLDEN_SUFFIX[fmt]}").read_text(encoding="utf-8")


def strip_checks(fmt: str, text: str) -> str:
    """The report without what ``--check`` adds: check lines or the checks key."""
    if fmt == "json":
        doc = json.loads(text)
        doc.pop("checks", None)
        return json.dumps(doc, indent=2) + "\n"
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("check ")
    )


def check_problems(fmt: str, text: str) -> list[str]:
    """Problems with the cross-check results a ``--check`` report carries."""
    if fmt == "json":
        checks = json.loads(text).get("checks", {})
        failed = [k for k, c in checks.items() if not c["passed"]]
    else:
        checks = [ln for ln in text.splitlines() if ln.startswith("check ")]
        failed = [ln for ln in checks if " = pass (" not in ln]
    if not checks:
        return ["no cross-check results in a --check report"]
    return [f"cross-check failed: {f}" for f in failed]


def _values(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        values.setdefault(key, value)
    return values


def report_problems(item: ScenarioItem, exact: str, decimal: str, js: str) -> list[str]:
    """Check the three renderings of one ``check=True`` report."""
    problems = [
        p for fmt, text in zip(FORMATS, (exact, decimal, js)) for p in check_problems(fmt, text)
    ]
    if item.golden:
        for fmt, text in zip(FORMATS, (exact, decimal, js)):
            if strip_checks(fmt, text) != golden(item.golden, fmt):
                problems.append(f"{item.golden} {fmt} report differs from the golden")
        return problems
    shown = _values(exact)
    for key, want in item.expected.items():
        if shown.get(key) != want:
            problems.append(f"{key} = {shown.get(key)}, reference says {want}")
    shown_decimal = _values(decimal)
    for key, entry in json.loads(js)["values"].items():
        exact_text = "undefined" if entry["exact"] is None else entry["exact"]
        decimal_text = entry.get("decimal", entry["exact"]) or "undefined"
        if shown.get(key) != exact_text or shown_decimal.get(key) != decimal_text:
            problems.append(f"{key}: exact, decimal and json renderings disagree")
    return problems


class ScenarioBatch:
    """Generated scenario texts, parsed, run with check=True and rendered."""

    name = "scenario_batch"
    traced_items = 40

    def __init__(self, seed: int):
        self.seed = seed
        self.bundled = {
            n: (SRC / "degloci" / "scenarios" / f"{n}.json").read_text(encoding="utf-8")
            for n in BUNDLED
        }

    def item(self, index: int) -> ScenarioItem:
        """Items 0 and 1 are m15 and m16; every other index is generated."""
        if index in (0, 1):
            name = BUNDLED[index]
            return ScenarioItem(index, (1, 3), self.bundled[name], {}, golden=name)
        return scenario_item(self.seed, index)

    def warmup(self) -> ScenarioItem:
        return self.item(1)

    def bind(self, degloci):
        self.scenario = degloci.scenario
        self.report = degloci.report

    def prepare(self) -> list[str]:
        return []

    def run(self, item: ScenarioItem):
        scenario = self.scenario.parse_scenario_data(
            json.loads(item.text), f"item {item.index}"
        )
        report = self.scenario.run_scenario(scenario, check=True)
        r = self.report
        return r.render_exact(report), r.render_decimal(report), r.render_json(report)

    run_inprocess = run

    def verify(self, item: ScenarioItem, out) -> list[str]:
        return report_problems(item, *out)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        pass


class RingDense:
    """Dense unit elements: a product, a 4th power or an inversion per item.

    One operation per item keeps an item under about 60 ms, so that a run
    makes more than ten passes over the pool (see ``runner``).
    """

    name = "ring_dense"
    traced_items = 18

    def __init__(self, seed: int):
        self.seed = seed

    def item(self, index: int):
        return ring_item(self.seed, index)

    def warmup(self):
        return ring_item(0, 0)

    def bind(self, degloci):
        self.chow = degloci.chow

    def prepare(self) -> list[str]:
        return []

    def run(self, item):
        chow = self.chow
        space = chow.ProductSpace(item.dims)
        x = chow.ChowElement(space, item.x)
        if item.op == "mul":
            return x, x * chow.ChowElement(space, item.y)
        if item.op == "pow":
            return x, x**4
        return x, x.invert_unit_series()

    run_inprocess = run

    def verify(self, item, out) -> list[str]:
        x, result = out
        problems = []
        if dict(x.terms) != item.x:
            problems.append("the constructor changed the input terms")
        if item.op == "mul" and dict(result.terms) != truncated_product(
            item.dims, item.x, item.y
        ):
            problems.append("x * y differs from the reference product")
        if item.op == "pow" and result != x * x * x * x:
            problems.append("x ** 4 differs from repeated products")
        if item.op == "invert" and x * result != self.chow.ChowElement.one(x.space):
            problems.append("x * x.invert_unit_series() != 1")
        return problems

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        pass


@dataclass(frozen=True)
class Launch:
    index: int
    dims: tuple[int, ...]
    argv: tuple[str, ...]
    fmt: str
    expect: str  # "m15", "m16" or "config-<j>"


@dataclass(frozen=True)
class LaunchResult:
    code: int
    stdout: str
    stderr: str


class CliCold:
    """Fresh interpreters running ``python -m degloci.cli``, one at a time.

    Launch ``i`` cycles through ``--scenario m15``, ``--scenario m16 --check``
    and ``--config <generated file> --check``, and through the three formats.
    """

    name = "cli_cold"
    traced_items = 18
    CONFIGS = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.workdir = OUT / f"cli-{os.getpid()}"
        self.env = child_env()
        self.expected: dict[str, dict[str, str]] = {}
        self.child_peak_kb = 0

    def item(self, index: int) -> Launch:
        fmt = FORMATS[(index // 3) % 3]
        kind = index % 3
        if kind < 2:
            argv = ("--scenario", "m15") if kind == 0 else ("--scenario", "m16", "--check")
            return Launch(index, (1, 3), argv + ("--format", fmt), fmt, BUNDLED[kind])
        j = (index // 9) % self.CONFIGS
        argv = ("--config", str(self.workdir / f"config-{j}.json"), "--check")
        return Launch(
            index, PIPELINE_SPACES[j], argv + ("--format", fmt), fmt, f"config-{j}"
        )

    def warmup(self) -> Launch:
        return Launch(-1, (1, 3), ("--scenario", "m16", "--check"), "exact", "m16")

    def bind(self, degloci):
        self.cli = importlib.import_module("degloci.cli")
        self.batch = ScenarioBatch(self.seed)
        self.batch.bind(degloci)

    def prepare(self) -> list[str]:
        """Write the generated configs and render them in-process, checked."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        problems = []
        for j in range(self.CONFIGS):
            item = scenario_item(self.seed, j)
            (self.workdir / f"config-{j}.json").write_text(item.text, encoding="utf-8")
            try:
                rendered = self.batch.run(item)
            except Exception as exc:  # launches of this config then fail too
                problems.append(f"config-{j}: raised {type(exc).__name__}: {exc}")
                continue
            problems += [f"config-{j}: {p}" for p in self.batch.verify(item, rendered)]
            self.expected[f"config-{j}"] = dict(zip(FORMATS, rendered))
        return problems

    def run(self, launch: Launch) -> LaunchResult:
        with subprocess.Popen(
            [sys.executable, "-m", "degloci.cli", *launch.argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
        ) as proc:
            # The CLI writes at most an error line to stderr, far below a pipe
            # buffer, so reading stdout to the end first cannot deadlock.
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return LaunchResult(proc.returncode, out.decode(), err.decode())

    def run_inprocess(self, launch: Launch) -> LaunchResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(launch.argv))
        return LaunchResult(code, out.getvalue(), err.getvalue())

    def verify(self, launch: Launch, res: LaunchResult) -> list[str]:
        if res.code != 0 or res.stderr:
            return [f"exit code {res.code}, stderr {res.stderr.strip()[:200]!r}"]
        if launch.expect not in BUNDLED:
            if res.stdout != self.expected.get(launch.expect, {}).get(launch.fmt):
                return [f"{launch.expect} {launch.fmt} differs from the in-process report"]
            return []
        if "--check" in launch.argv:
            problems = check_problems(launch.fmt, res.stdout)
            shown = strip_checks(launch.fmt, res.stdout)
        else:
            problems, shown = [], res.stdout
        if shown != golden(launch.expect, launch.fmt):
            problems.append(f"{launch.expect} {launch.fmt} report differs from the golden")
        return problems

    def peak_rss_kb(self) -> int:
        return self.child_peak_kb

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ScenarioBatch, RingDense, CliCold)}
