"""Compare two files of run results, per workload and per metric.

Each file holds one JSON result per line, as ``run.py`` appends them.  For
every metric of every workload present on both sides the report shows each
side's median and quartiles over its runs.  A metric with a bound in
BENCHMARK.json is marked ``unresolved`` when either side's spread (the
distance between the quartiles as a share of the median) exceeds the bound,
``worse`` when the new median is worse than the base median by more than the
bound, and ``not-worse`` otherwise.  Metrics without a bound are only shown.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .env import ROOT


def _load(path) -> dict:
    """{(workload, metric): [values]} from a JSON-lines result file."""
    series: dict = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        result = json.loads(line)
        for metric, entry in result["metrics"].items():
            series.setdefault((result["workload"], metric), []).append(entry["value"])
    return series


def _summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _spread(median, q1, q3):
    return (q3 - q1) / abs(median) if median else 0.0


def _cell(summary) -> str:
    median, q1, q3 = summary
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base_path, new_path, spec_path=ROOT / "BENCHMARK.json") -> str:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = _load(base_path), _load(new_path)
    rows = [("workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
             "change", "verdict", "runs")]
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        b, n = _summary(base[key]), _summary(new[key])
        change = (n[0] - b[0]) / abs(b[0]) if b[0] else 0.0
        verdict = ""
        if metric in bounds:
            bound = bounds[metric]["bound"]
            worse = change if bounds[metric]["better"] == "lower" else -change
            if max(_spread(*b), _spread(*n)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "not-worse"
        rows.append((workload, metric, _cell(b), _cell(n), f"{change:+.1%}", verdict,
                     f"{len(base[key])}/{len(new[key])}"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )
