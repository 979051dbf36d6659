"""One benchmark run: set-up, the timed closed loop, checks, metrics.

A run is one caller in one process with no threads; ``cli_cold`` has at most
one child interpreter alive at a time.  The timed loop makes passes over a
pool of POOL items and keeps each item's fastest time, so that the
other load on a shared host, which comes and goes over seconds to minutes,
moves the figures less than it moves a single timing.  Set-up is sampled at
even intervals through the same loop.  With ``trace=0`` the run reports the
end-to-end metrics.  With ``trace=1`` it runs the same untraced loop, then a
fixed number of items twice more in-process, untraced and traced, and
reports the per-layer metrics; the traced count is fixed so every count
repeats exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import statistics
import subprocess
import sys
import time

from . import tracing
from .env import BENCH_DIR, OUT, ROOT, child_env, import_package, provenance
from .generate import PIPELINE_SPACES, RING_SPACES, space_label
from .workloads import BUNDLED, FORMATS, WORKLOADS, check_problems, golden, strip_checks

SETUP_REPEATS = 15
PROBE_REPEATS = 7
POOL = 100  # items per run, so that ten sit beyond p90
MIN_PASSES = 3
MAX_LOOP_WALL_S = 120.0
CLI_PROBE_ARGV = ["--scenario", "m16", "--check"]
IMPORT_PROBE = (
    "import json, time; start = time.perf_counter(); import degloci; "
    "print(json.dumps({'import_s': time.perf_counter() - start}))"
)


class Run:
    """Counts every check and keeps one line per failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {problems[0]}")


def _child_json(args, *extra_paths) -> dict:
    """Run a child interpreter and parse the JSON line it prints last."""
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=child_env(*extra_paths), cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(name: str, seed: int, run: Run, repeats: int) -> list[float]:
    """Set-up times of fresh interpreters: import degloci plus the warm-up item."""
    times = []
    for _ in range(repeats):
        res = _child_json(["-m", "degbench.probe", name, str(seed)], BENCH_DIR)
        run.check("set-up", res["problems"])
        times.append(res["setup_s"])
    return times


def verified(verify, item, out) -> list[str]:
    """``verify(item, out)``, with an output that cannot be checked a failure."""
    try:
        return verify(item, out)
    except Exception as exc:
        return [f"output could not be checked: {type(exc).__name__}: {exc}"]


def checked(workload, item, call, context=None, verify=None):
    """Time ``call(item)`` inside ``context``, then check its output untimed.

    ``verify(item, out)`` defaults to ``workload.verify``.  Returns (seconds,
    problems).  An item that raises, or whose output cannot even be checked,
    is a failed item, not a crash of the benchmark.
    """
    with context or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out, problems = call(item), None
        except Exception as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
    if problems is None:
        problems = verified(verify or workload.verify, item, out)
    return elapsed, problems


def _attempt(workload, item, run: Run, label: str, call, context=None) -> float:
    elapsed, problems = checked(workload, item, call, context)
    run.check(label, problems)
    return elapsed


def timed_loop(workload, items, seconds: float, run: Run, probe=None, probes=0):
    """Passes over ``items`` for ``seconds`` of wall time, and at least MIN_PASSES.

    Returns ``(dims, fastest seconds)`` per item and the number of item runs.
    Only ``workload.run`` is timed.  Every output after an item's first must
    equal the first, which ``workload.verify`` checks after the loop, so that
    the loop's wall time goes to timed runs.  ``probe()`` is called ``probes``
    times, between items, at even intervals of the ``seconds``.
    """
    best = [math.inf] * len(items)
    first: dict = {}  # item index -> its first output

    def same_as_first(item, out):
        if item.index not in first:
            first[item.index] = out
            return None  # checked after the loop
        return [] if out == first[item.index] else ["output differs from its first run"]

    probed = 0
    wall_start = time.perf_counter()
    for n in itertools.count():
        wall = time.perf_counter() - wall_start
        while probed < probes and wall >= probed * seconds / probes:
            probe()
            probed += 1
            wall = time.perf_counter() - wall_start
        if (wall >= seconds and n >= MIN_PASSES * len(items)) or wall >= MAX_LOOP_WALL_S:
            break
        k = n % len(items)
        item = items[k]
        elapsed, problems = checked(workload, item, workload.run, verify=same_as_first)
        best[k] = min(best[k], elapsed)
        if problems is not None:
            run.check(f"item {item.index}", problems)
    for _ in range(probed, probes):
        probe()
    for item in items:
        if item.index in first:
            run.check(f"item {item.index}", verified(workload.verify, item, first[item.index]))
    return [(item.dims, t) for item, t in zip(items, best) if t < math.inf], n


def end_to_end(workload, samples, runs, setup_times) -> tuple[dict, dict]:
    times = [s for _, s in samples]
    p90 = statistics.quantiles(times, n=10)[8]
    metrics = {
        "throughput_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024, "MB"),
    }
    details = {
        "latency_samples": len(times),
        "item_runs": runs,
        "samples_beyond_p90": sum(t > p90 for t in times),
        "setup_samples_s": setup_times,
        "fastest_sum_s": sum(times),
    }
    return metrics, details


def _space_metrics(samples) -> dict:
    by_space: dict = {}
    for dims, elapsed in samples:
        by_space.setdefault(dims, []).append(elapsed)
    metrics = {}
    for dims in PIPELINE_SPACES + RING_SPACES:
        times = by_space.get(dims, [])
        rate = len(times) / sum(times) if times else 0.0
        metrics[f"space.{space_label(dims)}.items_per_s"] = (rate, "1/s")
    return metrics


def _paired_passes(workload, items, tracer, run: Run) -> tuple[float, float]:
    """Run each item in-process both untraced and traced; returns both busy times.

    Pairing item by item, with the order swapped on every other item, keeps
    machine drift and warm-up out of the overhead ratio.  Each output is
    checked with the tracer closed.
    """
    busy = {False: 0.0, True: 0.0}
    for k, item in enumerate(items):
        tracer.item = item.index
        for traced in (k % 2 == 1, k % 2 == 0):
            busy[traced] += _attempt(
                workload, item, run,
                f"{'traced' if traced else 'untraced'} item {item.index}",
                workload.run_inprocess, tracer if traced else None,
            )
    return busy[False], busy[True]


def _cli_probes(run: Run) -> dict:
    """Bare-interpreter start, ``import degloci`` and in-process ``cli.main``."""
    floor, imports, mains = [], [], []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT, check=True)
        floor.append(time.perf_counter() - start)
        imports.append(_child_json(["-c", IMPORT_PROBE])["import_s"])
    cli = importlib.import_module("degloci.cli")
    for _ in range(PROBE_REPEATS):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(CLI_PROBE_ARGV))
        mains.append(time.perf_counter() - start)
        text = out.getvalue()
        problems = [f"exit code {code}"] if code else check_problems("exact", text)
        if strip_checks("exact", text) != golden("m16", "exact"):
            problems.append("m16 exact report differs from the golden")
        run.check("cli.main probe", problems)
    return {
        "cli.interp_floor_ms": (statistics.median(floor) * 1000, "ms"),
        "cli.import_ms": (statistics.median(imports) * 1000, "ms"),
        "cli.main_ms": (statistics.median(mains) * 1000, "ms"),
    }


def _goldens_problems(degloci) -> list[str]:
    problems = []
    for name in BUNDLED:
        report = degloci.scenario.run_scenario(degloci.scenario.load_bundled_scenario(name))
        for fmt in FORMATS:
            if degloci.report.RENDERERS[fmt](report) != golden(name, fmt):
                problems.append(f"{name} {fmt} differs from the golden after tracing")
    return problems


def per_layer(workload, degloci, samples, run: Run, seed: int) -> tuple[dict, dict]:
    items = [workload.item(i) for i in range(workload.traced_items)]
    tracer = tracing.Tracer()
    untraced_s, traced_s = _paired_passes(workload, items, tracer, run)
    run.check("originals restored", tracing.patched_names())
    run.check("goldens after tracing", _goldens_problems(degloci))

    metrics = {}
    totals = tracer.layer_totals()
    for name, (calls, self_ns) in totals.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_pct"] = (100 * self_ns / 1e9 / traced_s, "%")
    metrics["chow.mul.terms_out"] = (tracer.terms_out, "count")
    metrics["chow.coef_bits_max"] = (tracer.coef_bits_max, "bits")
    n = len(items)
    for name in ("scenario.resolve_bundles", "degeneracy.virtual_chern_numbers"):
        metrics[f"{name}.per_item"] = (totals[name][0] / n, "ratio")
    metrics.update(_cli_probes(run))
    metrics.update(_space_metrics(samples))
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path, {"workload": workload.name, "seed": seed})
    details = {
        "traced_items": n,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layer_self_s": {k: v[1] / 1e9 for k, v in totals.items()},
    }
    return metrics, details


def run_benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run()
    workload = WORKLOADS[name](seed)
    try:
        setup_times: list[float] = []
        degloci = import_package()
        workload.bind(degloci)
        run.check("prepare", workload.prepare())
        _attempt(workload, workload.warmup(), run, "warm-up", workload.run)
        items = [workload.item(i) for i in range(POOL)]
        samples, runs = timed_loop(
            workload, items, seconds, run,
            # Set-up is sampled through the loop, so that its median spans
            # the run like the item times do.
            probe=lambda: setup_times.extend(measure_setup(name, seed, run, 1)),
            probes=0 if trace else SETUP_REPEATS,
        )
        if trace:
            metrics, details = per_layer(workload, degloci, samples, run, seed)
        else:
            metrics, details = end_to_end(workload, samples, runs, setup_times)
    finally:
        workload.close()
    details["failed_share"] = len(run.failures) / run.attempted
    return {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(seed),
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }
