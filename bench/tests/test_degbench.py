"""The benchmark's own tests: inputs, reference, trace and compare.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` from the root of
the repository.  They are kept out of the package's tier-1 suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import degloci
from degbench import tracing
from degbench.compare import compare
from degbench.env import BENCH_DIR, ROOT, child_env
from degbench.generate import PIPELINE_SPACES, ring_item, scenario_item
from degbench.reference import expected_report, truncated_product
from degbench.runner import MIN_PASSES, Run, _goldens_problems, _paired_passes, timed_loop
from degbench.workloads import CliCold, RingDense, ScenarioBatch, report_problems
from degloci.scenario import parse_scenario_data, run_scenario

INPUT_DUMP = (
    "from degbench.generate import scenario_item, ring_item\n"
    "for i in range(24):\n"
    "    print(scenario_item(5, i).text)\n"
    "    print(repr(ring_item(5, i)))\n"
)


def _dump_inputs(hash_seed: str) -> bytes:
    env = dict(child_env(BENCH_DIR), PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", INPUT_DUMP], env=env, cwd=ROOT, capture_output=True,
        check=True,
    ).stdout


def test_seed_changes_the_numbers_but_not_the_shape_of_a_scenario():
    one, two = json.loads(scenario_item(1, 7).text), json.loads(scenario_item(2, 7).text)
    assert one["bundles"].keys() == two["bundles"].keys()
    assert ("base_change" in one) == ("base_change" in two)
    assert one["bundles"] != two["bundles"]


def test_same_seed_gives_byte_identical_inputs_in_any_process():
    assert _dump_inputs("1") == _dump_inputs("2")


def test_different_seeds_give_different_inputs():
    assert scenario_item(1, 7).text != scenario_item(2, 7).text
    assert ring_item(1, 7).x != ring_item(2, 7).x


def test_generated_scenarios_are_accepted_and_match_the_reference():
    for index in range(120):
        item = scenario_item(3, index)
        scenario = parse_scenario_data(json.loads(item.text), f"item {index}")
        assert scenario.space.dims == item.dims
        report = run_scenario(scenario, check=True)
        rendered = [degloci.report.RENDERERS[f](report) for f in ("exact", "decimal", "json")]
        assert report_problems(item, *rendered) == [], item.text


def test_generator_covers_every_space_and_operation():
    items = [scenario_item(4, i) for i in range(80)]
    assert {i.dims for i in items} == set(PIPELINE_SPACES)
    texts = "".join(i.text for i in items)
    for op in ("sum(", "dual(", "twist(", "ker(", ")^", "base_change"):
        assert op in texts
    with_base_change = sum('"base_change"' in i.text for i in items) / len(items)
    assert 0.2 < with_base_change < 0.45


def test_reference_reproduces_m15_and_sees_a_wrong_class():
    a = {(0, 0): 4}
    b = {(1, 2): 8, (0, 1): 1, (1, 3): -4}  # twist(ker(O(1,0)^8+O(0,-1) -> O(1,1)^4), O(0,2))
    ref = expected_report((1, 3), a, b, 15, 0)
    assert (ref["c1(Z)^2"], ref["c2(Z)"], ref["slope"]) == ("216", "336", "98/15")
    wrong = expected_report((1, 3), a, {**b, (1, 3): -3}, 15, 0)
    assert wrong["c1(Z)^2"] != "216"


def test_reference_product_is_truncated_convolution():
    x = {(0, 0): 1, (1, 0): 2, (0, 1): 3}
    assert truncated_product((1, 1), x, x) == {
        (0, 0): 1, (1, 0): 4, (0, 1): 6, (1, 1): 12,
    }


def test_ring_items_are_dense_units_and_pass_their_checks():
    workload = RingDense(2)
    workload.bind(degloci)
    ops = set()
    for index in range(9):
        item = workload.item(index)
        ops.add(item.op)
        assert len(item.x) == len(item.y) == (64, 49, 81)[index % 3]
        assert item.x[(0,) * len(item.dims)] == 1
        assert workload.verify(item, workload.run(item)) == []
    assert ops == {"mul", "pow", "invert"}


def test_cli_launches_match_goldens_and_in_process_reports():
    workload = CliCold(3)
    workload.bind(degloci)
    try:
        assert workload.prepare() == []
        for index in (0, 4, 8):  # m15 exact, m16 --check decimal, a config as json
            launch = workload.item(index)
            assert workload.verify(launch, workload.run(launch)) == []
            assert workload.verify(launch, workload.run_inprocess(launch)) == []
        assert workload.peak_rss_kb() > 0
    finally:
        workload.close()
    assert not workload.workdir.exists()


def test_a_wrong_report_is_a_failure():
    workload = ScenarioBatch(1)
    workload.bind(degloci)
    item = workload.item(5)
    exact, decimal, js = workload.run(item)
    wrong = exact.replace(f"c2(Z) = {item.expected['c2(Z)']}", "c2(Z) = 1")
    assert any("c2(Z)" in p for p in report_problems(item, wrong, decimal, js))
    golden_item = workload.item(1)
    exact, decimal, js = workload.run(golden_item)
    assert report_problems(golden_item, exact.replace("= pass", "= FAIL"), decimal, js)


def test_trace_wraps_every_holder_and_restores_every_original():
    originals = {
        "vcn": degloci.degeneracy.virtual_chern_numbers,
        "mul": degloci.chow.ChowElement.__mul__,
        "render": degloci.report.RENDERERS["json"],
    }
    workload = ScenarioBatch(1)
    workload.bind(degloci)
    tracer = tracing.Tracer()
    with tracer:
        assert degloci.scenario.virtual_chern_numbers is not originals["vcn"]
        assert degloci.degeneracy.virtual_chern_numbers is not originals["vcn"]
        assert degloci.virtual_chern_numbers is not originals["vcn"]
        assert degloci.report.RENDERERS["json"] is not originals["render"]
        assert "degloci.scenario.virtual_chern_numbers" in tracing.patched_names()
    assert tracing.patched_names() == []
    assert degloci.degeneracy.virtual_chern_numbers is originals["vcn"]
    assert degloci.scenario.virtual_chern_numbers is originals["vcn"]
    assert degloci.chow.ChowElement.__mul__ is originals["mul"]
    assert degloci.report.RENDERERS["json"] is originals["render"]


def test_traced_run_counts_repeat_and_leave_the_package_clean():
    def traced_counts():
        workload = ScenarioBatch(9)
        workload.bind(degloci)
        tracer, run = tracing.Tracer(), Run()
        items = [workload.item(i) for i in range(4)]
        untraced_s, traced_s = _paired_passes(workload, items, tracer, run)
        assert run.failures == [] and untraced_s > 0 and traced_s > 0
        return tracer, {k: calls for k, (calls, _) in tracer.layer_totals().items()}

    tracer, counts = traced_counts()
    assert traced_counts()[1] == counts
    assert counts["scenario.resolve_bundles"] == 2 * 4
    assert counts["degeneracy.virtual_chern_numbers"] == 2 * 4
    assert counts["scenario.run_scenario"] == 4
    totals = tracer.layer_totals()
    assert all(self_ns >= 0 for _, self_ns in totals.values())
    top_level = [s for s in tracer.spans if s[3] == -1]
    covered = sum(s[2] - s[1] for s in top_level)
    assert sum(self_ns for _, self_ns in totals.values()) <= covered
    assert tracing.patched_names() == []
    assert _goldens_problems(degloci) == []


@pytest.mark.parametrize("wrong_run, failures", [
    (5, ["item 2: output differs from its first run"]),
    (1, ["item 2: output differs from its first run"] * 2 + ["item 2: wrong output"]),
])
def test_timed_loop_keeps_fastest_times_and_checks_every_output(wrong_run, failures):
    class Flaky:
        """Returns a wrong output on one run; run 1 is item 2's first."""

        runs = 0

        def run(self, item):
            self.runs += 1
            return "wrong" if self.runs == wrong_run else f"out {item.index}"

        def verify(self, item, out):
            return [] if out == f"out {item.index}" else ["wrong output"]

    items = [scenario_item(1, 2), scenario_item(1, 3)]
    run, probes = Run(), []
    samples, runs = timed_loop(Flaky(), items, 0.0, run, lambda: probes.append(1), 4)
    assert runs == MIN_PASSES * len(items) == run.attempted
    assert [dims for dims, _ in samples] == [items[0].dims, items[1].dims]
    assert all(t > 0 for _, t in samples)
    assert run.failures == failures
    assert len(probes) == 4


def test_compare_reports_medians_and_verdicts(tmp_path):
    def write(path, values):
        lines = [
            json.dumps({"workload": "w", "metrics": {
                "latency_p50_ms": {"value": v, "unit": "ms"},
                "chow.mul.calls": {"value": 7, "unit": "count"},
            }})
            for v in values
        ]
        path.write_text("\n".join(lines) + "\n")

    base, same, slow, noisy = (tmp_path / n for n in ("b", "s", "w", "n"))
    write(base, [10.0, 10.1, 9.9, 10.0, 10.05])
    write(same, [10.1, 10.0, 10.2, 10.1, 9.95])
    write(slow, [13.0, 13.1, 12.9, 13.0, 13.05])
    write(noisy, [5.0, 15.0, 10.0, 20.0, 8.0])
    def verdict(text):
        return next(ln for ln in text.splitlines() if "latency_p50_ms" in ln).split()[-2]

    assert verdict(compare(base, same)) == "not-worse"
    assert verdict(compare(base, slow)) == "worse"
    assert verdict(compare(base, noisy)) == "unresolved"
    assert "chow.mul.calls" in compare(base, same)


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", ["scenario_batch", "ring_dense", "cli_cold"])
def test_warm_up_item_is_checked(name):
    from degbench.workloads import WORKLOADS

    workload = WORKLOADS[name](4)
    workload.bind(degloci)
    try:
        workload.prepare()
        item = workload.warmup()
        assert workload.verify(item, workload.run(item)) == []
    finally:
        workload.close()
