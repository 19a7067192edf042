"""Tests of the benchmark harness itself (not of the simulator).

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import grids  # noqa: E402
import hostpaths  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import simbench  # noqa: E402

from repro.runner.spec import RunSpec  # noqa: E402

TINY = RunSpec("tightloop", "WiSync", 8, params=(("iterations", 1),))


def test_metric_names_use_only_the_allowed_characters():
    names = list(metrics.END_TO_END) + [name for name, _, _ in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(grids.WORKLOADS):
        assert metrics.METRIC_NAME.match(name), name


def test_benchmark_json_lists_exactly_the_reported_metrics():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json in this checkout")
    spec = json.loads(path.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(grids.WORKLOADS)


def test_tail_percentile_leaves_ten_samples_beyond_it():
    for count in list(range(20, 400)) + [999, 1000, 1009, 5000]:
        percentile = metrics.tail_percentile(count)
        samples = [float(i) for i in range(count)]
        _, tail, beyond = metrics.timing_summary(samples, percentile)
        assert beyond >= metrics.TAIL_BEYOND, count
        assert sum(1 for value in samples if value > tail) >= metrics.TAIL_BEYOND, count


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        metrics.tail_percentile(19)


def test_every_workload_has_enough_samples_for_a_tail():
    for workload in grids.SIMULATOR_WORKLOADS:
        metrics.tail_percentile(grids.MIN_PASSES * len(grids.GRIDS[workload](grids.DEFAULT_SEED)))


def test_matching_expected_output_passes():
    reference = {}
    first = simbench.run_pass([TINY], reference)
    second = simbench.run_pass([TINY], reference)
    assert not first.failures and not second.failures
    assert first.records == second.records


@pytest.mark.parametrize("field", ["total_cycles", "events_processed", "thread_cycles", "stats_digest"])
def test_perturbed_expected_output_is_reported_as_a_failure(field):
    reference = {}
    simbench.run_pass([TINY], reference)
    record = reference[TINY.label()]
    value = record[field]
    if isinstance(value, int):
        record[field] = value + 1
    elif isinstance(value, list):
        record[field] = value[:-1] + [value[-1] + 1]
    else:
        record[field] = "0" * len(value)
    outcome = simbench.run_pass([TINY], reference)
    assert field in outcome.failures[TINY.label()]
    report = simbench.Report()
    report.add_pass(outcome)
    assert (report.attempted, report.failed) == (1, 1)


def test_traced_pass_is_bit_identical_and_restores_the_classes():
    from repro.sim.engine import Simulator

    original = Simulator.schedule
    reference = {}
    plain = simbench.run_pass([TINY], reference)
    with layers.traced_layers() as tracer:
        assert Simulator.schedule is not original
        traced = simbench.run_pass([TINY], reference, tracer=tracer)
    assert Simulator.schedule is original
    assert not traced.failures
    assert traced.records == plain.records
    assert tracer.calls["wireless"] > 0 and tracer.calls["runner"] == 1
    assert sum(tracer.self_s.values()) == pytest.approx(traced.seconds, rel=0.05)


def _bench() -> hostpaths.HostPaths:
    return hostpaths.HostPaths(ROOT, grids.DEFAULT_SEED)


def _gone(pid: int) -> bool:
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


def test_hanging_invocation_is_killed_and_counted_failed(tmp_path):
    # The child starts a grandchild that would hold the pipes open, then hangs.
    script = (
        "import subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print(child.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    children = hostpaths.Children()
    started = time.monotonic()
    try:
        run = hostpaths.invoke(
            children, "submit", [sys.executable, "-c", script], tmp_path,
            hostpaths.child_env(ROOT), timeout=1.0,
        )
    finally:
        children.close()
    assert time.monotonic() - started < 10
    assert run.timed_out
    assert _gone(int(run.stdout.split()[0]))
    bench = _bench()
    bench.check(run, expect_cached=False)
    points = len(bench.expected["cycles"])
    assert (bench.attempted_points, bench.failed_points) == (points, points)
    assert "timed out" in bench.failures[0]


def test_nonzero_exit_is_counted_failed(tmp_path):
    children = hostpaths.Children()
    try:
        run = hostpaths.invoke(
            children, "distributed",
            [sys.executable, "-c", "import sys; print('boom', file=sys.stderr); sys.exit(3)"],
            tmp_path, hostpaths.child_env(ROOT), timeout=30.0,
        )
    finally:
        children.close()
    assert run.returncode == 3 and not run.timed_out
    bench = _bench()
    bench.check(run, expect_cached=False)
    assert bench.failed_points == bench.attempted_points > 0
    assert "exit code 3: boom" in bench.failures[0]


def test_progress_lines_are_parsed_with_their_timestamps():
    run = hostpaths.Invocation("serial")
    run.stderr = [
        (0.5, "[1/8] tightloop[iterations=2] Baseline cores=8 seed=2016: 5960 cycles (simulated)"),
        (0.6, "[2/8] tightloop[iterations=2] WiSync cores=8 seed=2016: 2626 cycles (cached)"),
        (0.7, "fig7: 1 simulated, 1 cached, 0.1s (serial)"),
    ]
    assert run.progress() == [
        (0.5, "tightloop[iterations=2] Baseline cores=8 seed=2016", 5960, "simulated"),
        (0.6, "tightloop[iterations=2] WiSync cores=8 seed=2016", 2626, "cached"),
    ]
    assert run.summary() == (1, 1)
