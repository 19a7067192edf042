"""The three simulator workloads: a closed loop of ``execute_spec`` calls.

One client runs the workload's grid points serially, in-process, one at a
time, through the public ``repro.runner.executor.execute_spec``.  A *pass* is
one run over the whole grid; a run repeats passes until its time is spent
(and at least :data:`grids.MIN_PASSES` times).
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import grids
import hostspeed
import layers
import metrics

#: A grid point taking longer than this counts as timed out (failed).
SPEC_TIMEOUT_S = 60.0

#: Fresh-interpreter cold starts per run; ``setup_s`` is their median.
SETUP_TRIALS = 5

_COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
import repro
from repro.machine.manycore import Manycore
from repro.runner.executor import build_config_for
from repro.runner.registry import REGISTRY
from repro.runner.spec import RunSpec
spec = RunSpec.from_dict(json.loads(sys.argv[2]))
REGISTRY.build(Manycore(build_config_for(spec)), spec.workload, spec.params_dict())
"""


def cold_start_s(root: Path, spec, timeout: float = 60.0) -> float:
    """Wall time for a fresh interpreter to import repro and build ``spec``'s machine."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _COLD_START, str(root / "src"), json.dumps(spec.to_dict())],
        cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    # A blocking wait: Popen.wait(timeout) polls with sleeps of up to 50 ms,
    # which would quantize the measurement.
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, proc.args)
    return elapsed


def setup_s(root: Path, spec, trials: int = SETUP_TRIALS) -> float:
    """Median cold start, in seconds on the reference host (see hostspeed)."""
    gauge = hostspeed.Gauge()
    return metrics.median(
        cold_start_s(root, spec) / gauge.sample() for _ in range(trials)
    )


class Pass:
    """One run over a grid: per-point host times, outputs and failures."""

    def __init__(self) -> None:
        self.times: List[float] = []
        #: ``times`` in seconds on the reference host (see hostspeed).
        self.scaled: List[float] = []
        self.records: Dict[str, Dict[str, Any]] = {}
        self.results: List[Any] = []
        #: label -> why the grid point failed (one entry per failed point).
        self.failures: Dict[str, str] = {}

    @property
    def seconds(self) -> float:
        return sum(self.times)


def run_pass(
    specs: Sequence,
    reference: Dict[str, Dict[str, Any]],
    tracer: Optional[layers.LayerTracer] = None,
    keep_results: bool = False,
    gauge: Optional[hostspeed.Gauge] = None,
) -> Pass:
    """Execute every spec once and check it against ``reference``.

    ``reference`` maps a grid point's label to its expected output record;
    points missing from it are recorded into it (the first pass of a seed
    without committed outputs becomes the reference for the later ones).
    """
    from repro.runner.executor import execute_spec

    outcome = Pass()
    gauge = gauge or hostspeed.Gauge()
    for spec in specs:
        label = spec.label()
        slowdown = gauge.sample()
        started = time.perf_counter()
        try:
            if tracer is None:
                result = execute_spec(spec)
            else:
                with tracer.span("runner"):
                    result = execute_spec(spec)
        except Exception as error:  # a failed grid point, not a failed benchmark
            outcome.times.append(time.perf_counter() - started)
            outcome.scaled.append(outcome.times[-1] / slowdown)
            outcome.failures[label] = f"{type(error).__name__}: {error}"
            continue
        elapsed = time.perf_counter() - started
        outcome.times.append(elapsed)
        outcome.scaled.append(elapsed / slowdown)
        record = metrics.output_record(result)
        outcome.records[label] = record
        if keep_results:
            outcome.results.append(result)
        expected = reference.setdefault(label, record)
        problem = metrics.output_problem(result)
        if not problem and elapsed > SPEC_TIMEOUT_S:
            problem = f"timed out ({elapsed:.1f}s > {SPEC_TIMEOUT_S:.0f}s)"
        if not problem:
            fields = metrics.mismatched(expected, record)
            problem = f"output differs from expected in {fields}" if fields else ""
        if problem:
            outcome.failures[label] = problem
    return outcome


def expected_path(root: Path, workload: str) -> Path:
    return root / "perfbench" / "expected" / f"{workload}.json"


def load_expected(root: Path, workload: str, seed: int) -> Dict[str, Dict[str, Any]]:
    """Committed expected outputs for the default seed; empty for other seeds."""
    if seed != grids.DEFAULT_SEED:
        return {}
    payload = json.loads(expected_path(root, workload).read_text(encoding="utf-8"))
    return payload["outputs"]


def write_expected(root: Path, workload: str) -> Path:
    """Record the current outputs of ``workload`` at the default seed."""
    reference: Dict[str, Dict[str, Any]] = {}
    outcome = run_pass(grids.GRIDS[workload](grids.DEFAULT_SEED), reference)
    if outcome.failures:
        raise RuntimeError(f"{workload}: {outcome.failures}")
    path = expected_path(root, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": workload,
        "seed": grids.DEFAULT_SEED,
        "digest": metrics.outputs_digest(outcome.records),
        "outputs": outcome.records,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


class Report:
    """What a run measured, ready for printing."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0

    def add_pass(self, outcome: Pass) -> None:
        self.attempted += len(outcome.times)
        self.failed += len(outcome.failures)
        self.failures.extend(f"{label}: {why}" for label, why in outcome.failures.items())


def measure(root: Path, workload: str, seed: int, seconds: float) -> Report:
    """The end-to-end metrics of a simulator workload (untraced)."""
    specs = grids.GRIDS[workload](seed)
    report = Report()
    report.metrics["setup_s"] = setup_s(root, specs[0])
    reference = load_expected(root, workload, seed)
    gauge = hostspeed.Gauge()
    passes, peak_mb = _timed_passes(
        seconds, lambda: run_pass(specs, reference, gauge=gauge)
    )
    samples: List[float] = []
    for outcome in passes:
        report.add_pass(outcome)
        samples.extend(outcome.scaled)
    percentile = metrics.tail_percentile(grids.MIN_PASSES * len(specs))
    p50, tail, beyond = metrics.timing_summary(samples, percentile)
    report.metrics.update(
        sweep_s=metrics.pass_seconds([p.scaled for p in passes]),
        spec_p50_s=p50,
        spec_tail_s=tail,
        peak_rss_mb=peak_mb,
    )
    report.notes.append(
        f"{len(specs)} grid points x {len(passes)} passes; spec_tail_s is "
        f"p{percentile} of {len(samples)} samples ({beyond} beyond it)"
    )
    report.notes.append(f"output digest: {metrics.outputs_digest(passes[0].records)}")
    return report


def measure_layers(
    specs: Sequence, seconds: float, reference: Dict[str, Dict[str, Any]]
) -> Report:
    """Per-layer metrics: alternating untraced and traced passes over ``specs``.

    Counts come from the first untraced pass; calls, self time and shares
    from the traced passes, whose outputs must equal the untraced ones.
    """
    report = Report()
    plain: List[Pass] = []
    traced: List[Pass] = []
    self_s: Dict[str, List[float]] = {layer: [] for layer in layers.LAYERS}
    shares: Dict[str, List[float]] = {layer: [] for layer in layers.LAYERS}
    calls: Dict[str, int] = {}
    gauge = hostspeed.Gauge()
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() + plain[-1].seconds + traced[-1].seconds < deadline:
        plain.append(run_pass(specs, reference, keep_results=not plain, gauge=gauge))
        with layers.traced_layers() as tracer:
            outcome = run_pass(specs, reference, tracer=tracer, gauge=gauge)
        traced.append(outcome)
        total = sum(tracer.self_s.values())
        for layer in layers.LAYERS:
            self_s[layer].append(tracer.self_s[layer])
            shares[layer].append(tracer.self_s[layer] / total if total else 0.0)
        calls = dict(tracer.calls)
        for label, record in outcome.records.items():
            if plain[-1].records.get(label) != record:
                outcome.failures.setdefault(label, "traced output differs from untraced")
        report.add_pass(plain[-1])
        report.add_pass(outcome)
    report.metrics.update(metrics.layer_counts(plain[0].results))
    untraced_s = metrics.pass_seconds([p.scaled for p in plain])
    traced_s = metrics.pass_seconds([p.scaled for p in traced])
    report.metrics["sim.events_per_s"] = report.metrics["sim.events"] / untraced_s
    for layer in layers.LAYERS:
        report.metrics[f"{layer}.calls"] = calls[layer]
        report.metrics[f"{layer}.self_s"] = metrics.median(self_s[layer])
        report.metrics[f"{layer}.share"] = metrics.median(shares[layer])
    report.metrics["trace.overhead_ratio"] = traced_s / untraced_s
    report.notes.append(
        f"{len(plain)} untraced + {len(traced)} traced passes of {len(specs)} grid points"
    )
    report.notes.append(f"output digest: {metrics.outputs_digest(plain[0].records)}")
    return report


def _timed_passes(seconds: float, one_pass):
    """Run passes until ``seconds`` would be exceeded (at least MIN_PASSES).

    Returns the passes and the peak RSS in MB after the first MIN_PASSES of
    them: the peak creeps up with every extra pass, so it is read after a
    fixed number of passes rather than after however many fit the time.
    """
    started = time.perf_counter()
    passes = [one_pass() for _ in range(grids.MIN_PASSES)]
    peak_mb = metrics.self_peak_rss_mb()
    while (
        time.perf_counter() - started + metrics.median(p.seconds for p in passes)
        <= seconds
    ):
        passes.append(one_pass())
    return passes, peak_mb
