"""The perf-smoke gate: one perfbench workload, the checkout against its base.

    python3 .github/perf_gate.py WORKLOAD HEAD.json BASE.json

Each file holds the last line ``perfbench/run.py --trace 0`` printed (its
JSON result).  The gate fails when the checkout's result is missing or says
``"correct": false``, when its ``sweep_s`` is more than 1.30x the base
commit's, or when its ``peak_rss_mb`` is more than the base commit's times
its ``BENCHMARK.json`` bound (1.10x).  A missing or incorrect base result (a
base commit without that workload) gates correctness only.

``peak_rss_mb`` is gated on one pair of runs because it is steady: each
spec's machine is freed when the spec ends (``execute_spec``), so the peak
no longer depends on when the collector happens to run, and it spreads
under 2% between runs.  The timings spread more, so ``sweep_s`` has the
wider 1.30x limit.

It also prints every end-to-end metric ``BENCHMARK.json`` declares, for the
checkout and the base, with their ratio and the metric's regression bound.
The other three timings are informational: one pair of runs is too few to
judge them.
"""

import json
import sys
from pathlib import Path

#: Largest allowed checkout/base ratio of ``sweep_s``.
MAX_RATIO = 1.30

#: The metric gated at its own ``BENCHMARK.json`` bound.
PEAK = "peak_rss_mb"

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def result(path):
    try:
        with open(path, encoding="utf-8") as handle:
            line = json.loads(handle.read())
    except (OSError, ValueError):
        return None
    return line if isinstance(line, dict) else None


def end_to_end():
    """The ``end_to_end`` entries of ``BENCHMARK.json`` (none if unreadable)."""
    try:
        with open(BENCHMARK, encoding="utf-8") as handle:
            return json.load(handle)["end_to_end"]
    except (OSError, ValueError, KeyError):
        return []


def report(workload, head, base):
    """Print each end-to-end metric of the checkout against the base's."""
    base_metrics = base["metrics"] if base is not None and base.get("correct") else {}
    print(f"{workload} end-to-end metrics (the gate reads sweep_s and {PEAK}):")
    for metric in end_to_end():
        name, unit, bound = metric["name"], metric["unit"], metric["bound"]
        limit = 1 + bound if metric["better"] == "lower" else 1 - bound
        value = head["metrics"].get(name, {}).get("value")
        if value is None:
            continue
        was = base_metrics.get(name, {}).get("value")
        line = f"  {workload} {name}: head {value:.4g} {unit}"
        if was is not None:
            ratio = f"{value / was:.3f}x" if was else "n/a"
            line += f", base {was:.4g} {unit}, ratio {ratio}"
        print(f"{line} (BENCHMARK.json bound {limit:.2f}x)")


def gate(workload, head, base):
    """The failure message, or None when the checkout passes."""
    if head is None or not head.get("correct"):
        return f"{workload} failed: {head}"
    report(workload, head, base)
    sweep = head["metrics"]["sweep_s"]["value"]
    if base is None or not base.get("correct"):
        print(f"{workload} sweep_s {sweep:.3f}s; no usable base-commit run")
        return None
    limit = MAX_RATIO * base["metrics"]["sweep_s"]["value"]
    print(f"{workload} sweep_s {sweep:.3f}s (limit {limit:.3f}s)")
    if sweep > limit:
        return f"{workload} sweep_s is more than {MAX_RATIO:.2f}x the base commit's"
    bounds = {metric["name"]: metric["bound"] for metric in end_to_end()}
    ratio = 1 + bounds[PEAK]
    peak = head["metrics"][PEAK]["value"]
    limit = ratio * base["metrics"][PEAK]["value"]
    print(f"{workload} {PEAK} {peak:.1f} MB (limit {limit:.1f} MB)")
    if peak > limit:
        return f"{workload} {PEAK} is more than {ratio:.2f}x the base commit's"
    return None


if __name__ == "__main__":
    workload, head_path, base_path = sys.argv[1:]
    sys.exit(gate(workload, result(head_path), result(base_path)))
