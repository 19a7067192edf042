"""The perf-smoke gate: one perfbench workload, the checkout against its base.

    python3 .github/perf_gate.py WORKLOAD HEAD.json BASE.json

Each file holds the last line ``perfbench/run.py --trace 0`` printed (its
JSON result).  The gate fails when the checkout's result is missing or says
``"correct": false``, or when its ``sweep_s`` is more than 1.30x the base
commit's.  A missing or incorrect base result (a base commit without that
workload) gates correctness only.

It also prints every end-to-end metric ``BENCHMARK.json`` declares, for the
checkout and the base, with their ratio and the metric's regression bound.
Those lines are informational: only ``sweep_s`` is gated, and one pair of
runs is too few to judge the others.
"""

import json
import sys
from pathlib import Path

#: Largest allowed checkout/base ratio of ``sweep_s``.
MAX_RATIO = 1.30

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
    print(f"{workload} end-to-end metrics (informational; the gate reads sweep_s only):")
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
    return None


if __name__ == "__main__":
    workload, head_path, base_path = sys.argv[1:]
    sys.exit(gate(workload, result(head_path), result(base_path)))
