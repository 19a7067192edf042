"""The perf-smoke gate: one perfbench workload, the checkout against its base.

    python3 .github/perf_gate.py WORKLOAD HEAD.json BASE.json

Each file holds the last line ``perfbench/run.py --trace 0`` printed (its
JSON result).  The gate fails when the checkout's result is missing or says
``"correct": false``, or when its ``sweep_s`` is more than 1.30x the base
commit's.  A missing or incorrect base result (a base commit without that
workload) gates correctness only.
"""

import json
import sys

#: Largest allowed checkout/base ratio of ``sweep_s``.
MAX_RATIO = 1.30


def result(path):
    try:
        with open(path, encoding="utf-8") as handle:
            line = json.loads(handle.read())
    except (OSError, ValueError):
        return None
    return line if isinstance(line, dict) else None


def gate(workload, head, base):
    """The failure message, or None when the checkout passes."""
    if head is None or not head.get("correct"):
        return f"{workload} failed: {head}"
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
