"""The repository benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload coherence_sync --seed 2016 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that attributes host time to
the simulator's layers.  Human-readable lines come first; the last line of
standard output is the JSON result.  See ``NOTES.md`` for the workloads and
what each metric should and should not move.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

import grids
import metrics

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=grids.WORKLOADS)
    parser.add_argument("--seed", type=int, default=grids.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace):
    import hostpaths
    import simbench

    if args.workload == grids.HOST_WORKLOAD:
        return hostpaths.measure(ROOT, args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        return simbench.measure(ROOT, args.workload, args.seed, args.seconds)
    report = simbench.measure_layers(
        grids.GRIDS[args.workload](args.seed),
        args.seconds,
        simbench.load_expected(ROOT, args.workload, args.seed),
    )
    report.metrics.update(dict.fromkeys(metrics.PATH_METRICS, 0.0))
    return report


def result_line(report, trace: bool) -> str:
    """The JSON result: exactly the metrics of the requested kind."""
    names = [name for name, _, _ in metrics.PER_LAYER] if trace else list(metrics.END_TO_END)
    units = {name: metrics.UNITS[name] for name in names}
    if set(report.metrics) != set(units):
        missing = sorted(set(units) - set(report.metrics))
        extra = sorted(set(report.metrics) - set(units))
        raise RuntimeError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    for name, value in report.metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    return json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit} for name, unit in units.items()
        },
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds like Ctrl-C, so every child process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    report = measure(args)
    kind = "per-layer (traced run)" if args.trace else "end-to-end (untraced)"
    print(f"workload {args.workload}, seed {args.seed}: {kind} metrics")
    for note in report.notes:
        print(f"  {note}")
    for name, value in report.metrics.items():
        print(f"  {name:<34} {value:>16.6g} {metrics.UNITS[name]}")
    ratio = report.failed / report.attempted if report.attempted else 0.0
    print(f"  {'failed_ratio':<34} {ratio:>16.6g} fraction ({report.failed}/{report.attempted})")
    for failure in report.failures[:20]:
        print(f"  FAILED {failure}")
    print(result_line(report, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
