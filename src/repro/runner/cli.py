"""``python -m repro``: drive the paper's experiments from the command line.

::

    python -m repro list
    python -m repro run fig7 --cores 16,32 --configs WiSync,Baseline --parallel 8
    python -m repro run fig7 --quick --distributed 2
    python -m repro run scenarios --distributed 0 --bind 0.0.0.0:7787 --cache /nfs/sweep-cache
    python -m repro worker --connect sweephost:7787
    python -m repro run fig9 --cores 64 --crit 16,256 --json fig9.json
    python -m repro run fig10 --apps streamcluster,raytrace --cache .wisync-cache
    python -m repro run scenarios --contention low,high --backoffs broadcast_aware,exponential --progress
    python -m repro report fig7 --cores 16,32 --cache .wisync-cache --json fig7_frame.json
    python -m repro report scenarios --contention low,high --csv scenarios.csv
    python -m repro compare old_frame.json new_frame.json --threshold cycles=0.05
    python -m repro scenarios
    python -m repro run fig7 --checkpoint-every 200000 --run-id nightly
    python -m repro run --resume nightly
    python -m repro run fig7 --quick --bind 0.0.0.0:7787 --checkpoint-every 200000 --run-id nightly
    python -m repro run --resume nightly --bind 0.0.0.0:7787
    python -m repro workers --connect sweephost:7787 --pool 4
    python -m repro chaos --seed 0 --kills broker,worker
    python -m repro snapshot save --workload tightloop --param iterations=100 --events 100000
    python -m repro snapshot restore <spec-key>.snapshot.json
    python -m repro snapshot inspect <spec-key>.snapshot.json
    python -m repro run fig7 --checkpoint-every 200000 --auto-snapshot 8 --run-id nightly
    python -m repro debug --workload tightloop --param iterations=200 \\
        --exec 'step 20000; threads; back; inspect; quit'
    python -m repro debug --from .wisync-runs/nightly/checkpoints/<key>.ring-000000400000.ckpt.json
    python -m repro serve --bind 0.0.0.0:7787 --http 0.0.0.0:7788 --journal /var/lib/wisync --cache /var/lib/wisync-cache
    python -m repro run fig7 --quick --submit http://sweephost:7788
    python -m repro jobs list http://sweephost:7788
    python -m repro jobs cancel http://sweephost:7788 job-0003-9f2c1a

``run`` and ``report`` share one path: the name selects the experiment's
:class:`~repro.experiments.common.Experiment` record, whose sweep runs on
the Runner the flags build and whose Report turns the frame into the table.
``run`` reports how many grid points were freshly simulated versus served
from the cache, so a repeated invocation with ``--cache`` visibly performs
zero new simulations; ``--progress`` streams one line per grid point to
stderr as it completes.  ``report`` renders an experiment's paper table from
its :class:`~repro.analysis.frame.MetricFrame` (with ``--cache`` a warm
cache makes this pure rendering — zero simulations) and can write the frame
as lossless JSON/CSV.  ``compare`` diffs two such frames with per-metric
regression thresholds.  ``scenarios`` prints the contention-scenario
catalog.

``--distributed N`` runs a sweep through the TCP broker with N localhost
worker subprocesses; ``--bind HOST:PORT`` additionally (or, with
``--distributed 0``, exclusively) lets external hosts join by running
``python -m repro worker --connect HOST:PORT``.  ``--quick`` shrinks every
axis the invocation did not set explicitly down to a CI-sized smoke grid.

Every ``run`` records a resumable manifest under ``.wisync-runs/<run-id>/``
(disable with ``--no-manifest``); ``run --resume RUN_ID`` rebuilds the same
grid, skips grid points its result cache already holds, and — when the run
used ``--checkpoint-every N`` — fast-forwards the spec that was mid-flight
from its last checkpoint, serial or ``--distributed``/``--bind`` alike.
``snapshot save/restore/inspect`` exposes single-simulation checkpoints
directly; restores are verified bit-for-bit against the snapshot's captured
engine/rng/stats state.  ``debug`` opens a
time-travel session on one spec: stepping forward banks an auto-snapshot
ring, stepping backward restores the nearest banked moment in O(state).
``run --auto-snapshot K`` leaves the same ring files behind in
the run's ``checkpoints/`` directory for post-hoc ``debug --from``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.errors import ReproError
from repro.runner.cache import ResultCache
from repro.runner.executor import ParallelExecutor, SerialExecutor
from repro.runner.registry import workload_names
from repro.runner.runner import Runner, SpecProgress
from repro.runner.supervisor import WORKER_FAULTS


def _comma_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _comma_strs(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _experiment_name(text: str) -> str:
    """argparse ``type`` for an experiment name.

    A ``type`` rather than ``choices``: the names come from
    :mod:`repro.experiments`, which only a command that names an experiment
    should import (an idle ``repro worker`` never does).
    """
    from repro.experiments import experiment_names

    names = experiment_names()
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})"
        )
    return text


def _json_safe(value: Any) -> Any:
    """Make experiment tables JSON-serializable (tuple keys -> strings)."""
    if isinstance(value, dict):
        return {
            (",".join(str(p) for p in k) if isinstance(k, tuple) else str(k)): _json_safe(v)
            for k, v in value.items()
        }
    return value


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WiSync (ASPLOS'16) reproduction: run the paper's experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list experiments, registered workloads, and configurations"
    )
    list_parser.add_argument("--json", action="store_true", help="emit JSON instead of text")

    def add_sweep_arguments(
        parser: argparse.ArgumentParser, experiment_optional: bool = False
    ) -> None:
        """Axis/executor flags shared by the ``run`` and ``report`` commands."""
        if experiment_optional:
            # ``run --resume RUN_ID`` restores the experiment from the
            # manifest; _cmd_run enforces presence for fresh runs.
            parser.add_argument(
                "experiment", nargs="?", default=None, type=_experiment_name,
                help="experiment name (see 'repro list')",
            )
        else:
            parser.add_argument(
                "experiment", type=_experiment_name,
                help="experiment name (see 'repro list')",
            )
        parser.add_argument(
            "--cores", type=_comma_ints, default=None, metavar="N,N,...",
            help="core counts to sweep (fig7/8/9) or the single core count (fig10/11, table5)",
        )
        parser.add_argument(
            "--configs", type=_comma_strs, default=None, metavar="A,B,...",
            help="Table 2 configuration labels (default: the experiment's own set)",
        )
        parser.add_argument(
            "--parallel", type=int, default=0, metavar="N",
            help="run the sweep on a process pool with N workers (0 = serial)",
        )
        parser.add_argument(
            "--distributed", type=int, default=0, metavar="N",
            help="run the sweep through the TCP broker with N localhost "
                 "worker subprocesses (0 = off unless --bind is given)",
        )
        parser.add_argument(
            "--bind", default=None, metavar="HOST:PORT",
            help="broker bind address so external 'repro worker --connect' "
                 "processes can join (default: 127.0.0.1 on an ephemeral port)",
        )
        parser.add_argument(
            "--quick", action="store_true",
            help="shrink sweep axes you did not set explicitly to a small "
                 "smoke grid (what CI runs)",
        )
        parser.add_argument(
            "--cache", default=None, metavar="DIR",
            help="directory for the on-disk result cache (created if missing)",
        )
        parser.add_argument("--quiet", action="store_true", help="suppress the formatted table")
        parser.add_argument(
            "--progress", action="store_true",
            help="stream one line per completed grid point to stderr",
        )
        # Experiment-specific knobs (ignored by experiments that do not use
        # them).  They default to None so --quick can tell an unset flag from
        # an explicitly passed one; an axis left unset keeps the default of
        # the experiment's sweep builder.
        parser.add_argument(
            "--iterations", type=int, default=None,
            help="fig7: loop iterations (default 5)",
        )
        parser.add_argument(
            "--repetitions", type=int, default=None,
            help="fig8: loop repetitions (default 2)",
        )
        parser.add_argument(
            "--crit", type=_comma_ints, default=None, metavar="N,N,...",
            help="fig9: critical-section sizes (instructions between CASes)",
        )
        parser.add_argument(
            "--apps", type=_comma_strs, default=None, metavar="A,B,...",
            help="fig10/fig11/table5: application subset",
        )
        parser.add_argument(
            "--phase-scale", type=float, default=None,
            help="fig10/fig11/table5: scale factor on application phases",
        )
        parser.add_argument(
            "--variants", type=_comma_strs, default=None, metavar="A,B,...",
            help="fig11: Table 6 sensitivity variants",
        )
        parser.add_argument(
            "--scenarios", type=_comma_strs, default=None, metavar="A,B,...",
            help="scenarios: contention-scenario subset (default: all; see 'repro scenarios')",
        )
        parser.add_argument(
            "--contention", type=_comma_strs, default=None, metavar="L,L,...",
            help="scenarios: contention levels to sweep (low, medium, high)",
        )
        parser.add_argument(
            "--backoffs", type=_comma_strs, default=None, metavar="K,K,...",
            help="scenarios: MAC backoff kinds to sweep on wireless configurations "
                 "(broadcast_aware, exponential, fixed)",
        )

    run_parser = subparsers.add_parser("run", help="run one experiment's sweep")
    add_sweep_arguments(run_parser, experiment_optional=True)
    run_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the experiment's structured results to PATH as JSON ('-' = stdout)",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="EVENTS",
        help="checkpoint each in-flight simulation every N events (serial and "
             "distributed sweeps), so a killed run resumes mid-spec",
    )
    run_parser.add_argument(
        "--auto-snapshot", type=int, default=None, metavar="K",
        help="bank each periodic checkpoint as a ring file in the run's "
             "checkpoints/ directory, pruned to the last K per grid point "
             "(needs --checkpoint-every; serial sweeps), so 'repro debug "
             "--from <ring file>' can time-travel a finished or crashed run",
    )
    run_parser.add_argument(
        "--spec-deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per grid point; overruns degrade gracefully "
             "(completed results kept, PartialSweepError names the rest)",
    )
    run_parser.add_argument(
        "--sweep-deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole sweep; see --spec-deadline",
    )
    run_parser.add_argument(
        "--run-id", default=None, metavar="ID",
        help="name for this run's manifest directory (default: generated)",
    )
    run_parser.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="continue a previous run: restores its sweep arguments, skips "
             "completed grid points, and fast-forwards mid-spec checkpoints",
    )
    run_parser.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="where run manifests live (default: $REPRO_RUNS_DIR or .wisync-runs)",
    )
    run_parser.add_argument(
        "--no-manifest", action="store_true",
        help="do not record a resumable run manifest for this sweep",
    )
    run_parser.add_argument(
        "--submit", default=None, metavar="URL",
        help="submit the sweep to a persistent 'repro serve' daemon at URL "
             "instead of executing locally; results flow back through the "
             "normal cache/manifest path, bit-identical to a local run",
    )
    run_parser.add_argument(
        "--job-name", default=None, metavar="NAME",
        help="job name shown by 'repro jobs list' (--submit only; "
             "default: the sweep's own name)",
    )
    run_parser.add_argument(
        "--priority", type=int, default=1, metavar="N",
        help="fair-share weight on the service, >= 1: a priority-3 job gets "
             "~3x the worker slots of a priority-1 job (--submit only)",
    )
    run_parser.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="longest one status request waits on the service for new "
             "results of a submitted job; results stream as they land "
             "(--submit only; default 0.5)",
    )
    run_parser.add_argument(
        "--token", default=os.environ.get("REPRO_SERVICE_TOKEN"),
        metavar="TOKEN",
        help="shared service auth token (--submit only; "
             "default: $REPRO_SERVICE_TOKEN)",
    )

    report_parser = subparsers.add_parser(
        "report",
        help="render an experiment's paper table from its MetricFrame "
             "(pure rendering when the cache is warm)",
    )
    add_sweep_arguments(report_parser)
    report_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the derived MetricFrame to PATH as lossless JSON ('-' = stdout); "
             "feed these files to 'repro compare'",
    )
    report_parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the derived MetricFrame to PATH as typed CSV ('-' = stdout)",
    )

    compare_parser = subparsers.add_parser(
        "compare",
        help="diff two MetricFrame JSON files (from 'report --json') "
             "with per-metric thresholds",
    )
    compare_parser.add_argument("baseline", help="baseline payload path")
    compare_parser.add_argument("candidate", help="candidate payload path")
    compare_parser.add_argument(
        "--metrics", type=_comma_strs, default=None, metavar="A,B,...",
        help="metric columns to compare (default: all shared numeric metrics)",
    )
    compare_parser.add_argument(
        "--threshold", action="append", default=[], metavar="METRIC=FRACTION",
        help="per-metric regression gate, e.g. events_per_sec=0.30 (repeatable)",
    )
    compare_parser.add_argument(
        "--max-regression", type=float, default=None, metavar="FRACTION",
        help="default regression gate applied to every compared metric",
    )
    compare_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the structured comparison to PATH as JSON ('-' = stdout)",
    )
    compare_parser.add_argument("--quiet", action="store_true", help="suppress the diff table")

    worker_parser = subparsers.add_parser(
        "worker",
        help="pull sweep specs from a distributed broker and push results back",
    )
    worker_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="broker address (printed by the sweep host, or set via --bind)",
    )
    worker_parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="lease-heartbeat interval (default: a third of the broker's lease)",
    )
    worker_parser.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="exit after completing N specs (default: run until the broker drains)",
    )
    worker_parser.add_argument(
        "--fault", choices=list(WORKER_FAULTS), default=None,
        help="fault injection for tests and chaos drills "
             "(also settable via REPRO_WORKER_FAULT)",
    )
    worker_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="EVENTS",
        help="local default checkpoint interval; a checkpointing broker's "
             "per-task interval takes precedence",
    )
    worker_parser.add_argument(
        "--redial", type=float, default=None, metavar="SECONDS",
        help="ride out broker outages: redial a lost (idle-phase) broker "
             "with jittered backoff for up to SECONDS before draining "
             "(default: drain immediately; use with brokers that come "
             "back: a resumed --bind sweep host or a journaled daemon)",
    )
    worker_parser.add_argument(
        "--token", default=os.environ.get("REPRO_SERVICE_TOKEN"),
        metavar="TOKEN",
        help="shared auth token when joining a 'repro serve' daemon "
             "(default: $REPRO_SERVICE_TOKEN)",
    )

    workers_parser = subparsers.add_parser(
        "workers",
        help="run a self-healing pool of workers against one broker "
             "(respawns crashes with backoff; circuit breaker on rapid failures)",
    )
    workers_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="broker address (printed by the sweep host, or set via --bind)",
    )
    workers_parser.add_argument(
        "--pool", type=int, default=2, metavar="N",
        help="number of worker subprocesses to supervise (default 2)",
    )
    workers_parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="lease-heartbeat interval passed to each worker",
    )
    workers_parser.add_argument(
        "--redial", type=float, default=30.0, metavar="SECONDS",
        help="per-worker broker-outage redial budget (default 30; 0 = off)",
    )
    workers_parser.add_argument(
        "--fault", choices=list(WORKER_FAULTS), default=None,
        help="fault injection applied to every slot — and respawned, so the "
             "circuit breaker is exercised (tests and chaos drills)",
    )
    workers_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="EVENTS",
        help="local default checkpoint interval passed to each worker",
    )
    workers_parser.add_argument(
        "--max-rapid-failures", type=int, default=3, metavar="N",
        help="consecutive rapid failures before a slot's circuit breaker "
             "opens and the pool reports the host sick (default 3)",
    )
    workers_parser.add_argument(
        "--token", default=os.environ.get("REPRO_SERVICE_TOKEN"),
        metavar="TOKEN",
        help="shared auth token when joining a 'repro serve' daemon "
             "(default: $REPRO_SERVICE_TOKEN)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the persistent multi-tenant sweep service: named job "
             "queues, fair-share scheduling, HTTP submit-and-poll API",
    )
    serve_parser.add_argument(
        "--bind", default="127.0.0.1:0", metavar="HOST:PORT",
        help="worker TCP plane bind address ('repro worker --connect' "
             "processes join here; default 127.0.0.1 on an ephemeral port)",
    )
    serve_parser.add_argument(
        "--http", default="127.0.0.1:0", metavar="HOST:PORT",
        help="HTTP/JSON API bind address (clients submit and poll here; "
             "default 127.0.0.1 on an ephemeral port)",
    )
    serve_parser.add_argument(
        "--journal", default=None, metavar="DIR",
        help="write-ahead journal directory: a SIGKILL'd daemon restarted "
             "on the same directory replays it and resumes every live job "
             "(shipped checkpoints are kept in DIR/checkpoints/)",
    )
    serve_parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="service-side result cache: a submitted spec already cached is "
             "answered immediately without reaching any worker",
    )
    serve_parser.add_argument(
        "--token", default=os.environ.get("REPRO_SERVICE_TOKEN"),
        metavar="TOKEN",
        help="require this shared token on both the HTTP and worker planes "
             "(default: $REPRO_SERVICE_TOKEN; unset = open)",
    )
    serve_parser.add_argument(
        "--lease-seconds", type=float, default=None, metavar="SECONDS",
        help="task lease duration before a silent worker forfeits its spec",
    )
    serve_parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="attempts per spec before the service marks it failed",
    )
    serve_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="EVENTS",
        help="ask workers to checkpoint in-flight simulations every N events "
             "(requeued specs then resume mid-spec on another worker)",
    )

    jobs_parser = subparsers.add_parser(
        "jobs", help="inspect or cancel jobs on a 'repro serve' daemon"
    )
    jobs_sub = jobs_parser.add_subparsers(dest="jobs_command", required=True)

    def add_jobs_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("url", metavar="URL", help="service HTTP API url")
        parser.add_argument(
            "--token", default=os.environ.get("REPRO_SERVICE_TOKEN"),
            metavar="TOKEN",
            help="shared service auth token (default: $REPRO_SERVICE_TOKEN)",
        )
        parser.add_argument(
            "--json", action="store_true", help="emit JSON instead of text"
        )

    jobs_list = jobs_sub.add_parser(
        "list", help="list every job with state and progress"
    )
    add_jobs_arguments(jobs_list)
    jobs_show = jobs_sub.add_parser(
        "show", help="show one job's summary and per-spec progress"
    )
    add_jobs_arguments(jobs_show)
    jobs_show.add_argument("job", metavar="JOB", help="job id")
    jobs_cancel = jobs_sub.add_parser(
        "cancel",
        help="cancel a job: unassigned specs are dropped, leased specs are "
             "released back to their workers' checkpoint/release path",
    )
    add_jobs_arguments(jobs_cancel)
    jobs_cancel.add_argument("job", metavar="JOB", help="job id")

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="seeded chaos drill: SIGKILL broker/workers mid-sweep, resume "
             "with --resume, verify results bit-identical to serial",
    )
    chaos_parser.add_argument(
        "experiment", nargs="?", default="fig7", type=_experiment_name,
        help="experiment to drill on its --quick grid (default fig7)",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="schedule seed; same seed, same kill schedule (default 0)",
    )
    chaos_parser.add_argument(
        "--kills", type=_comma_strs, default=["broker", "worker"],
        metavar="T,T,...",
        help="kill targets, one kill each: broker, worker "
             "(default broker,worker)",
    )
    chaos_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker subprocesses serving the drill sweep (default 2)",
    )
    chaos_parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="abort the drill after this long (default 600)",
    )

    def add_spec_arguments(
        parser: argparse.ArgumentParser, workload_required: bool = True
    ) -> None:
        """Single-simulation spec flags shared by ``snapshot save`` and ``debug``."""
        parser.add_argument(
            "--workload", required=workload_required, default=None,
            help="registered workload name",
        )
        parser.add_argument("--config", default="WiSync", help="Table 2 configuration")
        parser.add_argument("--cores", type=int, default=16, help="core count")
        parser.add_argument("--seed", type=int, default=None, help="root seed")
        parser.add_argument("--variant", default=None, help="sensitivity variant")
        parser.add_argument(
            "--max-cycles", type=int, default=None, help="cycle budget for the spec"
        )
        parser.add_argument(
            "--param", action="append", default=[], metavar="KEY=VALUE",
            help="workload parameter (repeatable; VALUE parsed as JSON, else string)",
        )

    snapshot_parser = subparsers.add_parser(
        "snapshot",
        help="save, restore, or inspect a single simulation checkpoint",
    )
    snapshot_sub = snapshot_parser.add_subparsers(dest="snapshot_command", required=True)
    snap_save = snapshot_sub.add_parser(
        "save", help="run one spec for N events and write its snapshot"
    )
    add_spec_arguments(snap_save)
    snap_save.add_argument(
        "--events", type=int, required=True, metavar="N",
        help="snapshot after exactly N simulation events",
    )
    snap_save.add_argument(
        "--output", default=None, metavar="PATH",
        help="snapshot file to write (default: <spec key>.snapshot.json)",
    )
    snap_restore = snapshot_sub.add_parser(
        "restore", help="restore a snapshot and run it to completion"
    )
    snap_restore.add_argument("path", help="snapshot file")
    snap_restore.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the finished SimResult to PATH as JSON ('-' = stdout)",
    )
    snap_inspect = snapshot_sub.add_parser(
        "inspect", help="validate a snapshot file and print its summary"
    )
    snap_inspect.add_argument("path", help="snapshot file")

    debug_parser = subparsers.add_parser(
        "debug",
        help="time-travel debugger: step a simulation forward and backward "
             "on an auto-snapshot ring (each backward hop is an O(state) "
             "restore)",
    )
    add_spec_arguments(debug_parser, workload_required=False)
    debug_parser.add_argument(
        "--from", dest="from_snapshot", default=None, metavar="PATH",
        help="start from a snapshot file (e.g. a --auto-snapshot ring file) "
             "instead of building the spec from scratch",
    )
    debug_parser.add_argument(
        "--interval", type=int, default=None, metavar="EVENTS",
        help="auto-snapshot cadence while stepping forward (default 5000)",
    )
    debug_parser.add_argument(
        "--ring", type=int, default=None, metavar="K",
        help="how many auto-snapshots to keep reachable (default 16; the "
             "session's starting point is always reachable on top)",
    )
    debug_parser.add_argument(
        "--exec", dest="script", default=None, metavar="'CMD; CMD; ...'",
        help="run a ';'-separated command script and exit instead of "
             "reading commands interactively from stdin",
    )

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="list the contention-scenario catalog (workloads, knobs, examples)"
    )
    scenarios_parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically check the determinism & contract rules (DET/SNAP/PROTO/ERR/SLOT)",
    )
    lint_parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    lint_parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint_parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    lint_parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file of grandfathered findings (see LINT_BASELINE.json)",
    )
    lint_parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import experiment_names
    from repro.experiments.common import CONFIG_BUILDERS
    from repro.experiments.fig11_sensitivity import variant_names

    inventory = {
        "experiments": experiment_names(),
        "workloads": workload_names(),
        "configs": list(CONFIG_BUILDERS),
        "variants": variant_names(),
    }
    if args.json:
        print(json.dumps(inventory, indent=2))
        return 0
    print("experiments:")
    for name in inventory["experiments"]:
        print(f"  {name}")
    print("workloads (registry):")
    for name in inventory["workloads"]:
        print(f"  {name}")
    print("configurations (Table 2):", ", ".join(inventory["configs"]))
    print("sensitivity variants (Table 6):", ", ".join(inventory["variants"]))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.workloads.contention_suite import SCENARIOS

    if args.json:
        payload = {
            name: {
                "summary": info.summary,
                "knobs": info.knobs_dict(),
                "example": info.example,
            }
            for name, info in sorted(SCENARIOS.items())
        }
        print(json.dumps(payload, indent=2))
        return 0
    print("contention scenarios (run with: python -m repro run scenarios --scenarios NAME):")
    for name, info in sorted(SCENARIOS.items()):
        print(f"\n  {name}")
        print(f"    {info.summary}")
        knobs = ", ".join(f"{knob}={default}" for knob, default in info.knobs)
        print(f"    knobs: {knobs}")
        print(f"    e.g.:  {info.example}")
    return 0


def _experiment_frame(args: argparse.Namespace, runner: Runner):
    """The path ``run`` and ``report`` share: name -> record -> sweep -> frame."""
    from repro.experiments import experiment

    record = experiment(args.experiment)
    kwargs = record.sweep_kwargs(
        vars(args), quick=args.quick,
        note=lambda text: print(f"note: {text}", file=sys.stderr),
    )
    return record, record.frame(runner, **kwargs)


def _build_executor(
    args: argparse.Namespace,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    auto_snapshot: Optional[int] = None,
):
    spec_deadline = getattr(args, "spec_deadline", None)
    sweep_deadline = getattr(args, "sweep_deadline", None)
    submit = getattr(args, "submit", None)
    if args.parallel < 0:
        raise ReproError(f"--parallel must be >= 0, got {args.parallel}")
    if args.distributed < 0:
        raise ReproError(f"--distributed must be >= 0, got {args.distributed}")
    if submit:
        if args.parallel > 0 or args.distributed > 0 or args.bind:
            raise ReproError(
                "--submit hands the sweep to a remote service; it is "
                "mutually exclusive with --parallel/--distributed/--bind"
            )
        if checkpoint_every is not None:
            raise ReproError(
                "--checkpoint-every configures a local broker; the "
                "'repro serve' daemon owns that knob for submitted sweeps"
            )
        if spec_deadline or sweep_deadline:
            raise ReproError(
                "--spec-deadline/--sweep-deadline are not supported with "
                "--submit; the service schedules its own workers"
            )
        from repro.runner.service_client import ServiceExecutor

        return ServiceExecutor(
            submit,
            token=getattr(args, "token", None),
            name=getattr(args, "job_name", None),
            priority=getattr(args, "priority", 1),
            poll_seconds=getattr(args, "poll", 0.5),
        )
    if args.parallel > 0 and (args.distributed > 0 or args.bind):
        raise ReproError("--parallel and --distributed/--bind are mutually exclusive")
    if args.parallel > 0 and checkpoint_every is not None:
        raise ReproError(
            "--checkpoint-every is not supported with --parallel; "
            "run serially or use --distributed"
        )
    if args.parallel > 0 and (spec_deadline or sweep_deadline):
        raise ReproError(
            "--spec-deadline/--sweep-deadline are not supported with "
            "--parallel; run serially or use --distributed"
        )
    if args.distributed > 0 or args.bind:
        from repro.runner.distributed import DistributedExecutor, parse_address

        host, port = parse_address(args.bind) if args.bind else ("127.0.0.1", 0)
        # (--distributed 0 is only reachable with --bind, so the bind flag
        # alone decides whether external workers are expected.)
        return DistributedExecutor(
            workers=args.distributed, host=host, port=port,
            external=bool(args.bind),
            checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
            spec_deadline=spec_deadline, sweep_deadline=sweep_deadline,
        )
    if args.parallel > 0:
        return ParallelExecutor(args.parallel)
    return SerialExecutor(
        checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
        spec_deadline=spec_deadline, sweep_deadline=sweep_deadline,
        auto_snapshot=auto_snapshot,
    )


def _build_runner(args: argparse.Namespace, manifest: Optional[Any] = None):
    """The cache/executor/progress plumbing shared by ``run`` and ``report``."""
    checkpoint_every = getattr(args, "checkpoint_every", None)
    # Whenever a manifest tracks the run, its checkpoints/ directory is live:
    # even without --checkpoint-every a resumed serial sweep fast-forwards any
    # mid-spec checkpoint the previous invocation left behind.
    checkpoint_dir = str(manifest.checkpoint_dir) if manifest is not None else None
    auto_snapshot = getattr(args, "auto_snapshot", None)
    if auto_snapshot is not None:
        if auto_snapshot < 1:
            raise ReproError(f"--auto-snapshot must be >= 1, got {auto_snapshot}")
        if checkpoint_every is None:
            raise ReproError(
                "--auto-snapshot banks the periodic checkpoints; it needs "
                "--checkpoint-every"
            )
        if checkpoint_dir is None:
            raise ReproError(
                "--auto-snapshot stores its ring files in the run's "
                "checkpoints/ directory; drop --no-manifest"
            )
        if args.distributed > 0 or args.bind or getattr(args, "submit", None):
            raise ReproError(
                "--auto-snapshot rings are written by the sweep process "
                "itself; run serially (no --distributed/--bind/--submit)"
            )
    executor = _build_executor(args, checkpoint_every, checkpoint_dir, auto_snapshot)
    cache = ResultCache(args.cache) if args.cache else None
    tally: Counter = Counter()  # grid points by event.cached, for the summary

    def progress(event: SpecProgress) -> None:
        tally[event.cached] += 1
        if args.progress:
            _stderr_line(event.describe())

    return Runner(executor=executor, cache=cache, progress=progress), tally


def _print_run_summary(
    args: argparse.Namespace, runner: Runner, tally: Counter, elapsed: float
) -> None:
    if getattr(args, "submit", None):
        mode = " (service)"
        job = getattr(runner.executor, "last_job", None)
        if job and job.get("short_circuited"):
            mode = (
                f" (service, {job['short_circuited']} answered from the "
                f"service cache)"
            )
    elif args.distributed > 0 or args.bind:
        mode = f" (distributed={args.distributed})"
    elif args.parallel > 0:
        mode = f" (parallel={args.parallel})"
    else:
        mode = " (serial)"
    print(
        f"{args.experiment}: {tally[False]} simulated, {tally[True]} cached, "
        f"{elapsed:.1f}s{mode}",
        file=sys.stderr,
    )


def _stderr_line(text: str) -> None:
    """Write one line to stderr in a single write.

    ``print`` writes the text and the newline separately, and stderr is
    unbuffered, so a local worker sharing the sweep's stderr could land its
    own line in between and split a ``--progress`` line in two.
    """
    sys.stderr.write(f"{text}\n")
    sys.stderr.flush()


def _write_text(payload: str, path: str) -> None:
    """Write ``payload`` to ``path``, with ``-`` meaning stdout."""
    if path == "-":
        print(payload)
    else:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(payload if payload.endswith("\n") else payload + "\n")
        print(f"wrote {path}", file=sys.stderr)


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.runner.distributed import parse_address, run_worker

    host, port = parse_address(args.connect)
    try:
        completed = run_worker(
            host, port,
            heartbeat=args.heartbeat, max_tasks=args.max_tasks, fault=args.fault,
            checkpoint_every=args.checkpoint_every, redial=args.redial,
            token=args.token,
        )
    except OSError as error:
        raise ReproError(f"cannot reach broker at {args.connect}: {error}")
    _stderr_line(f"worker drained: {completed} specs completed")
    return 0


def _cmd_workers(args: argparse.Namespace) -> int:
    from repro.runner.distributed import parse_address
    from repro.runner.supervisor import run_supervisor

    host, port = parse_address(args.connect)
    if args.pool < 1:
        raise ReproError(f"--pool must be >= 1, got {args.pool}")
    return run_supervisor(
        host, port, args.pool,
        heartbeat=args.heartbeat,
        redial=args.redial if args.redial else None,
        fault=args.fault,
        checkpoint_every=args.checkpoint_every,
        max_rapid_failures=args.max_rapid_failures,
        token=args.token,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runner.distributed import (
        DEFAULT_LEASE_SECONDS,
        DEFAULT_MAX_ATTEMPTS,
    )
    from repro.service import run_service

    return run_service(
        bind=args.bind,
        http=args.http,
        journal=args.journal,
        cache=args.cache,
        token=args.token,
        lease_seconds=(
            args.lease_seconds if args.lease_seconds is not None
            else DEFAULT_LEASE_SECONDS
        ),
        max_attempts=(
            args.max_attempts if args.max_attempts is not None
            else DEFAULT_MAX_ATTEMPTS
        ),
        checkpoint_every=args.checkpoint_every,
    )


def _format_job_line(job: Dict[str, Any]) -> str:
    progress = f"{job['done']}/{job['total']}"
    extras = []
    if job.get("failed"):
        extras.append(f"{job['failed']} failed")
    if job.get("short_circuited"):
        extras.append(f"{job['short_circuited']} cached")
    suffix = f" ({', '.join(extras)})" if extras else ""
    return (
        f"{job['job']}  {job['state']:<9}  {progress:>9}  "
        f"prio={job['priority']}  {job['name']}{suffix}"
    )


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.runner.service_client import ServiceClient

    client = ServiceClient(args.url, token=args.token)
    if args.jobs_command == "list":
        jobs = client.jobs()
        if args.json:
            print(json.dumps(jobs, indent=2, sort_keys=True))
            return 0
        if not jobs:
            print("no jobs")
            return 0
        for job in jobs:
            print(_format_job_line(job))
        return 0
    if args.jobs_command == "cancel":
        cancelled = client.cancel(args.job)
        if args.json:
            print(json.dumps(cancelled, indent=2, sort_keys=True))
        else:
            print(_format_job_line(cancelled))
        return 0
    detail = client.job(args.job)
    if args.json:
        print(json.dumps(detail, indent=2, sort_keys=True))
        return 0
    print(_format_job_line(detail))
    for entry in detail.get("specs", []):
        from repro.runner.spec import RunSpec

        label = RunSpec.from_dict(entry["spec"]).label()
        cached = " (cache short-circuit)" if entry.get("cached") else ""
        attempts = (
            f" attempts={entry['attempts']}" if entry.get("attempts") else ""
        )
        print(f"  [{entry['position']}] {entry['state']:<9} {label}"
              f"{attempts}{cached}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.runner.chaos import run_subprocess_drill

    return run_subprocess_drill(
        experiment=args.experiment,
        seed=args.seed,
        kills=args.kills,
        workers=args.workers,
        timeout=args.timeout,
    )


#: ``run`` arguments that shape the sweep grid itself — recorded in the run
#: manifest so ``--resume`` rebuilds the identical grid without repeating
#: them.  Execution flags (--parallel/--distributed/--progress/...) are
#: deliberately absent: the resuming invocation chooses those anew.
_MANIFEST_AXES = (
    "cores", "configs", "iterations", "repetitions", "crit", "apps",
    "phase_scale", "variants", "scenarios", "contention", "backoffs", "quick",
)


def _prepare_manifest(args: argparse.Namespace):
    """Create or reopen this run's manifest; restores --resume'd arguments.

    Must run before :func:`_build_runner`: resume restores the recorded
    sweep-shaping axes onto ``args`` (the current invocation's execution
    flags still win), and both paths may point ``--cache`` at the manifest's
    own results directory, where finished grid points are found on resume.
    """
    from repro.snapshot import RunManifest

    if args.resume:
        if args.run_id and args.run_id != args.resume:
            raise ReproError("--run-id and --resume name different runs")
        manifest = RunManifest.load(args.resume, runs_dir=args.runs_dir)
        if args.experiment is not None and args.experiment != manifest.experiment:
            raise ReproError(
                f"run {manifest.run_id!r} was a {manifest.experiment} sweep; "
                f"it cannot resume as {args.experiment}"
            )
        args.experiment = manifest.experiment
        for axis, value in manifest.args.items():
            if hasattr(args, axis):
                setattr(args, axis, value)
        if not args.cache:
            args.cache = manifest.cache_dir()
        manifest.mark_status("running")
        print(
            f"resuming run {manifest.run_id}: {manifest.experiment}",
            file=sys.stderr,
        )
        return manifest
    if args.no_manifest:
        if args.checkpoint_every is not None:
            raise ReproError(
                "--checkpoint-every needs a run manifest to store checkpoints; "
                "drop --no-manifest"
            )
        return None
    manifest = RunManifest.create(
        args.experiment,
        {axis: getattr(args, axis) for axis in _MANIFEST_AXES},
        runs_dir=args.runs_dir,
        run_id=args.run_id,
        cache_dir=args.cache,
    )
    if not args.cache:
        args.cache = manifest.cache_dir()
    print(
        f"run id: {manifest.run_id} "
        f"(continue a killed run with: repro run --resume {manifest.run_id})",
        file=sys.stderr,
    )
    return manifest


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment is None and not args.resume:
        raise ReproError("an experiment is required (or --resume RUN_ID)")
    manifest = _prepare_manifest(args)
    runner, tally = _build_runner(args, manifest)
    started = time.perf_counter()
    try:
        record, frame = _experiment_frame(args, runner)
        report = record.run_report or record.report
        table = report.table(frame)
    except BaseException:
        if manifest is not None:
            manifest.mark_status("failed")
        raise
    if manifest is not None:
        manifest.mark_status("completed")
    elapsed = time.perf_counter() - started
    if not args.quiet:
        print(report.render_table(table))
    _print_run_summary(args, runner, tally, elapsed)
    if args.json:
        _write_text(json.dumps(_json_safe(table), indent=2, sort_keys=True), args.json)
    return 0


def _spec_from_args(args: argparse.Namespace):
    """Build the single-simulation RunSpec from ``add_spec_arguments`` flags."""
    from repro.runner.spec import DEFAULT_SEED, RunSpec

    params: Dict[str, Any] = {}
    for entry in args.param:
        key, separator, raw = entry.partition("=")
        if not separator or not key:
            raise ReproError(f"--param must look like KEY=VALUE, got {entry!r}")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return RunSpec(
        workload=args.workload,
        params=tuple(params.items()),
        config=args.config,
        num_cores=args.cores,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        max_cycles=args.max_cycles,
        variant=args.variant,
    )


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.snapshot import (
        load_snapshot,
        resume_to_completion,
        save_snapshot,
        snapshot_after,
    )

    if args.snapshot_command == "save":
        spec = _spec_from_args(args)
        snapshot = snapshot_after(spec, args.events)
        path = args.output or f"{spec.key()[:12]}.snapshot.json"
        save_snapshot(snapshot, path)
        print(
            f"saved [{spec.label()}] at {snapshot.events_processed} events "
            f"(cycle {snapshot.clock}) to {path}",
            file=sys.stderr,
        )
        return 0
    snapshot = load_snapshot(args.path)
    if args.snapshot_command == "inspect":
        print(json.dumps(snapshot.describe(), indent=2, sort_keys=True))
        return 0
    result = resume_to_completion(snapshot)
    print(
        f"restored [{snapshot.spec.label()}] from {snapshot.events_processed} "
        f"events via native restore; finished at "
        f"{result.total_cycles} cycles, {result.events_processed} events, "
        f"completed={result.completed}",
        file=sys.stderr,
    )
    if args.json:
        _write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True), args.json
        )
    return 0


def _cmd_debug(args: argparse.Namespace) -> int:
    from repro.snapshot import load_snapshot
    from repro.snapshot.debugger import (
        DEFAULT_INTERVAL,
        DEFAULT_RING,
        DebugSession,
        TimeTravelDebugger,
        script_commands,
    )

    if (args.workload is None) == (args.from_snapshot is None):
        raise ReproError(
            "debug starts from exactly one of --workload (fresh spec) or "
            "--from (snapshot file)"
        )
    if args.from_snapshot is not None:
        debugger = TimeTravelDebugger(
            snapshot=load_snapshot(args.from_snapshot),
            interval=args.interval or DEFAULT_INTERVAL,
            capacity=args.ring or DEFAULT_RING,
        )
    else:
        debugger = TimeTravelDebugger(
            spec=_spec_from_args(args),
            interval=args.interval or DEFAULT_INTERVAL,
            capacity=args.ring or DEFAULT_RING,
        )
    session = DebugSession(debugger)
    if args.script is not None:
        return session.run(script_commands(args.script))

    def _stdin_commands() -> Iterator[str]:
        while True:
            try:
                yield input("(repro-debug) ")
            except EOFError:
                return

    return session.run(_stdin_commands())


def _cmd_report(args: argparse.Namespace) -> int:
    runner, tally = _build_runner(args)
    started = time.perf_counter()
    record, frame = _experiment_frame(args, runner)
    report = record.report
    frame = report.prepare(frame)
    if {"events", "wall_seconds"} <= set(frame.column_names):
        # Simulator throughput rides along in every written frame so
        # `repro compare --threshold events_per_sec=...` can trend it.
        frame = frame.events_per_sec()
    elapsed = time.perf_counter() - started
    if not args.quiet:
        print(report.render(frame, prepared=True))
    _print_run_summary(args, runner, tally, elapsed)
    if args.json:
        _write_text(frame.to_json(), args.json)
    if args.csv:
        _write_text(frame.to_csv(), args.csv)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_frames, load_frame
    from repro.errors import ReproError

    thresholds: Dict[str, float] = {}
    for entry in args.threshold:
        name, _, fraction = entry.partition("=")
        if not name or not fraction:
            raise ReproError(f"--threshold must look like metric=fraction, got {entry!r}")
        try:
            thresholds[name] = float(fraction)
        except ValueError:
            raise ReproError(f"--threshold fraction is not a number: {entry!r}")
    comparison = compare_frames(
        load_frame(args.baseline),
        load_frame(args.candidate),
        metrics=args.metrics,
        thresholds=thresholds,
        default_threshold=args.max_regression,
    )
    if not args.quiet:
        print(comparison.render())
    if args.json:
        _write_text(json.dumps(comparison.to_dict(), indent=2, sort_keys=True), args.json)
    if comparison.ok:
        print(f"compare OK ({args.baseline} -> {args.candidate})", file=sys.stderr)
        return 0
    for failure in comparison.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "scenarios":
            return _cmd_scenarios(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "workers":
            return _cmd_workers(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "jobs":
            return _cmd_jobs(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "snapshot":
            return _cmd_snapshot(args)
        if args.command == "debug":
            return _cmd_debug(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "lint":
            from repro.lint.cli import run_lint

            return run_lint(args)
        return _cmd_run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
