"""Declarative experiment-run API.

The evaluation grid of the paper — (workload x Table 2 configuration x core
count x seed) — is expressed as data (:class:`RunSpec` / :class:`SweepSpec`),
resolved through a :class:`WorkloadRegistry`, executed serially or on a
process pool, optionally memoized in an on-disk :class:`ResultCache`, and
driven either from Python (:class:`Runner`) or the ``python -m repro`` CLI.
"""

from repro.runner.cache import ResultCache
from repro.runner.chaos import (
    ChaosSchedule,
    KillEvent,
    run_embedded_drill,
    verify_against_serial,
)
from repro.runner.distributed import DistributedExecutor, run_worker
from repro.runner.executor import (
    ParallelExecutor,
    SerialExecutor,
    backoff_variant,
    execute_spec,
)
from repro.runner.journal import JournalWarning, ServiceJournal, TaskReplay
from repro.runner.service_client import ServiceClient, ServiceExecutor
from repro.runner.supervisor import WorkerSupervisor, backoff_delays
from repro.runner.registry import (
    REGISTRY,
    WorkloadRegistry,
    register_workload,
    workload_names,
)
from repro.runner.runner import (
    Runner,
    SpecProgress,
    SweepProgressHook,
    SweepResult,
    default_runner,
)
from repro.runner.spec import DEFAULT_SEED, RunSpec, SweepSpec

__all__ = [
    "DEFAULT_SEED",
    "RunSpec",
    "SweepSpec",
    "WorkloadRegistry",
    "REGISTRY",
    "register_workload",
    "workload_names",
    "SerialExecutor",
    "ParallelExecutor",
    "DistributedExecutor",
    "JournalWarning",
    "ServiceJournal",
    "TaskReplay",
    "ServiceClient",
    "ServiceExecutor",
    "WorkerSupervisor",
    "backoff_delays",
    "run_worker",
    "ChaosSchedule",
    "KillEvent",
    "run_embedded_drill",
    "verify_against_serial",
    "execute_spec",
    "backoff_variant",
    "ResultCache",
    "Runner",
    "SpecProgress",
    "SweepProgressHook",
    "SweepResult",
    "default_runner",
]
