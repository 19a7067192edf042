"""Declarative experiment-run API.

The evaluation grid of the paper — (workload x Table 2 configuration x core
count x seed) — is expressed as data (:class:`RunSpec` / :class:`SweepSpec`),
resolved through a :class:`WorkloadRegistry`, executed serially or on a
process pool, optionally memoized in an on-disk :class:`ResultCache`, and
driven either from Python (:class:`Runner`) or the ``python -m repro`` CLI.
"""

from repro._lazy import lazy_exports

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

_EXPORTS = {
    "ResultCache": "repro.runner.cache",
    "ChaosSchedule": "repro.runner.chaos",
    "KillEvent": "repro.runner.chaos",
    "run_embedded_drill": "repro.runner.chaos",
    "verify_against_serial": "repro.runner.chaos",
    "DistributedExecutor": "repro.runner.distributed",
    "run_worker": "repro.runner.distributed",
    "ParallelExecutor": "repro.runner.executor",
    "SerialExecutor": "repro.runner.executor",
    "backoff_variant": "repro.runner.executor",
    "execute_spec": "repro.runner.executor",
    "JournalWarning": "repro.runner.journal",
    "ServiceJournal": "repro.runner.journal",
    "TaskReplay": "repro.runner.journal",
    "ServiceClient": "repro.runner.service_client",
    "ServiceExecutor": "repro.runner.service_client",
    "WorkerSupervisor": "repro.runner.supervisor",
    "backoff_delays": "repro.runner.supervisor",
    "REGISTRY": "repro.runner.registry",
    "WorkloadRegistry": "repro.runner.registry",
    "register_workload": "repro.runner.registry",
    "workload_names": "repro.runner.registry",
    "Runner": "repro.runner.runner",
    "SpecProgress": "repro.runner.runner",
    "SweepProgressHook": "repro.runner.runner",
    "SweepResult": "repro.runner.runner",
    "default_runner": "repro.runner.runner",
    "DEFAULT_SEED": "repro.runner.spec",
    "RunSpec": "repro.runner.spec",
    "SweepSpec": "repro.runner.spec",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
