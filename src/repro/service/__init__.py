"""Multi-tenant sweep service: named job queues over one shared worker pool.

``repro serve`` runs a persistent daemon that accepts SweepSpec jobs over
an HTTP/JSON API, schedules their specs fairly across every connected
``repro worker`` process, short-circuits specs already present in the
service result cache, and journals every transition so a SIGKILL'd daemon
resumes its jobs on restart.  See ``README.md`` ("Sweep service") for the
operational guide.
"""

from repro._lazy import lazy_exports

__all__ = [
    "JOB_CANCELLED",
    "JOB_COMPLETED",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "STRIDE_SCALE",
    "TERMINAL_JOB_STATES",
    "FairShareScheduler",
    "Job",
    "JobStore",
    "ServiceBroker",
    "ServiceHTTPServer",
    "SweepService",
    "format_task_id",
    "parse_task_id",
    "run_service",
]

_EXPORTS = {
    "ServiceBroker": "repro.service.daemon",
    "SweepService": "repro.service.daemon",
    "run_service": "repro.service.daemon",
    "JOB_CANCELLED": "repro.service.jobstore",
    "JOB_COMPLETED": "repro.service.jobstore",
    "JOB_FAILED": "repro.service.jobstore",
    "JOB_QUEUED": "repro.service.jobstore",
    "JOB_RUNNING": "repro.service.jobstore",
    "TERMINAL_JOB_STATES": "repro.service.jobstore",
    "Job": "repro.service.jobstore",
    "JobStore": "repro.service.jobstore",
    "format_task_id": "repro.service.jobstore",
    "parse_task_id": "repro.service.jobstore",
    "ServiceHTTPServer": "repro.service.httpapi",
    "STRIDE_SCALE": "repro.service.scheduler",
    "FairShareScheduler": "repro.service.scheduler",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
