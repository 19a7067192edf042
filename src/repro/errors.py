"""Exception hierarchy for the WiSync reproduction library.

All errors raised by :mod:`repro` derive from :class:`ReproError` so that
callers can catch library-specific failures without masking programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of supported range."""


class SimulationError(ReproError):
    """The simulation engine was used incorrectly or reached a bad state."""


class DeadlockError(SimulationError):
    """The simulator ran out of events while threads were still blocked."""


class MemoryError_(ReproError):
    """A modelled memory subsystem was used incorrectly.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class ProtectionError(MemoryError_):
    """A broadcast-memory access violated PID-based protection."""


class AllocationError(MemoryError_):
    """A broadcast-memory or page allocation could not be satisfied."""


class TranslationError(MemoryError_):
    """A virtual address had no valid translation for the accessing process."""


class WirelessError(ReproError):
    """The wireless substrate was used incorrectly."""


class ToneBarrierError(ReproError):
    """A tone barrier was allocated or used incorrectly (see paper Sec. 5.2)."""


class WorkloadError(ReproError):
    """A workload definition is invalid or issued an unsupported operation."""


class ExecutionError(ReproError):
    """One or more sweep grid points failed to execute, even after retries.

    Executors raise this only *after* yielding every successful result, so a
    streaming consumer (``Runner.run_iter``, the cache) keeps the completed
    grid points; re-running the sweep then only re-dispatches the failures.
    ``failures`` holds one ``(spec, reason)`` pair per grid point that never
    produced a result.
    """

    def __init__(self, message: str, failures: Sequence[Tuple[Any, str]] = ()) -> None:
        super().__init__(message)
        self.failures: Tuple[Tuple[Any, str], ...] = tuple(failures)


class PartialSweepError(ExecutionError):
    """A sweep hit a wall-clock deadline and degraded gracefully.

    Raised — like every :class:`ExecutionError` — only *after* the executor
    has yielded every result it did obtain, so the completed grid points
    survive (and are cached).  ``timed_out`` names the ``(spec, reason)``
    pairs that were cut off by the per-spec deadline or the sweep-level
    budget; ``failures`` (inherited) additionally includes grid points that
    failed for non-deadline reasons in the same sweep.
    """

    def __init__(
        self,
        message: str,
        failures: Sequence[Tuple[Any, str]] = (),
        timed_out: Sequence[Tuple[Any, str]] = (),
    ) -> None:
        super().__init__(message, failures=failures)
        self.timed_out: Tuple[Tuple[Any, str], ...] = tuple(timed_out)


class JournalError(ReproError):
    """A broker journal could not be read back.

    Raised for structurally corrupt journals — an invalid record in the
    *middle* of the file, an unrecognized header — that cannot be trusted for
    replay.  A torn **tail** record (the broker was killed mid-append) is
    expected under SIGKILL and is *not* an error: replay warns and drops only
    that record.
    """


class ServiceError(ReproError):
    """The sweep service (``repro serve``) or its HTTP client failed.

    Raised by :class:`~repro.runner.service_client.ServiceClient` for
    transport failures and non-2xx API replies (the server's ``error``
    detail is included verbatim), and by the service layer for requests
    that cannot be honored — unknown job ids, submissions to a terminal
    job, malformed SweepSpec payloads — which the HTTP plane maps to
    4xx status codes.
    """


class SnapshotError(ReproError):
    """A checkpoint could not be captured, validated, or restored.

    Raised for unreadable or corrupt snapshot files (bad integrity hash,
    unknown format version or strategy), for snapshots whose spec no longer
    matches the code being restored into, and for restored machines that
    diverge from the captured native state — each of which means the
    checkpoint cannot be trusted and the caller should fall back to
    from-scratch execution.  Capturing a machine whose live state cannot be
    described (a thread parked on an opaque callable) raises it too.
    """


class LintError(ReproError):
    """The static-analysis engine was misconfigured or fed invalid input.

    Raised for unknown rule ids in ``--select``/``--ignore``, unreadable or
    syntactically invalid source files, and malformed baseline files.  Lint
    *findings* are not errors — they are reported and drive the exit code.
    """


class AnalysisError(ReproError):
    """A metric computation or MetricFrame operation received invalid input.

    Raised instead of silently returning 0.0: a zero-cycle run fed to a
    speedup or throughput computation is always a harness bug upstream, and
    masking it skews geometric means and paper tables without a trace.
    """
