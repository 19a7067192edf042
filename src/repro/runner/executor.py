"""Executors: run a batch of RunSpecs serially or on a process pool.

Every result comes from :func:`execute_spec`, which builds (or restores)
the spec's *own* :class:`~repro.machine.manycore.Manycore` and drives it
through a :class:`~repro.snapshot.execution.SpecExecution`, so sweep points
share no state and are embarrassingly parallel.  The parallel executor ships
specs to workers as JSON dicts and receives
:class:`~repro.machine.results.SimResult` dicts back, exercising exactly the
serialization path the result cache uses; simulation determinism comes from
the sha256-derived RNG streams, so a worker process reproduces the serial
cycle counts bit-for-bit.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    ExecutionError,
    PartialSweepError,
    WorkloadError,
)
from repro.machine.results import SimResult
from repro.runner.spec import RunSpec

#: Optional progress hook: called with (index, total, spec, result).
ProgressHook = Callable[[int, int, RunSpec, SimResult], None]

#: Prefix of the spec variant that overrides the MAC backoff policy instead
#: of naming a Table 6 sensitivity variant, e.g. ``backoff=exponential``.
BACKOFF_VARIANT_PREFIX = "backoff="


def backoff_variant(kind: str) -> str:
    """The spec ``variant`` string selecting backoff policy ``kind``."""
    return f"{BACKOFF_VARIANT_PREFIX}{kind}"


def build_config_for(spec: RunSpec):
    """Build the (possibly sensitivity-variant) MachineConfig for ``spec``.

    Besides the Table 6 names, ``variant`` accepts ``backoff=<kind>`` to swap
    the Data-channel collision-resolution policy (Section 5.3 ablations and
    the contention-scenario suite's backoff axis).
    """
    from repro.machine.configs import config_by_name, sensitivity_variants

    config = config_by_name(spec.config, num_cores=spec.num_cores, seed=spec.seed)
    if spec.variant is not None:
        if spec.variant.startswith(BACKOFF_VARIANT_PREFIX):
            from dataclasses import replace

            kind = spec.variant[len(BACKOFF_VARIANT_PREFIX):]
            return config.replace(
                name=f"{config.name}/{spec.variant}",
                backoff=replace(config.backoff, kind=kind),
            ).validate()
        variants = sensitivity_variants(config)
        if spec.variant not in variants:
            raise ConfigurationError(
                f"unknown sensitivity variant {spec.variant!r}; choices: {sorted(variants)}"
            )
        config = variants[spec.variant]
    return config


def execute_spec(
    spec: RunSpec,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[Any] = None,
    resume_from: Optional[Any] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    on_checkpoint: Optional[Callable[[Any], None]] = None,
    auto_snapshot: Optional[int] = None,
) -> SimResult:
    """Run one spec end-to-end: config -> machine -> workload -> SimResult.

    The one way a spec becomes a result: every executor and the distributed
    worker call it, and it always drives a
    :class:`~repro.snapshot.execution.SpecExecution`.  The host seconds the
    simulation ran, after the machine was built or restored, land in
    ``result.extra["wall_seconds"]`` so a
    :class:`~repro.analysis.frame.MetricFrame` can derive events/sec per grid
    point (cached results carry the timing of the run that produced them;
    their ``cached`` flag says so).  Every option below leaves the simulated
    result bit-identical to a plain run:

    * resume — ``resume_from`` (an in-memory snapshot, e.g. shipped by the
      broker) or an existing ``<checkpoint_dir>/<spec key>.ckpt.json`` is
      restored first; an unusable or mismatched checkpoint is discarded with
      a :class:`~repro.snapshot.format.SnapshotWarning` and the run starts
      from scratch;
    * periodic capture — every ``checkpoint_every`` events the snapshot is
      written to ``checkpoint_dir`` and/or passed to ``on_checkpoint``;
    * auto-snapshot ring — with ``auto_snapshot=K`` each periodic snapshot
      is *also* banked as a ring file in ``checkpoint_dir`` (pruned to the
      last K), leaving a time-travel trail for ``repro debug --from`` that
      survives the spec's completion;
    * cooperative preemption — ``should_stop`` is polled between event
      slices; when it returns True the final snapshot is written to
      ``checkpoint_dir`` (and the ring) once and
      :class:`~repro.snapshot.execution.ExecutionPreempted` propagates.

    A checkpoint write that fails with ``OSError`` is skipped: disk trouble
    costs resume granularity, not the spec.  The checkpoint file is deleted
    once the spec completes, so a later run of the same spec starts clean.

    The spec's machine is freed when the spec ends.  A finished machine is
    one cyclic object graph, so reference counting never frees it, and in a
    process that runs many specs (a sweep, a worker, a benchmark) dead
    machines pile up until a rare full collection.  So the cyclic collector
    is paused (:func:`repro.sim.collector.gc_paused`) from before the
    machine is built or restored until the result is built; no automatic
    collection runs in between, so the machine's whole graph is still in the
    youngest generation, and once the execution is dropped one
    ``gc.collect(0)`` frees all of it (under 3 ms per spec, the freeing
    included).  That collection runs only when the collector was enabled
    on entry: a caller that disabled it keeps it disabled and sees no
    collection.  Rejected:

    * clearing the machine's cycle edges after a run: there are many (a
      thread's bound ``send``, its ``_advance`` to the Manycore, the
      ``FrameEnv``/thread pair, the dispatch table's bound methods,
      ``Program``/``Manycore``, the fabric/node/controller links, the
      channel's listeners), and that teardown path is one every future edge
      would have to join;
    * a full ``gc.collect()`` per spec: it walks every module object, 4 to
      8 ms per spec;
    * ``gc.freeze()``: it is process-global, and a cycle later formed from
      frozen objects is never freed.
    """
    from repro.errors import SnapshotError
    from repro.sim.collector import gc_paused
    from repro.snapshot.execution import ExecutionPreempted, SpecExecution
    from repro.snapshot.format import checkpoint_path, save_snapshot

    path = checkpoint_path(checkpoint_dir, spec) if checkpoint_dir is not None else None
    ring = None
    if auto_snapshot is not None:
        if checkpoint_dir is None:
            raise SnapshotError(
                "auto_snapshot banks ring files into the checkpoint "
                "directory; none was given"
            )
        from repro.snapshot.ring import CheckpointRing

        ring = CheckpointRing(
            auto_snapshot, directory=checkpoint_dir, keep_in_memory=False
        )

    def bank(snapshot: Any) -> None:
        """Keep a capture on disk: the spec's checkpoint file and the ring."""
        if path is not None:
            try:
                save_snapshot(snapshot, path)
            except OSError:
                pass  # disk trouble costs resume granularity only
        if ring is not None:
            ring.push(snapshot)

    def checkpoint(snapshot: Any) -> None:
        bank(snapshot)
        if on_checkpoint is not None:
            on_checkpoint(snapshot)

    # Capture between slices only when something keeps the snapshot.
    wanted = path is not None or ring is not None or on_checkpoint is not None
    with gc_paused() as collecting:
        execution = SpecExecution.resume(spec, resume_from, path)
        try:
            result = execution.run_to_completion(
                checkpoint_every=checkpoint_every, should_stop=should_stop,
                on_checkpoint=checkpoint if wanted else None,
            )
        except ExecutionPreempted as preempted:
            bank(preempted.snapshot)
            raise
        del execution
        if collecting:
            gc.collect(0)
    if path is not None:
        path.unlink(missing_ok=True)
    return result


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-process entry point: spec dict in, result dict out.

    Module-level (picklable) and dict-transported so no live simulator
    objects ever cross the process boundary.
    """
    spec = RunSpec.from_dict(payload)
    return execute_spec(spec).to_dict()


def describe_error(error: BaseException) -> str:
    """One-line rendering of a per-spec execution failure."""
    return f"{type(error).__name__}: {error}"


def _shown(pairs: Sequence[Tuple[RunSpec, str]]) -> str:
    """The first three ``[label] reason`` pairs, and a count of the rest."""
    shown = "; ".join(f"[{spec.label()}] {reason}" for spec, reason in pairs[:3])
    if len(pairs) > 3:
        shown += f"; ... and {len(pairs) - 3} more"
    return shown


def failures_error(
    failures: Sequence[Tuple[RunSpec, str]], total: int
) -> ExecutionError:
    """Build the :class:`ExecutionError` summarizing a sweep's failed points."""
    return ExecutionError(
        f"{len(failures)} of {total} grid points failed after retries: "
        f"{_shown(failures)}",
        failures=failures,
    )


def partial_sweep_error(
    failures: Sequence[Tuple[RunSpec, str]],
    timed_out: Sequence[Tuple[RunSpec, str]],
    total: int,
) -> PartialSweepError:
    """Build the :class:`PartialSweepError` for a deadline-degraded sweep.

    Raised — like :func:`failures_error` — only after every obtained result
    has been yielded: the sweep *degraded*, it did not fail wholesale, and
    the caller keeps (and caches) everything that finished in time.
    """
    message = (
        f"sweep degraded gracefully: {len(timed_out)} of {total} grid points "
        f"timed out: {_shown(timed_out)}"
    )
    if failures:
        message += f" ({len(failures)} more failed for other reasons)"
    return PartialSweepError(message, failures=failures, timed_out=timed_out)


def validated_positions(
    pairs: Iterator[Tuple[int, SimResult]], specs: Sequence[RunSpec]
) -> Iterator[Tuple[int, SimResult]]:
    """Re-yield executor ``(position, result)`` pairs, rejecting bad positions.

    An out-of-range, duplicate, or result-less position means a broken
    executor; silently dropping or collapsing such rows used to mask the bug
    downstream, so every consumer of ``run_iter`` routes through this check.
    """
    seen: set = set()
    for position, result in pairs:
        if not 0 <= position < len(specs):
            raise WorkloadError(
                f"executor yielded position {position}, outside the sweep's "
                f"{len(specs)} specs"
            )
        if position in seen:
            raise WorkloadError(
                f"executor yielded position {position} "
                f"({specs[position].label()}) more than once"
            )
        if result is None:
            raise WorkloadError(
                f"executor yielded no result (None) for position {position} "
                f"({specs[position].label()})"
            )
        seen.add(position)
        yield position, result


class _ExecutorBase:
    """Shared batch driver: ``run`` collects ``run_iter`` back into spec order.

    Subclasses implement :meth:`run_iter`, a generator yielding
    ``(position, result)`` pairs *in completion order* as each spec finishes —
    the streaming primitive the Runner's per-spec progress is built on.
    """

    def run_iter(
        self, specs: Sequence[RunSpec]
    ) -> Iterator[Tuple[int, SimResult]]:
        raise NotImplementedError

    def run(
        self, specs: Sequence[RunSpec], progress: Optional[ProgressHook] = None
    ) -> List[SimResult]:
        results: List[Optional[SimResult]] = [None] * len(specs)
        for index, result in validated_positions(self.run_iter(specs), specs):
            results[index] = result
            if progress is not None:
                progress(index, len(specs), specs[index], result)
        missing = [index for index, result in enumerate(results) if result is None]
        if missing:
            raise WorkloadError(
                f"executor yielded no result for position(s) {missing} "
                f"of {len(specs)} specs"
            )
        return results  # fully populated: no position is None past the check


class SerialExecutor(_ExecutorBase):
    """Run specs one after the other in the calling process.

    Optionally checkpointing: with ``checkpoint_every``/``checkpoint_dir``
    set, each spec writes periodic snapshots and resumes from any existing
    checkpoint, so a killed sweep re-enters mid-spec instead of from zero.

    Optionally deadlined: ``spec_deadline`` caps each grid point's wall-clock
    seconds and ``sweep_deadline`` budgets the whole batch.  A spec that
    overruns is stopped at its next event-slice boundary (its partial
    snapshot persists when ``checkpoint_dir`` is set, so a later run with a
    bigger budget resumes instead of restarting); once the sweep budget is
    gone the remaining specs are skipped outright.  Every result obtained in
    time is still yielded — the overruns then surface together as one
    :class:`~repro.errors.PartialSweepError`.
    """

    def __init__(
        self,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        spec_deadline: Optional[float] = None,
        sweep_deadline: Optional[float] = None,
        auto_snapshot: Optional[int] = None,
    ) -> None:
        if spec_deadline is not None and spec_deadline <= 0:
            raise ConfigurationError("spec_deadline must be positive seconds")
        if sweep_deadline is not None and sweep_deadline <= 0:
            raise ConfigurationError("sweep_deadline must be positive seconds")
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.spec_deadline = spec_deadline
        self.sweep_deadline = sweep_deadline
        self.auto_snapshot = auto_snapshot

    def run_iter(
        self, specs: Sequence[RunSpec]
    ) -> Iterator[Tuple[int, SimResult]]:
        from repro.snapshot.execution import ExecutionPreempted

        sweep_budget = f"sweep budget exhausted ({self.sweep_deadline}s)"
        spec_budget = f"spec deadline exceeded ({self.spec_deadline}s)"
        sweep_end = (
            time.monotonic() + self.sweep_deadline
            if self.sweep_deadline is not None else None
        )
        timed_out: List[Tuple[RunSpec, str]] = []
        for index, spec in enumerate(specs):
            now = time.monotonic()
            if sweep_end is not None and now >= sweep_end:
                timed_out.append((spec, sweep_budget))
                continue
            deadline = sweep_end
            if self.spec_deadline is not None:
                spec_end = now + self.spec_deadline
                deadline = spec_end if deadline is None else min(deadline, spec_end)
            try:
                result = execute_spec(
                    spec,
                    checkpoint_every=self.checkpoint_every,
                    checkpoint_dir=self.checkpoint_dir,
                    auto_snapshot=self.auto_snapshot,
                    should_stop=(
                        None if deadline is None
                        else lambda: time.monotonic() >= deadline
                    ),
                )
            except ExecutionPreempted:
                # execute_spec already wrote the partial run's snapshot (with
                # a checkpoint_dir), so a rerun with more budget resumes it.
                swept = sweep_end is not None and time.monotonic() >= sweep_end
                timed_out.append((spec, sweep_budget if swept else spec_budget))
                continue
            yield index, result
        if timed_out:
            raise partial_sweep_error([], timed_out, len(specs))


class ParallelExecutor(_ExecutorBase):
    """Fan specs out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    ``run`` returns results in spec order regardless of completion order, so
    a parallel sweep is a drop-in replacement for a serial one; ``run_iter``
    streams ``(position, result)`` pairs as workers finish.

    A failing grid point no longer aborts the sweep: failures are captured
    and retried, and only after every successful result has been yielded does
    the executor raise an :class:`~repro.errors.ExecutionError` naming the
    specs that still failed.  Each spec gets three attempts, always in worker
    processes (one-worker and one-spec batches included, so a spec that
    crashes its interpreter can never take the caller down).  A crashing
    spec breaks the whole pool, taking innocent in-flight specs down with
    it — so failures first get one shared fresh-pool retry (cheap, parallel,
    and enough for all the collateral victims), and anything that fails
    again gets a final attempt in its own single-spec pool, where a crasher
    can only break itself.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be at least 1")
        self.max_workers = max_workers or os.cpu_count() or 1

    def run_iter(
        self, specs: Sequence[RunSpec]
    ) -> Iterator[Tuple[int, SimResult]]:
        if not specs:
            return
        payloads = [spec.to_dict() for spec in specs]
        first_failed: Dict[int, str] = {}
        yield from self._pool_round(
            payloads, range(len(specs)), self.max_workers, first_failed
        )
        # Shared-pool retry: one crasher fails every in-flight spec with
        # BrokenProcessPool, so most "failures" are collateral — re-running
        # them together in a fresh pool keeps the retry parallel.
        retry_failed: Dict[int, str] = {}
        if first_failed:
            yield from self._pool_round(
                payloads, sorted(first_failed), self.max_workers, retry_failed
            )
        # Isolated last attempt: whatever failed twice runs alone in a
        # single-spec pool, where a pool-crashing spec can only break itself.
        failures: List[Tuple[RunSpec, str]] = []
        for position in sorted(retry_failed):
            last_failed: Dict[int, str] = {}
            yield from self._pool_round(payloads, [position], 1, last_failed)
            if last_failed:
                failures.append((specs[position], last_failed[position]))
        if failures:
            raise failures_error(failures, len(specs))

    def _pool_round(
        self,
        payloads: Sequence[Dict[str, Any]],
        positions: Any,
        max_workers: int,
        failed: Dict[int, str],
    ) -> Iterator[Tuple[int, SimResult]]:
        """One fresh-pool pass over ``positions``; failures land in ``failed``."""
        # Imported here, so a serial run never loads the pool (or the
        # ``logging`` it imports).
        import concurrent.futures

        positions = list(positions)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(max_workers, len(positions))
        ) as pool:
            futures = {
                pool.submit(_execute_payload, payloads[position]): position
                for position in positions
            }
            for future in concurrent.futures.as_completed(futures):
                position = futures[future]
                try:
                    payload = future.result()
                except Exception as error:  # noqa: BLE001 - captured per spec
                    failed[position] = describe_error(error)
                    continue
                yield position, SimResult.from_dict(payload)
