"""The Runner facade: cache-aware execution of declarative sweeps.

::

    runner = Runner(executor=ParallelExecutor(8), cache=ResultCache(".wisync-cache"))
    outcome = runner.run(fig7_sweep(core_counts=[16, 32]))
    outcome.result_for(spec).total_cycles

``Runner.run`` checks the cache first, dispatches only the missing specs to
the executor, stores fresh results back, and returns a
:class:`SweepResult` that preserves the sweep's spec order.

Long sweeps can be observed point by point: ``Runner.run_iter`` is a
generator yielding one :class:`SpecProgress` per grid point in completion
order (cache hits first, then simulations as they finish — out of spec order
under a parallel executor), and both ``Runner.run`` and the constructor
accept a ``progress`` callback receiving the same events.  This is what
``python -m repro run --progress`` streams to stderr.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis -> runner)
    from repro.analysis.frame import MetricFrame

from repro.errors import WorkloadError
from repro.machine.results import SimResult
from repro.runner.cache import ResultCache
from repro.runner.executor import SerialExecutor, validated_positions
from repro.runner.spec import RunSpec, SweepSpec


@dataclass(frozen=True)
class SpecProgress:
    """One grid point's completion, streamed while a sweep is running."""

    index: int          #: completion order within this sweep run (0-based)
    total: int          #: grid points in the sweep
    spec: RunSpec
    result: SimResult
    cached: bool        #: served from the result cache, not simulated

    def describe(self) -> str:
        """One-line rendering used by the CLI's ``--progress`` stream."""
        width = len(str(self.total))
        source = "cached" if self.cached else "simulated"
        return (
            f"[{self.index + 1:>{width}}/{self.total}] {self.spec.label()}: "
            f"{self.result.total_cycles} cycles ({source})"
        )


#: Per-spec progress callback fed by ``Runner.run``.
SweepProgressHook = Callable[[SpecProgress], None]


@dataclass
class SweepResult:
    """Results of one sweep, in spec order, plus execution bookkeeping."""

    sweep: SweepSpec
    results: Dict[RunSpec, SimResult]
    num_simulated: int = 0
    num_cached: int = 0
    #: Per-spec provenance: True when the result came from the cache.
    cached: Dict[RunSpec, bool] = field(default_factory=dict)

    def __iter__(self) -> Iterator[Tuple[RunSpec, SimResult]]:
        for spec in self.sweep:
            yield spec, self.results[spec]

    def __len__(self) -> int:
        return len(self.results)

    def result_for(self, spec: RunSpec) -> SimResult:
        if spec not in self.results:
            raise WorkloadError(f"sweep {self.sweep.name!r} holds no result for {spec.label()}")
        return self.results[spec]

    def frame(self) -> "MetricFrame":
        """The canonical analysis view: one typed row per grid point.

        See :func:`repro.analysis.frame.frame_from_sweep` for the column
        layout (spec axes as dimensions, run measurements as metrics).
        """
        from repro.analysis.frame import frame_from_sweep

        return frame_from_sweep(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": self.sweep.name,
            "num_simulated": self.num_simulated,
            "num_cached": self.num_cached,
            "runs": [
                {
                    "spec": spec.to_dict(),
                    "result": result.to_dict(),
                    "cached": self.cached.get(spec, False),
                }
                for spec, result in self
            ],
        }


class Runner:
    """Execute sweeps through an executor, with an optional result cache.

    The executor is anything with a ``run_iter(specs)`` generator of
    ``(position, result)`` pairs, like the executors in
    :mod:`repro.runner.executor` (serial by default).

    ``progress`` (a :data:`SweepProgressHook`) is called for every grid point
    of every sweep this runner executes — including cache hits — so callers
    that build sweeps indirectly (the experiment modules, the CLI) still get
    streamed progress without threading a callback through every layer.
    """

    def __init__(
        self,
        executor: Optional[Any] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[SweepProgressHook] = None,
    ) -> None:
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        self.progress = progress

    # ------------------------------------------------------------------ run
    def run_spec(self, spec: RunSpec) -> SimResult:
        """Run one spec as a one-point sweep: through the cache and the executor."""
        outcome = self.run(SweepSpec(name=spec.workload, specs=(spec,)))
        return outcome.result_for(spec)

    def run(
        self, sweep: SweepSpec, progress: Optional[SweepProgressHook] = None
    ) -> SweepResult:
        """Run every spec of ``sweep``; cached points are not re-simulated.

        ``progress`` overrides the runner-level hook for this sweep only.
        """
        hook = progress if progress is not None else self.progress
        iterator = self.run_iter(sweep)
        while True:
            try:
                event = next(iterator)
            except StopIteration as stop:
                return stop.value
            if hook is not None:
                hook(event)

    def run_iter(self, sweep: SweepSpec) -> Iterator[SpecProgress]:
        """Generator form of :meth:`run`: yields one event per grid point.

        Cache hits are yielded first (in spec order), then fresh simulations
        in completion order.  The generator's return value (``StopIteration``
        ``.value``, or ``Runner.run``'s return) is the final
        :class:`SweepResult`.
        """
        total = len(sweep)
        results: Dict[RunSpec, SimResult] = {}
        provenance: Dict[RunSpec, bool] = {}
        missing: List[RunSpec] = []
        index = 0
        for spec in sweep:
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                results[spec] = cached
                provenance[spec] = True
                yield SpecProgress(index, total, spec, cached, cached=True)
                index += 1
            else:
                missing.append(spec)
        simulated = 0
        for position, result in self._execute_iter(missing):
            spec = missing[position]
            results[spec] = result
            provenance[spec] = False
            simulated += 1
            if self.cache is not None:
                self.cache.put(spec, result)
            yield SpecProgress(index, total, spec, result, cached=False)
            index += 1
        if simulated != len(missing):
            # Executors that yield too few positions (duplicates and
            # out-of-range ones are caught in _execute_iter).
            raise WorkloadError(
                f"executor produced {simulated} results for {len(missing)} specs"
            )
        return SweepResult(
            sweep=sweep,
            results=results,
            num_simulated=len(missing),
            num_cached=total - len(missing),
            cached=provenance,
        )

    def _execute_iter(
        self, missing: List[RunSpec]
    ) -> Iterator[Tuple[int, SimResult]]:
        """Stream validated ``(position, result)`` pairs from the executor."""
        if missing:
            yield from validated_positions(self.executor.run_iter(missing), missing)


def default_runner(runner: Optional[Runner] = None) -> Runner:
    """The runner to use when an experiment is called without one."""
    return runner if runner is not None else Runner()
