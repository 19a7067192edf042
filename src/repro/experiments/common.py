"""Shared helpers for the experiment modules, and the :class:`Experiment` record.

Each experiment module declares one :class:`Experiment`: its grid as a
``*_sweep`` builder returning a :class:`~repro.runner.spec.SweepSpec`, its
table as a :class:`~repro.analysis.report.Report`, and the ``repro run`` /
``repro report`` axes that fill the builder's arguments.  The sweep runs
through a :class:`~repro.runner.runner.Runner` (serial by default; pass a
runner with a :class:`~repro.runner.executor.ParallelExecutor` and/or a
:class:`~repro.runner.cache.ResultCache` to fan it out and memoize it).
``run_workload_on_configs`` remains for ad-hoc, non-serializable builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

from repro.config import MachineConfig
from repro.errors import ConfigurationError
from repro.machine.configs import baseline, baseline_plus, wisync, wisync_not
from repro.machine.results import SimResult
from repro.runner.runner import Runner, default_runner
from repro.runner.spec import RunSpec, SweepSpec

if TYPE_CHECKING:  # pragma: no cover - typing only; build_machine imports it
    from repro.analysis.frame import MetricFrame
    from repro.analysis.report import Report
    from repro.machine.manycore import Manycore

#: The Table 2 configurations in the paper's presentation order.
CONFIG_BUILDERS: Dict[str, Callable[..., MachineConfig]] = {
    "Baseline": baseline,
    "Baseline+": baseline_plus,
    "WiSyncNoT": wisync_not,
    "WiSync": wisync,
}


def build_machine(config_label: str, num_cores: int, seed: int = 2016) -> Manycore:
    """Build a fresh machine for one Table 2 configuration."""
    from repro.machine.manycore import Manycore

    config = CONFIG_BUILDERS[config_label](num_cores=num_cores, seed=seed)
    return Manycore(config)


def run_workload_on_configs(
    builder: Callable[[Manycore], object],
    num_cores: int,
    configs: Optional[List[str]] = None,
    seed: int = 2016,
) -> Dict[str, SimResult]:
    """Run one workload builder on each requested configuration.

    Legacy serial helper for ad-hoc (closure-based) builders; the experiment
    modules themselves now run registered workloads through the Runner.
    """
    results: Dict[str, SimResult] = {}
    for label in configs if configs is not None else list(CONFIG_BUILDERS):
        machine = build_machine(label, num_cores, seed)
        handle = builder(machine)
        results[label] = handle.run()
    return results


def specs_over_configs(
    workload: str,
    params: Dict[str, object],
    num_cores: int,
    configs: Optional[List[str]] = None,
    seed: int = 2016,
    variant: Optional[str] = None,
) -> List[RunSpec]:
    """One RunSpec per requested Table 2 configuration, in table order."""
    labels = configs if configs is not None else list(CONFIG_BUILDERS)
    return [
        RunSpec(
            workload=workload,
            params=tuple(params.items()),
            config=label,
            num_cores=num_cores,
            seed=seed,
            variant=variant,
        )
        for label in labels
    ]


def _no_note(text: str) -> None:
    """Drop a note (the library default; the CLI prints them)."""


@dataclass(frozen=True)
class Experiment:
    """One table or figure of the evaluation: its grid, its table, its axes.

    ``repro run`` and ``repro report`` share one path through the record:
    :meth:`sweep_kwargs` turns the command's axis values into ``sweep``
    arguments, :meth:`frame` runs the grid, and ``report`` (or
    ``run_report`` for ``run``, when set) turns the frame into the table.

    ``axes`` maps each command-line axis the experiment reads (``cores``,
    ``configs``, ...) to the ``sweep`` keyword it fills.  An axis left unset
    keeps the builder's own default; ``--quick`` first fills unset axes from
    ``quick``.  ``cores`` mapped to ``num_cores`` selects a single-core-count
    experiment: it runs at the first count given.
    """

    name: str
    report: Report
    sweep: Optional[Callable[..., SweepSpec]] = None
    #: Builds the frame directly, for a closed-form model with no grid.
    closed_form: Optional[Callable[..., MetricFrame]] = None
    axes: Mapping[str, str] = field(default_factory=dict)
    quick: Mapping[str, Any] = field(default_factory=dict)
    #: Why ``--configs`` is ignored, for experiments with a fixed set.
    fixed_configs: Optional[str] = None
    #: Analysis view of the sweep's frame, given the ``sweep`` arguments.
    view: Optional[Callable[[MetricFrame, Mapping[str, Any]], MetricFrame]] = None
    #: The table ``repro run`` prints, when it differs from ``report``'s.
    run_report: Optional[Report] = None

    def sweep_kwargs(
        self,
        values: Mapping[str, Any],
        quick: bool = False,
        note: Callable[[str], None] = _no_note,
    ) -> Dict[str, Any]:
        """The ``sweep`` arguments for axis ``values`` (``None`` = unset).

        An empty axis list raises :class:`ConfigurationError`; ``note``
        receives the notes the command line prints on stderr.
        """
        if self.fixed_configs and values.get("configs") is not None:
            note(f"--configs is ignored; {self.fixed_configs}")
        kwargs: Dict[str, Any] = {}
        for axis, keyword in self.axes.items():
            value = values.get(axis)
            if value is None and quick:
                value = self.quick.get(axis)
            if value is None:
                continue
            if isinstance(value, list) and not value:
                raise ConfigurationError(f"sweep axis {axis!r} must not be empty")
            if keyword == "num_cores":
                if len(value) > 1:
                    note(f"this experiment runs at one core count; using {value[0]}")
                value = value[0]
            kwargs[keyword] = value
        return kwargs

    def frame(self, runner: Optional[Runner] = None, **kwargs: Any) -> MetricFrame:
        """The frame the reports read: the grid for ``kwargs``, run on ``runner``."""
        if self.sweep is None:
            return self.closed_form(**kwargs)
        frame = default_runner(runner).run(self.sweep(**kwargs)).frame()
        return self.view(frame, kwargs) if self.view is not None else frame
