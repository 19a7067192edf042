"""Shared helpers for the experiment modules.

The experiment modules are declarative: each builds a
:class:`~repro.runner.spec.SweepSpec` grid and executes it through a
:class:`~repro.runner.runner.Runner` (serial by default; pass a runner with a
:class:`~repro.runner.executor.ParallelExecutor` and/or a
:class:`~repro.runner.cache.ResultCache` to fan sweeps out and memoize them).
``run_workload_on_configs`` remains for ad-hoc, non-serializable builders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.config import MachineConfig
from repro.machine.configs import baseline, baseline_plus, wisync, wisync_not
from repro.machine.results import SimResult
from repro.runner.runner import Runner, default_runner
from repro.runner.spec import RunSpec, SweepSpec

if TYPE_CHECKING:  # pragma: no cover - typing only; build_machine imports it
    from repro.machine.manycore import Manycore

#: The Table 2 configurations in the paper's presentation order.
CONFIG_BUILDERS: Dict[str, Callable[..., MachineConfig]] = {
    "Baseline": baseline,
    "Baseline+": baseline_plus,
    "WiSyncNoT": wisync_not,
    "WiSync": wisync,
}


def config_names(include_baseline: bool = True) -> List[str]:
    names = list(CONFIG_BUILDERS)
    if not include_baseline:
        names.remove("Baseline")
    return names


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


def run_sweep(
    sweep: SweepSpec, runner: Optional[Runner] = None
) -> Dict[RunSpec, SimResult]:
    """Execute ``sweep`` on ``runner`` (serial default); results per spec."""
    return default_runner(runner).run(sweep).results


def run_frame(sweep: SweepSpec, runner: Optional[Runner] = None):
    """Execute ``sweep`` and return its :class:`~repro.analysis.frame.MetricFrame`.

    This is the canonical consumption path: every experiment module's
    ``run_*`` function builds its table by piping this frame through the
    module's :class:`~repro.analysis.report.Report`.
    """
    return default_runner(runner).run(sweep).frame()
