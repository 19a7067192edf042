"""Contention-scenario sweeps: the non-paper grid behind ``repro run scenarios``.

Unlike the fig7-fig11 modules, this experiment does not reproduce a figure:
it sweeps the :mod:`~repro.workloads.contention_suite` scenarios over
cores x Table 2 configuration x **contention level** x **MAC backoff policy**
— the axes that matter for WNoC MAC behaviour (Abadal et al.'s MAC context
analysis; Mansoor et al.'s traffic-aware MAC) but that the paper's fixed
grid never varies.

Contention levels are named parameter presets per scenario
(:data:`CONTENTION_LEVELS`), so "low" and "high" mean the same thing across
scenarios: sparse synchronization with generous think time versus dense
bursts with skewed or serialized traffic.  The backoff axis rides on the
spec ``variant`` mechanism (``backoff=<kind>``,
:func:`~repro.runner.executor.backoff_variant`) and is only applied to
configurations with wireless hardware — a Baseline machine has no MAC to
ablate, so it appears once per grid row regardless of the backoff list.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.analysis.frame import MetricFrame, Row
from repro.analysis.report import Report, derive
from repro.errors import ConfigurationError
from repro.experiments.common import Experiment
from repro.runner.executor import backoff_variant
from repro.runner.spec import DEFAULT_SEED, RunSpec, SweepSpec
from repro.workloads.contention_suite import scenario_names

#: Table 2 configurations that have a wireless MAC to sweep backoff over.
WIRELESS_CONFIGS = ("WiSyncNoT", "WiSync")

#: The default backoff kind baked into every configuration (see
#: :class:`repro.config.BackoffConfig`); selected with ``variant=None`` so
#: that default-policy specs stay cache-compatible with the other sweeps.
DEFAULT_BACKOFF = "broadcast_aware"

#: Named parameter presets: contention level -> scenario -> builder params.
CONTENTION_LEVELS: Dict[str, Dict[str, Dict[str, object]]] = {
    "low": {
        "pc_ring": {"items": 4, "think_cycles": 400},
        "rwlock": {"operations": 6, "write_fraction": 0.1, "think_cycles": 300},
        "work_steal": {"tasks_per_thread": 4, "task_cycles": 400, "seed_stride": 1},
        "barrier_storm": {
            "phases": 3, "storms_per_phase": 1, "compute_cycles": 600, "skew": 0.2,
        },
        "mixed_phases": {"phases": 3, "compute_cycles": 500},
    },
    "medium": {
        "pc_ring": {"items": 6, "think_cycles": 120},
        "rwlock": {"operations": 8, "write_fraction": 0.2, "think_cycles": 100},
        "work_steal": {"tasks_per_thread": 5, "task_cycles": 150, "seed_stride": 2},
        "barrier_storm": {
            "phases": 4, "storms_per_phase": 2, "compute_cycles": 200, "skew": 0.5,
        },
        "mixed_phases": {"phases": 4, "compute_cycles": 150},
    },
    "high": {
        "pc_ring": {"items": 8, "think_cycles": 30},
        "rwlock": {"operations": 10, "write_fraction": 0.5, "think_cycles": 30},
        "work_steal": {"tasks_per_thread": 6, "task_cycles": 60, "seed_stride": 4},
        "barrier_storm": {
            "phases": 4, "storms_per_phase": 3, "compute_cycles": 100, "skew": 1.0,
        },
        "mixed_phases": {"phases": 6, "compute_cycles": 80},
    },
}

DEFAULT_CORE_COUNTS = [16]
DEFAULT_CONFIGS = ["Baseline", "WiSync"]
DEFAULT_CONTENTION = ["low", "high"]
DEFAULT_BACKOFFS = [DEFAULT_BACKOFF]


def _axis(name: str, values: Optional[List], default: List) -> List:
    """Apply the default for an omitted sweep axis; reject an empty one.

    An explicitly empty axis (e.g. ``backoffs=[]``) would either crash on
    ``backoffs[0]`` or silently build an empty sweep — both worse than
    saying what is wrong.
    """
    if values is None:
        return default
    if not values:
        raise ConfigurationError(f"scenario sweep axis {name!r} must not be empty")
    return values


def contention_params(scenario: str, level: str) -> Dict[str, object]:
    """The parameter preset for ``scenario`` at contention ``level``."""
    if level not in CONTENTION_LEVELS:
        raise ConfigurationError(
            f"unknown contention level {level!r}; choices: {sorted(CONTENTION_LEVELS)}"
        )
    preset = CONTENTION_LEVELS[level]
    if scenario not in preset:
        raise ConfigurationError(
            f"no contention preset for scenario {scenario!r}; "
            f"known scenarios: {sorted(preset)}"
        )
    return dict(preset[scenario])


def _spec_for(
    scenario: str, level: str, cores: int, config: str, backoff: str, seed: int
) -> RunSpec:
    variant = None if backoff == DEFAULT_BACKOFF else backoff_variant(backoff)
    return RunSpec(
        workload=scenario,
        params=tuple(contention_params(scenario, level).items()),
        config=config,
        num_cores=cores,
        seed=seed,
        variant=variant,
    )


def scenario_sweep(
    scenarios: Optional[List[str]] = None,
    core_counts: Optional[List[int]] = None,
    configs: Optional[List[str]] = None,
    contention: Optional[List[str]] = None,
    backoffs: Optional[List[str]] = None,
    seed: int = DEFAULT_SEED,
) -> SweepSpec:
    """The declarative contention grid.

    Wireless configurations get one spec per backoff kind; configurations
    without wireless hardware appear once per (scenario, level, cores) row —
    their MAC-free results are backoff-independent by construction.
    """
    scenarios = _axis("scenarios", scenarios, scenario_names())
    core_counts = _axis("core_counts", core_counts, DEFAULT_CORE_COUNTS)
    configs = _axis("configs", configs, DEFAULT_CONFIGS)
    contention = _axis("contention", contention, DEFAULT_CONTENTION)
    backoffs = _axis("backoffs", backoffs, DEFAULT_BACKOFFS)
    specs: List[RunSpec] = []
    for scenario in scenarios:
        for level in contention:
            for cores in core_counts:
                for config in configs:
                    kinds = backoffs if config in WIRELESS_CONFIGS else [backoffs[0]]
                    for kind in kinds:
                        effective = kind if config in WIRELESS_CONFIGS else DEFAULT_BACKOFF
                        specs.append(
                            _spec_for(scenario, level, cores, config, effective, seed)
                        )
    return SweepSpec(name="scenarios", specs=tuple(specs))


#: Contention label for parameter sets that match no preset; a real string
#: (not None) so the level stays sortable/renderable alongside low/high.
CUSTOM_CONTENTION = "custom"


def contention_level_of(row: Row) -> str:
    """Reverse-map a frame row's parameter values onto a contention level.

    Specs carry the preset's *parameters*, not the level name; a row whose
    parameters exactly match the workload's preset at some level gets that
    level's name back (custom parameter sets map to
    :data:`CUSTOM_CONTENTION`).  A parameter whose name collided with a
    metric column lives under ``param_<name>`` (rwlock's ``operations`` knob
    versus the completed-operations count).
    """

    def param(row: Row, knob: str):
        prefixed = f"param_{knob}"
        return row[prefixed] if prefixed in row else row.get(knob)

    for level, presets in CONTENTION_LEVELS.items():
        preset = presets.get(row["workload"])
        if preset is not None and all(
            param(row, knob) == value for knob, value in preset.items()
        ):
            return level
    return CUSTOM_CONTENTION


def scenario_frame(frame: MetricFrame, backoffs: Optional[List[str]] = None) -> MetricFrame:
    """Analysis view of a scenario sweep: contention level + per-op cost.

    Adds the ``contention`` dimension (reverse-mapped from the parameter
    presets), replicates MAC-free rows across the requested ``backoffs``
    (one Baseline simulation serves every backoff row of its grid point),
    and derives ``cycles_per_op`` — the normalization that makes low/high
    contention rows comparable (their total work differs by construction).
    """
    backoffs = backoffs if backoffs is not None else list(DEFAULT_BACKOFFS)
    frame = frame.derive("contention", contention_level_of, type="str", kind="dim")
    frame = frame.explode(
        "backoff", backoffs, where=lambda row: row["config"] not in WIRELESS_CONFIGS
    )
    return frame.cycles_per_op(default=None)


#: Declarative presentation of the contention grid: cycles per completed
#: operation, one row per (scenario, level, cores, backoff), one column per
#: configuration in sweep order.
SCENARIOS_REPORT = Report(
    name="scenarios",
    title="Contention scenarios: cycles per completed operation",
    index=("workload", "contention", "cores", "backoff"),
    index_headers=("scenario", "contention", "cores", "backoff"),
    series="config",
    values="cycles_per_op",
    series_sort=False,
    sort_rows=True,
)

#: The total-cycles view of the same grid, the table ``repro run scenarios``
#: prints (``repro report scenarios`` prints the per-operation one).
SCENARIOS_TOTAL_REPORT = replace(
    SCENARIOS_REPORT,
    title="Contention scenarios: total cycles",
    values="total_cycles_f",
    transforms=(derive("total_cycles_f", lambda row: float(row["cycles"])),),
)

#: What ``repro run scenarios`` and ``repro report scenarios`` read.
EXPERIMENT = Experiment(
    name="scenarios",
    sweep=scenario_sweep,
    report=SCENARIOS_REPORT,
    run_report=SCENARIOS_TOTAL_REPORT,
    view=lambda frame, kwargs: scenario_frame(frame, kwargs.get("backoffs")),
    axes={
        "scenarios": "scenarios", "cores": "core_counts", "configs": "configs",
        "contention": "contention", "backoffs": "backoffs",
    },
    quick={"cores": [16], "contention": ["low"]},
)
