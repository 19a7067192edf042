"""The pinned grids of the benchmark's workloads.

Each simulator workload is a list of ``RunSpec`` grid points built with the
experiments' own sweep builders; the seed reaches the simulator only through
``RunSpec.seed``.  Why each workload exists, and which layers it should and
should not move, is written up in ``NOTES.md`` next to this file.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

#: The paper's root seed; committed expected outputs are for this seed.
DEFAULT_SEED = 2016

#: Every pass of every workload runs at least this many times, so each
#: sample set is large enough for a tail percentile with 10 samples beyond it.
MIN_PASSES = 3

SIMULATOR_WORKLOADS = ("coherence_sync", "wireless_mac", "livermore_apps")
HOST_WORKLOAD = "host_paths"
WORKLOADS = SIMULATOR_WORKLOADS + (HOST_WORKLOAD,)

#: CAS successes per thread on ``coherence_sync`` (the fig9 default is 6);
#: halved so one pass stays a few seconds long on a small host.
CAS_SUCCESSES = 3

#: ``livermore_apps``: a subsample of the fig8 vector lengths, one repetition,
#: and two fig10 proxies (streamcluster: barrier-bound; barnes: lock-bound)
#: at half their phase length.
LIVERMORE_LENGTHS = {2: [16, 256], 3: [16, 4096], 6: [16]}
LIVERMORE_REPETITIONS = 1
APPS = ["streamcluster", "barnes"]
APP_PHASE_SCALE = 0.5


def coherence_sync(seed: int):
    """No wireless hardware: coherence misses and mesh traffic do the work."""
    from repro.experiments.fig7_tightloop import fig7_sweep
    from repro.experiments.fig9_cas import fig9_sweep

    configs = ["Baseline", "Baseline+"]
    return list(fig7_sweep([32, 64, 128], 5, configs, seed)) + list(
        fig9_sweep(None, [64], [16, 256], CAS_SUCCESSES, configs, seed)
    )


#: ``wireless_mac`` runs the ``high`` contention preset with its *counts*
#: halved (items, operations, tasks, phases); the knobs that set the
#: contention itself (think and compute cycles, skew, write fraction) keep
#: their ``high`` values, so the MAC stays collision-bound while a pass
#: stays short enough to repeat several times a run.
HALVED_COUNTS = {
    "pc_ring": "items",
    "rwlock": "operations",
    "work_steal": "tasks_per_thread",
    "barrier_storm": "phases",
    "mixed_phases": "phases",
}


def high_contention(scenario: str) -> Dict[str, object]:
    from repro.experiments.scenarios import contention_params

    params = contention_params(scenario, "high")
    knob = HALVED_COUNTS[scenario]
    params[knob] = params[knob] // 2
    return params


def wireless_mac(seed: int):
    """The MAC's collision-bound regime, on the generator thread path."""
    from repro.experiments.fig7_tightloop import fig7_sweep
    from repro.runner.executor import backoff_variant
    from repro.runner.spec import RunSpec

    scenarios = [
        RunSpec(
            workload=scenario, params=tuple(high_contention(scenario).items()),
            config=config, num_cores=64, seed=seed, variant=variant,
        )
        for scenario in sorted(HALVED_COUNTS)
        for config in ("WiSyncNoT", "WiSync")
        for variant in (None, backoff_variant("exponential"))
    ]
    return scenarios + list(fig7_sweep([128], 5, ["WiSync"], seed))


def livermore_apps(seed: int):
    """The paper-figure mix: every layer takes a share; low-contention MAC."""
    from repro.experiments.fig10_applications import fig10_sweep
    from repro.experiments.fig8_livermore import fig8_sweep

    return list(
        fig8_sweep(None, [64], LIVERMORE_LENGTHS, LIVERMORE_REPETITIONS, None, seed)
    ) + list(fig10_sweep(APPS, 64, APP_PHASE_SCALE, None, seed))


GRIDS: Dict[str, Callable[[int], List]] = {
    "coherence_sync": coherence_sync,
    "wireless_mac": wireless_mac,
    "livermore_apps": livermore_apps,
}

#: ``host_paths`` drives ``python -m repro run fig7 --quick`` (8 grid points).
HOST_EXPERIMENT = "fig7"
HOST_CONFIGS = ["Baseline", "Baseline+", "WiSyncNoT", "WiSync"]


def host_configs(seed: int) -> List[str]:
    """The ``--configs`` order for ``host_paths``.

    The CLI takes no seed, so the seed permutes the order in which the grid
    points run.  The work and the printed table do not depend on the order.
    """
    order = list(HOST_CONFIGS)
    random.Random(seed).shuffle(order)
    return order


def host_grid(seed: int):
    """The in-process equivalent of the ``host_paths`` CLI grid."""
    from repro.experiments.fig7_tightloop import fig7_sweep

    return list(fig7_sweep([8, 16], 2, host_configs(seed)))
