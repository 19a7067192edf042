"""Machine assembly: the full manycore and the paper's configurations.

:class:`~repro.machine.manycore.Manycore` wires the simulation engine, the
cached-memory hierarchy, the wired mesh, and (when enabled) the WiSync
wireless fabric into one simulated chip, and drives workload threads over it.
:mod:`repro.machine.configs` builds the four configurations of Table 2
(Baseline, Baseline+, WiSyncNoT, WiSync) and the Table 6 sensitivity variants.
:class:`~repro.machine.results.SimResult` is JSON-serializable
(``to_dict``/``from_dict``, stats snapshot included) so results survive the
parallel executor's process boundary and the on-disk result cache of
:mod:`repro.runner`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Manycore",
    "Program",
    "SimResult",
    "baseline",
    "baseline_plus",
    "wisync",
    "wisync_not",
    "paper_configurations",
    "sensitivity_variants",
    "config_by_name",
]

_EXPORTS = {
    "baseline": "repro.machine.configs",
    "baseline_plus": "repro.machine.configs",
    "config_by_name": "repro.machine.configs",
    "paper_configurations": "repro.machine.configs",
    "sensitivity_variants": "repro.machine.configs",
    "wisync": "repro.machine.configs",
    "wisync_not": "repro.machine.configs",
    "Manycore": "repro.machine.manycore",
    "Program": "repro.machine.manycore",
    "SimResult": "repro.machine.results",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
