"""Discrete-event simulation engine used by every timing model in repro.

The engine is deliberately small: a cycle-granular event queue
(:class:`~repro.sim.engine.Simulator`), deterministic per-component random
number streams (:class:`~repro.sim.rng.DeterministicRng`), and statistics
helpers (:mod:`repro.sim.stats`).  Higher layers (memory, NoC, wireless,
machine) schedule callbacks on the shared simulator instance.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Simulator",
    "DeterministicRng",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "UtilizationTracker",
]

_EXPORTS = {
    "Simulator": "repro.sim.engine",
    "DeterministicRng": "repro.sim.rng",
    "Counter": "repro.sim.stats",
    "Histogram": "repro.sim.stats",
    "StatsRegistry": "repro.sim.stats",
    "UtilizationTracker": "repro.sim.stats",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
