"""Area and power comparison model (Table 4).

Compares the estimated area and TDP of the WiSync RF front end (transceiver
plus two antennas, from the Section 2 scaling model) against two popular
22 nm cores: the high-performance Xeon Haswell core and the energy-efficient
Atom Silvermont core, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.wireless.link_budget import wisync_rf_budget


@dataclass(frozen=True)
class CoreReference:
    """Published per-core area and (frequency-corrected) TDP at 22 nm."""

    name: str
    area_mm2: float
    tdp_w: float
    source_note: str


#: Reference cores used by the paper.  The Haswell per-core TDP is the 18-core
#: 135 W chip corrected to 1 GHz (~5 W/core); the Silvermont figure is the
#: 8-core 12 W Avoton corrected to 1 GHz (~1 W/core).
CORE_REFERENCES: List[CoreReference] = [
    CoreReference("Xeon Haswell", area_mm2=21.1, tdp_w=5.0,
                  source_note="18-core 135W at 2.1GHz, scaled to 1GHz"),
    CoreReference("Atom Silvermont", area_mm2=2.5, tdp_w=1.0,
                  source_note="8-core Avoton 12W at 1.7GHz, scaled to 1GHz"),
]


def area_power_table() -> Dict[str, Dict[str, float]]:
    """Regenerate Table 4: T+2A cost and its percentage of each core.

    Returns a mapping from row name to a dictionary with the transceiver
    area/power and the percentages relative to each reference core.  The
    RF front end is costed at 22 nm, the node of :data:`CORE_REFERENCES`.
    """
    rf = wisync_rf_budget(22)
    table: Dict[str, Dict[str, float]] = {
        "transceiver+2antennas": {
            "area_mm2": rf.area_mm2,
            "power_w": rf.power_mw / 1000.0,
        }
    }
    for core in CORE_REFERENCES:
        table[core.name] = {
            "area_mm2": core.area_mm2,
            "power_w": core.tdp_w,
            "rf_area_percent": 100.0 * rf.area_mm2 / core.area_mm2,
            "rf_power_percent": 100.0 * (rf.power_mw / 1000.0) / core.tdp_w,
        }
    return table
