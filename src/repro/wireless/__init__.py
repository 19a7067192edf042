"""On-chip wireless communication substrate.

Models the two channels of Section 4.1: the 19 Gb/s **Data channel** (5-cycle
messages, collision detection in the second cycle, exponential backoff) and
the 1 Gb/s **Tone channel** (1-bit tones, round-robin slot multiplexing among
active barriers), plus the per-node transceiver MAC and the RF area/power
scaling model of Section 2.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BackoffPolicy",
    "BroadcastAwareBackoff",
    "ExponentialBackoff",
    "FixedBackoff",
    "make_backoff",
    "DataChannel",
    "WirelessMessage",
    "ToneChannel",
    "Transceiver",
    "RfDesignPoint",
    "YU_65NM_REFERENCE",
    "scale_design_point",
    "tone_extension_cost",
    "wisync_rf_budget",
]

_EXPORTS = {
    "BackoffPolicy": "repro.wireless.backoff",
    "BroadcastAwareBackoff": "repro.wireless.backoff",
    "ExponentialBackoff": "repro.wireless.backoff",
    "FixedBackoff": "repro.wireless.backoff",
    "make_backoff": "repro.wireless.backoff",
    "DataChannel": "repro.wireless.channel",
    "WirelessMessage": "repro.wireless.channel",
    "RfDesignPoint": "repro.wireless.link_budget",
    "YU_65NM_REFERENCE": "repro.wireless.link_budget",
    "scale_design_point": "repro.wireless.link_budget",
    "tone_extension_cost": "repro.wireless.link_budget",
    "wisync_rf_budget": "repro.wireless.link_budget",
    "ToneChannel": "repro.wireless.tone",
    "Transceiver": "repro.wireless.transceiver",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
