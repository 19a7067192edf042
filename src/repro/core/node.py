"""Per-core WiSync hardware bundle (Figure 2).

Each node of the manycore contains the core with its caches (modelled in
:mod:`repro.mem` / :mod:`repro.cpu`), plus the WiSync additions bundled here:
the transceiver (PHY + MAC), the Broadcast-Memory controller with its WCB and
AFB bits, and the tone controller with its AllocB/ActiveB tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bm_controller import BmController
from repro.core.tone_controller import ToneController
from repro.wireless.transceiver import Transceiver


@dataclass
class WiSyncNode:
    """The wireless-synchronization hardware attached to one core."""

    STATE = ("transceiver", "bm_controller", "tone_controller")
    REBUILT = ("node_id",)

    node_id: int
    transceiver: Transceiver
    bm_controller: BmController
    tone_controller: ToneController
