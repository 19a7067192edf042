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

    def describe(self) -> str:
        """One-line summary used by examples and debugging output."""
        return (
            f"node {self.node_id}: "
            f"{self.transceiver.sent_messages} wireless messages sent, "
            f"{self.transceiver.collisions_seen} collisions, "
            f"{self.bm_controller.rmws_issued} BM RMWs "
            f"({self.bm_controller.rmw_failures} atomicity failures), "
            f"{self.tone_controller.barriers_initiated} tone barriers initiated"
        )
