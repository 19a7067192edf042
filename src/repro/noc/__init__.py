"""Wired on-chip network models.

The paper's manycore uses a 2D mesh with 4-cycle hops and 128-bit links
(Table 1).  The paper's Baseline+ adds virtual tree-based broadcast with
flit replication at the router crossbars [Krishna et al., 22].  Here that is
a standalone model (``BroadcastTree``, ``MeshNetwork.broadcast``): the
coherence protocol sends only unicasts, so no configuration's simulated
traffic uses it.
"""

from repro._lazy import lazy_exports

__all__ = ["MeshTopology", "xy_route_length", "MeshNetwork", "BroadcastTree"]

_EXPORTS = {
    "MeshTopology": "repro.noc.topology",
    "xy_route_length": "repro.noc.routing",
    "MeshNetwork": "repro.noc.mesh",
    "BroadcastTree": "repro.noc.broadcast_tree",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
