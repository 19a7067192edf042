"""Virtual tree-based broadcast, as in the paper's Baseline+.

The paper's Baseline+ enhances the mesh with virtual tree broadcast and flit
replication at the router crossbars (Krishna et al. [22]): a broadcast is
forwarded along a tree rooted at the source and replicated in the routers,
so the source injects the message once and the latency is governed by the
tree depth rather than by the number of destinations.

Only ``MeshNetwork.broadcast`` and ``multicast`` use the tree, and the
simulated machine calls neither: its coherence protocol invalidates sharers
with unicasts from the home bank in every configuration.  So Baseline+'s
``NocConfig.tree_broadcast`` changes no simulated result.
"""

from __future__ import annotations

from typing import Dict, List

from repro.noc.topology import MeshTopology


class BroadcastTree:
    """Builds per-root broadcast trees over a mesh and reports their depth."""

    def __init__(self, topology: MeshTopology) -> None:
        self.topology = topology
        self._depth_cache: Dict[int, int] = {}
        self._children_cache: Dict[int, Dict[int, List[int]]] = {}

    def children(self, root: int) -> Dict[int, List[int]]:
        """Tree adjacency (node -> children) for a broadcast rooted at ``root``.

        The tree follows XY-dimension order: the message travels along the
        root's row replicating into each column, then down each column.  This
        matches how mesh broadcast trees are embedded in practice.
        """
        if root in self._children_cache:
            return self._children_cache[root]
        topo = self.topology
        children: Dict[int, List[int]] = {node: [] for node in topo.nodes()}
        rx, ry = topo.coordinates(root)
        # Row phase: spread left and right along the root's row.
        for direction in (-1, 1):
            x = rx
            prev = root
            while True:
                x += direction
                if not 0 <= x < topo.width:
                    break
                node = ry * topo.width + x
                if node >= topo.num_nodes:
                    break
                children[prev].append(node)
                prev = node
        # Column phase: from every node of the root's row, spread up and down.
        for x in range(topo.width):
            head = ry * topo.width + x
            if head >= topo.num_nodes:
                continue
            for direction in (-1, 1):
                y = ry
                prev = head
                while True:
                    y += direction
                    if not 0 <= y < topo.height:
                        break
                    node = y * topo.width + x
                    if node >= topo.num_nodes:
                        break
                    children[prev].append(node)
                    prev = node
        self._children_cache[root] = children
        return children

    def depth(self, root: int) -> int:
        """Longest root-to-leaf hop count of the broadcast tree."""
        if root in self._depth_cache:
            return self._depth_cache[root]
        children = self.children(root)
        depth = 0
        stack = [(root, 0)]
        while stack:
            node, level = stack.pop()
            depth = max(depth, level)
            for child in children[node]:
                stack.append((child, level + 1))
        self._depth_cache[root] = depth
        return depth

    def reached_nodes(self, root: int) -> List[int]:
        """All nodes reached by the broadcast (should be every mesh node)."""
        children = self.children(root)
        seen = []
        stack = [root]
        visited = set()
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            seen.append(node)
            stack.extend(children[node])
        return seen
