"""Tests for the wired mesh network models."""

import pytest

from repro.config import NocConfig
from repro.errors import ConfigurationError
from repro.noc.broadcast_tree import BroadcastTree
from repro.noc.mesh import MeshNetwork
from repro.noc.routing import xy_route, xy_route_length
from repro.noc.topology import MeshTopology
from repro.sim.stats import StatsRegistry


class TestMeshTopology:
    @pytest.mark.parametrize("cores,width", [(16, 4), (64, 8), (128, 12), (256, 16), (5, 3)])
    def test_square_for_fits_all_nodes(self, cores, width):
        topo = MeshTopology.square_for(cores)
        assert topo.width == width
        assert topo.width * topo.height >= cores

    def test_coordinates_roundtrip(self):
        topo = MeshTopology.square_for(16)
        for node in topo.nodes():
            x, y = topo.coordinates(node)
            assert topo.node_at(x, y) == node

    def test_hop_distance_is_manhattan(self):
        topo = MeshTopology.square_for(16)
        assert topo.hop_distance(0, 15) == 6
        assert topo.hop_distance(0, 3) == 3
        assert topo.hop_distance(5, 5) == 0

    def test_hop_distance_symmetric(self):
        topo = MeshTopology.square_for(64)
        for a, b in [(0, 63), (10, 53), (7, 8)]:
            assert topo.hop_distance(a, b) == topo.hop_distance(b, a)

    def test_max_hop_distance(self):
        assert MeshTopology.square_for(64).max_hop_distance() == 14

    def test_average_distance_positive_and_bounded(self):
        topo = MeshTopology.square_for(16)
        avg = topo.average_hop_distance()
        assert 0 < avg <= topo.max_hop_distance()

    def test_neighbors_in_corner_and_center(self):
        topo = MeshTopology.square_for(16)
        assert sorted(topo.neighbors(0)) == [1, 4]
        assert len(topo.neighbors(5)) == 4

    def test_out_of_range_node_rejected(self):
        topo = MeshTopology.square_for(16)
        with pytest.raises(ConfigurationError):
            topo.coordinates(16)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            MeshTopology.square_for(0)


class TestRouting:
    def test_route_endpoints(self):
        topo = MeshTopology.square_for(16)
        path = xy_route(topo, 0, 15)
        assert path[0] == 0
        assert path[-1] == 15
        assert len(path) == topo.hop_distance(0, 15) + 1

    def test_route_length_matches_distance(self):
        topo = MeshTopology.square_for(64)
        assert xy_route_length(topo, 3, 60) == topo.hop_distance(3, 60)

    def test_route_moves_x_then_y(self):
        topo = MeshTopology.square_for(16)
        path = xy_route(topo, 0, 10)
        # X phase first: nodes 0 -> 1 -> 2, then down the column.
        assert path[:3] == [0, 1, 2]


class TestBroadcastTree:
    @pytest.mark.parametrize("cores", [16, 64, 100])
    def test_tree_reaches_every_node(self, cores):
        topo = MeshTopology.square_for(cores)
        tree = BroadcastTree(topo)
        assert sorted(tree.reached_nodes(0)) == list(range(cores))
        assert sorted(tree.reached_nodes(cores // 2)) == list(range(cores))

    def test_depth_bounded_by_diameter(self):
        topo = MeshTopology.square_for(64)
        tree = BroadcastTree(topo)
        for root in (0, 27, 63):
            assert tree.depth(root) <= topo.max_hop_distance()

    def test_center_root_has_smaller_depth_than_corner(self):
        topo = MeshTopology.square_for(64)
        tree = BroadcastTree(topo)
        assert tree.depth(27) < tree.depth(0)

    def test_children_cover_without_duplicates(self):
        topo = MeshTopology.square_for(16)
        children = BroadcastTree(topo).children(0)
        all_children = [c for lst in children.values() for c in lst]
        assert len(all_children) == len(set(all_children)) == 15


class TestMeshNetwork:
    def _mesh(self, cores=16, tree=False):
        topo = MeshTopology.square_for(cores)
        return MeshNetwork(topo, NocConfig(tree_broadcast=tree), StatsRegistry())

    def test_flight_latency_scales_with_hops(self):
        mesh = self._mesh()
        near = mesh.flight_latency(0, 1, 128)
        far = mesh.flight_latency(0, 15, 128)
        assert far > near
        assert far - near == (6 - 1) * 4

    def test_same_node_latency_is_router_only(self):
        mesh = self._mesh()
        assert mesh.flight_latency(3, 3) == 1

    def test_serialization_of_wide_messages(self):
        mesh = self._mesh()
        narrow = mesh.flight_latency(0, 1, 128)
        wide = mesh.flight_latency(0, 1, 512)
        assert wide == narrow + 3

    def test_unicast_advances_with_congestion(self):
        mesh = self._mesh()
        row = mesh.flight_row(5, 128)
        first = mesh.unicast(0, 0, 5, row[0], 1)
        second = mesh.unicast(0, 1, 5, row[1], 1)
        third = mesh.unicast(0, 2, 5, row[2], 1)
        # All three target node 5: ejection port serializes them.
        assert first < second < third

    def test_unicast_ports_each_serve_one_message_at_a_time(self):
        """A message holds its source's injection port and its destination's
        ejection port for one cycle per flit; the caller supplies the flight."""
        mesh = self._mesh()
        assert mesh.unicast(0, 0, 1, 5, 4) == 5 + 4
        # Injected at 4, behind the first message's flits; ejected at 9 + 4.
        assert mesh.unicast(0, 0, 2, 5, 4) == 4 + 5 + 4
        # Arrives at 1 + 5 = 6, but node 1's ejection port is busy until 9.
        assert mesh.unicast(1, 3, 1, 5, 4) == 9 + 4
        assert mesh.stats.counter_value("noc/flit_cycles") == 12

    def test_broadcast_without_tree_serializes_at_source(self):
        mesh = self._mesh(tree=False)
        done = mesh.broadcast(0, 0, 128)
        assert done >= 15  # at least one flit injected per destination

    def test_tree_broadcast_is_much_faster(self):
        plain = self._mesh(cores=64, tree=False).broadcast(0, 0, 128)
        tree = self._mesh(cores=64, tree=True).broadcast(0, 0, 128)
        assert tree < plain / 2

    def test_tree_broadcast_latency_is_depth_based(self):
        mesh = self._mesh(cores=64, tree=True)
        expected = mesh.tree.depth(0) * 4 + 1
        assert mesh.broadcast(0, 0, 128) == expected

    def test_multicast_subset(self):
        mesh = self._mesh()
        done = mesh.multicast(0, 0, [1, 2, 3], 128)
        assert done > 0

    # 128 nodes fill a 12x11 region of a 12x12 mesh.
    @pytest.mark.parametrize("cores", [1, 2, 5, 16, 64, 128, 256])
    @pytest.mark.parametrize("bits", [64, 128, 512, 1000])
    def test_flight_row_is_the_hop_formula_and_symmetric(self, cores, bits):
        """The memory hierarchy times an invalidation and its ack from one
        home-bank row, so ``row(src)[dst]`` must equal ``row(dst)[src]``."""
        mesh = self._mesh(cores)
        topo, config = mesh.topology, mesh.config
        serialization = config.cycles_per_flit(bits) - 1
        rows = [mesh.flight_row(src, bits) for src in topo.nodes()]
        for src in topo.nodes():
            assert len(rows[src]) == cores
            for dst in topo.nodes():
                expected = config.router_latency
                if src != dst:
                    expected += topo.hop_distance(src, dst) * config.hop_latency + serialization
                assert rows[src][dst] == expected == rows[dst][src]
                assert mesh.flight_latency(src, dst, bits) == expected

    def test_message_stats_counted(self):
        mesh = self._mesh()
        mesh.unicast(0, 0, 1, mesh.flight_latency(0, 1), 1)
        mesh.unicast(0, 1, 2, mesh.flight_latency(1, 2), 1)
        assert mesh.stats.counter_value("noc/messages") == 2
