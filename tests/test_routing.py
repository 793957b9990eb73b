"""Unit tests for routing tables (§5's boot-time shortest paths)."""

import tracemalloc

import pytest

from repro.errors import RoutingError
from repro.topology import routing as routing_module
from repro.topology import (
    build_routing_tables,
    bus,
    from_domain_map,
    route,
    single_domain,
)


class TestRoutingTables:
    def test_flat_topology_routes_directly(self):
        tables = build_routing_tables(single_domain(5))
        for dest in range(1, 5):
            assert tables[0].next_hop(dest) == dest

    def test_figure2_example_route(self, figure2_topology):
        """§4.1: S1→S8 must route S1→S3, S3→S7, S7→S8 (0-indexed:
        0→2, 2→6, 6→7)."""
        tables = build_routing_tables(figure2_topology)
        assert route(tables, 0, 7) == [0, 2, 6, 7]

    def test_intra_domain_is_one_hop(self, figure2_topology):
        tables = build_routing_tables(figure2_topology)
        assert route(tables, 0, 1) == [0, 1]
        assert route(tables, 3, 4) == [3, 4]

    def test_routes_are_symmetric_in_length(self, figure2_topology):
        tables = build_routing_tables(figure2_topology)
        for src in range(8):
            for dst in range(8):
                if src == dst:
                    continue
                forward = route(tables, src, dst)
                backward = route(tables, dst, src)
                assert len(forward) == len(backward)

    def test_self_route_rejected(self):
        tables = build_routing_tables(single_domain(3))
        with pytest.raises(RoutingError):
            tables[0].next_hop(0)

    def test_unknown_destination_rejected(self):
        tables = build_routing_tables(single_domain(3))
        with pytest.raises(RoutingError):
            tables[0].next_hop(9)

    def test_deterministic_across_builds(self, figure2_topology):
        first = build_routing_tables(figure2_topology)
        second = build_routing_tables(figure2_topology)
        for server in range(8):
            assert first[server].destinations() == second[server].destinations()
            for dest in first[server].destinations():
                assert first[server].next_hop(dest) == second[server].next_hop(dest)

    def test_bus_routes_cross_backbone(self):
        topo = bus(20, 5)
        tables = build_routing_tables(topo)
        path = route(tables, 0, 15)
        # leaf → leaf router → remote router (backbone) → dest
        assert len(path) == 4
        assert topo.is_router(path[1])
        assert topo.is_router(path[2])

    def test_every_pair_routable(self):
        topo = bus(17, 4)
        tables = build_routing_tables(topo)
        for src in topo.servers:
            for dst in topo.servers:
                if src != dst:
                    path = route(tables, src, dst)
                    assert path[0] == src and path[-1] == dst
                    # consecutive hops always share a domain
                    for a, b in zip(path, path[1:]):
                        assert topo.common_domains(a, b)


class TestRoutingMemory:
    def test_trees_hold_domain_arrays_not_server_arrays(self):
        """Routing to every destination of bus(4000) keeps O(D) integers
        per tree (each domain's absorber and absorption rank), not a
        parent list over all n servers."""
        topology = bus(4000)
        tables = build_routing_tables(topology)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for dest in topology.servers[1:]:
                tables[0].next_hop(dest)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        only = [tracemalloc.Filter(True, routing_module.__file__)]
        grown = sum(
            stat.size_diff
            for stat in after.filter_traces(only).compare_to(
                before.filter_traces(only), "filename"
            )
        )
        per_tree = grown / (topology.server_count - 1)
        # two 64-entry arrays and their bookkeeping, where one n-entry
        # parent list alone is 8 * 4000 = 32 000 bytes
        assert per_tree < 48 * len(topology.domains)
