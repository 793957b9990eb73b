"""Property-based tests for the topology layer: builders, partitioner,
repair, routing — on randomized inputs."""

import random as pyrandom

from hypothesis import assume, given, settings, strategies as st

from repro.errors import TopologyError
from repro.metrics.registry import Registry
from repro.topology import (
    CommunicationGraph,
    build_routing_tables,
    bus,
    daisy,
    estimate_traffic_cost,
    from_domain_map,
    partition_communication_graph,
    repair_topology,
    route,
    single_domain,
    tree,
    validate_topology,
)


class TestBuilderProperties:
    @given(
        n=st.integers(min_value=2, max_value=200),
        size=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_bus_always_valid_and_complete(self, n, size):
        assume(size == 0 or size >= 2)
        topology = bus(n, size)
        validate_topology(topology)
        assert topology.server_count == n

    @given(
        n=st.integers(min_value=2, max_value=150),
        size=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_daisy_always_valid_and_complete(self, n, size):
        topology = daisy(n, size)
        validate_topology(topology)
        assert topology.server_count == n

    @given(
        n=st.integers(min_value=2, max_value=120),
        fanout=st.integers(min_value=1, max_value=4),
        size=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_tree_always_valid_and_complete(self, n, fanout, size):
        topology = tree(n, fanout=fanout, domain_size=size)
        validate_topology(topology)
        assert topology.server_count == n

    @given(n=st.integers(min_value=2, max_value=80))
    @settings(max_examples=40, deadline=None)
    def test_every_builder_routes_all_pairs(self, n):
        for topology in (bus(n), daisy(n, 4) if n >= 2 else None):
            if topology is None:
                continue
            tables = build_routing_tables(topology)
            rng = pyrandom.Random(n)
            pairs = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(10)
            ]
            for src, dst in pairs:
                if src == dst:
                    continue
                path = route(tables, src, dst)
                assert path[0] == src and path[-1] == dst
                for a, b in zip(path, path[1:]):
                    assert topology.common_domains(a, b)


class TestPartitionProperties:
    @given(
        n=st.integers(min_value=4, max_value=40),
        seed=st.integers(min_value=0, max_value=999),
        cap=st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_partitioner_output_always_validates(self, n, seed, cap):
        rng = pyrandom.Random(seed)
        comm = CommunicationGraph(n)
        for _ in range(min(60, n * 2)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                comm.add_traffic(a, b, rng.uniform(0.5, 10.0))
        topology = partition_communication_graph(comm, max_domain_size=cap)
        validate_topology(topology)
        assert topology.server_count == n

    @given(
        n=st.integers(min_value=6, max_value=30),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_partitioned_never_worse_than_flat(self, n, seed):
        rng = pyrandom.Random(seed)
        comm = CommunicationGraph(n)
        for _ in range(n * 2):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                comm.add_traffic(a, b, rng.uniform(0.5, 5.0))
        topology = partition_communication_graph(comm)
        flat_cost = estimate_traffic_cost(single_domain(n), comm)
        smart_cost = estimate_traffic_cost(topology, comm)
        # with s² per-domain costs, any decomposition into smaller domains
        # beats one huge domain on every route
        assert smart_cost <= flat_cost


class TestRepairProperties:
    @given(
        seed=st.integers(min_value=0, max_value=500),
        domain_count=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_repair_random_overlapping_domains(self, seed, domain_count):
        """Random overlapping domain soups: repair either produces a valid
        topology or reports clearly why it cannot."""
        rng = pyrandom.Random(seed)
        n = rng.randint(domain_count + 1, domain_count * 4)
        mapping = {}
        for d in range(domain_count):
            size = rng.randint(2, max(2, n // 2))
            mapping[f"d{d}"] = rng.sample(range(n), k=min(size, n))
        covered = sorted({s for servers in mapping.values() for s in servers})
        remap = {old: new for new, old in enumerate(covered)}
        mapping = {
            k: [remap[s] for s in servers] for k, servers in mapping.items()
        }
        try:
            topology = from_domain_map(mapping)
        except TopologyError:
            return  # degenerate map (duplicate in one domain etc.)
        try:
            repaired, actions = repair_topology(topology)
        except TopologyError:
            return  # disconnected or unrepairable: acceptable, reported
        validate_topology(repaired)
        assert repaired.server_count == topology.server_count


def _all_servers_bfs(topology, dest):
    """The routing BFS with every discovered server on the frontier (what
    the index did before it kept routers only): parents, scan count."""
    members = [tuple(sorted(d.servers)) for d in topology.domains]
    domains_of = {s: [] for s in topology.servers}
    for di, group in enumerate(members):
        for server in group:
            domains_of[server].append(di)
    parents = [-1] * topology.server_count
    visited = {dest}
    absorbed = set()
    order = [dest]
    scans = 0
    for current in order:
        active = [d for d in domains_of[current] if d not in absorbed]
        absorbed.update(active)
        candidates = sorted(s for d in active for s in members[d])
        scans += len(candidates)
        for neighbor in candidates:
            if neighbor not in visited:
                visited.add(neighbor)
                parents[neighbor] = current
                order.append(neighbor)
    return parents, scans


@st.composite
def connected_topologies(draw):
    """Domains grown as a random tree: each new domain hangs off one
    server of an earlier one. Hanging several off the same server makes
    it a router of three or more domains; ``extra`` memberships add
    shortcuts (and cycles). Server ids and member order are shuffled so
    that tie-breaking by lowest id is exercised."""
    domain_count = draw(st.integers(1, 7))
    groups = [list(range(draw(st.integers(1, 5))))]
    n = len(groups[0])
    for _ in range(domain_count - 1):
        host = draw(st.sampled_from(groups))
        hinge = draw(st.sampled_from(host))
        fresh = draw(st.integers(1, 4))
        groups.append([hinge] + list(range(n, n + fresh)))
        n += fresh
    for _ in range(draw(st.integers(0, 2))):
        group = draw(st.sampled_from(groups))
        extra = draw(st.integers(0, n - 1))
        if extra not in group:
            group.append(extra)
    relabel = draw(st.permutations(range(n)))
    return from_domain_map(
        {
            f"D{i}": draw(st.permutations([relabel[s] for s in group]))
            for i, group in enumerate(groups)
        }
    )


class TestRoutingFrontier:
    @given(topology=connected_topologies())
    @settings(max_examples=150, deadline=None)
    def test_router_only_frontier_equals_all_servers_bfs(self, topology):
        registry = Registry()
        index = build_routing_tables(topology, registry=registry)[0].index
        trees = 1  # the eager connectivity check roots one at server 0
        total_scans = index.scan_counts[0]
        for dest in topology.servers:
            parents, scans = _all_servers_bfs(topology, dest)
            assert index.parents_towards(dest) == parents
            assert index.scan_counts[dest] == scans
            if dest:
                trees += 1
                total_scans += scans
            # distances follow the same parent pointers
            dist = index.distances_from(dest)
            for server in topology.servers:
                hops, current = 0, server
                while current != dest:
                    current = parents[current]
                    hops += 1
                assert dist[server] == hops
        assert registry.counter("routing_bfs_trees_total").value == trees
        assert registry.counter("routing_bfs_scans_total").value == total_scans
