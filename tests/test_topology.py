"""Unit tests for domains, topologies and the §4 validity conditions."""

import pytest

from repro.errors import CyclicDomainGraphError, TopologyError
from repro.topology import (
    Domain,
    Topology,
    builders,
    domain_graph,
    find_domain_cycle,
    from_domain_map,
    validate_topology,
)

_RING6 = {d.domain_id: list(d.servers) for d in builders.ring(6, 3).domains}


class TestDomain:
    def test_local_and_global_ids_roundtrip(self):
        domain = Domain("D", (5, 2, 9))
        assert domain.local_id(2) == 1
        assert domain.global_id(1) == 2
        assert domain.size == 3

    def test_membership(self):
        domain = Domain("D", (1, 2))
        assert 1 in domain
        assert 3 not in domain

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            Domain("D", ())

    def test_duplicate_member_rejected(self):
        with pytest.raises(TopologyError):
            Domain("D", (1, 1))

    def test_unknown_local_id_rejected(self):
        domain = Domain("D", (1, 2))
        with pytest.raises(TopologyError):
            domain.local_id(7)
        with pytest.raises(TopologyError):
            domain.global_id(5)


class TestTopology:
    def test_figure2_structure(self, figure2_topology):
        topo = figure2_topology
        assert topo.server_count == 8
        assert sorted(topo.routers) == [2, 4, 6]
        assert topo.is_router(2)
        assert not topo.is_router(0)

    def test_domains_of(self, figure2_topology):
        ids = [d.domain_id for d in figure2_topology.domains_of(2)]
        assert sorted(ids) == ["A", "D"]

    def test_shared_domain(self, figure2_topology):
        assert figure2_topology.shared_domain(0, 2).domain_id == "A"
        with pytest.raises(TopologyError):
            figure2_topology.shared_domain(0, 7)

    def test_server_ids_must_be_dense(self):
        with pytest.raises(TopologyError):
            Topology([Domain("D", (0, 2))])

    def test_duplicate_domain_id_rejected(self):
        with pytest.raises(TopologyError):
            Topology([Domain("D", (0, 1)), Domain("D", (1, 2))])

    def test_membership_projection(self, figure2_topology):
        membership = figure2_topology.membership()
        assert membership.share_domain(0, 2)
        assert sorted(membership.routers()) == [2, 4, 6]

    def test_describe_marks_routers(self, figure2_topology):
        text = figure2_topology.describe()
        assert "S2*" in text
        assert "S0," in text or "S0\n" in text or "S0 " in text or ": S0" in text


class TestValidation:
    def test_figure2_is_valid(self, figure2_topology):
        validate_topology(figure2_topology)

    def test_cycle_detected(self):
        cyclic = from_domain_map(
            {"d0": [0, 1], "d1": [1, 2], "d2": [2, 0]}
        )
        with pytest.raises(CyclicDomainGraphError) as info:
            validate_topology(cyclic)
        assert len(info.value.cycle) >= 3

    def test_two_domains_sharing_two_servers_rejected(self):
        """A multigraph 2-cycle: formally invisible to the simple domain
        graph but equally fatal (see graph.py's docstring)."""
        topology = from_domain_map({"d0": [0, 1, 2], "d1": [1, 2, 3]})
        cycle = find_domain_cycle(topology)
        assert cycle == ["d0", "d1"]
        with pytest.raises(CyclicDomainGraphError):
            validate_topology(topology)

    def test_nested_domain_rejected(self):
        topology = from_domain_map({"outer": [0, 1, 2], "inner": [0, 1]})
        with pytest.raises(TopologyError, match="nested"):
            validate_topology(topology)

    def test_disconnected_rejected(self):
        topology = from_domain_map({"d0": [0, 1], "d1": [2, 3]})
        with pytest.raises(TopologyError, match="disconnected"):
            validate_topology(topology)

    def test_acyclic_graph_reports_no_cycle(self, figure2_topology):
        assert find_domain_cycle(figure2_topology) is None

    @pytest.mark.parametrize(
        "mapping, cycle, message",
        [
            pytest.param(
                {"A": [0, 1], "B": [1, 2], "C": [2, 0]},
                ["A", "B", "C"],
                "domain interconnection graph has a cycle: A -> B -> C",
                id="figure-4a-ring",
            ),
            pytest.param(
                {"X": [1, 7], **_RING6},
                ["X", "D0", "D1", "D2", "D3"],
                "domain interconnection graph has a cycle: "
                "X -> D0 -> D1 -> D2 -> D3",
                id="chorded-ring",
            ),
            pytest.param(
                {"p": [2, 3], "q": [0, 1, 2, 3], "r": [2, 3, 4], "s": [4, 5]},
                ["p", "q"],
                "domain 'p' is nested inside 'q'; "
                "§4.2 assumes no domain is included in another",
                id="nested-pair",
            ),
        ],
    )
    def test_reported_violation_is_pinned(self, mapping, cycle, message):
        """The exact cycle and nested pair reported — the traversal order
        of the domain graph and the nesting scan are part of the contract
        (error messages, the sanitizer's cycle report)."""
        topology = from_domain_map(mapping)
        assert find_domain_cycle(topology) == cycle
        with pytest.raises(TopologyError) as info:
            validate_topology(topology)
        assert str(info.value) == message

    def test_domain_graph_edges_carry_shared_servers(self, figure2_topology):
        graph = domain_graph(figure2_topology)
        assert graph.has_edge("A", "D")
        assert graph.edges["A", "D"]["shared"] == [2]
        assert not graph.has_edge("A", "B")
