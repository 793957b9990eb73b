"""The domain interconnection graph and the §4 validity conditions.

Two domains are adjacent iff a server belongs to both (§4.2). The theorem
requires this graph to be acyclic; the implementation additionally requires

- **single shared router per domain pair** — if two domains shared two
  servers, the formal restriction of a trace to either domain would contain
  messages the *other* domain's protocol ordered, silently voiding the
  per-domain guarantee (the trap is a multigraph cycle the simple graph
  cannot see);
- **no nested domains** — §4.2 notes domain inclusion "does not occur in
  practice" and the path/cycle definitions assume it away;
- **connectivity** — otherwise some server pairs simply cannot communicate
  and the routing tables of §5 cannot be built.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import CyclicDomainGraphError, TopologyError
from repro.topology.domains import Topology


def domain_graph(topology: Topology) -> nx.Graph:
    """Build the §4.2 domain interconnection graph.

    Vertices are domain ids; an edge carries the list of shared servers
    under the ``"shared"`` attribute. Built in one pass over the routers'
    memberships, O(Σ|domain|); edges are inserted in (first, second)
    domain order, so every traversal of the graph is reproducible.
    """
    index = {domain_id: i for i, domain_id in enumerate(topology.domain_ids)}
    shared: Dict[Tuple[int, int], List[int]] = {}
    for server in topology.servers:
        # a server's domains come in topology order: first < second
        mine = [index[d.domain_id] for d in topology.domains_of(server)]
        for at, first in enumerate(mine):
            for second in mine[at + 1 :]:
                shared.setdefault((first, second), []).append(server)
    domain_ids = topology.domain_ids
    graph = nx.Graph()
    graph.add_nodes_from(domain_ids)
    for first, second in sorted(shared):
        graph.add_edge(
            domain_ids[first], domain_ids[second], shared=shared[first, second]
        )
    return graph


def _cycle_of(graph: nx.Graph) -> Optional[List[str]]:
    for first, second, data in graph.edges(data=True):
        if len(data["shared"]) > 1:
            return [first, second]
    try:
        cycle_edges = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return None
    return [edge[0] for edge in cycle_edges]


def find_domain_cycle(topology: Topology) -> Optional[List[str]]:
    """Return one cycle of the domain graph (as a domain-id list), or
    ``None`` when the graph is acyclic.

    A pair of domains sharing two or more servers counts as a (length-2,
    multigraph) cycle, for the reason given in the module docstring.
    """
    return _cycle_of(domain_graph(topology))


def _find_nested_domains(topology: Topology) -> Optional[Tuple[str, str]]:
    """Return a (inner, outer) pair of nested domains, or ``None``: the
    first inner domain, in topology order, and the first domain holding
    all its members — the intersection of its members' domain lists."""
    for inner in topology.domains:
        members = iter(inner.servers)
        outers = {d.domain_id for d in topology.domains_of(next(members))}
        outers.discard(inner.domain_id)
        for server in members:
            if not outers:
                break
            outers.intersection_update(
                d.domain_id for d in topology.domains_of(server)
            )
        if outers:
            outer = next(d for d in topology.domain_ids if d in outers)
            return inner.domain_id, outer
    return None


def validate_topology(topology: Topology) -> None:
    """Enforce every §4 validity condition; raise on the first failure.

    Raises:
        CyclicDomainGraphError: the domain graph has a cycle (including the
            two-routers-between-one-pair multigraph case).
        TopologyError: nested domains, or a disconnected domain graph.
    """
    nested = _find_nested_domains(topology)
    if nested:
        inner, outer = nested
        raise TopologyError(
            f"domain {inner!r} is nested inside {outer!r}; "
            "§4.2 assumes no domain is included in another"
        )
    graph = domain_graph(topology)
    cycle = _cycle_of(graph)
    if cycle is not None:
        raise CyclicDomainGraphError(cycle)
    if len(topology.domain_ids) > 1 and not nx.is_connected(graph):
        components = [sorted(c) for c in nx.connected_components(graph)]
        raise TopologyError(
            f"domain graph is disconnected: components {components}; "
            "servers in different components cannot communicate"
        )
