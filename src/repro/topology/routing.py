"""Static routing tables, built at boot (§5).

"The routing table gives, for each destination server, the identifier of
the server to which the message should be sent: the destination server,
within a domain, and a router server otherwise. The routing table is built
statically at boot time [...] based on a shortest path algorithm."

The server adjacency graph connects two servers iff they share a domain
(messages are intra-domain). A breadth-first search per *destination*
yields the next hop from every source; on validated (tree-like) topologies
the route at domain granularity is unique, and ties inside a domain are
broken deterministically by preferring the lowest next-hop identifier so
that every boot produces identical tables.

Implementation note — the hot-path rewrite. The original implementation
materialized all n BFS trees eagerly over a networkx graph, which is the
single most expensive operation at n=1000 (two orders of magnitude more
work than the simulation itself for a short experiment). This version
exploits structural facts without changing a single produced route:

- the server graph is a *union of cliques* (one clique per domain), so the
  first time a BFS wave touches any member of a domain it absorbs the whole
  domain; scanning a fully-absorbed domain again can never discover a new
  node.  Each per-destination BFS therefore costs O(Σ|domain|) instead of
  O(Σ|domain|²) (the ``routing_bfs_scans_total`` tally still counts that
  Σ|members| over the absorbed domains).
- most callers query a handful of destinations (the MOM consults routes
  only for servers that actually exchange messages), so BFS trees are
  built lazily per destination and memoized.  Connectivity is still
  verified eagerly at build time, with the same error as before.
- only a router can extend the frontier: a server in one domain was
  discovered through exactly that domain, which is absorbed by the time
  it would be popped.  So the BFS queue holds the destination and the
  routers it discovers, and a tree pops and scans only routers.
- a tree is stored at *domain granularity*: a server is discovered when
  the first domain containing it is absorbed, so its BFS parent is the
  server whose pop absorbed that domain.  A tree is therefore two arrays
  of D entries (each domain's absorber and its absorption rank), not a
  parent array of n entries; ``next_hop`` reads them directly, and
  :meth:`_RoutingIndex.parents_towards` rebuilds the n-entry parent list
  only on demand (diagnostics, distances, tests).

Determinism is preserved exactly: the BFS discovery order — pop order,
then neighbours in ascending server id — is identical to iterating
``sorted(graph.neighbors(current))`` on the old explicit graph, because
every still-undiscovered neighbour of a popped node lies in one of its
not-yet-absorbed domains, and those are scanned in merged sorted order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RoutingError, TopologyError
from repro.metrics.instruments import Counter
from repro.metrics.registry import Registry
from repro.topology.domains import Topology


class _RoutingIndex:
    """Shared, lazily materialized all-destination BFS trees, one pair of
    domain-indexed arrays per destination.

    One index is shared by every :class:`RoutingTable` of one
    :func:`build_routing_tables` call.  ``next_hop(s, dest)`` is the next
    hop from ``s`` towards ``dest`` (BFS parent in the tree rooted at
    ``dest``); the tree behind it is computed on first use and cached.
    """

    __slots__ = (
        "_n", "_members", "_routers", "_domains_of", "_routes",
        "_trees", "_scans", "scan_counts",
    )

    def __init__(
        self, topology: Topology, registry: Optional[Registry] = None
    ):
        # cost accounting (repro.metrics): how much BFS work routing does
        self._trees: Optional[Counter] = None
        self._scans: Optional[Counter] = None
        if registry is not None:
            self._trees = registry.counter(
                "routing_bfs_trees_total",
                help="per-destination BFS trees materialized lazily",
            )
            self._scans = registry.counter(
                "routing_bfs_scans_total",
                help="BFS neighbour-candidate scans while building trees",
            )
        servers = topology.servers
        # Topology guarantees ids are exactly 0..n-1, so server ids double
        # as dense array indices.
        self._n = len(servers)
        domains = topology.domains
        self._members: List[Tuple[int, ...]] = [
            tuple(sorted(d.servers)) for d in domains
        ]
        domains_of: List[List[int]] = [[] for _ in range(self._n)]
        for di, members in enumerate(self._members):
            for server in members:
                domains_of[server].append(di)
        self._domains_of: List[Tuple[int, ...]] = [
            tuple(ds) for ds in domains_of
        ]
        #: each domain's routers, ascending: the only members that can
        #: extend a BFS frontier
        self._routers: List[Tuple[int, ...]] = [
            tuple(s for s in members if len(domains_of[s]) > 1)
            for members in self._members
        ]
        #: dest -> (absorber, rank): per domain, the server whose pop
        #: absorbed it and the order of absorption (len(domains) = never)
        self._routes: Dict[int, Tuple[List[int], List[int]]] = {}
        #: per-destination scan counts of materialized trees. The scans of
        #: one tree are a pure function of (topology, dest), so shard
        #: workers that materialize overlapping destination sets can merge
        #: their BFS cost accounting by dict union (repro.mom.parallel).
        self.scan_counts: Dict[int, int] = {}
        # Eager connectivity check (the old builder raised while building
        # the first BFS tree; keep the same failure mode and message).
        first = servers[0]
        self._tree(first)
        missing = [
            s for s in servers if s != first and self.next_hop(s, first) < 0
        ]
        if missing:
            raise RoutingError(
                f"servers {sorted(missing)} cannot reach server {first}; "
                "topology is disconnected"
            )

    @property
    def size(self) -> int:
        return self._n

    def _tree(self, dest: int) -> Tuple[List[int], List[int]]:
        """The BFS tree rooted at ``dest``, at domain granularity.

        A server is discovered when the first domain containing it is
        absorbed, so its parent is the absorber of that domain: the tree
        is fully described by who absorbed each domain, and when."""
        cached = self._routes.get(dest)
        if cached is not None:
            return cached
        count = len(self._members)
        absorber = [-1] * count
        rank = [count] * count
        absorbed = 0
        scans = 0
        domains_of = self._domains_of
        members = self._members
        routers = self._routers
        discovered = {dest}
        order = [dest]
        for current in order:  # grows while it is walked: a BFS queue
            active = [d for d in domains_of[current] if absorber[d] < 0]
            if not active:
                continue
            for d in active:
                absorber[d] = current
                rank[d] = absorbed
                absorbed += 1
                scans += len(members[d])
            if len(active) == 1:
                candidates: Sequence[int] = routers[active[0]]
            else:
                candidates = sorted(r for d in active for r in routers[d])
            for router in candidates:
                if router not in discovered:
                    discovered.add(router)
                    order.append(router)
        tree = self._routes[dest] = (absorber, rank)
        self.scan_counts[dest] = scans
        if self._trees is not None:
            self._trees.inc()
            assert self._scans is not None
            self._scans.inc(scans)
        return tree

    def next_hop(self, source: int, dest: int) -> int:
        """BFS parent of ``source`` in the tree rooted at ``dest`` (-1 =
        unreached / root): the absorber of the earliest-absorbed domain
        that contains ``source``."""
        tree = self._routes.get(dest)
        absorber, rank = tree if tree is not None else self._tree(dest)
        if source == dest:
            return -1
        domains = self._domains_of[source]
        first = domains[0] if len(domains) == 1 else min(
            domains, key=rank.__getitem__
        )
        return absorber[first]

    def parents_towards(self, dest: int) -> List[int]:
        """BFS parent array rooted at ``dest`` (-1 = unreached / root),
        built on demand from the domain-granular tree."""
        return [self.next_hop(server, dest) for server in range(self._n)]

    def distances_from(self, source: int) -> List[int]:
        """BFS hop distance from ``source`` to every server (-1 if
        unreachable).  Cheaper than materializing routes when only path
        lengths are needed (e.g. picking the farthest benchmark target)."""
        parents = self.parents_towards(source)
        dist = [-1] * self._n
        dist[source] = 0
        # Parent pointers lead to ``source`` without cycles, so a single
        # pass following them through already-resolved nodes works.
        for server in range(self._n):
            if server == source or parents[server] < 0:
                continue
            hops = 0
            current = server
            while current != source:
                known = dist[current]
                if known >= 0:
                    hops += known
                    break
                current = parents[current]
                hops += 1
            dist[server] = hops
        return dist


class RoutingTable:
    """One server's routing table: destination server -> next-hop server."""

    __slots__ = ("_owner", "_next_hop", "_index")

    def __init__(
        self,
        owner: int,
        next_hop: Optional[Dict[int, int]] = None,
        index: Optional[_RoutingIndex] = None,
    ):
        self._owner = owner
        self._next_hop: Optional[Dict[int, int]] = (
            dict(next_hop) if next_hop is not None else None
        )
        self._index = index

    @property
    def owner(self) -> int:
        return self._owner

    @property
    def index(self) -> Optional[_RoutingIndex]:
        """The shared lazy BFS index (None for explicit-dict tables)."""
        return self._index

    def next_hop(self, dest: int) -> int:
        """The server to forward to on the way to ``dest``.

        Equals ``dest`` itself when it is directly reachable (shares a
        domain with the owner); §5 calls the indirection "completely
        invisible to the clients".
        """
        if dest == self._owner:
            raise RoutingError(f"server {self._owner} routing to itself")
        if self._next_hop is not None:
            try:
                return self._next_hop[dest]
            except KeyError:
                raise RoutingError(
                    f"server {self._owner} has no route to server {dest}"
                ) from None
        index = self._index
        if index is None or not 0 <= dest < index.size:
            raise RoutingError(
                f"server {self._owner} has no route to server {dest}"
            )
        hop = index.next_hop(self._owner, dest)
        if hop < 0:
            raise RoutingError(
                f"server {self._owner} has no route to server {dest}"
            )
        return hop

    def destinations(self) -> List[int]:
        if self._next_hop is not None:
            return sorted(self._next_hop)
        assert self._index is not None
        return [s for s in range(self._index.size) if s != self._owner]

    def __repr__(self) -> str:
        routes = (
            len(self._next_hop)
            if self._next_hop is not None
            else self._index.size - 1 if self._index is not None else 0
        )
        return f"RoutingTable(owner={self._owner}, routes={routes})"


def _server_graph(topology: Topology):
    """Adjacency between servers that share at least one domain.

    Retained for diagnostics and tests; the routing builder itself no
    longer materializes the quadratic clique edges.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(topology.servers)
    for domain in topology.domains:
        members = domain.servers
        for i, first in enumerate(members):
            for second in members[i + 1 :]:
                graph.add_edge(first, second)
    return graph


def build_routing_tables(
    topology: Topology, registry: Optional[Registry] = None
) -> Dict[int, RoutingTable]:
    """Build every server's routing table with per-destination BFS trees.

    A BFS is rooted at each *destination*; following BFS parents from any
    source yields the first hop of a shortest path. Ties prefer the lowest
    parent id, making tables deterministic. Trees are materialized lazily,
    one per destination actually routed to, and shared by all tables.

    Raises:
        RoutingError: if some pair of servers is unreachable (the bus
            validation also catches this earlier, as a disconnected domain
            graph).
    """
    index = _RoutingIndex(topology, registry=registry)
    return {
        source: RoutingTable(source, index=index) for source in topology.servers
    }


def hop_distances(topology: Topology, source: int) -> Dict[int, int]:
    """Shortest-path hop count from ``source`` to every server.

    Route-free helper for callers that only need distances (benchmark
    target selection, diagnostics); equals ``len(route(...)) - 1`` for
    every destination without materializing any routing table.
    """
    if source not in topology.servers:
        raise TopologyError(f"unknown server {source}")
    index = _RoutingIndex(topology)
    dist = index.distances_from(source)
    return {server: dist[server] for server in topology.servers}


def route(tables: Dict[int, RoutingTable], source: int, dest: int) -> List[int]:
    """The full server path from ``source`` to ``dest`` (both inclusive).

    Utility for diagnostics and the analytic cost model; the MOM itself
    only ever consults one hop at a time, like an IP router.
    """
    if source == dest:
        return [source]
    path = [source]
    current = source
    for _ in range(len(tables) + 1):
        current = tables[current].next_hop(dest)
        path.append(current)
        if current == dest:
            return path
    raise RoutingError(
        f"routing loop detected between {source} and {dest}: {path}"
    )
