"""Domains and topologies — the static structure a MessageBus boots from.

A :class:`Domain` is an *ordered* group of servers: the position of a server
in the member tuple is its ``domainServerId`` (§5), the index used by that
domain's matrix clock. A :class:`Topology` is a set of domains over global
server identifiers ``0..n-1``; servers in two or more domains are the causal
router-servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.causality.chains import Membership
from repro.errors import TopologyError


@dataclass(frozen=True)
class Domain:
    """One domain of causality (§4.1).

    Attributes:
        domain_id: the domain's name, unique within a topology.
        servers: member servers by global identifier; the tuple order
            defines each member's domain-local identifier
            (``domainServerId``), hence the matrix-clock indexing.
    """

    domain_id: str
    servers: Tuple[int, ...]

    def __post_init__(self):
        if not self.servers:
            raise TopologyError(f"domain {self.domain_id!r} has no servers")
        if len(set(self.servers)) != len(self.servers):
            raise TopologyError(
                f"domain {self.domain_id!r} lists a server twice: {self.servers}"
            )
        if any(server < 0 for server in self.servers):
            raise TopologyError(
                f"domain {self.domain_id!r} has a negative server id"
            )

    @property
    def size(self) -> int:
        return len(self.servers)

    @cached_property
    def id_table(self) -> Dict[int, int]:
        """§5's idTable: global ``ServerId`` → ``domainServerId``. Built
        once per domain and shared read-only by every member's
        :class:`~repro.mom.domain_item.DomainItem`."""
        return {server: local for local, server in enumerate(self.servers)}

    def local_id(self, server: int) -> int:
        """The ``domainServerId`` of a member (an idTable lookup)."""
        try:
            return self.id_table[server]
        except KeyError:
            raise TopologyError(
                f"server {server} is not in domain {self.domain_id!r}"
            ) from None

    def global_id(self, local: int) -> int:
        """Global ``ServerId`` of the member with domain-local id ``local``."""
        if not 0 <= local < len(self.servers):
            raise TopologyError(
                f"domain-local id {local} out of range in {self.domain_id!r}"
            )
        return self.servers[local]

    def __contains__(self, server: int) -> bool:
        return server in self.servers

    def __repr__(self) -> str:
        return f"Domain({self.domain_id!r}, servers={self.servers})"


class Topology:
    """A complete domain decomposition of an n-server MOM.

    The constructor performs only cheap structural checks; the full §4
    validity conditions (acyclic domain graph, one router per domain pair,
    no nesting, connectivity) live in
    :func:`repro.topology.graph.validate_topology`, which the MessageBus
    calls at boot — and which the theorem tests deliberately skip.
    """

    def __init__(self, domains: Sequence[Domain]):
        if not domains:
            raise TopologyError("a topology needs at least one domain")
        self._domains: Dict[str, Domain] = {}
        for domain in domains:
            if domain.domain_id in self._domains:
                raise TopologyError(f"duplicate domain id {domain.domain_id!r}")
            self._domains[domain.domain_id] = domain
        servers: set = set()
        for domain in domains:
            servers.update(domain.servers)
        expected = set(range(len(servers)))
        if servers != expected:
            raise TopologyError(
                "server ids must be exactly 0..n-1; "
                f"got {sorted(servers)}"
            )
        self._servers: Tuple[int, ...] = tuple(sorted(servers))
        self._domains_of: Dict[int, List[str]] = {s: [] for s in self._servers}
        for domain in domains:
            for server in domain.servers:
                self._domains_of[server].append(domain.domain_id)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def server_count(self) -> int:
        return len(self._servers)

    @property
    def servers(self) -> Tuple[int, ...]:
        return self._servers

    @property
    def domains(self) -> List[Domain]:
        return list(self._domains.values())

    @property
    def domain_ids(self) -> List[str]:
        return list(self._domains)

    def domain(self, domain_id: str) -> Domain:
        try:
            return self._domains[domain_id]
        except KeyError:
            raise TopologyError(f"unknown domain {domain_id!r}") from None

    def domains_of(self, server: int) -> List[Domain]:
        """All domains a server belongs to (≥2 for router-servers)."""
        try:
            ids = self._domains_of[server]
        except KeyError:
            raise TopologyError(f"unknown server {server}") from None
        return [self._domains[d] for d in ids]

    def is_router(self, server: int) -> bool:
        """§4.1: a causal router-server belongs to at least two domains."""
        return len(self.domains_of(server)) >= 2

    @property
    def routers(self) -> List[int]:
        return [s for s in self._servers if self.is_router(s)]

    def common_domains(self, first: int, second: int) -> List[Domain]:
        """Domains containing both servers; nonempty iff they are adjacent
        (can exchange a message directly)."""
        here = set(self._domains_of.get(first, ()))
        there = set(self._domains_of.get(second, ()))
        return [self._domains[d] for d in here & there]

    def shared_domain(self, first: int, second: int) -> Domain:
        """The unique domain shared by two adjacent servers.

        Validated topologies guarantee uniqueness (two domains never share
        two servers); when several exist anyway, the first by domain id is
        returned deterministically.
        """
        common = self.common_domains(first, second)
        if not common:
            raise TopologyError(
                f"servers {first} and {second} share no domain"
            )
        return min(common, key=lambda d: d.domain_id)

    def membership(self) -> Membership:
        """The formal §4.2 membership structure over this topology."""
        return Membership(
            {d.domain_id: set(d.servers) for d in self._domains.values()}
        )

    def describe(self) -> str:
        """A short human-readable summary (used by examples and logs)."""
        lines = [f"Topology: {self.server_count} servers, "
                 f"{len(self._domains)} domain(s), "
                 f"{len(self.routers)} router(s)"]
        for domain in self._domains.values():
            members = ", ".join(
                f"S{server}{'*' if self.is_router(server) else ''}"
                for server in domain.servers
            )
            lines.append(f"  {domain.domain_id}: {members}")
        lines.append("  (* = causal router-server)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Topology(servers={self.server_count}, "
            f"domains={list(self._domains)})"
        )
