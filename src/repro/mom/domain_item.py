"""DomainItem: a server's per-domain state (§5).

The paper's structure, transliterated::

    Class DomainItem {
        short domainId;          // domain identifier
        short domainServerId;    // identifier of the server in this domain
        short[] idTable;         // ServerId <-> domainServerId correspondence
        MatrixClock mclock;      // the matrix clock of the domain
        DomainItem next;         // a pointer to the next domain
    }

A causal router-server simply holds several DomainItems — "a server can
belong to an arbitrary number of domains, and any server can be a
causal-router-server".
"""

from __future__ import annotations

from repro.clocks.base import CausalClock
from repro.protocol.core import CausalCore
from repro.topology.domains import Domain


class DomainItem:
    """One server's view of one domain: local identity + domain clock."""

    __slots__ = ("domain", "domain_server_id", "core", "_clock")

    def __init__(
        self, domain: Domain, server_id: int, core: CausalCore
    ) -> None:
        """Args:
        domain: the topology domain this item covers.
        server_id: this server's *global* id; must be a member.
        core: the causal-delivery core (:mod:`repro.protocol`) that
            creates and drives this domain's clock.
        """
        self.domain = domain
        self.domain_server_id = domain.local_id(server_id)
        self.core = core
        self._clock = core.create_clock(domain.size, self.domain_server_id)

    @property
    def domain_id(self) -> str:
        return self.domain.domain_id

    @property
    def clock(self) -> CausalClock:
        return self._clock

    def local_id(self, global_server: int) -> int:
        """§5's idTable lookup: global ServerId → domainServerId (the
        domain holds the one table all its members share)."""
        return self.domain.local_id(global_server)

    def global_id(self, domain_server_id: int) -> int:
        """Reverse lookup: domainServerId → global ServerId."""
        return self.domain.global_id(domain_server_id)

    def __repr__(self) -> str:
        return (
            f"DomainItem({self.domain_id!r}, "
            f"domainServerId={self.domain_server_id}, "
            f"size={self.domain.size})"
        )
