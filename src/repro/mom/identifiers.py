"""Identifiers: global server ids, domain-local server ids, agent ids.

§5: "An agent server now has two identifiers: the global identifier,
unique for the whole system, and a domain identifier. The global
identifier is implicitly used by the application-level agents (which are
unaware of domains), and the domain server identifier is used by the
system."

Global server ids are plain ints (``0..n-1``); domain-local ids live in
:class:`~repro.mom.domain_item.DomainItem`. Agents get a structured id.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, order=True)
class AgentId:
    """Globally unique agent identity: home server plus per-server index.

    Application code addresses agents by :class:`AgentId` only — which
    domain(s) the home server belongs to is invisible, exactly as §5
    requires ("agent names must remain unchanged at the application
    level"). An id is a value (frozen, two ints): copies return it as is.
    """

    server: int
    local: int

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ConfigurationError(f"negative server id: {self.server}")
        if self.local < 0:
            raise ConfigurationError(f"negative local agent id: {self.local}")

    def __copy__(self) -> "AgentId":
        return self

    def __deepcopy__(self, memo: dict) -> "AgentId":
        return self

    def __repr__(self) -> str:
        return f"A{self.server}.{self.local}"
