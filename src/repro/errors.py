"""Exception hierarchy for the ``repro`` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while the
specific subclasses keep diagnostics precise.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A bus, topology or experiment configuration is invalid."""


class TopologyError(ConfigurationError):
    """The domain/server topology is malformed (empty domain, unknown server,
    disconnected graph, ...)."""


class CyclicDomainGraphError(TopologyError):
    """The domain interconnection graph contains a cycle.

    Per the paper's main theorem this voids the global causality guarantee,
    so :class:`~repro.mom.bus.MessageBus` refuses to boot such a topology
    unless explicitly asked to (which the theorem tests do, on purpose).

    Attributes:
        cycle: the offending sequence of domain identifiers, as reported by
            the cycle finder; the first and last entries close the loop.
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        pretty = " -> ".join(str(d) for d in self.cycle)
        super().__init__(f"domain interconnection graph has a cycle: {pretty}")


class RoutingError(ReproError):
    """No route exists between two servers, or a routing table is stale."""


class ClockError(ReproError):
    """A logical-clock operation was used incorrectly (size mismatch,
    unknown process index, merging clocks of different shapes, ...)."""


class ProtocolError(ReproError):
    """A causal-delivery core was misused: unknown core name or
    conflicting registration."""


class CausalityViolationError(ReproError):
    """A trace checker found messages delivered against causal order.

    Attributes:
        witness: a human-readable description of the violating pair.
    """

    def __init__(self, witness: str):
        self.witness = witness
        super().__init__(f"causal delivery violated: {witness}")


class TraceError(ReproError):
    """A trace (or virtual trace) is structurally invalid: unknown process,
    receive without a matching send, chains that cross over, ..."""


class SimulationError(ReproError):
    """The discrete-event kernel was driven incorrectly (event scheduled in
    the past, run() re-entered, ...)."""


class TransportError(SimulationError):
    """The reliable transport gave up on a message (retry budget exhausted)."""


class ServerCrashedError(ReproError):
    """An operation was attempted on a crashed agent server."""


class PersistenceError(ReproError):
    """The simulated persistent store rejected an operation."""


class AgentError(ReproError):
    """An agent reaction failed, or an unknown agent was addressed."""
