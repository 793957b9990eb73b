"""The agent server: Engine + Channel + persistence + transport (§3, Figure 1).

The server object wires one of everything together and owns the crash /
recovery state machine. An *epoch* counter invalidates in-flight processor
completions on crash: any work that was "executing" when the server died
simply never commits, which is exactly the atomicity §3 promises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.errors import ServerCrashedError
from repro.mom.channel import Channel
from repro.mom.config import BusConfig
from repro.mom.engine import Engine
from repro.mom.persistence import PersistentStore
from repro.protocol.core import CausalCore
from repro.simulation.kernel import Processor
from repro.simulation.transport import ReliableTransport
from repro.topology.domains import Domain
from repro.topology.routing import RoutingTable

if TYPE_CHECKING:
    from repro.mom.accounting import BusAccounting
    from repro.mom.bus import MessageBus


class AgentServer:
    """One MOM server. Constructed by :class:`~repro.mom.bus.MessageBus`."""

    def __init__(
        self,
        bus: MessageBus,
        server_id: int,
        domains: List[Domain],
        routing: RoutingTable,
    ):
        self.bus = bus
        self.server_id = server_id
        self.domains = list(domains)
        self.routing = routing
        self.config: BusConfig = bus.config
        self.sim = bus.sim
        self.metrics = bus.metrics
        self.topology = bus.config.topology

        self.epoch = 0
        self._crashed = False
        # the bus's observer (accounting, or a tracer); set by the bus
        self._obs: Optional["BusAccounting"] = None
        self.store = PersistentStore(server_id)
        self.processor = Processor(self.sim, owner=server_id)
        # the causal-delivery core, resolved once per server: the Channel
        # and its DomainItems route every protocol decision through it
        self.core: CausalCore = self.config.core
        self.channel = Channel(self)
        self.engine = Engine(self)
        self.transport = ReliableTransport(
            sim=self.sim,
            network=bus.network,
            endpoint=server_id,
            on_message=self.channel.on_packet,
            retransmit_ms=bus.config.retransmit_ms,
        )

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------

    @property
    def is_crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Fail-stop: volatile state is lost, persistent state survives.

        In-flight processor completions are invalidated by bumping the
        epoch; the network drops packets addressed to the detached
        transport while the server is down.
        """
        if self._crashed:
            raise ServerCrashedError(
                f"server {self.server_id} is already crashed"
            )
        self._crashed = True
        self.epoch += 1
        self.processor.halt()
        self.transport.stop()
        self.channel.on_crash()
        self.engine.on_crash()
        self.metrics.counter("server.crashes").add()
        if self._obs is not None:
            self._obs.server_crash(self.server_id)

    def recover(self) -> None:
        """Reload persistent state and resume: clocks and unacked sends
        come back from disk, unacked envelopes are retransmitted, queued
        reactions re-run."""
        if not self._crashed:
            raise ServerCrashedError(
                f"server {self.server_id} is not crashed"
            )
        self._crashed = False
        self.processor.resume()
        self.transport.restart(self.channel.on_packet)
        self.channel.on_recover()
        self.engine.on_recover()
        self.metrics.counter("server.recoveries").add()
        if self._obs is not None and self._obs.tracing:
            self._obs.server_recover(self.server_id)

    def __repr__(self) -> str:
        state = "crashed" if self._crashed else "up"
        return (
            f"AgentServer(id={self.server_id}, {state}, "
            f"domains={[d.domain_id for d in self.domains]})"
        )
