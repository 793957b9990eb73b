"""The MessageBus: boots a configured topology and runs the MOM.

The bus owns the shared simulator, network and metrics, builds one
:class:`~repro.mom.server.AgentServer` per server of the topology with
routing tables computed at boot (§5), validates the domain graph's
acyclicity (§4.3's precondition) unless told otherwise, and records the
traces the causality checkers consume:

- the **app trace** (agent-level): one :class:`~repro.causality.message.Message`
  per notification, processes = agents — the trace whose causal delivery
  the theorem guarantees on acyclic topologies;
- the **hop trace** (server-level): one message per intra-domain hop,
  processes = servers — restricted per domain, it verifies that each
  domain's protocol independently respects causality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional

from repro.causality.chains import Membership
from repro.causality.checker import (
    CausalityReport,
    check_all_domains,
    check_trace,
)
from repro.causality.message import Message
from repro.causality.trace import Trace
from repro.errors import ConfigurationError, ServerCrashedError
from repro.metrics.registry import Registry
from repro.mom.accounting import BusAccounting, accounting_enabled
from repro.mom.agent import Agent
from repro.mom.config import BusConfig
from repro.mom.identifiers import AgentId
from repro.mom.payloads import Envelope, Notification
from repro.mom.server import AgentServer
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.network import Network
from repro.simulation.rng import RngFactory
from repro.simulation.shard import ShardContext, ShardNetwork
from repro.topology.graph import validate_topology
from repro.topology.routing import build_routing_tables

if TYPE_CHECKING:
    from repro.causality.chains import Chain


class MessageBus:
    """The whole MOM: servers, network, clocks, traces, metrics."""

    def __init__(self, config: BusConfig, shard: Optional[ShardContext] = None):
        if config.validate:
            validate_topology(config.topology)
        self.config = config
        self.shard = shard
        self.sim = Simulator()
        self.rng = RngFactory(config.seed)
        self.metrics = MetricsRegistry()
        # Always-on cost accounting (repro.metrics): per-server/per-domain
        # causality costs, exposed via cost_snapshot(). REPRO_METRICS=0
        # turns it off.
        self.accounting: Optional[Registry] = (
            Registry() if accounting_enabled() else None
        )
        if shard is None:
            self.network = Network(
                sim=self.sim,
                latency=config.latency_model(),
                loss_rate=config.loss_rate,
                rng=self.rng.stream("network"),
            )
        else:
            # Sharded worker: packets whose destination is homed to another
            # worker divert to the outbox instead of scheduling locally.
            # Each shard derives the network stream under its own key, so no
            # two workers ever share an RNG stream (see docs/parallel.md;
            # eligible configs never draw from it anyway).
            self.network = ShardNetwork(
                sim=self.sim,
                latency=config.latency_model(),
                loss_rate=config.loss_rate,
                rng=self.rng.stream(f"network/shard{shard.shard_id}"),
                local=shard.local_servers,
            )
        tables = build_routing_tables(config.topology, registry=self.accounting)
        self.routing_index = tables[config.topology.servers[0]].index
        self.servers: Dict[int, AgentServer] = {}
        for server_id in config.topology.servers:
            if shard is not None and server_id not in shard.local_servers:
                continue
            self.servers[server_id] = AgentServer(
                bus=self,
                server_id=server_id,
                domains=config.topology.domains_of(server_id),
                routing=tables[server_id],
            )
        self._nids: Dict[int, int] = {}
        strict_trace = shard is None
        self.app_trace: Optional[Trace] = (
            Trace(strict=strict_trace) if config.record_app_trace else None
        )
        self.hop_trace: Optional[Trace] = (
            Trace(strict=strict_trace) if config.record_hop_trace else None
        )
        self._started = False
        # every component's lifecycle-edge observer; an attached tracer
        # (repro.obs) takes its place
        self.cost_observer: Optional[BusAccounting] = None
        if self.accounting is not None:
            self.cost_observer = BusAccounting(self, self.accounting)
        self.set_observer(self.cost_observer)

    # ------------------------------------------------------------------
    # Deployment and lifecycle
    # ------------------------------------------------------------------

    def server(self, server_id: int) -> AgentServer:
        try:
            return self.servers[server_id]
        except KeyError:
            raise ConfigurationError(f"unknown server {server_id}") from None

    def deploy(self, agent: Agent, server_id: int) -> AgentId:
        """Install an agent on a server (before :meth:`start`)."""
        if self._started:
            raise ConfigurationError(
                "deploy after start() is not supported; deploy all agents "
                "first, then start the bus"
            )
        return self.server(server_id).engine.deploy(agent)

    def start(self) -> None:
        """Fire every agent's ``on_boot`` hook (at t=0, before any run)."""
        if self._started:
            raise ConfigurationError("bus already started")
        self._started = True
        for server in self.servers.values():
            for agent in server.engine.agents:
                server.engine.schedule_boot(agent.agent_id)

    def run(self, until: Optional[float] = None) -> int:
        """Advance the simulation (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run to quiescence — every message delivered, every agent idle."""
        return self.sim.run_until_idle(max_events=max_events)

    def set_observer(self, observer: Optional[BusAccounting]) -> None:
        """Point every ``_obs`` hook at ``observer`` — a processor's or
        transport's (tracer edges only) just when it is not the accounting."""
        self._obs = observer
        tracer = observer if observer is not self.cost_observer else None
        for server in self.servers.values():
            server._obs = server.channel._obs = server.engine._obs = observer
            server.processor._obs = server.transport._obs = tracer

    # ------------------------------------------------------------------
    # Scripted events (scenarios, failure injection)
    # ------------------------------------------------------------------

    def schedule_send(
        self, at: float, sender: AgentId, target: AgentId, payload: Any
    ) -> None:
        """Script a send at absolute time ``at``, keyed to the sender's
        server so the event order is shard-layout-independent."""
        self.sim.schedule_setup(
            at, sender.server, self.dispatch, sender, target, payload
        )

    def schedule_crash(
        self, at: float, server_id: int, down_for: float
    ) -> None:
        """Script a fail-stop crash of ``server_id`` at ``at``, recovering
        ``down_for`` ms later."""
        if server_id not in self.config.topology.servers:
            raise ConfigurationError(f"unknown server {server_id}")
        self.sim.schedule_setup(at, server_id, self._crash_server, server_id)
        self.sim.schedule_setup(
            at + down_for, server_id, self._recover_server, server_id
        )

    def schedule_partition(
        self, at: float, first: int, second: int, duration: float
    ) -> None:
        """Script a network partition between two servers.

        Scheduled as one event per endpoint (idempotent on a shared
        network): in a sharded run each worker applies the copy owned by
        its local endpoint, so both sides see the cut at the same instant.
        """
        for owner in (first, second):
            self.sim.schedule_setup(
                at, owner, self.network.partition, first, second
            )
            self.sim.schedule_setup(
                at + duration, owner, self.network.heal, first, second
            )

    def _crash_server(self, server_id: int) -> None:
        server = self.server(server_id)
        if not server.is_crashed:
            server.crash()

    def _recover_server(self, server_id: int) -> None:
        server = self.server(server_id)
        if server.is_crashed:
            server.recover()

    # ------------------------------------------------------------------
    # Dispatch (engine upcall)
    # ------------------------------------------------------------------

    def _next_nid(self, server: int) -> int:
        """Notification ids are ``sender-server << 40 | per-server count``:
        unique bus-wide, and assigned identically no matter which kernel
        hosts the sender (a bus-global counter would be shard-dependent)."""
        count = self._nids.get(server, 0) + 1
        self._nids[server] = count
        return (server << 40) | count

    def dispatch(self, sender: AgentId, target: AgentId, payload: Any) -> None:
        """Route one agent-level send, local bus or channel.

        Called by the engine at reaction commit. Local notifications go
        straight to the destination engine's QueueIN ("Local Bus" in
        Figure 1); remote ones enter the channel.
        """
        notification = Notification(
            nid=self._next_nid(sender.server),
            sender=sender,
            target=target,
            payload=payload,
            sent_at=self.sim.now,
        )
        if self._obs is not None:
            self._obs.bus_post(notification)
        self.record_app_send(notification)
        if target.server == sender.server:
            self.server(target.server).engine.enqueue(notification)
        else:
            self.server(sender.server).channel.post(notification)
        self.metrics.counter("bus.notifications").add()

    # ------------------------------------------------------------------
    # Trace recording
    # ------------------------------------------------------------------

    def record_app_send(self, notification: Notification) -> None:
        if self.app_trace is None or notification.sender == notification.target:
            return
        self.app_trace.record_send(
            Message(
                notification.nid,
                notification.sender,
                notification.target,
                payload=notification.payload,
            )
        )

    def record_app_receive(self, notification: Notification) -> None:
        if notification.sender != notification.target:
            # self-sends (agent timers, local ticks) are pacing artifacts,
            # not deliveries worth a latency sample
            self.metrics.samples("bus.delivery_ms").record(
                self.sim.now - notification.sent_at
            )
        if self.app_trace is None or notification.sender == notification.target:
            return
        self.app_trace.record_receive(
            Message(
                notification.nid,
                notification.sender,
                notification.target,
                payload=notification.payload,
            )
        )

    def record_hop_send(self, envelope: Envelope) -> None:
        if self.hop_trace is None:
            return
        # the payload carries the notification id, so analysis code can
        # reassemble each application message's §4.2 chain from the trace
        self.hop_trace.record_send(
            Message(
                envelope.hop_mid(),
                envelope.src_server,
                envelope.dst_server,
                payload=envelope.notification.nid,
            )
        )

    def record_hop_receive(self, envelope: Envelope) -> None:
        if self.hop_trace is None:
            return
        self.hop_trace.record_receive(
            Message(envelope.hop_mid(), envelope.src_server, envelope.dst_server)
        )

    def hop_chains(self) -> Dict[int, "Chain"]:
        """Reassemble each notification's §4.2 message chain from the hop
        trace: the concrete realization of the paper's "virtual messages"
        (one chain of real intra-domain messages per routed notification).

        Requires ``record_hop_trace=True``. Notifications delivered over
        the local bus (same-server) have no hops and do not appear.
        """
        if self.hop_trace is None:
            raise ConfigurationError("hop trace recording is disabled")
        from repro.causality.chains import Chain

        by_nid: Dict[int, List[Message]] = {}
        for message in self.hop_trace.messages:
            by_nid.setdefault(message.payload, []).append(message)
        chains: Dict[int, Chain] = {}
        for nid, hops in by_nid.items():
            sources = {m.src for m in hops}
            dests = {m.dst for m in hops}
            start = sources - dests
            if len(start) != 1:
                raise ConfigurationError(
                    f"notification {nid}: hop set does not form a chain "
                    f"(starts: {sorted(start, key=repr)})"
                )
            by_src = {m.src: m for m in hops}
            ordered: List[Message] = []
            current = start.pop()
            while current in by_src:
                ordered.append(by_src[current])
                current = by_src[current].dst
            if len(ordered) != len(hops):
                raise ConfigurationError(
                    f"notification {nid}: hops do not form a single chain"
                )
            chains[nid] = Chain(tuple(ordered))
        return chains

    # ------------------------------------------------------------------
    # Causality verification
    # ------------------------------------------------------------------

    def check_app_causality(self) -> CausalityReport:
        """Check the agent-level trace for global causal delivery."""
        if self.app_trace is None:
            raise ConfigurationError("app trace recording is disabled")
        return check_trace(self.app_trace, scope="app")

    def check_domain_causality(self) -> Dict[Hashable, CausalityReport]:
        """Check the hop-level trace restricted to each domain."""
        if self.hop_trace is None:
            raise ConfigurationError("hop trace recording is disabled")
        membership = self.config.topology.membership()
        return check_all_domains(self.hop_trace, membership)

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------

    def export_app_trace(self, stream) -> int:
        """Write the app trace as JSONL (see :mod:`repro.causality.export`).

        Agent identities are stringified (``"A0.3"``) so the artifact is
        plain JSON; returns the number of events written.
        """
        if self.app_trace is None:
            raise ConfigurationError("app trace recording is disabled")
        from repro.causality.export import dump_trace

        originals = self.app_trace
        mapped = {
            message.mid: Message(
                message.mid, repr(message.src), repr(message.dst),
                payload=message.payload,
            )
            for message in originals.messages
        }
        histories = {
            repr(process): [
                (event.kind, mapped[event.message.mid])
                for event in originals.events_of(process)
            ]
            for process in originals.processes
        }
        return dump_trace(Trace.from_histories(histories), stream)

    def protocol_snapshot(self) -> Dict[str, Any]:
        """The bus's observable protocol state as plain JSON types.

        Per server: crash flag and epoch, the channel's hop counter and
        in-flight sets (unacked QueueOUT entries, held-back hop ids per
        domain, charged-but-unfired commits), the engine's QueueIN nids,
        every domain clock matrix — and, when ``record_delivered_log`` is
        on, the committed-delivery prefix.

        This is the replay identity oracle's live side: at any sim-time
        ``T`` reached with ``run(until=T)``,
        ``json.dumps(bus.protocol_snapshot(), sort_keys=True)`` is
        byte-identical to :meth:`repro.obs.replay.Replayer.snapshot_json`
        over a dump of the same run. Sim-time itself is deliberately
        excluded (the dump's clock keeps running past ``T``).
        """
        servers: Dict[str, Any] = {}
        for server_id in sorted(self.servers):
            server = self.servers[server_id]
            channel = server.channel
            entry: Dict[str, Any] = {
                "crashed": server.is_crashed,
                "epoch": server.epoch,
                "hop_seq": channel.hop_seq,
                "unacked": channel.unacked_hop_seqs(),
                "holdback": channel.heldback_mids(),
                "pending": channel.pending_mids(),
                "queued": server.engine.queued_nids(),
                "clocks": {
                    domain_id: [
                        [item.clock.cell(row, col)
                         for col in range(item.clock.size)]
                        for row in range(item.clock.size)
                    ]
                    for domain_id, item in sorted(
                        channel.domain_items.items()
                    )
                },
            }
            delivered = server.engine.delivered_log
            if delivered is not None:
                entry["delivered"] = list(delivered)
            servers[str(server_id)] = entry
        return {"servers": servers}

    def snapshot_at(self, t: float) -> Dict[str, Any]:
        """Run to sim-time ``t`` (inclusive of events scheduled at ``t``)
        and return :meth:`protocol_snapshot` — the mid-run snapshot hook
        the replay identity oracle compares against."""
        if t < self.sim.now:
            raise ConfigurationError(
                f"cannot snapshot at t={t}: the simulation is already at "
                f"{self.sim.now}"
            )
        self.run(until=t)
        return self.protocol_snapshot()

    def stats_table(self) -> str:
        """A per-server operational summary (queues, clocks, disk, CPU)."""
        header = (
            f"{'server':>6}  {'state':>7}  {'domains':>7}  {'unacked':>7}  "
            f"{'heldback':>8}  {'queued':>6}  {'disk cells':>10}  "
            f"{'cpu ms':>8}"
        )
        lines = [header, "-" * len(header)]
        for server_id in sorted(self.servers):
            server = self.servers[server_id]
            state = "crashed" if server.is_crashed else "up"
            lines.append(
                f"{server_id:>6}  {state:>7}  "
                f"{len(server.domains):>7}  "
                f"{server.channel.unacked_count:>7}  "
                f"{server.channel.heldback_count:>8}  "
                f"{server.engine.queued:>6}  "
                f"{server.store.cells_written:>10}  "
                f"{server.processor.busy_total:>8.1f}"
            )
        lines.append(
            f"t={self.sim.now:.1f}ms  "
            f"packets={self.network.packets_sent}  "
            f"wire_cells={self.network.cells_transmitted}"
        )
        return "\n".join(lines)

    def cost_snapshot(self) -> Optional[Dict[str, Any]]:
        """One deterministic snapshot of the cost-accounting registry.

        Returns ``None`` when accounting is disabled. The snapshot embeds
        the run's identity (server count, domains, seed, clock mode) so
        two snapshots diff meaningfully; feed it to
        :func:`repro.metrics.write_json`, :func:`~repro.metrics.to_prometheus`
        or :func:`~repro.metrics.render_dashboard`.
        """
        if self.accounting is None:
            return None
        return self.accounting.snapshot(
            now=self.sim.now,
            meta={
                "servers": len(self.servers),
                "domains": sorted(self.config.topology.domain_ids),
                "seed": self.config.seed,
                "clock": self.config.clock_algorithm,
            },
        )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def total_persisted_cells(self) -> int:
        """Disk traffic in clock cells, summed over servers (§3's second
        scalability problem)."""
        return sum(s.store.cells_written for s in self.servers.values())

    def total_clock_state_cells(self) -> int:
        """The protocol's nominal matrix-clock state, in cells, summed over
        servers — Σ over (server, domain) of s_d², what real servers hold
        (not the simulator's resident bytes: a clock exists only after its
        domain's first touch, and shares one zero buffer until it first
        mutates). The flat MOM holds n·n² cells total; the decomposed MOM
        holds Σ s²·(members) ≈ linear in n. Read off the topology, so
        it creates no clock."""
        return sum(
            domain.size * domain.size
            for server in self.servers.values()
            for domain in server.domains
        )

    def __repr__(self) -> str:
        return (
            f"MessageBus(servers={len(self.servers)}, "
            f"domains={len(self.config.topology.domains)}, "
            f"t={self.sim.now:.1f}ms)"
        )
