"""Always-on causality-cost accounting: the bus's default observer.

One :class:`BusAccounting` per bus is the object every MOM component's
``_obs`` hook points at; its methods are the lifecycle edges, each
reported once. It resolves every handle bundle (:class:`ServerAccounting`,
:class:`DomainAccounting`) at boot; :func:`install_collector` registers
the pull side read at snapshot time (queue depths, resident clock cells,
clock merge-mode counts, routing BFS work). The tracer
(:class:`repro.obs.tracer.Tracer`) subclasses it and takes its place
while attached, so a traced bus still accounts.

Hot-path discipline:

- each edge is one ``_obs is not None`` check at its call site (plus
  ``_obs.tracing`` for a tracer-only edge); with accounting disabled
  (``REPRO_METRICS=0`` or ``BusConfig(accounting=False)``) and no
  tracer, ``_obs`` is ``None`` and that compare is the whole cost;
- an edge finds its handles by server and domain id — no registry
  lookup, no allocation — and, being the one call per event, adds to
  a counter's ``value`` in place;
- accounting never schedules events, never draws randomness, never
  touches the experiment :class:`~repro.simulation.metrics.MetricsRegistry`
  — an accounted run is bit-identical to a disabled one (pinned by
  ``tests/test_metrics_accounting.py``).

Edges: ``bus_post``, ``channel_stamp``, ``channel_ack_retry``,
``channel_holdback_enter``/``_release`` (returns the dwell),
``channel_commit``, ``channel_route_forward``, ``engine_reaction_commit``
(returns the end-to-end delivery) and ``server_crash``; the tracer-only
edges are no-ops here.

Instrument catalog (labels in braces; see ``docs/observability.md``):

====================================  =========  ==================================================
``channel_stamp_bytes_total``         {srv,dom}  causality-stamp bytes serialized (8 B per cell)
``channel_merge_cells_total``         {srv,dom}  matrix cells advanced by receive-side merges
``channel_commits_total``             {srv,dom}  receiver transactions committed
``channel_holdback_enters_total``     {srv,dom}  envelopes that arrived too early
``channel_holdback_depth``            {srv,dom}  live hold-back occupancy (gauge + peak)
``channel_holdback_dwell_ms``         {dom}      histogram of hold-back dwell times
``channel_ack_retries_total``         {srv}      transaction-ACK timeouts -> stamped resends
``channel_forwards_total``            {srv}      router store-and-forward re-posts
``channel_unacked_depth``             {srv}      QueueOUT occupancy (pulled)
``clock_state_cells``                 {srv,dom}  nominal matrix cells, s² per member (pulled)
``clock_merges``                      {srv,dom,mode}  window vs full merges (pulled)
``engine_reactions_total``            {srv}      atomic reactions committed
``engine_queue_depth``                {srv}      QueueIN occupancy (pulled)
``engine_reaction_rate``              {srv}      sim-time EWMA of reaction throughput
``bus_notifications_total``           {}         agent-level sends accepted
``bus_delivery_ms``                   {}         cross-server end-to-end delivery histogram
``routing_bfs_trees_total``           {}         lazily materialized BFS trees
``routing_bfs_scans_total``           {}         BFS neighbour scans while building them
====================================  =========  ==================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.metrics.histogram import LogHistogram
from repro.metrics.instruments import Counter, EwmaRate, Gauge
from repro.metrics.registry import Registry

if TYPE_CHECKING:
    from repro.mom.bus import MessageBus
    from repro.mom.payloads import Envelope, Notification

#: Bytes per matrix-clock cell on the wire (``array('q')`` cells).
CELL_BYTES = 8


class DomainAccounting:
    """Per-(server, domain) hot-path handles."""

    __slots__ = (
        "stamp_bytes",
        "merge_cells",
        "commits",
        "holdback_enters",
        "holdback_depth",
        "dwell_ms",
    )

    def __init__(
        self, registry: Registry, server_id: int, domain_id: str
    ) -> None:
        labels = {"server": str(server_id), "domain": domain_id}
        self.stamp_bytes: Counter = registry.counter(
            "channel_stamp_bytes_total",
            labels,
            help="causality-stamp bytes serialized onto the wire",
        )
        self.merge_cells: Counter = registry.counter(
            "channel_merge_cells_total",
            labels,
            help="matrix-clock cells advanced by receive-side merges",
        )
        self.commits: Counter = registry.counter(
            "channel_commits_total",
            labels,
            help="receiver transactions committed",
        )
        self.holdback_enters: Counter = registry.counter(
            "channel_holdback_enters_total",
            labels,
            help="envelopes held back on arrival (causal dependency unmet)",
        )
        self.holdback_depth: Gauge = registry.gauge(
            "channel_holdback_depth",
            labels,
            help="envelopes currently held back",
        )
        self.dwell_ms: LogHistogram = registry.histogram(
            "channel_holdback_dwell_ms",
            {"domain": domain_id},
            help="sim-time ms an envelope spent held back before release",
        )


class ServerAccounting:
    """Per-server hot-path handles."""

    __slots__ = (
        "ack_retries",
        "forwards",
        "reactions",
        "reaction_rate",
    )

    def __init__(self, registry: Registry, server_id: int) -> None:
        labels = {"server": str(server_id)}
        self.ack_retries: Counter = registry.counter(
            "channel_ack_retries_total",
            labels,
            help="transaction-ACK timeouts that triggered a stamped resend",
        )
        self.forwards: Counter = registry.counter(
            "channel_forwards_total",
            labels,
            help="router store-and-forward re-posts towards the next domain",
        )
        self.reactions: Counter = registry.counter(
            "engine_reactions_total",
            labels,
            help="atomic agent reactions committed",
        )
        self.reaction_rate: EwmaRate = registry.rate(
            "engine_reaction_rate",
            labels,
            help="EWMA reaction throughput (events/s of sim-time)",
            tau_ms=1000.0,
        )


class BusAccounting:
    """The accounting observer of one bus: one method per lifecycle edge.

    Built after the bus's servers, over ``registry``; the handles of
    every server the bus holds are resolved here, once. A tracer on an
    accounted bus shares them, and the held-since map, with this object.
    """

    def __init__(self, bus: "MessageBus", registry: Registry) -> None:
        self.registry = registry
        self._sim = bus.sim
        #: whether the tracer-only edges are called (a tracer sets it)
        self.tracing = False
        self.notifications: Counter = registry.counter(
            "bus_notifications_total",
            help="agent-level sends accepted by the bus",
        )
        self.delivery_ms: LogHistogram = registry.histogram(
            "bus_delivery_ms",
            help="end-to-end delivery of cross-server notifications (ms)",
        )
        self._servers: Dict[int, ServerAccounting] = {}
        self._domains: Dict[int, Dict[str, DomainAccounting]] = {}
        #: per receiving server: held-back (sender, hop_seq) -> arrival
        self._held_since: Dict[int, Dict[Tuple[int, int], float]] = {}
        for sid, server in bus.servers.items():
            self._servers[sid] = ServerAccounting(registry, sid)
            self._domains[sid] = {
                d.domain_id: DomainAccounting(registry, sid, d.domain_id)
                for d in server.domains
            }
            self._held_since[sid] = {}

    # ------------------------------------------------------------------
    # Lifecycle edges
    # ------------------------------------------------------------------

    def bus_post(self, notification: "Notification") -> None:
        self.notifications.value += 1

    def channel_stamp(self, server: int, envelope: "Envelope") -> None:
        bundle = self._domains[server][envelope.domain_id]
        bundle.stamp_bytes.value += envelope.stamp.wire_cells * CELL_BYTES

    def channel_ack_retry(self, server: int, envelope: "Envelope") -> None:
        self._servers[server].ack_retries.value += 1

    def channel_holdback_enter(
        self, server: int, envelope: "Envelope"
    ) -> None:
        bundle = self._domains[server][envelope.domain_id]
        bundle.holdback_enters.value += 1
        bundle.holdback_depth.inc()
        key = (envelope.src_server, envelope.hop_seq)
        self._held_since[server][key] = self._sim.now

    def channel_holdback_release(
        self, server: int, envelope: "Envelope"
    ) -> Optional[float]:
        """Returns the dwell, or ``None`` if the enter was not observed."""
        bundle = self._domains[server][envelope.domain_id]
        bundle.holdback_depth.value -= 1.0
        key = (envelope.src_server, envelope.hop_seq)
        since = self._held_since[server].pop(key, None)
        if since is None:
            return None
        dwell = self._sim.now - since
        bundle.dwell_ms.record(dwell)
        return dwell

    def channel_commit(
        self, server: int, envelope: "Envelope", merged_cells: int
    ) -> None:
        bundle = self._domains[server][envelope.domain_id]
        bundle.merge_cells.value += merged_cells
        bundle.commits.value += 1

    def channel_route_forward(
        self, server: int, envelope: "Envelope"
    ) -> None:
        self._servers[server].forwards.value += 1

    def engine_reaction_commit(
        self, server: int, notification: Optional["Notification"]
    ) -> Optional[float]:
        """Returns the end-to-end delivery time; ``None`` for a boot
        reaction or a self-send (a timer or local tick, not a delivery)."""
        bundle = self._servers[server]
        now = self._sim.now
        bundle.reactions.value += 1
        bundle.reaction_rate.mark(now)
        if notification is None:
            return None
        e2e = now - notification.sent_at
        sender, target = notification.sender, notification.target
        if sender.server != target.server:  # what bus_delivery_ms counts
            self.delivery_ms.record(e2e)
        elif sender.local == target.local:
            return None
        return e2e

    def server_crash(self, server: int) -> None:
        # the crash wiped the hold-back stores (the gauges' peaks keep the
        # pre-crash high-water mark)
        self._held_since[server].clear()
        for bundle in self._domains[server].values():
            bundle.holdback_depth.set(0.0)

    # tracer-only edges: nothing to account; their call sites skip them
    # unless ``tracing``, and a tracer overrides them
    def channel_transmit(
        self, server: int, envelope: "Envelope", attempt: int
    ) -> None: ...
    def channel_ack(self, server: int, hop_seq: int) -> None: ...
    def channel_arrive(self, server: int, envelope: "Envelope") -> None: ...
    def engine_enqueue(self, server: int, notification: "Notification") -> None: ...
    def engine_reaction_start(
        self, server: int, notification: Optional["Notification"]
    ) -> None: ...
    def server_recover(self, server: int) -> None: ...


def install_collector(registry: Registry, bus: "MessageBus") -> None:
    """Register the pull side: depths and resident state, read at
    snapshot time in sorted server order (deterministic)."""

    def collect() -> None:
        for server_id in sorted(bus.servers):
            server = bus.servers[server_id]
            labels = {"server": str(server_id)}
            registry.gauge(
                "channel_unacked_depth",
                labels,
                help="envelopes stamped but not yet transaction-ACKed",
            ).set(float(server.channel.unacked_count))
            registry.gauge(
                "engine_queue_depth",
                labels,
                help="notifications waiting in the engine's QueueIN",
            ).set(float(server.engine.queued))
            for domain_id, item in sorted(
                server.channel.domain_items.items()
            ):
                dlabels = {"server": str(server_id), "domain": domain_id}
                clock = item.clock
                registry.gauge(
                    "clock_state_cells",
                    dlabels,
                    help="resident matrix-clock cells (s^2 per member)",
                ).set(float(clock.size * clock.size))
                for mode in ("window", "full"):
                    registry.gauge(
                        "clock_merges",
                        {**dlabels, "mode": mode},
                        help="deliveries by merge strategy (window = only "
                        "changed cells replayed)",
                    ).set(float(getattr(clock, f"stat_{mode}_merges", 0)))
                # resync the live value after crashes wiped stores; the
                # push side keeps the peak honest between snapshots
                store_depth = server.channel.holdback_depth(domain_id)
                registry.gauge(
                    "channel_holdback_depth", dlabels
                ).set(float(store_depth))

    registry.add_collector(collect)
