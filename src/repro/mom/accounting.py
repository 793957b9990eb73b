"""Always-on causality-cost accounting for the MOM (the instrument catalog).

One :class:`BusAccounting` per bus builds every instrument the protocol
layers update, hands each component a *preallocated handle bundle*
(:class:`ServerAccounting`, :class:`DomainAccounting`) at boot, and
registers the snapshot-time collector that pulls state too cheap to push
(queue depths, resident clock cells, clock merge-mode counts, routing
BFS work).

Hot-path discipline (mirrors the tracer's ``_tracer is not None``):

- every per-event update is one attribute access on a bundle the
  component resolved at construction — no registry lookup, no dict, no
  allocation;
- with accounting disabled (``REPRO_METRICS=0`` or
  ``BusConfig(accounting=False)``) the bundles are ``None`` and the hot
  paths pay a single pointer compare per edge;
- accounting never schedules events, never draws randomness, never
  touches the experiment :class:`~repro.simulation.metrics.MetricsRegistry`
  — an accounted run is bit-identical to a disabled one (pinned by
  ``tests/test_metrics_accounting.py``).

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

from typing import TYPE_CHECKING, Dict

from repro.metrics.histogram import LogHistogram
from repro.metrics.instruments import Counter, EwmaRate, Gauge
from repro.metrics.registry import Registry

if TYPE_CHECKING:
    from repro.mom.bus import MessageBus

#: Bytes per matrix-clock cell on the wire (``array('q')`` cells).
CELL_BYTES = 8


class DomainAccounting:
    """Per-(server, domain) hot-path handles, stored on the DomainItem."""

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
    """Per-server hot-path handles, stored on the AgentServer."""

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
    """The bus-wide accounting surface: global handles + bundle factory."""

    __slots__ = ("registry", "notifications", "delivery_ms")

    def __init__(self, registry: Registry) -> None:
        self.registry = registry
        self.notifications: Counter = registry.counter(
            "bus_notifications_total",
            help="agent-level sends accepted by the bus",
        )
        self.delivery_ms: LogHistogram = registry.histogram(
            "bus_delivery_ms",
            help="end-to-end delivery of cross-server notifications (ms)",
        )

    def server(self, server_id: int) -> ServerAccounting:
        return ServerAccounting(self.registry, server_id)

    def domain(self, server_id: int, domain_id: str) -> DomainAccounting:
        return DomainAccounting(self.registry, server_id, domain_id)


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
