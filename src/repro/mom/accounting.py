"""Always-on causality-cost accounting: the bus's default observer.

One :class:`BusAccounting` per bus is the object every MOM component's
``_obs`` hook points at; its methods are the lifecycle edges, each
reported once. Boot builds only the bus-wide instruments and one hold-back
dwell histogram per domain; a server's handle bundles
(:class:`ServerAccounting`, :class:`DomainAccounting`) are resolved on the
first edge that names the server, so boot pays for traffic, not for n.
The bundles also carry the pulled gauges (queue depths, resident clock
cells, clock merge-mode counts), which the collector sets at snapshot
time without a registry lookup. A server no edge has touched has no
instruments at all: its rows — zeros, and ``clock_state_cells`` = s² per
member — are rendered from the topology by a registry row source, off
the same catalogs the bundles are built from. The tracer
(:class:`repro.obs.tracer.Tracer`) subclasses this observer and takes its
place while attached, so a traced bus still accounts.

Hot-path discipline:

- each edge is one ``_obs is not None`` check at its call site (plus
  ``_obs.tracing`` for a tracer-only edge); with accounting disabled
  (``REPRO_METRICS=0``, read by :func:`accounting_enabled`) and no
  tracer, ``_obs`` is ``None`` and that compare is the whole cost;
- an edge finds its handles by server and domain id — a dict lookup that
  resolves the server's bundles on a miss, no registry lookup, no
  allocation once resolved — and, being the one call per event, adds to
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
``clock_state_cells``                 {srv,dom}  nominal matrix cells, s² per member (pulled)
``clock_merges``                      {srv,dom,mode}  window vs full merges (pulled)
``channel_holdback_dwell_ms``         {dom}      histogram of hold-back dwell times (built at boot)
``channel_ack_retries_total``         {srv}      transaction-ACK timeouts -> stamped resends
``channel_forwards_total``            {srv}      router store-and-forward re-posts
``engine_reactions_total``            {srv}      atomic reactions committed
``engine_reaction_rate``              {srv}      sim-time EWMA of reaction throughput
``channel_unacked_depth``             {srv}      QueueOUT occupancy (pulled)
``engine_queue_depth``                {srv}      QueueIN occupancy (pulled)
``bus_notifications_total``           {}         agent-level sends accepted
``bus_delivery_ms``                   {}         cross-server end-to-end delivery histogram
``routing_bfs_trees_total``           {}         lazily materialized BFS trees
``routing_bfs_scans_total``           {}         BFS neighbour scans while building them
====================================  =========  ==================================================
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple,
)

from repro.metrics.histogram import LogHistogram
from repro.metrics.instruments import Counter, EwmaRate, Gauge
from repro.metrics.registry import Entry, Labels, Registry, Row

if TYPE_CHECKING:
    from repro.mom.bus import MessageBus
    from repro.mom.payloads import Envelope, Notification
    from repro.mom.server import AgentServer

#: Bytes per matrix-clock cell on the wire (``array('q')`` cells).
CELL_BYTES = 8


def accounting_enabled() -> bool:
    """The one accounting switch, read when a bus is built: on unless
    ``REPRO_METRICS=0`` is in the environment."""
    return os.environ.get("REPRO_METRICS") != "0"


#: A bundle's instruments: (field, name, kind, help, ``mode`` label or
#: ``None``). The one source of both a resolved bundle's instruments and
#: an idle server's rendered rows, so the two cannot disagree.
Catalog = Tuple[Tuple[str, str, str, str, Optional[str]], ...]

_MERGES_HELP = (
    "deliveries by merge strategy (window = only changed cells replayed)"
)

SERVER_CATALOG: Catalog = (
    ("ack_retries", "channel_ack_retries_total", "counter",
     "transaction-ACK timeouts that triggered a stamped resend", None),
    ("forwards", "channel_forwards_total", "counter",
     "router store-and-forward re-posts towards the next domain", None),
    ("reactions", "engine_reactions_total", "counter",
     "atomic agent reactions committed", None),
    ("reaction_rate", "engine_reaction_rate", "rate",
     "EWMA reaction throughput (events/s of sim-time)", None),
    ("unacked_depth", "channel_unacked_depth", "gauge",
     "envelopes stamped but not yet transaction-ACKed", None),
    ("queue_depth", "engine_queue_depth", "gauge",
     "notifications waiting in the engine's QueueIN", None),
)

DOMAIN_CATALOG: Catalog = (
    ("stamp_bytes", "channel_stamp_bytes_total", "counter",
     "causality-stamp bytes serialized onto the wire", None),
    ("merge_cells", "channel_merge_cells_total", "counter",
     "matrix-clock cells advanced by receive-side merges", None),
    ("commits", "channel_commits_total", "counter",
     "receiver transactions committed", None),
    ("holdback_enters", "channel_holdback_enters_total", "counter",
     "envelopes held back on arrival (causal dependency unmet)", None),
    ("holdback_depth", "channel_holdback_depth", "gauge",
     "envelopes currently held back", None),
    ("state_cells", "clock_state_cells", "gauge",
     "resident matrix-clock cells (s^2 per member)", None),
    ("window_merges", "clock_merges", "gauge", _MERGES_HELP, "window"),
    ("full_merges", "clock_merges", "gauge", _MERGES_HELP, "full"),
)

#: The rows of an idle server point at these; nothing ever writes them.
_ZERO = {"counter": Counter(), "gauge": Gauge(), "rate": EwmaRate()}

#: an idle row template: (name, ``mode`` label or ``None``, entry)
_IdleRow = Tuple[str, Optional[str], Entry]


def _idle_templates(catalog: Catalog, size: int = 0) -> List[_IdleRow]:
    """An idle server's rows off ``catalog``: zeros, and s² resident
    clock cells in a domain of ``size``."""
    cells = Gauge()
    cells.set(float(size * size))
    return [
        (name, mode, Entry(
            kind, help, cells if field == "state_cells" else _ZERO[kind]
        ))
        for field, name, kind, help, mode in catalog
    ]


_IDLE_SERVER_ROWS = _idle_templates(SERVER_CATALOG)


def _label_key(base: Labels, mode: Optional[str]) -> Labels:
    """``base`` with the ``mode`` label sorted in (domain < mode < server)."""
    if mode is None:
        return base
    return (*base[:-1], ("mode", mode), base[-1])


class DomainAccounting:
    """Per-(server, domain) handles, built off :data:`DOMAIN_CATALOG`,
    plus the domain's dwell histogram."""

    __slots__ = tuple(line[0] for line in DOMAIN_CATALOG) + ("dwell_ms",)

    stamp_bytes: Counter
    merge_cells: Counter
    commits: Counter
    holdback_enters: Counter
    holdback_depth: Gauge
    state_cells: Gauge
    window_merges: Gauge
    full_merges: Gauge

    def __init__(
        self,
        registry: Registry,
        server: str,
        domain_id: str,
        dwell_ms: LogHistogram,
    ) -> None:
        base = (("domain", domain_id), ("server", server))
        for field, name, kind, help, mode in DOMAIN_CATALOG:
            setattr(self, field, registry.instrument(
                kind, name, _label_key(base, mode), help
            ))
        self.dwell_ms = dwell_ms


class ServerAccounting:
    """Per-server handles, built off :data:`SERVER_CATALOG`."""

    __slots__ = tuple(line[0] for line in SERVER_CATALOG)

    ack_retries: Counter
    forwards: Counter
    reactions: Counter
    reaction_rate: EwmaRate
    unacked_depth: Gauge
    queue_depth: Gauge

    def __init__(self, registry: Registry, server: str) -> None:
        base = (("server", server),)
        for field, name, kind, help, mode in SERVER_CATALOG:
            setattr(self, field, registry.instrument(
                kind, name, _label_key(base, mode), help
            ))


class _OnFirstTouch(dict):
    """Per-server map whose miss resolves the server's bundles."""

    def __init__(self, resolve: Callable[[int], None]) -> None:
        super().__init__()
        self._resolve = resolve

    def __missing__(self, server: int):
        self._resolve(server)
        return self[server]


class BusAccounting:
    """The accounting observer of one bus: one method per lifecycle edge.

    Built after the bus's servers, over ``registry``. A server's handles
    are resolved on the first edge that names it; until then its rows are
    rendered from the topology. A tracer on an accounted bus shares the
    bundle maps, and the held-since map, with this object.
    """

    def __init__(self, bus: "MessageBus", registry: Registry) -> None:
        self.registry = registry
        self._sim = bus.sim
        self._bus_servers: Dict[int, "AgentServer"] = bus.servers
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
        # one dwell histogram per domain with a member on this bus
        self._dwell: Dict[str, LogHistogram] = {
            domain.domain_id: registry.histogram(
                "channel_holdback_dwell_ms",
                {"domain": domain.domain_id},
                help="sim-time ms an envelope spent held back before release",
            )
            for domain in bus.config.topology.domains
            if any(server in bus.servers for server in domain.servers)
        }
        self._servers: Dict[int, ServerAccounting] = _OnFirstTouch(
            self._resolve
        )
        self._domains: Dict[int, Dict[str, DomainAccounting]] = (
            _OnFirstTouch(self._resolve)
        )
        #: per receiving server: held-back (sender, hop_seq) -> arrival
        self._held_since: Dict[int, Dict[Tuple[int, int], float]] = (
            _OnFirstTouch(self._resolve)
        )
        registry.add_collector(self._collect)
        registry.add_row_source(self._idle_rows)

    def _resolve(self, server: int) -> None:
        """Build ``server``'s bundles: the first edge that names it."""
        label = str(server)
        self._servers[server] = ServerAccounting(self.registry, label)
        self._domains[server] = {
            d.domain_id: DomainAccounting(
                self.registry, label, d.domain_id, self._dwell[d.domain_id]
            )
            for d in self._bus_servers[server].domains
        }
        self._held_since[server] = {}

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

    # ------------------------------------------------------------------
    # Snapshot side
    # ------------------------------------------------------------------

    def _collect(self) -> None:
        """Set the pulled gauges of every resolved server. QueueIN and
        QueueOUT can fill through no edge (boot reactions, local sends),
        so a server whose queues are non-empty is resolved first; every
        other state of an untouched server is its topology's template."""
        resolved = self._servers
        for server_id in self._bus_servers:
            if server_id in resolved:
                continue
            server = self._bus_servers[server_id]
            if server.engine.queued or server.channel.unacked_count:
                self._resolve(server_id)
        for server_id, bundle in resolved.items():
            server = self._bus_servers[server_id]
            channel = server.channel
            bundle.unacked_depth.set(float(channel.unacked_count))
            bundle.queue_depth.set(float(server.engine.queued))
            bundles = self._domains[server_id]
            for domain in server.domains:
                domain_id = domain.domain_id
                handles = bundles[domain_id]
                handles.state_cells.set(float(domain.size * domain.size))
                # an untouched domain has no clock yet: no merges
                item = channel.touched_item(domain_id)
                clock = item.clock if item is not None else None
                handles.window_merges.set(
                    float(getattr(clock, "stat_window_merges", 0))
                )
                handles.full_merges.set(
                    float(getattr(clock, "stat_full_merges", 0))
                )
                # resync the live value after crashes wiped stores; the
                # push side keeps the peak honest between snapshots
                handles.holdback_depth.set(
                    float(channel.holdback_depth(domain_id))
                )

    def _idle_rows(self) -> Iterator[Row]:
        """The rows of every server no edge has touched, from the
        topology: zero counters, gauges and rates, and s² resident cells."""
        resolved = self._servers
        by_size: Dict[int, List[_IdleRow]] = {}
        for server_id in self._bus_servers:
            if server_id in resolved:
                continue
            server = self._bus_servers[server_id]
            label = str(server_id)
            base: Labels = (("server", label),)
            for name, _, entry in _IDLE_SERVER_ROWS:
                yield (name, base), entry
            for domain in server.domains:
                rows = by_size.get(domain.size)
                if rows is None:
                    rows = by_size[domain.size] = _idle_templates(
                        DOMAIN_CATALOG, domain.size
                    )
                base = (("domain", domain.domain_id), ("server", label))
                for name, mode, entry in rows:
                    yield (name, _label_key(base, mode)), entry
