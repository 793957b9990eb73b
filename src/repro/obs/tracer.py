"""The tracer: one object recording the whole bus's message lifecycle.

A :class:`Tracer` is attached to a live :class:`~repro.mom.bus.MessageBus`
with :func:`attach` (or globally to every future bus with :func:`install`,
which is what the test suite's conftest does under ``REPRO_TRACE=1``).

:class:`Tracer` subclasses the accounting observer
:class:`~repro.mom.accounting.BusAccounting`; :func:`attach` points every
component's one ``_obs`` hook at it (processors and transports too, for
``cpu`` and ``transport_retransmit``) and :func:`detach` points them back.
Each accounted hook calls the base, which returns what it computed
(hold-back dwell, end-to-end delivery), and records its ring event from
that value; ``tracing`` turns on the tracer-only edges an untraced bus
skips. It counts into the bus's registry (accounting off: a private one).

Everything the tracer does is passive: it reads sim-time, appends to its
own ring buffer and its own histograms. It never schedules an event, never
draws from an RNG stream, never touches the bus's
:class:`~repro.simulation.metrics.MetricsRegistry` — a traced run is
bit-identical to an untraced one (pinned by the determinism tests).
"""

from __future__ import annotations

import os
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.metrics.histogram import LogHistogram
from repro.metrics.registry import Registry
from repro.mom.accounting import BusAccounting
from repro.obs import flight_recorder
from repro.obs.events import DEFAULT_CAPACITY, EventRing, TraceEvent

if TYPE_CHECKING:
    from repro.mom.bus import MessageBus
    from repro.mom.payloads import Envelope, Notification

#: Histogram names (the protocol's cost decomposition).
HIST_HOLDBACK = "holdback_dwell_ms"  # too-early arrival -> release
HIST_E2E = "e2e_delivery_ms"  # agent send -> reaction commit
HIST_ACK_RTT = "ack_rtt_ms"  # wire transmit -> transaction ACK
HIST_QUEUE_WAIT = "queue_wait_ms"  # QueueIN append -> reaction ran
HIST_MERGE = "clock_merge_cells"  # cells merged per commit (+ .<domain>)

_CORE_HISTOGRAMS = (
    HIST_HOLDBACK,
    HIST_E2E,
    HIST_ACK_RTT,
    HIST_QUEUE_WAIT,
    HIST_MERGE,
)


class Tracer(BusAccounting):
    """The bus's accounting plus a bounded ring of every lifecycle edge.

    Construct via :func:`attach`; the constructor only wires state, it does
    not install any hook.
    """

    def __init__(self, bus: "MessageBus", capacity: int = DEFAULT_CAPACITY) -> None:
        observer = bus.cost_observer
        if observer is None:  # accounting off: count into a private registry
            super().__init__(bus, Registry())
        else:  # share its first-touch bundle maps: one bundle per server
            self.registry, self._sim = observer.registry, observer._sim
            self.notifications = observer.notifications
            self.delivery_ms = observer.delivery_ms
            self._servers, self._domains = observer._servers, observer._domains
            self._held_since = observer._held_since  # the one held-since map
        self.tracing = True
        self.bus = bus
        self.ring = EventRing(capacity)
        #: CPU occupancy slices ``(server, start_ms, duration_ms)`` — kept
        #: out of the ring so busy servers don't evict protocol events.
        self.cpu_slices: Deque[Tuple[int, float, float]] = deque(
            maxlen=capacity
        )
        self.histograms: Dict[str, LogHistogram] = {}
        self.server_ids: List[int] = sorted(bus.servers)
        self.domains: Dict[str, List[int]] = {
            d.domain_id: list(d.servers) for d in bus.config.topology.domains
        }
        self.autodumps = 0
        # transient per-message bookkeeping (all keys are removed at the
        # closing edge, so memory tracks in-flight work, not run length)
        self._wire_sent_at: Dict[Tuple[int, int], float] = {}
        self._hop_nid: Dict[Tuple[int, int], int] = {}
        self._enqueued_at: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first."""
        return self.ring.events()

    def events_of(self, nid: int) -> List[TraceEvent]:
        """All retained events of one trace id, in recording order."""
        return [e for e in self.ring.events() if e.nid == nid]

    def hist(self, name: str) -> LogHistogram:
        """The named histogram, created on first use."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = LogHistogram(name)
            self.histograms[name] = hist
        return hist

    def histogram_snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{name: {count, mean, min, max, p50, p90, p95, p99}}``."""
        return {
            name: self.histograms[name].snapshot()
            for name in sorted(self.histograms)
        }

    def dump(self, reason: str = "manual") -> str:
        """Write a flight-recorder artifact directory now; returns its path."""
        return flight_recorder.dump(self, reason)

    # ------------------------------------------------------------------
    # Hook methods (hot paths); an accounted edge first runs the base's,
    # named directly (``super()`` would build a proxy object per call)
    # ------------------------------------------------------------------

    def _hop(
        self, kind: str, server: int, envelope: "Envelope", value: float = 0.0
    ) -> None:
        """Record a channel edge of ``envelope``'s hop, now."""
        self.ring.record(
            self._sim.now, kind, server, envelope.notification.nid,
            envelope.domain_id, envelope.src_server, envelope.dst_server,
            envelope.hop_seq, value,
        )

    def bus_post(self, notification: "Notification") -> None:
        BusAccounting.bus_post(self, notification)
        self.ring.record(
            self._sim.now,
            "post",
            notification.sender.server,
            notification.nid,
            src=notification.sender.server,
            dst=notification.dest_server,
        )

    def channel_stamp(self, server: int, envelope: "Envelope") -> None:
        BusAccounting.channel_stamp(self, server, envelope)
        self._hop_nid[(server, envelope.hop_seq)] = envelope.notification.nid
        self._hop("stamp", server, envelope, float(envelope.stamp.wire_cells))

    def channel_transmit(
        self, server: int, envelope: "Envelope", attempt: int
    ) -> None:
        self._wire_sent_at[(server, envelope.hop_seq)] = self._sim.now
        kind = "transmit" if attempt == 1 else "retransmit"
        self._hop(kind, server, envelope, float(attempt))

    def channel_ack(self, server: int, hop_seq: int) -> None:
        now = self._sim.now
        key = (server, hop_seq)
        sent = self._wire_sent_at.pop(key, None)
        nid = self._hop_nid.pop(key, -1)
        rtt = now - sent if sent is not None else 0.0
        if sent is not None:
            self.hist(HIST_ACK_RTT).record(rtt)
        self.ring.record(
            now, "ack", server, nid, hop_seq=hop_seq, value=rtt
        )

    def channel_arrive(self, server: int, envelope: "Envelope") -> None:
        self._hop("arrive", server, envelope)

    def channel_holdback_enter(
        self, server: int, envelope: "Envelope"
    ) -> None:
        BusAccounting.channel_holdback_enter(self, server, envelope)
        self._hop("holdback_enter", server, envelope)

    def channel_holdback_release(
        self, server: int, envelope: "Envelope"
    ) -> None:
        dwell = BusAccounting.channel_holdback_release(self, server, envelope)
        if dwell is not None:
            self.hist(HIST_HOLDBACK).record(dwell)
        self._hop("holdback_release", server, envelope, dwell or 0.0)

    def channel_commit(
        self, server: int, envelope: "Envelope", merged_cells: int
    ) -> None:
        BusAccounting.channel_commit(self, server, envelope, merged_cells)
        self.hist(HIST_MERGE).record(float(merged_cells))
        self.hist(f"{HIST_MERGE}.{envelope.domain_id}").record(
            float(merged_cells)
        )
        self._hop("commit", server, envelope, float(merged_cells))

    def channel_route_forward(
        self, server: int, envelope: "Envelope"
    ) -> None:
        BusAccounting.channel_route_forward(self, server, envelope)
        self._hop("route_forward", server, envelope)

    def engine_enqueue(self, server: int, notification: "Notification") -> None:
        now = self._sim.now
        self._enqueued_at[(server, notification.nid)] = now
        self.ring.record(
            now,
            "enqueue_in",
            server,
            notification.nid,
            src=notification.sender.server,
            dst=notification.dest_server,
        )

    def engine_reaction_start(
        self, server: int, notification: Optional["Notification"]
    ) -> None:
        now = self._sim.now
        if notification is None:  # boot pseudo-reaction
            self.ring.record(now, "reaction_start", server, -1)
            return
        queued = self._enqueued_at.pop((server, notification.nid), None)
        wait = now - queued if queued is not None else 0.0
        if queued is not None:
            self.hist(HIST_QUEUE_WAIT).record(wait)
        self.ring.record(
            now, "reaction_start", server, notification.nid, value=wait
        )

    def engine_reaction_commit(
        self, server: int, notification: Optional["Notification"]
    ) -> None:
        e2e = BusAccounting.engine_reaction_commit(self, server, notification)
        if notification is None:
            self.ring.record(self._sim.now, "reaction_commit", server, -1)
            return
        if e2e is not None:
            self.hist(HIST_E2E).record(e2e)
        self.ring.record(
            self._sim.now, "reaction_commit", server, notification.nid,
            value=e2e or 0.0,
        )

    def server_crash(self, server: int) -> None:
        BusAccounting.server_crash(self, server)
        self.ring.record(self._sim.now, "crash", server, -1)

    def server_recover(self, server: int) -> None:
        self.ring.record(self._sim.now, "recover", server, -1)

    def transport_retransmit(
        self, endpoint: int, dst: int, seq: int, attempt: int, payload: Any
    ) -> None:
        # the transport is below the mom layer and ships opaque payloads;
        # recover the trace id by duck-typing the channel envelope
        notification = getattr(payload, "notification", None)
        nid = getattr(notification, "nid", -1)
        self.ring.record(
            self._sim.now,
            "retransmit",
            endpoint,
            nid,
            src=endpoint,
            dst=dst,
            hop_seq=seq,
            value=float(attempt),
        )

    def cpu(self, server: int, start: float, duration: float) -> None:
        self.cpu_slices.append((server, start, duration))

    def __repr__(self) -> str:
        return (
            f"Tracer(servers={len(self.server_ids)}, "
            f"events={self.ring.next_seq}, "
            f"histograms={sorted(self.histograms)})"
        )


# ----------------------------------------------------------------------
# Attachment
# ----------------------------------------------------------------------


def attach(bus: "MessageBus", capacity: int = DEFAULT_CAPACITY) -> Tracer:
    """Instrument a live bus in place; idempotent per bus.

    Makes the tracer the bus's observer (every ``_obs`` hook points at
    it), registers the tracer with the flight recorder, and wraps
    ``run``/``run_until_idle`` so an *unexpected* exception (anything
    outside the protocol's :class:`~repro.errors.ReproError` vocabulary)
    leaves a flight-recorder dump before propagating.
    """
    existing = getattr(bus, "_obs_tracer", None)
    if existing is not None:
        return existing
    tracer = Tracer(bus, capacity)
    bus._obs_tracer = tracer  # type: ignore[attr-defined]
    bus.set_observer(tracer)
    flight_recorder.register(tracer)
    _wrap_run_methods(bus, tracer)
    return tracer


def detach(bus: "MessageBus") -> None:
    """Stop recording on a bus previously passed to :func:`attach`.

    The hooks go back to the bus's accounting observer (``None`` where
    accounting is off, and on processors and transports); the tracer
    object and its recorded events stay alive for whoever still holds a
    reference.
    """
    if getattr(bus, "_obs_tracer", None) is None:
        return
    bus._obs_tracer = None  # type: ignore[attr-defined]
    bus.set_observer(bus.cost_observer)


def _wrap_run_methods(bus: "MessageBus", tracer: Tracer) -> None:
    from repro.errors import ReproError

    original_run = bus.run
    original_run_until_idle = bus.run_until_idle

    def _autodump() -> None:
        flight_recorder.autodump(tracer, "unhandled-exception")

    def run(until: Optional[float] = None) -> int:
        try:
            return original_run(until=until)
        except ReproError:
            # protocol-vocabulary errors (incl. SanitizerViolation, which
            # records its own flight dump) are expected test outcomes
            raise
        except Exception:
            _autodump()
            raise

    def run_until_idle(max_events: int = 10_000_000) -> int:
        try:
            return original_run_until_idle(max_events=max_events)
        except ReproError:
            raise
        except Exception:
            _autodump()
            raise

    bus.run = run  # type: ignore[method-assign]
    bus.run_until_idle = run_until_idle  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Global installation (REPRO_TRACE=1)
# ----------------------------------------------------------------------

_original_bus_init: Optional[Any] = None


def is_installed() -> bool:
    return _original_bus_init is not None


def install(capacity: Optional[int] = None) -> None:
    """Attach a tracer to every :class:`MessageBus` constructed from now on.

    Idempotent. The tests' conftest calls this when ``REPRO_TRACE=1``;
    ``REPRO_TRACE_CAPACITY`` overrides the ring capacity.
    """
    global _original_bus_init
    if _original_bus_init is not None:
        return
    from repro.mom.bus import MessageBus

    if capacity is None:
        capacity = int(
            os.environ.get("REPRO_TRACE_CAPACITY", str(DEFAULT_CAPACITY))
        )
    original = MessageBus.__init__
    cap = capacity

    def traced_init(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        attach(self, capacity=cap)

    MessageBus.__init__ = traced_init  # type: ignore[method-assign]
    _original_bus_init = original


def uninstall() -> None:
    """Undo :func:`install` (buses already built stay instrumented)."""
    global _original_bus_init
    if _original_bus_init is None:
        return
    from repro.mom.bus import MessageBus

    MessageBus.__init__ = _original_bus_init  # type: ignore[method-assign]
    _original_bus_init = None
