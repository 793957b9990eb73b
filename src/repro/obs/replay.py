"""Time-travel replay: reconstruct protocol state at any sim-time ``T``.

A trace dump (:class:`~repro.obs.export.TraceDump`) records every
lifecycle edge of every message. Because the channel emits an event at
every state transition — stamp, arrival, hold-back enter/release, commit,
ACK, crash, recover — the dump is a complete transaction log of the
protocol's observable state, and this module replays it: per-server clock
matrices, hold-back queues, channel in-flight sets (unacked QueueOUT
entries and pending commits) and delivered prefixes, at any instant ``T``.

The reconstruction is exact, not approximate. A :class:`Replayer` runs
the dump's own causal core — ``get_core(dump.meta["clock"])`` — with one
real clock per ``(server, domain)``, so every protocol decision is the
core's, not a copy of it:

- a ``stamp`` event calls ``core.stamp`` on the sender's clock and keeps
  the stamp under ``(src, hop_seq)`` — hop sequence numbers are persisted
  and never reused, and retransmissions carry the *original* stamp, so
  the key is stable across the hop's whole lifetime;
- a ``commit`` event calls ``core.merge`` with that stamp on the
  receiver's clock;
- an ``arrive`` event asks ``core.deliverable`` whether the live channel
  started a commit (pending set) or parked the envelope (the subsequent
  ``holdback_enter`` event does the insert).

Each clock sees the same operations, in the same order, as its live
twin — a ``recover`` event reloads every clock the live channel has
persisted, as the channel does — so the matrices read back through
``clock.cell`` are the live ones for every registered core.

Crash/recovery replay relies on the channel's own persistence invariants:
clocks and the unacked table are persisted at every mutation and no ACK
can arrive while a server is down (the transport is stopped), so the
persisted unacked set always equals the last pre-crash volatile one;
hold-back stores and pending commits are volatile and are *not* restored.
The replayed snapshot therefore shows, per server: empty in-flight sets
while crashed, the persisted ones after recovery, and hold-back state
wiped by the crash — byte-identical to
:meth:`repro.mom.bus.MessageBus.protocol_snapshot` on the live bus.

On top of the state machine sit a cursor (``step_forward`` /
``step_back``, backed by periodic checkpoints) and watchpoints —
predicates evaluated after every applied event (``run_until``), with
:func:`watch_holdback_exceeds` and :func:`watch_deliverable` as the
ready-made ones.

Replay refuses dumps with ring wraparound (``meta.dropped > 0``): a
transaction log with a missing prefix cannot be replayed exactly.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.clocks.base import CausalClock, Stamp
from repro.errors import ConfigurationError
from repro.obs.events import KINDS, TraceEvent
from repro.obs.export import TraceDump
from repro.protocol import get_core, has_core

#: Step-back granularity: a deep state checkpoint every this many applied
#: events bounds a backward step to one restore + at most this many
#: re-applied events.
CHECKPOINT_EVERY = 512

#: Presence of a downstream kind implies its upstream kinds were hooked.
#: Used by :func:`check_dump_complete` (and the CLI) to reject dumps
#: recorded with partial hooks; evaluated over ``nid >= 0`` events only,
#: so boot-only and local-only dumps raise nothing.
KIND_DEPENDENCIES: Dict[str, Tuple[str, ...]] = {
    "stamp": ("post",),
    "arrive": ("stamp", "transmit"),
    "holdback_enter": ("arrive",),
    "holdback_release": ("holdback_enter",),
    "commit": ("arrive", "stamp"),
    "reaction_start": ("enqueue_in",),
    "reaction_commit": ("reaction_start",),
}

Watchpoint = Callable[["Replayer", TraceEvent], bool]


def check_dump_complete(dump: TraceDump) -> None:
    """Raise ``ConfigurationError`` when the dump misses an event kind its
    retained events imply should exist (a partial-hook recording).

    Skipped on wrapped rings (``dropped > 0``): there the missing prefix
    is expected, and the per-command degradations handle it.
    """
    if dump.meta.get("dropped", 0) > 0:
        return
    present: Set[str] = set()
    message_present: Set[str] = set()
    for event in dump.events:
        if event.kind not in KINDS:
            raise ConfigurationError(
                f"dump contains unknown event kind {event.kind!r}"
            )
        present.add(event.kind)
        if event.nid >= 0:
            message_present.add(event.kind)
    for kind, needed in KIND_DEPENDENCIES.items():
        if kind not in message_present:
            continue
        for upstream in needed:
            if upstream not in present:
                raise ConfigurationError(
                    f"dump is missing event kind {upstream!r} — re-record "
                    "with REPRO_TRACE=1 full hooks"
                )


class _ServerState:
    """Replayed protocol state of one server."""

    __slots__ = (
        "crashed",
        "epoch",
        "hop_seq",
        "unacked",
        "holdback",
        "pending",
        "queue",
        "delivered",
        "clocks",
        "persisted",
        "shared",
    )

    def __init__(self, domains: List[str]) -> None:
        self.crashed = False
        self.epoch = 0
        self.hop_seq = 0
        #: persisted QueueOUT hop_seqs (add on stamp, remove on ack); the
        #: live volatile set equals this whenever the server is up
        self.unacked: Set[int] = set()
        #: per-domain held-back hop mids, as (src, hop_seq)
        self.holdback: Dict[str, Set[Tuple[int, int]]] = {
            d: set() for d in domains
        }
        #: hop mids with a receive commit charged but not yet fired
        self.pending: Set[Tuple[int, int]] = set()
        #: persisted QueueIN notification ids, FIFO (boot markers carry no
        #: trace events and are excluded on both sides)
        self.queue: List[int] = []
        #: committed deliveries, in commit order
        self.delivered: List[int] = []
        #: the replayed clock per domain
        self.clocks: Dict[str, CausalClock] = {}
        #: domains whose clock the live channel has persisted (at a stamp
        #: or a commit): recovery reloads exactly these
        self.persisted: Set[str] = set()
        #: domains whose clock another state (a checkpoint) also holds
        self.shared: Set[str] = set()

    def copy(self) -> "_ServerState":
        """A checkpoint copy. Clocks are copy-on-write: both states hold
        the same clock objects until :meth:`clock` hands one out for a
        write."""
        dup = _ServerState([])
        dup.crashed = self.crashed
        dup.epoch = self.epoch
        dup.hop_seq = self.hop_seq
        dup.unacked = set(self.unacked)
        dup.holdback = {d: set(s) for d, s in self.holdback.items()}
        dup.pending = set(self.pending)
        dup.queue = list(self.queue)
        dup.delivered = list(self.delivered)
        dup.clocks = dict(self.clocks)
        dup.persisted = set(self.persisted)
        self.shared = dup.shared = set(self.clocks)
        return dup

    def clock(self, domain: str) -> CausalClock:
        """The clock of ``domain``, private to this state, to write to."""
        if domain in self.shared:
            self.shared.discard(domain)
            self.clocks[domain] = copy.deepcopy(self.clocks[domain])
        return self.clocks[domain]


class Replayer:
    """Deterministic state reconstruction over one trace dump.

    The cursor starts at 0 (no events applied). ``seek(T)`` positions it
    after the last event with ``t <= T`` — the same state a live bus shows
    after ``run(until=T)``, since the inclusive run loop drains every
    event scheduled at ``T`` before returning.
    """

    def __init__(self, dump: TraceDump) -> None:
        dropped = dump.meta.get("dropped", 0)
        if dropped > 0:
            raise ConfigurationError(
                f"cannot replay a wrapped ring: {dropped} events were "
                "dropped — re-record with a larger REPRO_TRACE_CAPACITY"
            )
        check_dump_complete(dump)
        clock = dump.meta.get("clock")
        if not has_core(clock):
            raise ConfigurationError(
                f"dump meta 'clock' is {clock!r}, not a registered causal "
                "core; re-record the dump"
            )
        self._core = get_core(clock)
        self._dump = dump
        self._events: List[TraceEvent] = list(dump.events)
        domains: Dict[str, List[int]] = dump.meta.get("domains", {})
        server_ids: List[int] = dump.meta.get("server_ids", [])
        if not server_ids:
            raise ConfigurationError(
                "dump meta names no servers; cannot reconstruct state"
            )
        #: domain -> {global server id: domain-local id}; the member list
        #: order in the meta *is* the domain's local-id order (the tracer
        #: records Domain.servers verbatim, and the builders emit members
        #: ascending, which is also what the merged-parallel meta uses)
        self._locals: Dict[str, Dict[int, int]] = {
            d: {s: i for i, s in enumerate(members)}
            for d, members in domains.items()
        }
        self._domains_of: Dict[int, List[str]] = {s: [] for s in server_ids}
        for d, members in domains.items():
            for s in members:
                if s in self._domains_of:
                    self._domains_of[s].append(d)
        #: (src, hop_seq) -> (domain, nid, stamp) — immutable once
        #: written, like the envelope's stamp
        self._stamps: Dict[Tuple[int, int], Tuple[str, int, Stamp]] = {}
        self._states: Dict[int, _ServerState] = {}
        self._cursor = 0
        self._checkpoints: Dict[int, Dict[int, _ServerState]] = {}
        self._reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def cursor(self) -> int:
        """Number of events applied so far."""
        return self._cursor

    @property
    def events(self) -> List[TraceEvent]:
        return self._events

    @property
    def now(self) -> float:
        """Sim-time of the last applied event (0.0 at the start)."""
        if self._cursor == 0:
            return 0.0
        return self._events[self._cursor - 1].t

    def state_of(self, server: int) -> _ServerState:
        try:
            return self._states[server]
        except KeyError:
            raise ConfigurationError(
                f"server {server} is not in the dump"
            ) from None

    def holdback_depth(self, server: int) -> int:
        state = self.state_of(server)
        return sum(len(held) for held in state.holdback.values())

    def is_deliverable(self, nid: int) -> bool:
        """Is any hop of ``nid`` currently past (or passing) the core's
        deliverability test?

        True when a hop of the message has a commit charged (pending) or
        sits in a hold-back store whose replayed clock now admits it.
        """
        for server, state in self._states.items():
            for mid in state.pending:
                stamp = self._stamps.get(mid)
                if stamp is not None and stamp[1] == nid:
                    return True
            for held in state.holdback.values():
                for mid in held:
                    stamp = self._stamps.get(mid)
                    if stamp is None or stamp[1] != nid:
                        continue
                    if self._can_deliver(server, mid):
                        return True
        return False

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------

    def _reset(self) -> None:
        self._states = {}
        for server in self._domains_of:
            state = _ServerState(self._domains_of[server])
            for d in self._domains_of[server]:
                state.clocks[d] = self._core.create_clock(
                    len(self._locals[d]), self._local(d, server)
                )
            self._states[server] = state
        self._stamps = {}
        self._cursor = 0
        self._checkpoints = {0: {}}

    def _local(self, domain: str, server: int) -> int:
        try:
            return self._locals[domain][server]
        except KeyError:
            raise ConfigurationError(
                f"server {server} is not a member of domain {domain!r} "
                "(dump meta and events disagree)"
            ) from None

    def _stamp_of(self, mid: Tuple[int, int]) -> Tuple[str, int, Stamp]:
        stamp = self._stamps.get(mid)
        if stamp is None:
            raise ConfigurationError(
                f"no stamp event replayed for hop {mid}; the dump's event "
                "order is inconsistent (or the stamp hook was off)"
            )
        return stamp

    def _can_deliver(self, server: int, mid: Tuple[int, int]) -> bool:
        """The core's deliverability test at ``server`` for the stamp of
        hop ``mid``, on the replayed clock."""
        domain, _nid, stamp = self._stamp_of(mid)
        return self._core.deliverable(
            self._states[server].clocks[domain], stamp
        )

    def _apply(self, event: TraceEvent) -> None:
        kind = event.kind
        state = self._states.get(event.server)
        if state is None:
            raise ConfigurationError(
                f"event at unknown server {event.server}: {event}"
            )
        if kind == "stamp":
            domain = event.domain
            assert domain is not None, event
            stamp = self._core.stamp(
                state.clock(domain), self._local(domain, event.dst)
            )
            self._stamps[(event.src, event.hop_seq)] = (
                domain, event.nid, stamp,
            )
            state.persisted.add(domain)
            if event.hop_seq > state.hop_seq:
                state.hop_seq = event.hop_seq
            state.unacked.add(event.hop_seq)
        elif kind == "ack":
            state.unacked.discard(event.hop_seq)
        elif kind == "arrive":
            mid = (event.src, event.hop_seq)
            if self._can_deliver(event.server, mid):
                state.pending.add(mid)
        elif kind == "holdback_enter":
            assert event.domain is not None, event
            state.holdback[event.domain].add((event.src, event.hop_seq))
        elif kind == "holdback_release":
            assert event.domain is not None, event
            mid = (event.src, event.hop_seq)
            state.holdback[event.domain].discard(mid)
            state.pending.add(mid)
        elif kind == "commit":
            mid = (event.src, event.hop_seq)
            state.pending.discard(mid)
            domain, _nid, stamp = self._stamp_of(mid)
            self._core.merge(state.clock(domain), stamp)
            state.persisted.add(domain)
        elif kind == "enqueue_in":
            state.queue.append(event.nid)
        elif kind == "reaction_commit":
            if event.nid >= 0:
                if not state.queue or state.queue[0] != event.nid:
                    raise ConfigurationError(
                        f"reaction_commit of nid {event.nid} at server "
                        f"{event.server} does not match the replayed "
                        f"QueueIN head "
                        f"{state.queue[0] if state.queue else None}"
                    )
                state.queue.pop(0)
                state.delivered.append(event.nid)
        elif kind == "crash":
            state.crashed = True
            state.epoch += 1
            for held in state.holdback.values():
                held.clear()
            state.pending.clear()
        elif kind == "recover":
            state.crashed = False
            # the live channel reloads each persisted clock from its
            # image, which equals the clock (persisted at every mutation)
            for domain in state.persisted:
                clock = state.clock(domain)
                clock.restore(clock.snapshot())
        # post / transmit / retransmit / route_forward / reaction_start
        # move no replayed state

    # ------------------------------------------------------------------
    # Cursor movement
    # ------------------------------------------------------------------

    def step_forward(self) -> Optional[TraceEvent]:
        """Apply the next event; returns it, or ``None`` at the end."""
        if self._cursor >= len(self._events):
            return None
        event = self._events[self._cursor]
        self._apply(event)
        self._cursor += 1
        if self._cursor % CHECKPOINT_EVERY == 0:
            self._checkpoints[self._cursor] = {
                s: st.copy() for s, st in self._states.items()
            }
        return event

    def step_back(self) -> Optional[TraceEvent]:
        """Un-apply the last event; returns it, or ``None`` at the start.

        Implemented as restore-nearest-checkpoint + re-apply, so a step
        back costs at most :data:`CHECKPOINT_EVERY` forward applications.
        """
        if self._cursor == 0:
            return None
        target = self._cursor - 1
        undone = self._events[target]
        base = (target // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
        checkpoint = self._checkpoints.get(base)
        if checkpoint is None or base == 0:
            self._reset()
            base = 0
        else:
            self._states = {s: st.copy() for s, st in checkpoint.items()}
            self._cursor = base
        while self._cursor < target:
            self.step_forward()
        return undone

    def seek(self, t: float) -> int:
        """Position the cursor after the last event with ``t <= T``;
        returns the number of events applied (forward or re-applied)."""
        # backward seeks restart from the best checkpoint at or before
        # the first event past T
        if self._cursor > 0 and self._events[self._cursor - 1].t > t:
            target = 0
            while (
                target < len(self._events) and self._events[target].t <= t
            ):
                target += 1
            base = (target // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
            checkpoint = self._checkpoints.get(base)
            if checkpoint is not None and base > 0 and base <= self._cursor:
                self._states = {s: st.copy() for s, st in checkpoint.items()}
                self._cursor = base
            else:
                self._reset()
        applied = 0
        while (
            self._cursor < len(self._events)
            and self._events[self._cursor].t <= t
        ):
            self.step_forward()
            applied += 1
        return applied

    def run_until(
        self, watch: Watchpoint, limit: Optional[float] = None
    ) -> Optional[TraceEvent]:
        """Step forward until ``watch(self, event)`` is true; returns the
        triggering event, or ``None`` if the stream (or ``limit`` in
        sim-time) is exhausted first."""
        while self._cursor < len(self._events):
            if limit is not None and self._events[self._cursor].t > limit:
                return None
            event = self.step_forward()
            assert event is not None
            if watch(self, event):
                return event
        return None

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self, include_delivered: bool = True) -> Dict[str, Any]:
        """The replayed protocol state, in the exact shape (and therefore
        the exact ``json.dumps(..., sort_keys=True)`` bytes) of
        :meth:`repro.mom.bus.MessageBus.protocol_snapshot`.

        ``include_delivered=False`` matches a live bus running without
        ``record_delivered_log``.
        """
        servers: Dict[str, Any] = {}
        for server in sorted(self._states):
            state = self._states[server]
            crashed = state.crashed
            entry: Dict[str, Any] = {
                "crashed": crashed,
                "epoch": state.epoch,
                "hop_seq": state.hop_seq,
                # volatile sets read empty while the server is down; the
                # persisted ones come back verbatim on recovery
                "unacked": [] if crashed else sorted(state.unacked),
                "holdback": {
                    d: sorted([src, seq] for src, seq in held)
                    for d, held in sorted(state.holdback.items())
                },
                "pending": sorted(
                    [src, seq] for src, seq in state.pending
                ),
                "queued": [] if crashed else list(state.queue),
                "clocks": {
                    d: _matrix_rows(state.clocks[d])
                    for d in sorted(state.clocks)
                },
            }
            if include_delivered:
                entry["delivered"] = list(state.delivered)
            servers[str(server)] = entry
        return {"servers": servers}

    def state_at(
        self, t: float, include_delivered: bool = True
    ) -> Dict[str, Any]:
        """``seek(t)`` + :meth:`snapshot` in one call."""
        self.seek(t)
        return self.snapshot(include_delivered=include_delivered)

    def snapshot_json(self, include_delivered: bool = True) -> str:
        """Canonical JSON bytes of :meth:`snapshot` (the identity-oracle
        comparison form)."""
        return json.dumps(
            self.snapshot(include_delivered=include_delivered),
            sort_keys=True,
        )

    def __repr__(self) -> str:
        return (
            f"Replayer(events={len(self._events)}, cursor={self._cursor}, "
            f"t={self.now:.3f}ms)"
        )


def _matrix_rows(clock: CausalClock) -> List[List[int]]:
    size = clock.size
    return [
        [clock.cell(row, col) for col in range(size)] for row in range(size)
    ]


# ----------------------------------------------------------------------
# Ready-made watchpoints
# ----------------------------------------------------------------------


def watch_holdback_exceeds(server: int, depth: int) -> Watchpoint:
    """Trigger when ``server``'s total held-back envelope count exceeds
    ``depth`` (e.g. "stop when server 3's holdback exceeds 5")."""

    def predicate(replay: "Replayer", event: TraceEvent) -> bool:
        if event.server != server or event.kind != "holdback_enter":
            return False
        return replay.holdback_depth(server) > depth

    return predicate


def watch_deliverable(nid: int) -> Watchpoint:
    """Trigger when any hop of message ``nid`` becomes deliverable: a
    commit is charged for it, or a held-back copy now passes the core's
    test on the replayed clock."""

    def predicate(replay: "Replayer", event: TraceEvent) -> bool:
        if event.kind not in (
            "arrive", "commit", "holdback_enter", "holdback_release",
        ):
            return False
        return replay.is_deliverable(nid)

    return predicate
