"""Traces: the global history of a computation (§4.2).

A trace is the set of send and receive events of a computation, organized as
one totally ordered event sequence per process — the local orders ``<p``.
Because ``src(m) ≠ dst(m)``, a given message touches a given process at most
once, so the local order on *events* induces a local order on *messages*
(the ``m <p m'`` of the paper) directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.causality.message import Message
from repro.errors import TraceError


class EventKind(enum.Enum):
    """The two event kinds of the model: message send and message receive."""

    SEND = "send"
    RECEIVE = "receive"


@dataclass(frozen=True)
class Event:
    """One event in a process's local history."""

    kind: EventKind
    process: Hashable
    message: Message

    def __repr__(self) -> str:
        return f"Event({self.kind.value} {self.message!r} @ {self.process!r})"


class Trace:
    """A mutable trace builder plus the read API used by the checkers.

    Events are recorded in per-process order via :meth:`record_send` and
    :meth:`record_receive`; the recording order *within each process* is the
    local order ``<p``. There is deliberately no global ordering — causal
    analysis only ever consults local orders and the message graph.
    """

    def __init__(self, strict: bool = True):
        self._strict = strict
        self._events: Dict[Hashable, List[Event]] = {}
        self._local_index: Dict[Tuple[Hashable, Hashable], int] = {}
        self._sent: Dict[Hashable, Message] = {}
        self._received: Set[Hashable] = set()
        self._messages: Dict[Hashable, Message] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_histories(
        cls,
        histories: Dict[Hashable, Iterable[Tuple[EventKind, Message]]],
    ) -> "Trace":
        """Build a trace from explicit per-process local histories.

        Unlike the incremental recorder, this constructor does not require
        sends to be presented before receives (there is no global order
        among processes to honour); consistency is validated afterwards.

        Args:
            histories: per process, its local sequence of
                ``(EventKind, Message)`` pairs, in local order.

        Raises:
            TraceError: if a message is sent twice, received twice,
                received without being sent, recorded with two different
                endpoint pairs, or recorded at the wrong process.
        """
        trace = cls()
        seen: Dict[Hashable, Message] = {}
        for process, local in histories.items():
            for kind, message in local:
                if seen.setdefault(message.mid, message) != message:
                    raise TraceError(
                        f"message {message.mid!r} recorded with different "
                        f"endpoints ({seen[message.mid]!r} vs {message!r})"
                    )
                expected = message.src if kind is EventKind.SEND else message.dst
                if expected != process:
                    raise TraceError(
                        f"{kind.value} of {message!r} recorded at "
                        f"{process!r}, expected {expected!r}"
                    )
                # a second send (or receive) is a second event at src
                # (dst): _append refuses it
                trace._append(process, Event(kind, process, message))
                if kind is EventKind.SEND:
                    trace._sent[message.mid] = message
                    trace._messages[message.mid] = message
                else:
                    trace._received.add(message.mid)
        missing = trace._received - set(trace._sent)
        if missing:
            raise TraceError(
                f"messages received but never sent: {sorted(missing, key=repr)!r}"
            )
        return trace

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_send(self, message: Message) -> Event:
        """Append the send event of ``message`` to ``src(message)``'s history."""
        if message.mid in self._sent:
            raise TraceError(f"message {message.mid!r} sent twice")
        event = Event(EventKind.SEND, message.src, message)
        self._append(message.src, event)
        self._sent[message.mid] = message
        self._messages[message.mid] = message
        return event

    def record_receive(self, message: Message) -> Event:
        """Append the receive event of ``message`` to ``dst(message)``'s history.

        The matching send must already have been recorded — the MOM records
        sends when the channel transmits, which (in any single run) is
        observed before the receive. A trace built with ``strict=False``
        (one shard's slice of a distributed run) skips that requirement:
        the send of a cross-shard message lives in *another* shard's trace,
        and the merged trace re-validates via :meth:`from_histories`.
        """
        if message.mid not in self._sent:
            if self._strict:
                raise TraceError(
                    f"message {message.mid!r} received but never sent in "
                    "this trace"
                )
            self._messages.setdefault(message.mid, message)
        else:
            known = self._sent[message.mid]
            if known != message:
                raise TraceError(
                    f"message {message.mid!r} received with different "
                    f"endpoints than sent ({known!r} vs {message!r})"
                )
        if message.mid in self._received:
            raise TraceError(f"message {message.mid!r} received twice")
        event = Event(EventKind.RECEIVE, message.dst, message)
        self._append(message.dst, event)
        self._received.add(message.mid)
        return event

    def _append(self, process: Hashable, event: Event) -> None:
        history = self._events.setdefault(process, [])
        key = (process, event.message.mid)
        if key in self._local_index:
            raise TraceError(
                f"message {event.message.mid!r} already has an event at "
                f"process {process!r}; a message touches a process at most once"
            )
        self._local_index[key] = len(history)
        history.append(event)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def processes(self) -> List[Hashable]:
        """Processes with at least one event, in first-appearance order."""
        return list(self._events)

    @property
    def messages(self) -> List[Message]:
        """Every message with at least a send event, in send-recording order."""
        return list(self._messages.values())

    def message(self, mid: Hashable) -> Message:
        """Look a message up by identifier."""
        try:
            return self._messages[mid]
        except KeyError:
            raise TraceError(f"unknown message id {mid!r}") from None

    def events_of(self, process: Hashable) -> List[Event]:
        """The local history of ``process`` (empty if it has no events)."""
        return list(self._events.get(process, []))

    def was_received(self, message: Message) -> bool:
        """True iff the receive event of ``message`` was recorded."""
        return message.mid in self._received

    def local_index(self, process: Hashable, message: Message) -> int:
        """Position of ``message``'s (unique) event in ``process``'s history.

        Raises :class:`TraceError` if the message has no event at that
        process.
        """
        try:
            return self._local_index[(process, message.mid)]
        except KeyError:
            raise TraceError(
                f"message {message.mid!r} has no event at process {process!r}"
            ) from None

    def locally_before(
        self, process: Hashable, first: Message, second: Message
    ) -> bool:
        """The paper's ``first <p second``: does ``process`` see ``first``
        (send or receive) strictly before ``second``?"""
        return self.local_index(process, first) < self.local_index(process, second)

    def received_in_order(self, process: Hashable) -> List[Message]:
        """Messages received by ``process``, in local receive order."""
        return [
            event.message
            for event in self._events.get(process, [])
            if event.kind is EventKind.RECEIVE
        ]

    def sent_in_order(self, process: Hashable) -> List[Message]:
        """Messages sent by ``process``, in local send order."""
        return [
            event.message
            for event in self._events.get(process, [])
            if event.kind is EventKind.SEND
        ]

    def __len__(self) -> int:
        """Total number of recorded events."""
        return sum(len(history) for history in self._events.values())

    def linearize(self) -> List[Event]:
        """The events in a (derived, deterministic) order that respects
        every local order and send-before-receive. Kahn over the local
        histories: a send is always ready, a receive once its send is out
        — or was never recorded here, a cross-shard receive in a
        ``strict=False`` slice. The result stops short of ``len(self)``
        exactly when ``≺`` has a cycle: what is left waits on itself."""
        order: List[Event] = []
        cursor = dict.fromkeys(self._events, 0)
        out: Set[Hashable] = set()
        parked: Dict[Hashable, Hashable] = {}  # awaited mid -> its receiver
        ready = list(reversed(self._events))
        while ready:
            process = ready.pop()
            history = self._events[process]
            at = cursor[process]
            while at < len(history):
                event = history[at]
                mid = event.message.mid
                if event.kind is EventKind.SEND:
                    out.add(mid)
                    if mid in parked:
                        ready.append(parked.pop(mid))
                elif mid not in out and mid in self._sent:
                    parked[mid] = process
                    break
                order.append(event)
                at += 1
            cursor[process] = at
        return order

    # ------------------------------------------------------------------
    # Derived traces
    # ------------------------------------------------------------------

    def restrict(self, keep: Iterable[Message]) -> "Trace":
        """The restriction of the trace to a message subset (§4.2).

        Used to evaluate "respects causality *in domain d*": restrict to the
        messages with source and destination in ``d``, preserving each
        process's relative event order, then check the restricted trace.
        """
        keep = list(keep)
        kept_ids = {m.mid for m in keep}
        touched = {process for m in keep for process in (m.src, m.dst)}
        unknown = kept_ids - set(self._messages)
        if unknown:
            raise TraceError(f"cannot restrict to unknown messages: {unknown!r}")
        restricted = Trace()
        for process, history in self._events.items():
            if process not in touched:
                continue
            for event in history:
                if event.message.mid in kept_ids:
                    restricted._append(process, event)
        restricted._messages = {
            mid: msg for mid, msg in self._messages.items() if mid in kept_ids
        }
        restricted._sent = {
            mid: msg for mid, msg in self._sent.items() if mid in kept_ids
        }
        restricted._received = self._received & kept_ids
        return restricted

    def __repr__(self) -> str:
        return (
            f"Trace(processes={len(self._events)}, "
            f"messages={len(self._messages)}, events={len(self)})"
        )
