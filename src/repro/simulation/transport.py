"""Reliable transport: at-least-once retransmission + duplicate
suppression = exactly-once, unordered delivery.

The AAA message bus "guarantees the reliable, causal delivery of messages"
(§3); reliability below the causal layer is this transport's job. Packets
carry per-(src, dst) sequence numbers; the receiver acknowledges each one
and suppresses duplicates, the sender retransmits on a timer until acked.

Ordering is deliberately *not* provided: the causal channel above tolerates
out-of-order arrival (its hold-back queue exists for exactly that), and a
non-FIFO transport is the adversarial setting that actually exercises it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.errors import TransportError
from repro.simulation.kernel import EventHandle, Simulator
from repro.simulation.network import Network


@dataclass
class _Outstanding:
    """One unacked packet awaiting retransmission."""

    seq: int
    dst: int
    payload: Any
    cells: int
    attempts: int = 1
    timer: Optional[EventHandle] = None


@dataclass
class _DataPacket:
    seq: int
    payload: Any


@dataclass(frozen=True)
class _AckPacket:
    seq: int


class ReliableTransport:
    """One endpoint's reliable-transport state machine.

    Args:
        sim: shared simulator.
        network: shared lossy network.
        endpoint: this endpoint's network id.
        on_message: upcall ``fn(src, payload)`` on each fresh delivery.
        retransmit_ms: base retransmission timeout (doubles per attempt).
        max_attempts: give up (raise through the simulator) after this many
            sends of one packet.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        endpoint: int,
        on_message: Callable[[int, Any], None],
        retransmit_ms: float = 50.0,
        max_attempts: int = 30,
    ):
        if retransmit_ms <= 0:
            raise TransportError(
                f"retransmit timeout must be > 0, got {retransmit_ms}"
            )
        if max_attempts < 1:
            raise TransportError(f"max_attempts must be >= 1, got {max_attempts}")
        self._sim = sim
        self._network = network
        self._endpoint = endpoint
        self._on_message = on_message
        self._retransmit_ms = retransmit_ms
        self._max_attempts = max_attempts
        # the send and receive tables, each created on first use: an
        # endpoint that never sends (or never receives) holds none
        self._next_seq: Optional[Dict[int, int]] = None
        self._outstanding: Optional[Dict[Tuple[int, int], _Outstanding]] = None
        self._delivered: Optional[Dict[int, Set[int]]] = None
        self._stopped = False
        self.retransmissions = 0
        self.duplicates_suppressed = 0
        # the tracer while one is attached (repro.obs, set via duck
        # typing — this layer cannot know its type); None otherwise
        self._obs: Optional[Any] = None
        network.attach(endpoint, self._on_packet)

    @property
    def endpoint(self) -> int:
        return self._endpoint

    @property
    def in_flight(self) -> int:
        """Unacked packets (diagnostics and quiescence checks)."""
        return len(self._outstanding) if self._outstanding is not None else 0

    def send(self, dst: int, payload: Any, cells: int = 0) -> None:
        """Reliably send ``payload``; delivery order is unspecified."""
        if self._stopped:
            raise TransportError(f"transport {self._endpoint} is stopped")
        if self._next_seq is None:
            self._next_seq = {}
        if self._outstanding is None:
            self._outstanding = {}
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        entry = _Outstanding(seq=seq, dst=dst, payload=payload, cells=cells)
        self._outstanding[(dst, seq)] = entry
        self._transmit(entry)

    def stop(self) -> None:
        """Crash: cancel timers, drop state, detach from the network."""
        self._stopped = True
        if self._outstanding is not None:
            for entry in self._outstanding.values():
                if entry.timer is not None:
                    entry.timer.cancel()
            self._outstanding.clear()
        self._network.detach(self._endpoint)

    def restart(self, on_message: Optional[Callable[[int, Any], None]] = None) -> None:
        """Recover after :meth:`stop`.

        Sequence numbers restart at a fresh epoch (past the highest used)
        so recovered sends are not mistaken for replays of lost packets;
        the duplicate-suppression sets are rebuilt empty — end-to-end
        dedup after a crash is the *channel*'s job, via its matrix clock.
        """
        if not self._stopped:
            raise TransportError("restart() without a prior stop()")
        self._stopped = False
        if on_message is not None:
            self._on_message = on_message
        self._delivered = None
        self._network.attach(self._endpoint, self._on_packet)

    def _transmit(self, entry: _Outstanding) -> None:
        self._network.transmit(
            self._endpoint, entry.dst, _DataPacket(entry.seq, entry.payload),
            cells=entry.cells,
        )
        timeout = self._retransmit_ms * (2 ** (entry.attempts - 1))
        entry.timer = self._sim.schedule_local(
            self._endpoint, timeout, self._maybe_retransmit, entry
        )

    def _maybe_retransmit(self, entry: _Outstanding) -> None:
        outstanding = self._outstanding
        if (
            self._stopped
            or outstanding is None
            or (entry.dst, entry.seq) not in outstanding
        ):
            return
        if entry.attempts >= self._max_attempts:
            raise TransportError(
                f"endpoint {self._endpoint}: packet seq={entry.seq} to "
                f"{entry.dst} undeliverable after {entry.attempts} attempts"
            )
        entry.attempts += 1
        self.retransmissions += 1
        if self._obs is not None:
            self._obs.transport_retransmit(
                self._endpoint, entry.dst, entry.seq, entry.attempts,
                entry.payload,
            )
        self._transmit(entry)

    def _on_packet(self, src: int, packet: Any) -> None:
        if self._stopped:
            return
        if isinstance(packet, _AckPacket):
            outstanding = self._outstanding
            entry = (
                outstanding.pop((src, packet.seq), None)
                if outstanding is not None
                else None
            )
            if entry is not None and entry.timer is not None:
                entry.timer.cancel()
            return
        assert isinstance(packet, _DataPacket)
        # Always re-ack: the original ack may have been lost.
        self._network.transmit(self._endpoint, src, _AckPacket(packet.seq))
        if self._delivered is None:
            self._delivered = {}
        seen = self._delivered.setdefault(src, set())
        if packet.seq in seen:
            self.duplicates_suppressed += 1
            return
        seen.add(packet.seq)
        self._on_message(src, packet.payload)

    def __repr__(self) -> str:
        return (
            f"ReliableTransport(endpoint={self._endpoint}, "
            f"in_flight={self.in_flight}, retx={self.retransmissions})"
        )
