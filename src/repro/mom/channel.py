"""The Channel: reliable transmission, routing, and causal order (§5).

Per the paper's pseudocode, the sender side stamps each outgoing message
with the matrix clock of the domain the next hop lives in, and keeps it in
QueueOUT until the receiver's transaction ACK arrives; the receiver side
checks the stamp against its own domain clock, holds back messages that
arrived too early, and — once deliverable — commits atomically: merge the
clock, persist, hand the message to the local Engine (QueueIN) or back to
QueueOUT for the next hop, then ACK.

Every protocol decision on both paths — stamping, the deliverability and
duplicate tests, the merge, and the hold-back indexing — is delegated to
the server's :class:`~repro.protocol.core.CausalCore`, so the channel
itself is protocol-agnostic: plugging in a different causal-delivery
algorithm is a registration (:mod:`repro.protocol.registry`), not a
channel change. The contract the channel relies on is verified statically
by rules R018–R023 (:mod:`repro.analysis.contract`) and the small-scope
model checker (:mod:`repro.analysis.model`).

Crash-consistency invariants:

- a hop is stamped, recorded in the unacked table and persisted in one
  atomic step, so a sender crash never loses or double-counts a send — on
  recovery every unacked envelope is retransmitted *with its original
  stamp* and the receiver's matrix clock suppresses duplicates;
- the receiver's clock merge, persistence, forwarding and ACK all happen
  at the commit instant, so a receiver crash before commit simply means
  "never received" (the sender retransmits), and after commit the
  retransmission is recognized as a duplicate and re-ACKed.

Hold-back wake-up. The clock contract (:mod:`repro.clocks.base`) makes a
stamp deliverable only if it is the FIFO-next message from its sender:
``W[s][me] == M[s][me] + 1``. So at any instant at most *one* held-back
sequence number per sender can possibly pass ``can_deliver``, and the
hold-back store indexes envelopes by ``(sender, shipped seq)``. A commit
then probes exactly one bucket per sender with held messages — the one at
``M[s][me] + 1`` — instead of rescanning the whole queue; candidates that
fail only the transitive part of the RST test stay indexed and are probed
again on the next commit in the domain (delivery only ever advances the
receiver column, so nothing else can become deliverable in between).
Release order is arrival order, same as the seed's queue scan.

State follows traffic. A domain's :class:`DomainItem` (and with it the
domain clock) and its hold-back store are created on the domain's first
touch — the first hop stamped or received in it — so an idle server
holds no per-domain protocol state; the reads a harvest makes on every
server (:attr:`Channel.heldback_count`, :attr:`Channel.unacked_count`,
:meth:`Channel.touched_item`) create nothing.

Persistence is incremental on the wall clock, never on the simulated one:
clock images are journal-patched (:meth:`CausalClock.sync_image`) and the
unacked table is updated entry-wise (``put_entry``/``delete_entry``), but
every persist still counts the same writes and the same cells as the
full-snapshot implementation it replaced, so disk-cost results are
bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.errors import RoutingError, TopologyError
from repro.mom.domain_item import DomainItem
from repro.mom.payloads import ChannelAck, Envelope, Notification
from repro.protocol.core import CausalCore

if TYPE_CHECKING:
    from repro.mom.accounting import BusAccounting
    from repro.mom.server import AgentServer


class _HoldbackStore:
    """Per-domain held-back envelopes, indexed for O(1) wake-up probes.

    ``by_sender[sender][seq]`` holds the envelopes from domain-local
    ``sender`` whose shipped sequence number towards us is ``seq``, each
    tagged with a monotonically increasing arrival number (the seed's
    queue position, used to release in the same order). ``mids`` mirrors
    the hop message-ids for O(1) duplicate detection on retransmissions.
    The bucket key is the core's :meth:`~repro.protocol.core.CausalCore.
    holdback_key`, so protocol plug-ins with a different FIFO structure
    keep the O(1) probe.
    """

    __slots__ = ("core", "by_sender", "mids", "count")

    def __init__(self, core: CausalCore) -> None:
        self.core = core
        self.by_sender: Dict[int, Dict[int, List[Tuple[int, Envelope]]]] = {}
        self.mids: Set[Tuple] = set()
        self.count = 0

    def _key(self, envelope: Envelope) -> Tuple[int, int]:
        return self.core.holdback_key(envelope.stamp)

    def add(self, arrival: int, envelope: Envelope) -> None:
        sender, seq = self._key(envelope)
        buckets = self.by_sender.get(sender)
        if buckets is None:
            buckets = {}
            self.by_sender[sender] = buckets
        buckets.setdefault(seq, []).append((arrival, envelope))
        self.mids.add(envelope.hop_mid())
        self.count += 1

    def remove(self, arrival: int, envelope: Envelope) -> None:
        sender, seq = self._key(envelope)
        buckets = self.by_sender[sender]
        bucket = buckets[seq]
        bucket.remove((arrival, envelope))
        if not bucket:
            del buckets[seq]
            if not buckets:
                del self.by_sender[sender]
        self.mids.discard(envelope.hop_mid())
        self.count -= 1

    def clear(self) -> None:
        self.by_sender.clear()
        self.mids.clear()
        self.count = 0


class Channel:
    """One server's channel. Created by :class:`~repro.mom.server.AgentServer`."""

    def __init__(self, server: AgentServer) -> None:
        self._server = server
        self._core: CausalCore = server.core
        # per-domain state, created on the domain's first touch (item)
        self._items: Dict[str, DomainItem] = {}
        self._holdback: Dict[str, _HoldbackStore] = {}
        self._hop_seq = 0
        self._unacked: Dict[int, Envelope] = {}
        self._arrivals = 0
        self._pending_commits: Set[Tuple] = set()
        # Hot counters, resolved once instead of a registry lookup per hop:
        # one lazy handle per name, shared by every channel of the bus, so
        # counters that never fire don't appear in snapshots.
        lazy = server.metrics.lazy_counter
        self._ctr_hops_sent = lazy("channel.hops_sent")
        self._ctr_cells_stamped = lazy("channel.cells_stamped")
        self._ctr_hops_resent = lazy("channel.hops_resent")
        self._ctr_hops_delivered = lazy("channel.hops_delivered")
        self._ctr_duplicates = lazy("channel.duplicates")
        self._ctr_heldback = lazy("channel.heldback")
        self._ctr_forwarded = lazy("channel.forwarded")
        # the bus's observer (accounting, or a tracer); set by the bus
        self._obs: Optional["BusAccounting"] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def domain_items(self) -> Dict[str, DomainItem]:
        """Every domain's item, in membership order (touches them all)."""
        return {
            domain.domain_id: self.item(domain.domain_id)
            for domain in self._server.domains
        }

    def item(self, domain_id: str) -> DomainItem:
        """The domain's item; its first touch creates it, with the
        domain clock and hold-back store."""
        item = self._items.get(domain_id)
        if item is not None:
            return item
        for domain in self._server.domains:
            if domain.domain_id == domain_id:
                item = DomainItem(domain, self._server.server_id, self._core)
                self._items[domain_id] = item
                self._holdback[domain_id] = _HoldbackStore(self._core)
                return item
        raise TopologyError(
            f"server {self._server.server_id} is not in domain "
            f"{domain_id!r} but received a message stamped for it"
        )

    def touched_item(self, domain_id: str) -> Optional[DomainItem]:
        """The domain's item if it was touched yet, else ``None`` (a
        read that creates nothing)."""
        return self._items.get(domain_id)

    @property
    def unacked_count(self) -> int:
        return len(self._unacked)

    @property
    def heldback_count(self) -> int:
        return sum(store.count for store in self._holdback.values())

    def holdback_depth(self, domain_id: str) -> int:
        """Envelopes currently held back in one domain's store."""
        store = self._holdback.get(domain_id)
        return store.count if store is not None else 0

    @property
    def hop_seq(self) -> int:
        """The last hop sequence number stamped by this channel."""
        return self._hop_seq

    def unacked_hop_seqs(self) -> List[int]:
        """Hop sequence numbers still awaiting a transaction ACK
        (QueueOUT), ascending."""
        return sorted(self._unacked)

    def heldback_mids(self) -> Dict[str, List[List[int]]]:
        """Held-back hop ids per domain, each as ``[src, hop_seq]``,
        sorted — the JSON-ready view :meth:`MessageBus.protocol_snapshot`
        and the replay identity oracle compare."""
        held: Dict[str, List[List[int]]] = {
            domain.domain_id: [] for domain in self._server.domains
        }
        for domain_id, store in self._holdback.items():
            held[domain_id] = sorted([mid[1], mid[2]] for mid in store.mids)
        return dict(sorted(held.items()))

    def pending_mids(self) -> List[List[int]]:
        """Hop ids with a receive commit charged but not yet fired, each
        as ``[src, hop_seq]``, sorted."""
        return sorted([mid[1], mid[2]] for mid in self._pending_commits)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------

    def post(self, notification: Notification) -> None:
        """Queue a notification for its next hop towards the destination.

        Stamping, queueing in the unacked table and persistence happen
        atomically now; the send cost is then charged on the processor and
        the envelope leaves for the network when it elapses.
        """
        dest = notification.dest_server
        me = self._server.server_id
        if dest == me:
            raise RoutingError(
                "channel.post() called for a local destination; "
                "local delivery is the engine's job"
            )
        next_hop = self._server.routing.next_hop(dest)
        domain = self._server.topology.shared_domain(me, next_hop)
        item = self.item(domain.domain_id)
        stamp = self._core.stamp(item.clock, item.local_id(next_hop))

        self._hop_seq += 1
        envelope = Envelope(
            notification=notification,
            src_server=me,
            dst_server=next_hop,
            domain_id=domain.domain_id,
            stamp=stamp,
            hop_seq=self._hop_seq,
        )
        self._unacked[envelope.hop_seq] = envelope
        self._persist_send_state(item, envelope)
        # The hop's causal send instant is *now* — the stamping transaction —
        # not the later wire transmit; recording here keeps the hop trace's
        # local orders aligned with the matrix-clock protocol's view.
        self._server.bus.record_hop_send(envelope)
        if self._obs is not None:
            self._obs.channel_stamp(me, envelope)

        cost = self._server.config.cost_model.send_cost(
            stamp, item.clock.size, item.clock.dirty_cells()
        )
        item.clock.clear_dirty()
        self._ctr_hops_sent.add()
        self._ctr_cells_stamped.add(stamp.wire_cells)
        epoch = self._server.epoch
        self._server.processor.submit(cost, self._transmit, envelope, epoch, 1)

    def _transmit(self, envelope: Envelope, epoch: int, attempt: int) -> None:
        if epoch != self._server.epoch:
            return
        if self._obs is not None and self._obs.tracing:
            self._obs.channel_transmit(self._server.server_id, envelope, attempt)
        self._server.transport.send(
            envelope.dst_server, envelope, cells=envelope.stamp.wire_cells
        )
        # Arm the transaction-ACK timer from the *wire* send instant —
        # sender-side transmit queueing must not count against the receiver.
        base = self._server.config.channel_ack_timeout_ms
        timeout = min(base * (2 ** (attempt - 1)), base * 8)
        self._server.sim.schedule_local(
            self._server.server_id,
            timeout, self._check_ack, envelope.hop_seq, attempt, epoch,
        )

    def _check_ack(self, hop_seq: int, attempt: int, epoch: int) -> None:
        """§5's persistent QueueOUT, made live: if the transaction ACK has
        not arrived, re-send the envelope with its *original* stamp — the
        receiver's matrix clock and hold-back dedup make this idempotent.

        This is what bridges receiver crashes: the transport acked mere
        arrival, so envelopes wiped from the receiver's volatile hold-back
        or pending-commit state would otherwise be lost forever.
        """
        if epoch != self._server.epoch:
            return
        envelope = self._unacked.get(hop_seq)
        if envelope is None:
            return  # acked; done
        item = self._items[envelope.domain_id]
        cost = self._server.config.cost_model.send_cost(
            envelope.stamp, item.clock.size, 0
        )
        self._ctr_hops_resent.add()
        if self._obs is not None:
            self._obs.channel_ack_retry(self._server.server_id, envelope)
        self._server.processor.submit(
            cost, self._transmit, envelope, epoch, attempt + 1
        )

    def resend_unacked(self) -> None:
        """Crash recovery: retransmit every persisted-but-unacked envelope
        with its original stamp (duplicates die at the receiver's clock)."""
        for hop_seq in sorted(self._unacked):
            envelope = self._unacked[hop_seq]
            item = self._items[envelope.domain_id]
            cost = self._server.config.cost_model.send_cost(
                envelope.stamp, item.clock.size, 0
            )
            self._ctr_hops_resent.add()
            epoch = self._server.epoch
            self._server.processor.submit(
                cost, self._transmit, envelope, epoch, 1
            )

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def on_packet(self, src: int, packet: Any) -> None:
        """Transport upcall: an envelope or a channel-level ACK arrived."""
        if isinstance(packet, ChannelAck):
            self._on_ack(packet)
            return
        assert isinstance(packet, Envelope), packet
        self._on_envelope(packet)

    def _on_ack(self, ack: ChannelAck) -> None:
        removed = self._unacked.pop(ack.hop_seq, None)
        if removed is None:
            return  # duplicate ACK after a retransmission
        if self._obs is not None and self._obs.tracing:
            self._obs.channel_ack(self._server.server_id, ack.hop_seq)
        self._server.store.delete_entry("channel.unacked", ack.hop_seq)
        epoch = self._server.epoch
        self._server.processor.submit(
            self._server.config.cost_model.ack_ms, lambda _e: None, epoch
        )

    def _on_envelope(self, envelope: Envelope) -> None:
        item = self.item(envelope.domain_id)
        key = envelope.hop_mid()
        if key in self._pending_commits:
            return  # commit already charged; the retransmission is stale
        if self._core.duplicate(item.clock, envelope.stamp):
            self._ctr_duplicates.add()
            self._ack(envelope)
            return
        if self._obs is not None and self._obs.tracing:
            # the wire leg ends here; the critical-path profiler splits
            # transit from receive processing on this edge
            self._obs.channel_arrive(self._server.server_id, envelope)
        if self._core.deliverable(item.clock, envelope.stamp):
            self._start_commit(envelope, item)
        else:
            store = self._holdback[envelope.domain_id]
            if key in store.mids:
                self._ctr_duplicates.add()
                return  # a retransmitted copy is already waiting
            self._arrivals += 1
            store.add(self._arrivals, envelope)
            self._ctr_heldback.add()
            if self._obs is not None:
                self._obs.channel_holdback_enter(
                    self._server.server_id, envelope
                )

    def _start_commit(self, envelope: Envelope, item: DomainItem) -> None:
        """Charge the receive cost; the commit fires when it elapses."""
        self._pending_commits.add(envelope.hop_mid())
        cost = self._server.config.cost_model.recv_cost(
            envelope.stamp, item.clock.size, envelope.stamp.wire_cells
        )
        epoch = self._server.epoch
        self._server.processor.submit(cost, self._commit, envelope, epoch)

    def _commit(self, envelope: Envelope, epoch: int) -> None:
        """The receiver transaction of §5's pseudocode, at one instant:
        merge the domain clock, persist, route the message onward (QueueIN
        or QueueOUT), ACK, and release any unblocked held-back messages."""
        if epoch != self._server.epoch:
            return
        self._pending_commits.discard(envelope.hop_mid())
        item = self._items[envelope.domain_id]
        self._core.merge(item.clock, envelope.stamp)
        if self._obs is not None:
            # dirty_cells() right after the merge = cells this commit moved
            self._obs.channel_commit(
                self._server.server_id, envelope, item.clock.dirty_cells()
            )
        item.clock.clear_dirty()
        self._persist_clock(item)
        self._ctr_hops_delivered.add()
        self._server.bus.record_hop_receive(envelope)
        self._ack(envelope)

        if envelope.final_dest == self._server.server_id:
            self._server.engine.enqueue(envelope.notification)
        else:
            self._ctr_forwarded.add()
            if self._obs is not None:
                self._obs.channel_route_forward(
                    self._server.server_id, envelope
                )
            self.post(envelope.notification)

        self._release_holdback(envelope.domain_id)

    def _ack(self, envelope: Envelope) -> None:
        self._server.transport.send(
            envelope.src_server, ChannelAck(envelope.hop_seq)
        )

    def _release_holdback(self, domain_id: str) -> None:
        """Start commits for every held-back envelope the fresh clock state
        now admits. One pass suffices per release: each commit that later
        fires runs its own release.

        Only the bucket at the FIFO-next sequence number per sender can
        contain deliverable envelopes (see module docstring), so the probe
        cost is O(senders with held messages), not O(held messages)."""
        store = self._holdback[domain_id]
        by_sender = store.by_sender
        if not by_sender:
            return
        item = self._items[domain_id]
        clock = item.clock
        core = self._core
        ready: List[Tuple[int, Envelope]] = []
        for sender, buckets in by_sender.items():
            bucket = buckets.get(core.next_expected(clock, sender))
            if not bucket:
                continue
            for arrival, env in bucket:
                if env.hop_mid() in self._pending_commits:
                    continue
                if core.deliverable(clock, env.stamp):
                    ready.append((arrival, env))
        if not ready:
            return
        ready.sort()  # release in arrival order, like the seed's queue scan
        for arrival, env in ready:
            store.remove(arrival, env)
            if self._obs is not None:
                self._obs.channel_holdback_release(
                    self._server.server_id, env
                )
        for _, env in ready:
            self._start_commit(env, item)

    # ------------------------------------------------------------------
    # Persistence / recovery
    # ------------------------------------------------------------------

    def _persist_send_state(self, item: DomainItem, envelope: Envelope) -> None:
        cells = item.clock.size * item.clock.size
        self._server.store.save(
            f"channel.clock.{item.domain_id}",
            item.clock.sync_image(),
            cells=cells,
            owned=True,
        )
        # Envelopes (and their stamps) are immutable; storing the reference
        # is a faithful snapshot.
        self._server.store.put_entry(
            "channel.unacked", envelope.hop_seq, envelope
        )
        self._server.store.save("channel.hop_seq", self._hop_seq)

    def _persist_clock(self, item: DomainItem) -> None:
        cells = item.clock.size * item.clock.size
        self._server.store.save(
            f"channel.clock.{item.domain_id}",
            item.clock.sync_image(),
            cells=cells,
            owned=True,
        )

    def on_crash(self) -> None:
        """Drop all volatile state (holdback queues, pending commits)."""
        for store in self._holdback.values():
            store.clear()
        self._pending_commits.clear()
        self._unacked.clear()

    def on_recover(self) -> None:
        """Reload clocks, the unacked table and the hop counter from the
        persistent store, then retransmit everything unacked."""
        for domain_id, item in self._items.items():
            snapshot = self._server.store.load(f"channel.clock.{domain_id}")
            if snapshot is not None:
                item.clock.restore(snapshot)
        self._unacked = self._server.store.load("channel.unacked", default={})
        self._hop_seq = self._server.store.load("channel.hop_seq", default=0)
        self.resend_unacked()

    def __repr__(self) -> str:
        return (
            f"Channel(server={self._server.server_id}, "
            f"domains={sorted(d.domain_id for d in self._server.domains)}, "
            f"unacked={len(self._unacked)}, "
            f"heldback={self.heldback_count})"
        )
