"""Opt-in runtime sanitizer for the causal-delivery protocol.

The lint rules (:mod:`repro.analysis.rules`) catch invariant violations
that are visible in the source; this module catches the ones that are
only visible in a *running* bus. Set ``REPRO_SANITIZE=1`` and the test
suite's conftest installs it; every :class:`~repro.mom.bus.MessageBus`
constructed afterwards is instrumented. The per-step checks sit on the
seam where the channel asks every protocol question: its
:class:`~repro.protocol.core.CausalCore`, wrapped by a checking core.

- **Stamp freeze (write-after-publish).** ``prepare_send`` hands stamps
  the clock's live buffer copy-on-write; the protocol requires that the
  published bytes never change afterwards (retransmissions must carry the
  *original* stamp). The sanitizer fingerprints every published stamp and
  re-verifies the fingerprint at each use and at quiescence — the moral
  equivalent of a write-after-share check in a race sanitizer.
- **Monotonicity.** Matrix cells only ever grow between crashes; a
  shadow matrix per clock, re-baselined when its server's epoch moves,
  detects any regression.
- **FIFO pre-check.** A stamp handed to the core's ``merge`` must be the
  FIFO-next message from its sender (``W[s][me] == M[s][me] + 1``); the
  sanitizer reports the offending clock and cell *before* the clock's
  own ``ClockError`` would fire with less context.
- **Causal order (online).** The same vector-clock oracle that judges
  recorded traces (:class:`~repro.causality.order.DeliveryOracle`) is fed
  from the bus's app-level send/receive hooks and raises the moment a
  delivery contradicts the happens-before order — only on topologies that
  promise causal order (``validate=True``; the theorem tests boot cyclic
  topologies where violations are the *expected outcome*).
- **Quiescence hygiene.** After ``run_until_idle`` with every server up:
  no held-back envelopes leaked, every engine queue drained, and the
  domain graph is still acyclic.

Everything is observation-only: no simulated cost is charged, no RNG
stream is consumed, no metric counter is touched, so a sanitized run is
bit-identical to a bare one (the determinism suite re-runs under the
sanitizer to pin exactly this).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.causality.order import DeliveryOracle
from repro.clocks.base import CausalClock, Stamp
from repro.clocks.matrix import MatrixStamp
from repro.clocks.updates import UpdateStamp
from repro.errors import ReproError
from repro.mom.payloads import Notification
from repro.protocol.core import CausalCore

# Retain at most this many published-stamp fingerprints per bus; old
# entries age out FIFO (long benchmark runs should not hoard memory).
_MAX_FROZEN = 4096


class SanitizerViolation(ReproError):
    """A runtime invariant of the causal protocol was broken.

    Attributes:
        kind: short machine-readable category (``stamp-mutation``,
            ``monotonicity``, ``fifo``, ``causal-order``,
            ``holdback-leak``, ``queue-leak``, ``cyclic-domains``).
        artifact: flight-recorder dump directory, when tracing was on
            (``REPRO_TRACE=1``) at the moment of the violation.
    """

    def __init__(self, kind: str, message: str) -> None:
        self.kind = kind
        self.artifact = _flight_record(kind)
        suffix = (
            f" [flight record: {self.artifact}]" if self.artifact else ""
        )
        super().__init__(f"[{kind}] {message}{suffix}")


def _flight_record(kind: str) -> Optional[str]:
    """Dump the event ring of every traced bus; the violation message
    points at the artifact so the failure is inspectable post-mortem."""
    try:
        from repro.obs import flight_recorder
    except ImportError:
        return None
    return flight_recorder.record_violation(kind)


def _fingerprint(stamp: Stamp) -> Optional[object]:
    """A value equal iff the stamp's published content is unchanged."""
    if isinstance(stamp, MatrixStamp):
        # The sanitizer is the one watchdog allowed to reach past the
        # core boundary: it fingerprints raw stamp bytes to prove nobody
        # else mutated them.
        return stamp._buf.tobytes()  # noqa: R018
    if isinstance(stamp, UpdateStamp):
        return tuple(stamp.updates)
    return None


class _StampRegistry:
    """Published stamps and their publish-time fingerprints (bus-wide)."""

    def __init__(self) -> None:
        self._order: Deque[int] = deque()
        self._entries: Dict[int, Tuple[Stamp, object, str]] = {}

    def publish(self, stamp: Stamp, label: str) -> None:
        frozen = _fingerprint(stamp)
        if frozen is None:
            return
        key = id(stamp)
        if key not in self._entries:
            self._order.append(key)
            if len(self._order) > _MAX_FROZEN:
                self._entries.pop(self._order.popleft(), None)
        self._entries[key] = (stamp, frozen, label)

    def verify(self, stamp: Stamp) -> None:
        entry = self._entries.get(id(stamp))
        if entry is not None and entry[0] is stamp:
            self._verify_entry(entry)

    def verify_all(self) -> None:
        for entry in list(self._entries.values()):
            self._verify_entry(entry)

    @staticmethod
    def _verify_entry(entry: Tuple[Stamp, object, str]) -> None:
        stamp, frozen, label = entry
        current = _fingerprint(stamp)
        if current == frozen:
            return
        detail = ""
        if isinstance(stamp, MatrixStamp) and isinstance(frozen, bytes):
            from array import array

            old = array("q", frozen)
            size = stamp.size
            for idx in range(size * size):
                if stamp._buf[idx] != old[idx]:
                    detail = (
                        f": cell ({idx // size}, {idx % size}) changed "
                        f"{old[idx]} -> {stamp._buf[idx]}"
                    )
                    break
        raise SanitizerViolation(
            "stamp-mutation",
            f"stamp {stamp!r} published by {label} was mutated after it was "
            f"shared{detail}; published stamps must stay frozen so "
            "retransmissions carry the original bytes",
        )


class _Watch:
    """One watched clock: its name in violations (empty until its first
    checked step names it), its server, and a shadow copy of its cells as
    of the server's epoch."""

    __slots__ = ("label", "server", "epoch", "shadow")

    def __init__(self, clock: CausalClock, label: str, server: Any) -> None:
        self.label = label
        self.server = server
        self.epoch = server.epoch
        self.shadow = _cells(clock)

    def check_monotonic(self, clock: CausalClock, operation: str) -> None:
        size = clock.size
        shadow = self.shadow
        current = _cells(clock)
        for idx in range(size * size):
            if current[idx] < shadow[idx]:
                raise SanitizerViolation(
                    "monotonicity",
                    f"{self.label}: cell ({idx // size}, {idx % size}) "
                    f"regressed {shadow[idx]} -> {current[idx]} during "
                    f"{operation}; matrix cells only ever grow",
                )
        self.shadow = current


def _cells(clock: CausalClock) -> List[int]:
    size = clock.size
    return [clock.cell(row, col) for row in range(size) for col in range(size)]


def _label_of(server: Any, clock: CausalClock) -> str:
    """``"server 3, domain 'D'"``: the domain whose item holds ``clock``."""
    for domain in server.domains:
        item = server.channel.touched_item(domain.domain_id)
        if item is not None and item.clock is clock:
            return f"server {server.server_id}, domain {domain.domain_id!r}"
    return f"server {server.server_id}"


class _CheckingCore(CausalCore):
    """Wraps the bus's core: checks each protocol step, then delegates.
    No simulated cost, no state the protocol can observe; the clocks stay
    unwrapped, so their own counters read as on a bare bus.

    Each server's channel gets its own view (:meth:`for_server`), which
    watches every clock it creates: a channel creates a domain's clock on
    the domain's first touch, so the watch starts with the clock."""

    def __init__(
        self,
        inner: CausalCore,
        registry: _StampRegistry,
        server: Any = None,
        watched: Optional[Dict[int, _Watch]] = None,
    ) -> None:
        self.inner = inner
        self.registry = registry
        self._server = server
        self._watched: Dict[int, _Watch] = {} if watched is None else watched

    def for_server(self, server: Any) -> "_CheckingCore":
        """This core as ``server``'s channel uses it: same checks, same
        stamp registry, and the clocks it creates are watched."""
        return _CheckingCore(self.inner, self.registry, server, self._watched)

    def watch(self, clock: CausalClock, label: str, server: Any) -> None:
        """Check ``clock`` from now on, naming it ``label`` in violations
        (e.g. ``"server 3, domain 'D'"``; an empty label names it after
        the domain item that holds it, at its first checked step)."""
        self._watched[id(clock)] = _Watch(clock, label, server)

    def _watch(self, clock: CausalClock) -> _Watch:
        watch = self._watched[id(clock)]
        if not watch.label:
            watch.label = _label_of(watch.server, clock)
        epoch = watch.server.epoch
        if watch.epoch != epoch:
            # a crash since the last step: recovery restored the clock to
            # its persisted image, and no core step runs on a crashed
            # server, so re-baseline instead of flagging the rollback
            watch.epoch = epoch
            watch.shadow = _cells(clock)
        return watch

    def create_clock(self, size: int, owner: int) -> CausalClock:
        clock = self.inner.create_clock(size, owner)
        if self._server is not None:
            self.watch(clock, "", self._server)
        return clock

    def stamp(self, clock: CausalClock, dest: int) -> Stamp:
        watch = self._watch(clock)
        stamp = self.inner.stamp(clock, dest)
        watch.check_monotonic(clock, "prepare_send")
        self.registry.publish(stamp, watch.label)
        return stamp

    def deliverable(self, clock: CausalClock, stamp: Stamp) -> bool:
        self.registry.verify(stamp)
        return self.inner.deliverable(clock, stamp)

    def duplicate(self, clock: CausalClock, stamp: Stamp) -> bool:
        self.registry.verify(stamp)
        return self.inner.duplicate(clock, stamp)

    def merge(self, clock: CausalClock, stamp: Stamp) -> None:
        watch = self._watch(clock)
        self.registry.verify(stamp)
        me = clock.owner
        shipped = stamp.entry(stamp.sender, me)
        expected = clock.cell(stamp.sender, me) + 1
        if shipped is not None and shipped != expected:
            raise SanitizerViolation(
                "fifo",
                f"{watch.label}: deliver() of a stamp from sender "
                f"{stamp.sender} with send-count {shipped}, but cell "
                f"({stamp.sender}, {me}) expects {expected}; messages from "
                "one sender must be delivered in FIFO order",
            )
        self.inner.merge(clock, stamp)
        watch.check_monotonic(clock, "deliver")

    def holdback_key(self, stamp: Stamp) -> Tuple[int, int]:
        return self.inner.holdback_key(stamp)

    def next_expected(self, clock: CausalClock, sender: int) -> int:
        return self.inner.next_expected(clock, sender)

    def __repr__(self) -> str:
        return f"_CheckingCore({self.inner!r})"


class OrderChecker:
    """Online driver of the one causal-delivery oracle, fed from the
    bus's app-level hooks, outside the system under test. Unlike the
    offline sweep it cannot know that a message will never arrive: any
    still-pending predecessor addressed to the same agent proves the MOM
    delivered out of causal order."""

    def __init__(self) -> None:
        self._oracle = DeliveryOracle()

    def on_send(self, notification: Notification) -> None:
        if notification.sender != notification.target:
            self._oracle.send(
                notification.nid, notification.sender, notification.target
            )

    def on_receive(self, notification: Notification) -> None:
        # an nid the oracle does not hold is a self-send, or a replayed
        # delivery after recovery that was already checked
        missing = self._oracle.receive(notification.nid)
        if missing:
            raise SanitizerViolation(
                "causal-order",
                f"notification {notification.nid} "
                f"({notification.sender} -> {notification.target}) delivered "
                f"before notification {missing[0]}, which causally precedes "
                f"it and is addressed to the same agent",
            )


class BusSanitizer:
    """Instruments one :class:`~repro.mom.bus.MessageBus` in place."""

    def __init__(self, bus: Any, force_order_check: bool = False) -> None:
        self.bus = bus
        self.registry = _StampRegistry()
        self.core: Optional[_CheckingCore] = None
        self.order_checker: Optional[OrderChecker] = None
        self._force_order_check = force_order_check
        self._attached = False

    def attach(self) -> "BusSanitizer":
        if self._attached:
            return self
        self._attached = True
        bus = self.bus
        # non-causal cores (per-pair FIFO baseline) are exempt from both
        # the checking core and the order oracle: losing causal order is
        # their documented behaviour, not a bug
        causal_core = bus.config.core.causal
        if causal_core:
            core = _CheckingCore(bus.config.core, self.registry)
            for server in bus.servers.values():
                # clocks touched before attach are watched now; the
                # server's view watches every clock created after
                for domain in server.domains:
                    item = server.channel.touched_item(domain.domain_id)
                    if item is not None:
                        core.watch(item.clock, "", server)
                server.channel._core = core.for_server(server)
            self.core = core
        # Causal order is only promised on validated (acyclic) topologies;
        # the theorem tests boot cyclic ones where violations are the
        # expected observation, not a bug.
        check_order = self._force_order_check or (
            bus.config.validate and causal_core
        )
        if check_order:
            checker = OrderChecker()
            self.order_checker = checker
            original_send = bus.record_app_send
            original_receive = bus.record_app_receive

            def record_app_send(notification: Notification) -> None:
                original_send(notification)
                checker.on_send(notification)

            def record_app_receive(notification: Notification) -> None:
                original_receive(notification)
                checker.on_receive(notification)

            bus.record_app_send = record_app_send
            bus.record_app_receive = record_app_receive

        original_run_until_idle = bus.run_until_idle

        def run_until_idle(max_events: int = 10_000_000) -> int:
            events = original_run_until_idle(max_events=max_events)
            self.check_quiesce()
            return events

        bus.run_until_idle = run_until_idle
        return self

    def check_quiesce(self) -> None:
        """Invariants that must hold once the bus has run to quiescence."""
        self.registry.verify_all()
        bus = self.bus
        if any(server.is_crashed for server in bus.servers.values()):
            # with a server down, held-back and queued messages are
            # legitimately waiting for its recovery
            return
        for server_id in sorted(bus.servers):
            server = bus.servers[server_id]
            held = server.channel.heldback_count
            if held:
                raise SanitizerViolation(
                    "holdback-leak",
                    f"server {server_id} still holds {held} held-back "
                    "envelope(s) at quiescence with every server up; a "
                    "held-back message that can never be released is a "
                    "lost message",
                )
            if server.engine.queued:
                raise SanitizerViolation(
                    "queue-leak",
                    f"server {server_id} still has {server.engine.queued} "
                    "queued reaction(s) at quiescence",
                )
        if bus.config.validate:
            from repro.topology.graph import find_domain_cycle

            cycle = find_domain_cycle(bus.config.topology)
            if cycle is not None:
                pretty = " -> ".join(str(d) for d in cycle)
                raise SanitizerViolation(
                    "cyclic-domains",
                    f"domain graph acquired a cycle after boot: {pretty}; "
                    "the causality theorem's precondition no longer holds",
                )


_original_bus_init: Optional[Any] = None


def is_installed() -> bool:
    return _original_bus_init is not None


def install() -> None:
    """Instrument every :class:`MessageBus` constructed from now on.

    Idempotent. The tests' conftest calls this when ``REPRO_SANITIZE=1``.
    """
    global _original_bus_init
    if _original_bus_init is not None:
        return
    from repro.mom.bus import MessageBus

    original = MessageBus.__init__

    def sanitized_init(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        self._sanitizer = BusSanitizer(self).attach()

    MessageBus.__init__ = sanitized_init  # type: ignore[method-assign]
    _original_bus_init = original


def uninstall() -> None:
    """Undo :func:`install` (buses already built stay instrumented)."""
    global _original_bus_init
    if _original_bus_init is None:
        return
    from repro.mom.bus import MessageBus

    MessageBus.__init__ = _original_bus_init  # type: ignore[method-assign]
    _original_bus_init = None
