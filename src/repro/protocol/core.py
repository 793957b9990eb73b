"""The ``CausalCore`` plug-in contract: one causal-delivery protocol, boxed.

The channel (:mod:`repro.mom.channel`) never talks to a clock directly any
more — every protocol decision goes through a *core*:

- **stamping** (:meth:`CausalCore.stamp`) records a send on the domain
  clock and returns the stamp to piggyback;
- **deliverability** (:meth:`CausalCore.deliverable`,
  :meth:`CausalCore.duplicate`) answers the receiver-side questions of
  §5's pseudocode;
- **merge/commit** (:meth:`CausalCore.merge`) folds a delivered stamp into
  the receiver's clock;
- **hold-back indexing** (:meth:`CausalCore.holdback_key`,
  :meth:`CausalCore.next_expected`) tells the channel which hold-back
  bucket a stamp belongs to and which single bucket per sender can
  possibly contain a deliverable message, preserving the O(1) wake-up
  probe.

The core is the *algorithm family* — a stateless singleton that creates
and interrogates the per-domain clock state
(:mod:`repro.clocks.base`). Its surface is exactly the questions the
channel asks on every hop, so the static contract verifier (rules
R018–R023 in :mod:`repro.analysis.contract`), the small-scope model
checker (:mod:`repro.analysis.model`), the trace replayer and the runtime
sanitizer all drive or wrap one seam, and a new protocol implements only
those questions.

Cores are registered in :mod:`repro.protocol.registry` and looked up by
:class:`~repro.mom.config.BusConfig` via ``clock_algorithm``.
"""

from __future__ import annotations

import abc
from typing import Tuple, Type

from repro.clocks.base import CausalClock, Stamp


class CausalCore(abc.ABC):
    """One causal-delivery protocol: clock factory and delivery tests.

    Concrete cores are stateless singletons; all per-domain state lives in
    the :class:`~repro.clocks.base.CausalClock` instances they create.
    Subclasses must provide the three class attributes and every abstract
    method; the hold-back hooks have defaults that match the seed
    channel's behaviour and only need overriding for protocols with a
    different FIFO-next structure.
    """

    name: str
    """Registry key; also the ``BusConfig.clock_algorithm`` value."""

    clock_cls: Type[CausalClock]
    """The per-domain clock state class this core creates."""

    stamp_cls: Type[Stamp]
    """The stamp class :meth:`stamp` returns. The sharded kernel ships
    stamps across process pipes, so this class must stay picklable —
    rule R021 proves it statically."""

    causal: bool = True
    """``False`` marks a deliberately non-causal baseline (per-pair FIFO).
    The model-checker admission gate rejects non-causal cores by
    construction, so blanket runs skip them; checking one explicitly
    prints its violating interleaving."""

    # ------------------------------------------------------------------
    # Clock lifecycle
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def create_clock(self, size: int, owner: int) -> CausalClock:
        """A fresh domain clock for a domain of ``size`` servers, held by
        domain-local server ``owner``."""

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def stamp(self, clock: CausalClock, dest: int) -> Stamp:
        """Record a send towards domain-local ``dest`` on ``clock`` and
        return the stamp to piggyback on the message."""

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def deliverable(self, clock: CausalClock, stamp: Stamp) -> bool:
        """The deliverability test at ``clock.owner`` (RST for the matrix
        family). Must be pure — rule R020 proves the whole call closure
        mutation-free."""

    @abc.abstractmethod
    def duplicate(self, clock: CausalClock, stamp: Stamp) -> bool:
        """Has the stamped message already been delivered at
        ``clock.owner``? The exactly-once filter for retransmissions."""

    @abc.abstractmethod
    def merge(self, clock: CausalClock, stamp: Stamp) -> None:
        """Commit a deliverable stamp into ``clock`` (``M := max(M, W)``
        for the matrix family). Called exactly once per message."""

    # ------------------------------------------------------------------
    # Hold-back indexing (defaults match the seed channel)
    # ------------------------------------------------------------------

    def holdback_key(self, stamp: Stamp) -> Tuple[int, int]:
        """The hold-back bucket for ``stamp``: ``(sender, shipped seq
        towards the destination)``. At most one bucket per sender can
        contain deliverable messages at any instant (module docstring of
        :mod:`repro.mom.channel`)."""
        return stamp.sender, stamp.entry(stamp.sender, stamp.dest)

    def next_expected(self, clock: CausalClock, sender: int) -> int:
        """The one sequence number from ``sender`` that could be
        deliverable at ``clock.owner`` right now — the wake-up probe."""
        return clock.cell(sender, clock.owner) + 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class DelegatingCore(CausalCore):
    """A core whose protocol behaviour is entirely the clock's.

    All four registered cores delegate this way today — the contract
    boundary exists so future cores (hybrid buffering, PC-broadcast)
    *can* put protocol logic core-side.
    """

    def create_clock(self, size: int, owner: int) -> CausalClock:
        return self.clock_cls(size, owner)

    def stamp(self, clock: CausalClock, dest: int) -> Stamp:
        return clock.prepare_send(dest)

    def deliverable(self, clock: CausalClock, stamp: Stamp) -> bool:
        return clock.can_deliver(stamp)

    def duplicate(self, clock: CausalClock, stamp: Stamp) -> bool:
        return clock.is_duplicate(stamp)

    def merge(self, clock: CausalClock, stamp: Stamp) -> None:
        clock.deliver(stamp)

