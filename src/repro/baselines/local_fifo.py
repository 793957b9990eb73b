"""The locality reduction pushed to its limit: per-pair FIFO only.

§2 discusses the FM-class optimizations of Meldal–Sankar–Vera [19]: shrink
the clock by keeping "information about the set of processes with which
[a process] may communicate". Taken to its extreme — each process tracks
only per-partner send/delivery counters — the clock degenerates to
per-channel FIFO, and as the paper notes, "this algorithm does not ensure
the global causal delivery of messages": transitive dependencies through
relays are invisible.

:class:`FifoClock` implements exactly that degenerate clock behind the
standard :class:`~repro.clocks.base.CausalClock` interface, registered as
the ``fifo`` core, so the model checker (:mod:`repro.analysis.model`) can
*prove* the §2 claim on this implementation: ``model fifo`` and the
triangle-relay scenario both come back as a causal violation with a
witness trace (see ``tests/test_model_checker.py``), while per-pair FIFO
itself always holds. The stamp is a single integer — maximal wire savings, bought with
the loss of the very property this library is about.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List

from repro.clocks.base import CausalClock, Stamp
from repro.errors import ClockError


class FifoStamp(Stamp):
    """One cell on the wire: the per-(src, dst) sequence number."""

    __slots__ = ("_sender", "_dest", "_seq")

    def __init__(self, sender: int, dest: int, seq: int):
        self._sender = sender
        self._dest = dest
        self._seq = seq

    @property
    def sender(self) -> int:
        return self._sender

    @property
    def dest(self) -> int:
        return self._dest

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def wire_cells(self) -> int:
        return 1

    def entry(self, row: int, col: int):
        if (row, col) == (self._sender, self._dest):
            return self._seq
        return None

    def __repr__(self) -> str:
        return f"FifoStamp({self._sender}->{self._dest} #{self._seq})"


class FifoClock(CausalClock):
    """Per-partner counters only — FIFO channels, no transitive order."""

    __slots__ = ("_size", "_owner", "_sent", "_delivered", "_dirty")

    def __init__(self, size: int, owner: int):
        if size <= 0:
            raise ClockError(f"size must be positive, got {size}")
        if not 0 <= owner < size:
            raise ClockError(f"owner {owner} out of range for size {size}")
        self._size = size
        self._owner = owner
        self._sent: List[int] = [0] * size
        self._delivered: List[int] = [0] * size
        self._dirty = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def owner(self) -> int:
        return self._owner

    def prepare_send(self, dest: int) -> FifoStamp:
        if not 0 <= dest < self._size:
            raise ClockError(f"destination {dest} out of range")
        if dest == self._owner:
            raise ClockError("a process does not stamp messages to itself")
        self._sent[dest] += 1
        self._dirty += 1
        return FifoStamp(self._owner, dest, self._sent[dest])

    def can_deliver(self, stamp: Stamp) -> bool:
        if not isinstance(stamp, FifoStamp):
            raise ClockError(f"expected FifoStamp, got {type(stamp).__name__}")
        return stamp.seq == self._delivered[stamp.sender] + 1

    def is_duplicate(self, stamp: Stamp) -> bool:
        if not isinstance(stamp, FifoStamp):
            raise ClockError(f"expected FifoStamp, got {type(stamp).__name__}")
        return stamp.seq <= self._delivered[stamp.sender]

    def deliver(self, stamp: Stamp) -> None:
        if not self.can_deliver(stamp):
            raise ClockError(f"{stamp!r} not deliverable (FIFO gap)")
        assert isinstance(stamp, FifoStamp)
        self._delivered[stamp.sender] += 1
        self._dirty += 1

    def cell(self, row: int, col: int) -> int:
        if row == self._owner:
            return self._sent[col]
        if col == self._owner:
            return self._delivered[row]
        return 0  # no knowledge about third parties — the whole point

    def dirty_cells(self) -> int:
        return self._dirty

    def clear_dirty(self) -> None:
        self._dirty = 0

    def snapshot(self):
        return {"sent": list(self._sent), "delivered": list(self._delivered)}

    def restore(self, snapshot) -> None:
        if len(snapshot["sent"]) != self._size:
            raise ClockError("snapshot shape does not match clock size")
        self._sent = list(snapshot["sent"])
        self._delivered = list(snapshot["delivered"])
        self._dirty = 0

    def __repr__(self) -> str:
        return f"FifoClock(size={self._size}, owner={self._owner})"
