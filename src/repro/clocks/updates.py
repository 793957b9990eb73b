"""The **Updates** optimized matrix-clock algorithm (Appendix A).

Instead of shipping the full s×s matrix on every message, each server keeps,
per matrix cell, the local *modification state* (a per-server counter of
clock modifications) and, per destination, the state value at the previous
send to that destination. A stamp then carries only the cells modified since
the previous send to the same destination — minus the cells whose current
value was learned *from* that destination, which it necessarily already
knows (the ``Mat[k,l].node ≠ j`` filter of Appendix A).

Wire format aside, delivery semantics are identical to the classic
full-matrix algorithm: the Raynal–Schiper–Toueg test decides deliverability
and delivery max-merges the shipped cells. Two facts make the test sound on
deltas:

- the cell ``(sender, me)`` is always in the delta (it is bumped by the very
  send being stamped), so the FIFO condition is directly checkable;
- any cell *absent* from the delta was already shipped to us by an earlier
  message from the same sender (or learned from us); the FIFO condition
  guarantees those earlier messages were delivered first, so our local
  matrix already dominates the absent cells and the ``W[k][me] <= M[k][me]``
  comparisons only need to run over delta cells.

The paper notes (§3) that even with this optimization the message size is
still O(s²) *in the worst case* — e.g. a server that was silent for a long
time ships almost everything it learned meanwhile — which is why domains are
needed on top of it; §4.1 combines both.

Hot-path representation. ``value``/``cstate``/``origin`` live in flat
row-major ``array('q')`` buffers, and ``prepare_send`` no longer scans all
s² cells per send: modifications are appended to ``_changes``, a list of
``(state, cell_index)`` pairs kept sorted by state (each modification uses
a strictly larger state, and within one delivery cells arrive in ascending
index order). The delta for a destination with high-water mark *h* is the
suffix of entries with ``state > h`` — exactly the cells whose current
``cstate`` exceeds *h*, because a cell's latest modification is always its
rightmost appearance. The suffix is deduplicated, sorted by cell index
(reproducing the seed's row-major emission order bit for bit), and filtered
by the no-echo rule. When the list outgrows ``4·s²`` entries it is rebuilt
from the ``cstate`` buffer (one entry per modified cell), which preserves
all suffix queries and bounds memory at O(s²). The stamp wire content is
byte-identical to the seed implementation for every schedule — the
differential tests in ``tests/test_differential_clocks.py`` pin this.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.clocks.base import CausalClock, Stamp
from repro.errors import ClockError

_CHANGES_MIN = 64


@dataclass(frozen=True)
class CellUpdate:
    """One shipped matrix cell: ``Mat[row][col] = value`` at the sender."""

    row: int
    col: int
    value: int


class UpdatesImage:
    """A persistence image of the full Appendix-A state, flat buffers.

    Produced by :meth:`UpdatesClock.sync_image` and accepted by
    :meth:`UpdatesClock.restore`. Deep-copiable (the store's ``load`` path).
    """

    __slots__ = ("size", "value", "cstate", "origin", "sent_state", "state")

    def __init__(
        self,
        size: int,
        value: array,
        cstate: array,
        origin: array,
        sent_state: array,
        state: int,
    ) -> None:
        self.size = size
        self.value = value
        self.cstate = cstate
        self.origin = origin
        self.sent_state = sent_state
        self.state = state

    def __deepcopy__(self, memo: object) -> "UpdatesImage":
        return UpdatesImage(
            self.size,
            array("q", self.value),
            array("q", self.cstate),
            array("q", self.origin),
            array("q", self.sent_state),
            self.state,
        )

    def __repr__(self) -> str:
        return f"UpdatesImage(size={self.size}, state={self.state})"


class UpdateStamp(Stamp):
    """A delta stamp: only the cells modified since the last send to
    the same destination."""

    __slots__ = ("_sender", "_dest", "_updates", "_index")

    def __init__(self, sender: int, dest: int, updates: Tuple[CellUpdate, ...]) -> None:
        self._sender = sender
        self._dest = dest
        self._updates = updates
        self._index: Optional[Dict[Tuple[int, int], int]] = None

    @property
    def sender(self) -> int:
        return self._sender

    @property
    def dest(self) -> int:
        """Domain-local index of the destination server."""
        return self._dest

    @property
    def updates(self) -> Tuple[CellUpdate, ...]:
        return self._updates

    @property
    def wire_cells(self) -> int:
        """Cells actually serialized — the quantity the optimization shrinks."""
        return len(self._updates)

    def entry(self, row: int, col: int) -> Optional[int]:
        """Value shipped for cell ``(row, col)``, or ``None`` if not shipped."""
        index = self._index
        if index is None:
            index = {(u.row, u.col): u.value for u in self._updates}
            self._index = index
        return index.get((row, col))

    def __repr__(self) -> str:
        return (
            f"UpdateStamp(sender={self._sender}, dest={self._dest}, "
            f"cells={len(self._updates)})"
        )


class UpdatesClock(CausalClock):
    """Matrix clock with Appendix-A delta propagation.

    State per Appendix A:

    - ``State`` — the local modification counter (``self._state``);
    - ``Mat[k][l] = (value, state, node)`` — cell value, the local ``State``
      at its last modification, and the peer the value was learned from
      (``owner`` itself for cells it bumped);
    - ``Node[j].state`` — the local ``State`` at the previous send to ``j``
      (``self._sent_state``), the per-destination high-water mark.
    """

    __slots__ = (
        "_size",
        "_owner",
        "_value",
        "_cstate",
        "_origin",
        "_sent_state",
        "_state",
        "_changes",
        "_dirty",
        "_journal",
        "_journal_sent",
        "_journal_full",
        "_image",
        "stat_window_merges",
        "stat_full_merges",
    )

    def __init__(self, size: int, owner: int) -> None:
        if size <= 0:
            raise ClockError(f"matrix clock size must be positive, got {size}")
        if not 0 <= owner < size:
            raise ClockError(f"owner {owner} out of range for size {size}")
        self._size = size
        self._owner = owner
        cells = size * size
        self._value = array("q", bytes(8 * cells))
        self._cstate = array("q", bytes(8 * cells))
        self._origin = array("q", [owner]) * cells
        self._sent_state = array("q", bytes(8 * size))
        self._state = 0
        # (state, cell_index) per modification, sorted ascending; the
        # suffix with state > h is exactly the set of cells whose cstate
        # exceeds h. Rebuilt (deduplicated) from _cstate when oversized.
        self._changes: List[Tuple[int, int]] = []
        self._dirty = 0
        self._journal: set = set()
        self._journal_sent: set = set()
        self._journal_full = True
        self._image: Optional[UpdatesImage] = None
        # merge-strategy tallies (read by repro.metrics' collector): every
        # Appendix-A delivery replays only shipped cells, i.e. window-like
        self.stat_window_merges = 0
        self.stat_full_merges = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def owner(self) -> int:
        return self._owner

    def cell(self, row: int, col: int) -> int:
        return self._value[row * self._size + col]

    def _check_peer(self, index: int, what: str) -> None:
        if not 0 <= index < self._size:
            raise ClockError(
                f"{what} index {index} out of range for domain of size {self._size}"
            )

    def _compact_changes(self) -> None:
        cells = self._size * self._size
        if len(self._changes) <= max(_CHANGES_MIN, 4 * cells):
            return
        cstate = self._cstate
        self._changes = sorted(
            (cstate[idx], idx) for idx in range(cells) if cstate[idx] > 0
        )

    def prepare_send(self, dest: int) -> UpdateStamp:
        """Record a send to ``dest`` and build the delta stamp.

        Appendix A, "Sending from Si to Sj": bump ``Mat[i][j]``, then ship
        every cell with ``state > Node[j].state`` whose value was not
        learned from ``j``, and advance ``Node[j].state``.
        """
        self._check_peer(dest, "destination")
        if dest == self._owner:
            raise ClockError("a server does not stamp messages to itself")
        me = self._owner
        size = self._size
        self._compact_changes()
        self._state += 1
        state = self._state
        idx = me * size + dest
        self._value[idx] += 1
        self._cstate[idx] = state
        self._origin[idx] = me
        self._changes.append((state, idx))
        self._journal.add(idx)
        self._dirty += 1

        high_water = self._sent_state[dest]
        # All entries with state > high_water; (high_water, size*size) sorts
        # after every real (high_water, idx) pair since idx < size*size.
        pos = bisect_right(self._changes, (high_water, size * size))
        touched = sorted({idx for _, idx in self._changes[pos:]})
        value = self._value
        origin = self._origin
        updates = tuple(
            CellUpdate(idx // size, idx % size, value[idx])
            for idx in touched
            if origin[idx] != dest
        )
        self._sent_state[dest] = state
        self._journal_sent.add(dest)
        return UpdateStamp(me, dest, updates)

    def can_deliver(self, stamp: Stamp) -> bool:
        """RST test evaluated on the delta (see module docstring for why
        delta cells suffice)."""
        if not isinstance(stamp, UpdateStamp):
            raise ClockError(f"expected UpdateStamp, got {type(stamp).__name__}")
        me = self._owner
        sender = stamp.sender
        self._check_peer(sender, "sender")
        shipped = stamp.entry(sender, me)
        if shipped is None:
            raise ClockError(
                f"malformed delta stamp from {sender}: missing its own "
                f"({sender}, {me}) send-count cell"
            )
        size = self._size
        value = self._value
        if shipped != value[sender * size + me] + 1:
            return False
        return all(
            update.value <= value[update.row * size + me]
            for update in stamp.updates
            if update.col == me and update.row != sender
        )

    def is_duplicate(self, stamp: Stamp) -> bool:
        if not isinstance(stamp, UpdateStamp):
            raise ClockError(f"expected UpdateStamp, got {type(stamp).__name__}")
        self._check_peer(stamp.sender, "sender")
        shipped = stamp.entry(stamp.sender, self._owner)
        if shipped is None:
            raise ClockError(
                f"malformed delta stamp from {stamp.sender}: missing its own "
                f"send-count cell"
            )
        return shipped <= self._value[stamp.sender * self._size + self._owner]

    def deliver(self, stamp: Stamp) -> None:
        """Apply a deliverable delta: max-merge every shipped cell.

        Appendix A, "Receiving on Si from Sj": cells that grow are
        re-stamped with the receiver's own ``State`` (so they propagate
        onward) and tagged as learned from the sender (so they are not
        echoed straight back).
        """
        if not self.can_deliver(stamp):
            raise ClockError(
                f"stamp {stamp} not deliverable at server {self._owner}; "
                "call can_deliver first and hold the message back"
            )
        assert isinstance(stamp, UpdateStamp)
        self._compact_changes()
        size = self._size
        sender = stamp.sender
        value = self._value
        cstate = self._cstate
        origin = self._origin
        changes = self._changes
        journal = self._journal
        self._state += 1
        state = self._state
        self.stat_window_merges += 1
        # stamp.updates is in ascending cell-index order, so these appends
        # keep _changes sorted.
        for update in stamp.updates:
            idx = update.row * size + update.col
            if update.value > value[idx]:
                value[idx] = update.value
                cstate[idx] = state
                origin[idx] = sender
                changes.append((state, idx))
                journal.add(idx)
                self._dirty += 1

    def dirty_cells(self) -> int:
        return self._dirty

    def clear_dirty(self) -> None:
        self._dirty = 0

    def snapshot(self) -> dict:
        size = self._size

        def rows(buf: array) -> List[List[int]]:
            return [list(buf[r * size : (r + 1) * size]) for r in range(size)]

        return {
            "value": rows(self._value),
            "cstate": rows(self._cstate),
            "origin": rows(self._origin),
            "sent_state": list(self._sent_state),
            "state": self._state,
        }

    def sync_image(self) -> UpdatesImage:
        """Return the persistence image, patched with journaled cells.

        Same contract as :meth:`MatrixClock.sync_image`: the channel stores
        the returned object as owned, the clock retains it and patches only
        the cells modified since the previous call.
        """
        image = self._image
        if image is None or self._journal_full:
            image = UpdatesImage(
                self._size,
                array("q", self._value),
                array("q", self._cstate),
                array("q", self._origin),
                array("q", self._sent_state),
                self._state,
            )
            self._image = image
            self._journal_full = False
        else:
            value = self._value
            cstate = self._cstate
            origin = self._origin
            for idx in self._journal:
                image.value[idx] = value[idx]
                image.cstate[idx] = cstate[idx]
                image.origin[idx] = origin[idx]
            sent = self._sent_state
            for dest in self._journal_sent:
                image.sent_state[dest] = sent[dest]
            image.state = self._state
        self._journal.clear()
        self._journal_sent.clear()
        return image

    def restore(self, snapshot: Union[UpdatesImage, dict]) -> None:
        if isinstance(snapshot, UpdatesImage):
            if snapshot.size != self._size:
                raise ClockError("snapshot shape does not match clock size")
            self._value = array("q", snapshot.value)
            self._cstate = array("q", snapshot.cstate)
            self._origin = array("q", snapshot.origin)
            self._sent_state = array("q", snapshot.sent_state)
            self._state = snapshot.state
        else:
            value = snapshot["value"]
            if len(value) != self._size or any(
                len(row) != self._size for row in value
            ):
                raise ClockError("snapshot shape does not match clock size")

            def flat(rows: List[List[int]]) -> array:
                out: List[int] = []
                for row in rows:
                    out.extend(row)
                return array("q", out)

            self._value = flat(value)
            self._cstate = flat(snapshot["cstate"])
            self._origin = flat(snapshot["origin"])
            self._sent_state = array("q", snapshot["sent_state"])
            self._state = snapshot["state"]
        cstate = self._cstate
        self._changes = sorted(
            (cstate[idx], idx)
            for idx in range(self._size * self._size)
            if cstate[idx] > 0
        )
        self._dirty = 0
        self._journal.clear()
        self._journal_sent.clear()
        self._journal_full = True
        self._image = None

    def __repr__(self) -> str:
        return (
            f"UpdatesClock(size={self._size}, owner={self._owner}, "
            f"state={self._state})"
        )
