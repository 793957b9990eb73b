"""Matrix clocks with full-matrix stamps — the classic AAA algorithm (§3).

Cell ``M[i][j]`` on a server counts, to that server's knowledge, how many
messages server *i* has sent to server *j*. The owner's own row is always
exact for its own sends; other rows reflect transitively learned knowledge
("what A knows about what B knows about C", §1).

A message from *s* to *r* is stamped with the sender's full matrix (after
bumping ``M[s][r]``). The receiver applies the Raynal–Schiper–Toueg test:

- ``W[s][r] == M[r-local][s][r] + 1`` — the message is the next expected
  from *s* (per-sender FIFO towards *r*), and
- ``W[k][r] <= M[r-local][k][r]`` for every ``k != s`` — every message the
  sender knew to be en route to *r* has already been delivered at *r*.

Together these guarantee causal delivery within the group covered by the
clock; in the paper's architecture that group is one *domain of causality*
(§4.1), so the clock size is s² for a domain of s servers — the quantity the
whole paper is about shrinking.

Hot-path representation. The matrix lives in one row-major ``array('q')``
(cell ``(i, j)`` at index ``i * size + j``) instead of nested Python lists,
and the wall-clock optimizations below ride on it, so that time and
memory follow the cells a server actually touches rather than s² — none
of which changes a single protocol decision, stamp content, or dirty-cell
count (the differential tests in ``tests/test_differential_clocks.py``
pin this):

- **Copy-on-write stamps.** ``prepare_send`` hands the stamp the live
  buffer and marks the clock *shared*; the next mutation copies the buffer
  first. A send costs O(1) instead of materializing s² tuples, yet stamps
  stay frozen across retransmissions exactly as the recovery protocol
  requires.
- **Shared-zero allocation.** A fresh clock points at one immutable
  all-zero buffer per size and is born *shared*, so the same
  copy-on-write path gives it a private buffer on its first mutation; a
  server that never talks in a domain allocates nothing for it. The
  invariant that makes both safe: **nobody writes a buffer without
  ``_own_buf()``**.
- **Column test in C.** The RST test compares column ``me`` of the two
  matrices as strided ``array`` slices (``buf[me::size]``) instead of
  one Python iteration per row.
- **Change-log window merges.** Every cell mutation is appended to a log,
  one flat ``array('q')`` of interleaved ``(cell index, new value)``
  pairs (16 bytes per entry); a stamp captures the log, its length and
  its epoch at stamp time. A receiver remembers, per sender, the log
  position it last merged; delivering the next stamp from that sender
  only replays the log window in between — O(cells that actually
  changed). Cells outside the window are provably already dominated:
  per-sender FIFO delivery (guaranteed by the RST test) means the
  previous stamp from this sender was merged first, and matrix cells
  only ever grow. Any log discontinuity (first contact, a restore or log
  trim, which rebind the log and bump its epoch, a stamp built without a
  log) falls back to the always-correct full merge, which skips every
  row whose slice already equals the receiver's and walks only the
  differing rows.
- **Journaled persistence images.** The clock tracks which cells changed
  since the last ``sync_image`` call and patches them into a retained
  image instead of re-copying the whole matrix; ``restore`` invalidates
  the journal so the next sync rebuilds from scratch. An image is sparse
  (its non-zero cells by flat index) until it holds more than s²/16 of
  them, then dense: a clock that learned a few cells persists a few
  cells' worth of memory, not s².
"""

from __future__ import annotations

from array import array
from operator import gt
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.clocks.base import CausalClock, Stamp
from repro.errors import ClockError

# A clock's change log is trimmed once it exceeds max(_LOG_MIN, 4 * s²)
# entries (two array slots each); outstanding stamps keep the old array
# alive, and the epoch bump makes every receiver fall back to one full
# merge.
_LOG_MIN = 64

# One all-zero buffer per clock size, shared by every clock that has not
# mutated yet. Nobody may write it: a fresh clock is born ``_shared`` and
# every in-place writer goes through ``MatrixClock._own_buf()``.
_ZERO_BLOCKS: Dict[int, array] = {}


def _zero_block(size: int) -> array:
    block = _ZERO_BLOCKS.get(size)
    if block is None:
        block = _ZERO_BLOCKS[size] = array("q", bytes(8 * size * size))
    return block


class MatrixImage:
    """A persistence image of an s×s clock: its non-zero cells by flat
    index (``cells``) while there are at most s²/16 of them, the dense
    flat buffer (``dense``) after that.

    Produced by :meth:`MatrixClock.sync_image` and accepted by
    :meth:`MatrixClock.restore`. Deep-copiable (the store's ``load`` path).
    """

    __slots__ = ("size", "cells", "dense")

    def __init__(
        self,
        size: int,
        dense: Optional[array] = None,
        cells: Optional[Dict[int, int]] = None,
    ) -> None:
        self.size = size
        self.dense = dense
        self.cells = cells

    @property
    def buf(self) -> array:
        """The flat row-major buffer, as a fresh array."""
        if self.dense is not None:
            return array("q", self.dense)
        buf = array("q", _zero_block(self.size))
        for idx, value in (self.cells or {}).items():
            buf[idx] = value
        return buf

    def patch(self, buf: array, journal: Set[int]) -> None:
        """Copy the ``journal`` cells of the clock buffer ``buf`` in;
        past s²/16 cells the image turns dense (then it equals ``buf``)."""
        if self.dense is not None:
            dense = self.dense
            for idx in journal:
                dense[idx] = buf[idx]
            return
        cells = self.cells
        assert cells is not None
        for idx in journal:
            cells[idx] = buf[idx]
        if 16 * len(cells) > self.size * self.size:
            self.dense = array("q", buf)
            self.cells = None

    def __deepcopy__(self, memo: object) -> "MatrixImage":
        if self.dense is not None:
            return MatrixImage(self.size, dense=array("q", self.dense))
        return MatrixImage(self.size, cells=dict(self.cells or {}))

    def __repr__(self) -> str:
        return f"MatrixImage(size={self.size})"


class MatrixStamp(Stamp):
    """A full s×s matrix timestamp (the un-optimized wire format).

    ``wire_cells`` is s² regardless of how many cells changed — this is the
    O(n²) message-size term of §3 that motivates both the Updates algorithm
    (Appendix A) and the domain decomposition.

    The stamp shares the sender clock's buffer copy-on-write: the clock
    never mutates a buffer a stamp can see. ``_log``/``_log_len``/
    ``_log_epoch`` capture the sender's change log (its flat pair array
    and that array's length) at stamp time for the receiver's window
    merge.
    """

    __slots__ = (
        "_sender", "_dest", "_size", "_buf", "_log", "_log_len", "_log_epoch"
    )

    def __init__(
        self,
        sender: int,
        dest: int,
        size: int,
        buf: array,
        log: Optional[array] = None,
        log_len: int = 0,
        log_epoch: int = -1,
    ) -> None:
        self._sender = sender
        self._dest = dest
        self._size = size
        self._buf = buf
        self._log = log
        self._log_len = log_len
        self._log_epoch = log_epoch

    @property
    def sender(self) -> int:
        return self._sender

    @property
    def dest(self) -> int:
        """Domain-local index of the destination server."""
        return self._dest

    @property
    def wire_cells(self) -> int:
        return self._size * self._size

    def entry(self, row: int, col: int) -> int:
        return self._buf[row * self._size + col]

    @property
    def size(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"MatrixStamp(sender={self._sender}, dest={self._dest}, "
            f"size={self._size})"
        )


class MatrixClock(CausalClock):
    """One server's matrix clock for one domain (full-stamp variant)."""

    __slots__ = (
        "_size",
        "_owner",
        "_buf",
        "_shared",
        "_log",
        "_log_epoch",
        "_merged",
        "_dirty",
        "_journal",
        "_journal_complete",
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
        # Born sharing the all-zero block: a server that never stamps or
        # delivers in this domain allocates no s² buffer at all.
        self._buf = _zero_block(size)
        self._shared = True
        # Append-only mutation log of interleaved (cell_index, new_value)
        # pairs; replaced (new array, epoch bumped) on trim or restore,
        # which receivers detect by epoch mismatch and answer with a full
        # merge. The epoch (not object identity) travels with each stamp,
        # so the detection works across process boundaries where stamps
        # arrive pickled.
        self._log = array("q")
        self._log_epoch = 0
        # Per-sender merge positions: sender -> (log epoch, merged length).
        self._merged: dict = {}
        self._dirty = 0
        self._journal: Set[int] = set()
        # until a restore, the journal since birth lists every cell that
        # left zero, so the first image is built from it alone
        self._journal_complete = True
        self._image: Optional[MatrixImage] = None
        # merge-strategy tallies (read by repro.metrics' collector; plain
        # ints so the clock stays free of upward dependencies)
        self.stat_window_merges = 0
        self.stat_full_merges = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def owner(self) -> int:
        return self._owner

    def cell(self, row: int, col: int) -> int:
        return self._buf[row * self._size + col]

    def _check_peer(self, index: int, what: str) -> None:
        if not 0 <= index < self._size:
            raise ClockError(
                f"{what} index {index} out of range for domain of size {self._size}"
            )

    def _own_buf(self) -> array:
        """Copy-on-write: detach from any outstanding stamp (or the shared
        zero block) before mutating. The only way to a writable buffer."""
        if self._shared:
            self._buf = array("q", self._buf)
            self._shared = False
        return self._buf

    def _trim_log(self) -> None:
        if len(self._log) > 2 * max(_LOG_MIN, 4 * self._size * self._size):
            self._log = array("q")
            self._log_epoch += 1

    def prepare_send(self, dest: int) -> MatrixStamp:
        """Record a send to ``dest`` and return the full-matrix stamp."""
        self._check_peer(dest, "destination")
        if dest == self._owner:
            raise ClockError("a server does not stamp messages to itself")
        self._trim_log()
        buf = self._own_buf()
        idx = self._owner * self._size + dest
        value = buf[idx] + 1
        buf[idx] = value
        log = self._log
        log.append(idx)
        log.append(value)
        self._journal.add(idx)
        self._dirty += 1
        self._shared = True
        return MatrixStamp(
            self._owner, dest, self._size, buf, log, len(log),
            self._log_epoch,
        )

    def can_deliver(self, stamp: Stamp) -> bool:
        if not isinstance(stamp, MatrixStamp):
            raise ClockError(f"expected MatrixStamp, got {type(stamp).__name__}")
        if stamp.size != self._size:
            raise ClockError(
                f"stamp size {stamp.size} does not match clock size {self._size}"
            )
        me = self._owner
        sender = stamp.sender
        self._check_peer(sender, "sender")
        size = self._size
        # Column ``me`` of both matrices as strided copies, compared in C.
        # Bumping the sender's row of our copy turns the FIFO condition
        # into equality there, which also masks that row out of the
        # "nothing newer en route" comparison of the remaining rows.
        col = self._buf[me::size]
        scol = stamp._buf[me::size]
        col[sender] += 1
        if scol[sender] != col[sender]:
            return False
        return scol == col or not any(map(gt, scol, col))

    def is_duplicate(self, stamp: Stamp) -> bool:
        if not isinstance(stamp, MatrixStamp):
            raise ClockError(f"expected MatrixStamp, got {type(stamp).__name__}")
        self._check_peer(stamp.sender, "sender")
        idx = stamp.sender * self._size + self._owner
        return stamp._buf[idx] <= self._buf[idx]

    def deliver(self, stamp: Stamp) -> None:
        """Merge a deliverable stamp: ``M := max(M, W)`` cellwise."""
        if not self.can_deliver(stamp):
            raise ClockError(
                f"stamp {stamp} not deliverable at server {self._owner}; "
                "call can_deliver first and hold the message back"
            )
        sender = stamp.sender
        last = self._merged.get(sender)
        window: Optional[dict] = None
        if (
            last is not None
            and stamp._log is not None
            and last[0] == stamp._log_epoch
            and last[1] <= stamp._log_len
        ):
            # Window merge: only cells the sender changed between its
            # previous stamp to anyone and this one. Dedupe to the last
            # value per cell so a twice-bumped cell counts dirty once,
            # exactly like the cellwise full merge would.
            seg = stamp._log[last[1] : stamp._log_len]
            window = dict(zip(seg[::2], seg[1::2]))
        self._trim_log()
        buf = self._own_buf()
        record = self._log.append
        journal = self._journal
        dirty = 0
        if window is not None:
            self.stat_window_merges += 1
        else:
            self.stat_full_merges += 1
        if window is not None:
            for idx, value in window.items():
                if value > buf[idx]:
                    buf[idx] = value
                    record(idx)
                    record(value)
                    journal.add(idx)
                    dirty += 1
        else:
            # Full merge, row by row: a row whose slice already equals
            # ours (compared in C) holds nothing to learn; only differing
            # rows are walked, in the same ascending cell order.
            sbuf = stamp._buf
            size = self._size
            for base in range(0, size * size, size):
                srow = sbuf[base : base + size]
                if srow == buf[base : base + size]:
                    continue
                for idx, value in enumerate(srow, base):
                    if value > buf[idx]:
                        buf[idx] = value
                        record(idx)
                        record(value)
                        journal.add(idx)
                        dirty += 1
        self._dirty += dirty
        if stamp._log is not None:
            self._merged[sender] = (stamp._log_epoch, stamp._log_len)

    def dirty_cells(self) -> int:
        return self._dirty

    def clear_dirty(self) -> None:
        self._dirty = 0

    def snapshot(self) -> List[List[int]]:
        size = self._size
        buf = self._buf
        return [list(buf[row * size : (row + 1) * size]) for row in range(size)]

    def sync_image(self) -> MatrixImage:
        """Return the persistence image, patched with journaled cells.

        The caller (the channel) hands the returned object to the store as
        an owned value; the clock retains it and patches only the cells
        that changed since the previous call, so persisting after a
        delivery costs O(changed cells) wall-clock. The simulated-time
        cost of the write is still charged by the cost model, unchanged.
        """
        image = self._image
        if image is None:
            if self._journal_complete:
                image = MatrixImage(self._size, cells={})
                image.patch(self._buf, self._journal)
            else:  # restored: any cell may be non-zero
                image = MatrixImage(self._size, dense=array("q", self._buf))
            self._image = image
        else:
            image.patch(self._buf, self._journal)
        self._journal.clear()
        return image

    def restore(
        self, snapshot: Union[MatrixImage, List[List[int]]]
    ) -> None:
        if isinstance(snapshot, MatrixImage):
            if snapshot.size != self._size:
                raise ClockError("snapshot shape does not match clock size")
            self._buf = snapshot.buf
        else:
            if len(snapshot) != self._size or any(
                len(row) != self._size for row in snapshot
            ):
                raise ClockError("snapshot shape does not match clock size")
            flat: List[int] = []
            for row in snapshot:
                flat.extend(row)
            self._buf = array("q", flat)
        self._shared = False
        self._log = array("q")
        self._log_epoch += 1
        self._merged.clear()
        self._dirty = 0
        self._journal.clear()
        self._journal_complete = False
        self._image = None

    def __repr__(self) -> str:
        return f"MatrixClock(size={self._size}, owner={self._owner})"
