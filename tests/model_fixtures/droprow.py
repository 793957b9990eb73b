"""A seeded-bug candidate core for the model-checker tests.

``DropRowClock`` merges like :class:`~repro.clocks.matrix.MatrixClock`
except it *forgets row 0* of every incoming stamp — the classic
copy-paste off-by-one (``range(1, size)`` instead of ``range(size)``).
Row 0 holds what server 0 is known to have sent, so the receiver's view
of server 0's sequence numbers never advances: the second message from
server 0 fails the RST test forever and wedges in hold-back. The model
checker must reject this core with a hold-back-leak counterexample at a
scope as small as n=2 servers, m=2 messages.
"""

from repro.clocks.base import Stamp
from repro.clocks.matrix import MatrixClock, MatrixStamp
from repro.errors import ClockError
from repro.protocol.core import DelegatingCore


class DropRowClock(MatrixClock):
    # R023 (when linted as part of a project): a test fixture, never
    # registered — the model checker loads it from its file path.
    protocol_exempt = "seeded-bug fixture for the model-checker tests"

    def deliver(self, stamp: Stamp) -> None:
        if not self.can_deliver(stamp):
            raise ClockError(f"stamp {stamp} not deliverable")
        size = self._size
        buf = self._own_buf()
        sbuf = stamp._buf
        for row in range(1, size):  # the seeded bug: row 0 is dropped
            for col in range(size):
                idx = row * size + col
                if sbuf[idx] > buf[idx]:
                    buf[idx] = sbuf[idx]


class DropRowCore(DelegatingCore):
    name = "droprow"
    clock_cls = DropRowClock
    stamp_cls = MatrixStamp


CORE = DropRowCore()
