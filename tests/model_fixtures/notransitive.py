"""A seeded-bug candidate core for the model-checker tests.

``NoTransitiveClock``'s delivery test forgets RST's transitive condition
(``W[k][me] <= M[k][me]`` for every other sender ``k``) — the classic
implementation mistake — and its merge records only the sender's FIFO
cell. Per-pair FIFO still holds, so nothing wedges in hold-back, but the
triangle relay (0 → 2 direct, 0 → 1 → 2 relayed) can deliver the relayed
message first. The model checker must reject this core with a
causal-violation witness in both free-send and scripted mode.
"""

from repro.clocks.base import Stamp
from repro.clocks.matrix import MatrixClock, MatrixStamp
from repro.protocol.core import DelegatingCore


class NoTransitiveClock(MatrixClock):
    # R023 (when linted as part of a project): a test fixture, never
    # registered — the model checker loads it from its file path.
    protocol_exempt = "seeded-bug fixture for the model-checker tests"

    def can_deliver(self, stamp: Stamp) -> bool:
        me = self.owner
        sender = stamp.sender
        return stamp.entry(sender, me) == self.cell(sender, me) + 1

    def deliver(self, stamp: Stamp) -> None:
        me = self.owner
        sender = stamp.sender
        # _own_buf: the copy-on-write accessor for the flat cell buffer
        self._own_buf()[sender * self.size + me] = stamp.entry(sender, me)


class NoTransitiveCore(DelegatingCore):
    name = "notransitive"
    clock_cls = NoTransitiveClock
    stamp_cls = MatrixStamp


CORE = NoTransitiveCore()
