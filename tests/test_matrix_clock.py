"""Unit tests for full-matrix clocks: the RST delivery test, merging,
duplicates, persistence snapshots."""

import copy
import pickle
import tracemalloc

import pytest

from repro.clocks import MatrixClock
from repro.clocks import matrix as matrix_module
from repro.errors import ClockError
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.topology.builders import bus as bus_topology


def make_group(size):
    return [MatrixClock(size, i) for i in range(size)]


class TestBasics:
    def test_initial_cells_zero(self):
        clock = MatrixClock(3, 0)
        assert all(clock.cell(i, j) == 0 for i in range(3) for j in range(3))

    def test_prepare_send_bumps_own_cell(self):
        clock = MatrixClock(3, 0)
        stamp = clock.prepare_send(2)
        assert clock.cell(0, 2) == 1
        assert stamp.entry(0, 2) == 1
        assert stamp.sender == 0
        assert stamp.dest == 2

    def test_stamp_is_full_matrix(self):
        clock = MatrixClock(5, 0)
        stamp = clock.prepare_send(1)
        assert stamp.wire_cells == 25

    def test_self_send_rejected(self):
        clock = MatrixClock(3, 1)
        with pytest.raises(ClockError):
            clock.prepare_send(1)

    def test_bad_dest_rejected(self):
        clock = MatrixClock(3, 0)
        with pytest.raises(ClockError):
            clock.prepare_send(3)

    def test_bad_owner_rejected(self):
        with pytest.raises(ClockError):
            MatrixClock(3, 5)

    def test_stamp_immutable_after_later_sends(self):
        clock = MatrixClock(3, 0)
        first = clock.prepare_send(1)
        clock.prepare_send(1)
        assert first.entry(0, 1) == 1


class TestDelivery:
    def test_direct_message_deliverable(self):
        a, b, _ = make_group(3)
        stamp = a.prepare_send(1)
        assert b.can_deliver(stamp)
        b.deliver(stamp)
        assert b.cell(0, 1) == 1

    def test_fifo_per_sender(self):
        a, b, _ = make_group(3)
        first = a.prepare_send(1)
        second = a.prepare_send(1)
        assert not b.can_deliver(second)
        b.deliver(first)
        assert b.can_deliver(second)

    def test_causal_transitivity_enforced(self):
        """a→b then b→c: c must hold back b's message until... here b's
        message to c does not mention a's message to c, so it goes through;
        but if a also sent to c *before* messaging b, the knowledge rides
        b's stamp and c must wait."""
        a, b, c = make_group(3)
        to_c = a.prepare_send(2)          # a -> c  (slow message)
        to_b = a.prepare_send(1)          # a -> b
        b.deliver(to_b)                   # b now knows a sent 1 msg to c
        from_b = b.prepare_send(2)        # b -> c
        assert not c.can_deliver(from_b)  # must wait for a's message
        c.deliver(to_c)
        assert c.can_deliver(from_b)
        c.deliver(from_b)

    def test_concurrent_messages_any_order(self):
        a, b, c = make_group(3)
        from_a = a.prepare_send(2)
        from_b = b.prepare_send(2)
        assert c.can_deliver(from_b)
        c.deliver(from_b)
        assert c.can_deliver(from_a)
        c.deliver(from_a)

    def test_deliver_undeliverable_raises(self):
        a, b, _ = make_group(3)
        a.prepare_send(1)
        second = a.prepare_send(1)
        with pytest.raises(ClockError):
            b.deliver(second)

    def test_merge_takes_cellwise_max(self):
        a, b, c = make_group(3)
        a_stamp = a.prepare_send(1)       # a knows (0,1)=1
        b.deliver(a_stamp)
        b_stamp = b.prepare_send(2)       # carries (0,1)=1 and (1,2)=1
        c.deliver(b_stamp)
        assert c.cell(0, 1) == 1
        assert c.cell(1, 2) == 1

    def test_size_mismatch_rejected(self):
        a = MatrixClock(3, 0)
        other = MatrixClock(4, 0)
        stamp = other.prepare_send(1)
        b = MatrixClock(3, 1)
        with pytest.raises(ClockError):
            b.can_deliver(stamp)


class TestDuplicates:
    def test_fresh_message_not_duplicate(self):
        a, b, _ = make_group(3)
        stamp = a.prepare_send(1)
        assert not b.is_duplicate(stamp)

    def test_delivered_message_is_duplicate(self):
        a, b, _ = make_group(3)
        stamp = a.prepare_send(1)
        b.deliver(stamp)
        assert b.is_duplicate(stamp)

    def test_older_retransmission_is_duplicate(self):
        a, b, _ = make_group(3)
        first = a.prepare_send(1)
        second = a.prepare_send(1)
        b.deliver(first)
        b.deliver(second)
        assert b.is_duplicate(first)


class TestPersistence:
    def test_snapshot_restore_roundtrip(self):
        a, b, _ = make_group(3)
        b.deliver(a.prepare_send(1))
        snapshot = b.snapshot()
        fresh = MatrixClock(3, 1)
        fresh.restore(snapshot)
        assert fresh.cell(0, 1) == 1

    def test_snapshot_is_isolated_from_future_mutation(self):
        a, b, _ = make_group(3)
        snapshot = b.snapshot()
        b.deliver(a.prepare_send(1))
        assert snapshot[0][1] == 0

    def test_restore_wrong_shape_rejected(self):
        clock = MatrixClock(3, 0)
        with pytest.raises(ClockError):
            clock.restore([[0, 0], [0, 0]])

    def test_dirty_cell_accounting(self):
        a, b, _ = make_group(3)
        assert a.dirty_cells() == 0
        stamp = a.prepare_send(1)
        assert a.dirty_cells() == 1
        a.clear_dirty()
        assert a.dirty_cells() == 0
        b.deliver(stamp)
        assert b.dirty_cells() == 1  # only (0,1) actually changed

    def test_crash_recovery_preserves_dedup(self):
        """After restore, previously delivered stamps are still duplicates
        — the property channel recovery relies on."""
        a, b, _ = make_group(3)
        stamp = a.prepare_send(1)
        b.deliver(stamp)
        snapshot = b.snapshot()
        recovered = MatrixClock(3, 1)
        recovered.restore(snapshot)
        assert recovered.is_duplicate(stamp)


def _send_and_deliver(clock, peer):
    peer.deliver(clock.prepare_send(peer.owner))
    clock.deliver(peer.prepare_send(clock.owner))


def _via_restore(clock):
    clock.restore(clock.sync_image())
    clock.restore([[0] * clock.size for _ in range(clock.size)])
    return clock


def _via_pickle(clock):
    return pickle.loads(pickle.dumps(clock))


class TestSharedZeroBlock:
    """Fresh clocks of one size share one all-zero buffer copy-on-write;
    whatever one of them does, the others must keep reading zero."""

    SIZE = 4

    def assert_all_zero(self, clocks):
        zero = [[0] * self.SIZE for _ in range(self.SIZE)]
        for clock in clocks:
            assert clock.snapshot() == zero
        assert MatrixClock(self.SIZE, 0).snapshot() == zero

    @pytest.mark.parametrize(
        "derive",
        [lambda c: c, _via_restore, copy.deepcopy, _via_pickle],
        ids=["mutate", "restore", "deepcopy", "pickle"],
    )
    def test_one_clock_writing_leaves_the_others_zero(self, derive):
        bystanders = [MatrixClock(self.SIZE, i % self.SIZE) for i in range(16)]
        clock = derive(MatrixClock(self.SIZE, 0))
        peer = MatrixClock(self.SIZE, 1)
        _send_and_deliver(clock, peer)
        assert clock.cell(0, 1) == 1 and clock.cell(1, 0) == 1
        self.assert_all_zero(bystanders)

    def test_stamp_of_a_first_send_does_not_see_the_zero_block(self):
        clock = MatrixClock(self.SIZE, 0)
        stamp = clock.prepare_send(1)
        assert stamp.entry(0, 1) == 1
        self.assert_all_zero([MatrixClock(self.SIZE, 2)])

    def test_booting_4000_servers_allocates_no_clock_buffers(self):
        # The memory guard: 4 063 (server, domain) clocks of ~63² cells
        # were 133 MiB of private zero-filled buffers; now only the
        # per-size zero blocks exist until a server first stamps or
        # delivers. Per-clock bookkeeping (log list, merge dict, journal
        # set) is a few hundred bytes each and is not a buffer; a 63²
        # buffer is 31 KiB.
        tracemalloc.start()
        try:
            bus = MessageBus(BusConfig(topology=bus_topology(4000)))
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        in_clock_core = snapshot.filter_traces(
            [tracemalloc.Filter(True, matrix_module.__file__)]
        )
        buffers = sum(
            trace.size for trace in in_clock_core.traces if trace.size >= 1024
        )
        assert buffers < 2**20
        # the protocol's nominal state is reported unchanged: s² per member
        assert bus.total_clock_state_cells() == sum(
            domain.size ** 3 for domain in bus.config.topology.domains
        )
