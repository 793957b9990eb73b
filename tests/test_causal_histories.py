"""Tests for the explicit-causal-histories baseline ([10] family)."""

import pytest

from repro.baselines.causal_histories import HistoryClock, HistoryStamp
from repro.errors import ClockError


class TestUnit:
    def test_fifo_within_a_pair(self):
        a = HistoryClock(3, 0)
        b = HistoryClock(3, 1)
        first = a.prepare_send(1)
        second = a.prepare_send(1)
        assert second.deps  # the second message depends on the first
        assert not b.can_deliver(second)
        b.deliver(first)
        assert b.can_deliver(second)

    def test_transitive_dependency_enforced(self):
        a = HistoryClock(3, 0)
        b = HistoryClock(3, 1)
        c = HistoryClock(3, 2)
        to_c = a.prepare_send(2)
        to_b = a.prepare_send(1)
        b.deliver(to_b)
        from_b = c_stamp = b.prepare_send(2)
        assert not c.can_deliver(from_b), "must wait for a's message to c"
        c.deliver(to_c)
        assert c.can_deliver(from_b)

    def test_duplicate_detection(self):
        a = HistoryClock(2, 0)
        b = HistoryClock(2, 1)
        stamp = a.prepare_send(1)
        b.deliver(stamp)
        assert b.is_duplicate(stamp)

    def test_history_grows_without_feedback(self):
        """One-way traffic: every new message carries the whole past —
        the growth problem [10]'s separators exist to prune."""
        a = HistoryClock(2, 0)
        sizes = [a.prepare_send(1).wire_cells for _ in range(6)]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_feedback_prunes_history(self):
        """Ping-pong: replies teach each side what the other has seen, so
        steady-state stamps stay small."""
        a = HistoryClock(2, 0)
        b = HistoryClock(2, 1)
        for _ in range(6):
            b.deliver(a.prepare_send(1))
            a.deliver(b.prepare_send(0))
        assert a.prepare_send(1).wire_cells <= 4

    def test_snapshot_roundtrip(self):
        a = HistoryClock(3, 0)
        b = HistoryClock(3, 1)
        stamp = a.prepare_send(1)
        b.deliver(stamp)
        fresh = HistoryClock(3, 1)
        fresh.restore(b.snapshot())
        assert fresh.is_duplicate(stamp)
        assert fresh.cell(0, 1) == 1

    def test_undeliverable_rejected(self):
        a = HistoryClock(2, 0)
        b = HistoryClock(2, 1)
        a.prepare_send(1)
        second = a.prepare_send(1)
        with pytest.raises(ClockError):
            b.deliver(second)

    def test_self_send_rejected(self):
        with pytest.raises(ClockError):
            HistoryClock(3, 1).prepare_send(1)


class TestInTheMom:
    def test_mom_runs_causally_on_history_clocks(self):
        """Plugged into the bus through its registered core, the history
        clock passes the same end-to-end audit as the matrix clock — the
        CausalClock interface is a real plug point."""
        from repro.mom import BusConfig, FunctionAgent, MessageBus
        from repro.simulation.network import UniformLatency
        from repro.topology import single_domain

        config3 = BusConfig(
            topology=single_domain(4),
            clock_algorithm="histories",
            seed=3,
            latency=UniformLatency(0.1, 20.0),
        )
        mom = MessageBus(config3)
        order = []
        sink = FunctionAgent(lambda ctx, s, p: order.append(p))
        sink_id = mom.deploy(sink, 3)
        sender = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx):
            for i in range(8):
                ctx.send(sink_id, i)

        sender.on_boot = boot
        mom.deploy(sender, 0)
        mom.start()
        mom.run_until_idle()
        assert order == list(range(8))
        assert mom.check_app_causality().respects_causality
