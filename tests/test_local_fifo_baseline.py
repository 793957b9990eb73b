"""The §2 FM-reduction baseline: FIFO-only clocks lose global causality,
exactly as the paper asserts. The exhaustive proof is the model
checker's scenario table (tests/test_model_checker.py); this file covers
the clock and one end-to-end race on the MOM."""

import pytest

from repro.baselines.local_fifo import FifoClock, FifoStamp
from repro.errors import ClockError


class TestFifoClockUnit:
    def test_fifo_within_a_pair(self):
        a = FifoClock(3, 0)
        b = FifoClock(3, 1)
        first = a.prepare_send(1)
        second = a.prepare_send(1)
        assert not b.can_deliver(second)
        b.deliver(first)
        assert b.can_deliver(second)

    def test_one_cell_on_the_wire(self):
        a = FifoClock(5, 0)
        assert a.prepare_send(1).wire_cells == 1

    def test_duplicate_detection(self):
        a = FifoClock(2, 0)
        b = FifoClock(2, 1)
        stamp = a.prepare_send(1)
        assert not b.is_duplicate(stamp)
        b.deliver(stamp)
        assert b.is_duplicate(stamp)

    def test_snapshot_roundtrip(self):
        a = FifoClock(3, 0)
        a.prepare_send(1)
        fresh = FifoClock(3, 0)
        fresh.restore(a.snapshot())
        assert fresh.cell(0, 1) == 1

    def test_self_send_rejected(self):
        with pytest.raises(ClockError):
            FifoClock(3, 1).prepare_send(1)

    def test_undeliverable_rejected(self):
        a = FifoClock(2, 0)
        b = FifoClock(2, 1)
        a.prepare_send(1)
        second = a.prepare_send(1)
        with pytest.raises(ClockError):
            b.deliver(second)


class TestFifoInTheMom:
    def test_booting_the_mom_with_fifo_clocks_loses_causality(self):
        """End to end: clock_algorithm="fifo" runs fine mechanically but a
        relay race slips past it — the same race the matrix clock blocks
        (compare tests/test_theorem.py's acyclic control)."""
        from repro.mom import BusConfig, FunctionAgent, MessageBus
        from repro.mom.agent import Agent
        from repro.topology import single_domain

        class Relay(Agent):
            def __init__(self):
                super().__init__()
                self.next_hop = None

            def react(self, ctx, sender, payload):
                ctx.send(self.next_hop, payload)

        mom = MessageBus(
            BusConfig(topology=single_domain(3), clock_algorithm="fifo")
        )
        order = []
        sink = FunctionAgent(lambda ctx, s, p: order.append(p))
        sink_id = mom.deploy(sink, 2)
        relay = Relay()
        relay_id = mom.deploy(relay, 1)
        relay.next_hop = sink_id
        starter = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx):
            ctx.send(sink_id, "n-direct")
            ctx.send(relay_id, "m-chain")

        starter.on_boot = boot
        mom.deploy(starter, 0)
        # delay the direct link so the relayed copy wins the race
        mom.network.partition(0, 2)
        mom.sim.schedule_at(400.0, mom.network.heal, 0, 2)
        mom.start()
        mom.run_until_idle()

        assert order == ["m-chain", "n-direct"]
        assert not mom.check_app_causality().respects_causality

    def test_matrix_clock_blocks_the_same_race(self):
        """Control: identical schedule, real clock — no violation."""
        from repro.mom import BusConfig, FunctionAgent, MessageBus
        from repro.mom.agent import Agent
        from repro.topology import single_domain

        class Relay(Agent):
            def __init__(self):
                super().__init__()
                self.next_hop = None

            def react(self, ctx, sender, payload):
                ctx.send(self.next_hop, payload)

        mom = MessageBus(BusConfig(topology=single_domain(3)))
        order = []
        sink = FunctionAgent(lambda ctx, s, p: order.append(p))
        sink_id = mom.deploy(sink, 2)
        relay = Relay()
        relay_id = mom.deploy(relay, 1)
        relay.next_hop = sink_id
        starter = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx):
            ctx.send(sink_id, "n-direct")
            ctx.send(relay_id, "m-chain")

        starter.on_boot = boot
        mom.deploy(starter, 0)
        mom.network.partition(0, 2)
        mom.sim.schedule_at(400.0, mom.network.heal, 0, 2)
        mom.start()
        mom.run_until_idle()

        assert order == ["n-direct", "m-chain"], (
            "the matrix clock must hold the relayed copy back"
        )
        assert mom.check_app_causality().respects_causality
