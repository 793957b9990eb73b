"""Unit tests for the discrete-event kernel and the processor model."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import Processor, Simulator


class TestSimulator:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run_until_idle()
        assert fired == ["early", "late"]
        assert sim.now == 5.0

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "first")
        sim.schedule(1.0, fired.append, "second")
        sim.run_until_idle()
        assert fired == ["first", "second"]

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "no")
        handle.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_run_until_bound_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "at")
        sim.schedule(3.0, fired.append, "after")
        sim.run(until=2.0)
        assert fired == ["at"]
        assert sim.now == 2.0
        sim.run_until_idle()
        assert fired == ["at", "after"]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run_until_idle()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run_until_idle()
        assert len(errors) == 1

    def test_run_until_idle_guards_against_storms(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.1, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_max_events_run_returns_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.run() == 2

    def test_duplicate_arrival_key_raises(self):
        sim = Simulator()
        sim.schedule_arrival(1.0, 2, 3, 7, lambda: None)
        with pytest.raises(
            SimulationError, match=r"duplicate event key \(1\.0, 2, 2, 3, 7\)"
        ):
            sim.schedule_arrival(1.0, 2, 3, 7, lambda: None)
        # the refused push is undone: one event left, and it fires
        assert sim.pending == 1
        assert sim.run() == 1

    def test_duplicate_key_found_only_by_a_pop_raises(self):
        """The second twin's push never meets the first (its sift path
        runs through an earlier event), so the tie surfaces on a pop."""
        sim = Simulator()
        fired = []
        sim.schedule_at(0.0, fired.append, "a")
        sim.schedule_at(1.0, fired.append, "b")
        sim.schedule_arrival(3.0, 0, 1, 0, fired.append, "twin")
        sim.schedule_arrival(3.0, 0, 1, 0, fired.append, "twin")
        with pytest.raises(SimulationError, match="duplicate event key"):
            sim.run()


#: (kind, time, owner-or-dst, src, cancelled) — few owners and times, so
#: keys collide on every prefix the bands allow
_OPS = st.lists(
    st.tuples(
        st.sampled_from(("setup", "local", "arrival")),
        st.sampled_from((0.0, 1.0, 2.5)),
        st.integers(0, 2),
        st.integers(0, 2),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def _schedule(sim, ops, fire):
    """Schedule ``ops`` through the three heap entry points, calling
    ``fire(index)``; returns ``{index: key}`` of the events left live."""
    setup_seq, local_seq, link_seq = Counter(), Counter(), Counter()
    live = {}
    for index, (kind, time, owner, src, cancelled) in enumerate(ops):
        if kind == "setup":
            key = (time, 0, owner, setup_seq[owner], 0)
            setup_seq[owner] += 1
            handle = sim.schedule_setup(time, owner, fire, index)
        elif kind == "local":
            key = (time, 1, owner, local_seq[owner], 0)
            local_seq[owner] += 1
            handle = sim.schedule_local_at(owner, time, fire, index)
        else:
            key = (time, 2, owner, src, link_seq[owner, src])
            link_seq[owner, src] += 1
            handle = sim.schedule_arrival(time, owner, src, key[4], fire, index)
        if cancelled:
            handle.cancel()
        else:
            live[index] = key
    return live


class TestEventOrderProperty:
    """The kernel's contract: live events fire in sorted-key order, and
    cancelled ones never do, whatever the mix of bands and owners."""

    @settings(max_examples=100, deadline=None)
    @given(_OPS)
    def test_run_fires_in_sorted_key_order(self, ops):
        sim = Simulator()
        fired = []
        live = _schedule(sim, ops, fired.append)
        assert sim.run() == len(live)
        assert fired == sorted(live, key=live.get)
        assert sim.processed_events == len(fired)
        assert sim.pending == 0

    @settings(max_examples=100, deadline=None)
    @given(_OPS, st.sampled_from((0.0, 1.0, 2.0, 2.5, 3.0)))
    def test_run_window_stops_strictly_below_bound(self, ops, bound):
        sim = Simulator()
        fired = []
        live = _schedule(sim, ops, fired.append)
        order = sorted(live, key=live.get)
        assert sim.run_window(bound) == len(fired)
        assert fired == [i for i in order if live[i][0] < bound]
        assert sim.processed_events == len(fired)
        # the earliest live event left, skipping cancelled heads
        left = [live[i][0] for i in order if live[i][0] >= bound]
        assert sim.next_event_time() == (left[0] if left else math.inf)

    @settings(max_examples=100, deadline=None)
    @given(_OPS, st.integers(0, 39))
    def test_processed_counts_fired_when_a_callback_raises(self, ops, boom):
        sim = Simulator()
        fired = []

        def fire(index):
            if index == boom:
                raise RuntimeError("boom")
            fired.append(index)

        live = _schedule(sim, ops, fire)
        order = sorted(live, key=live.get)
        if boom in live:
            with pytest.raises(RuntimeError, match="boom"):
                sim.run()
            assert fired == order[: order.index(boom)]
            assert sim.processed_events == len(fired)
        sim.run()
        assert fired == [i for i in order if i != boom]
        assert sim.processed_events == len(fired)


class TestProcessor:
    def test_work_serializes(self):
        sim = Simulator()
        cpu = Processor(sim)
        finished = []
        cpu.submit(10.0, lambda: finished.append(sim.now))
        cpu.submit(5.0, lambda: finished.append(sim.now))
        sim.run_until_idle()
        assert finished == [10.0, 15.0]

    def test_idle_gap_is_not_charged(self):
        sim = Simulator()
        cpu = Processor(sim)
        done = []
        cpu.submit(1.0, lambda: done.append(sim.now))
        sim.run_until_idle()
        sim.schedule(10.0, lambda: cpu.submit(1.0, lambda: done.append(sim.now)))
        sim.run_until_idle()
        assert done == [1.0, 12.0]
        assert cpu.busy_total == 2.0

    def test_halted_processor_rejects_work(self):
        sim = Simulator()
        cpu = Processor(sim)
        cpu.halt()
        with pytest.raises(SimulationError):
            cpu.submit(1.0, lambda: None)

    def test_resume_discards_old_occupancy(self):
        sim = Simulator()
        cpu = Processor(sim)
        cpu.submit(100.0, lambda: None)
        cpu.halt()
        cpu.resume()
        done = []
        cpu.submit(1.0, lambda: done.append(sim.now))
        sim.run(until=2.0)
        assert done == [1.0]

    def test_negative_duration_rejected(self):
        sim = Simulator()
        cpu = Processor(sim)
        with pytest.raises(SimulationError):
            cpu.submit(-1.0, lambda: None)
