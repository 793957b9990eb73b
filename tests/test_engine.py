"""Engine-level tests: reaction scheduling, boot ordering, multi-agent
interleaving, persistence of QueueIN and of agent snapshots."""

import copy
import enum
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AgentError
from repro.mom import BusConfig, FunctionAgent, MessageBus
from repro.mom.agent import Agent, EchoAgent
from repro.mom.identifiers import AgentId
from repro.mom.workloads import BroadcastDriver
from repro.topology import single_domain


class Logger(Agent):
    def __init__(self, log, tag):
        super().__init__()
        self.log = log
        self.tag = tag

    def on_boot(self, ctx):
        self.log.append((self.tag, "boot", ctx.now))

    def react(self, ctx, sender, payload):
        self.log.append((self.tag, payload, ctx.now))

    def snapshot(self):
        return None

    def restore(self, snapshot):
        pass


class TestBootOrdering:
    def test_boot_hooks_run_in_deployment_order(self):
        mom = MessageBus(BusConfig(topology=single_domain(1)))
        log = []
        for tag in ("a", "b", "c"):
            mom.deploy(Logger(log, tag), 0)
        mom.start()
        mom.run_until_idle()
        assert [entry[0] for entry in log] == ["a", "b", "c"]

    def test_boot_sends_ordered_before_later_reactions(self):
        mom = MessageBus(BusConfig(topology=single_domain(1)))
        log = []
        receiver = Logger(log, "rx")
        receiver_id = mom.deploy(receiver, 0)

        sender = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx):
            ctx.send(receiver_id, "first")
            ctx.send(receiver_id, "second")

        sender.on_boot = boot
        mom.deploy(sender, 0)
        mom.start()
        mom.run_until_idle()
        payloads = [entry[1] for entry in log if entry[0] == "rx"]
        assert payloads == ["boot", "first", "second"]


class TestReactionScheduling:
    def test_one_reaction_at_a_time_per_server(self):
        """Reactions on a server never overlap: each starts after the
        previous one's charged duration."""
        mom = MessageBus(BusConfig(topology=single_domain(1)))
        log = []
        a = Logger(log, "a")
        b = Logger(log, "b")
        a_id = mom.deploy(a, 0)
        b_id = mom.deploy(b, 0)
        kicker = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx):
            for _ in range(3):
                ctx.send(a_id, "ping")
                ctx.send(b_id, "ping")

        kicker.on_boot = boot
        mom.deploy(kicker, 0)
        mom.start()
        mom.run_until_idle()
        reaction_times = sorted(entry[2] for entry in log)
        cost = mom.config.cost_model.agent_reaction_ms
        for earlier, later in zip(reaction_times, reaction_times[1:]):
            assert later - earlier >= cost - 1e-9

    def test_interleaving_is_fifo_across_agents_of_one_server(self):
        mom = MessageBus(BusConfig(topology=single_domain(1)))
        log = []
        a_id = mom.deploy(Logger(log, "a"), 0)
        b_id = mom.deploy(Logger(log, "b"), 0)
        kicker = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx):
            ctx.send(a_id, 1)
            ctx.send(b_id, 2)
            ctx.send(a_id, 3)

        kicker.on_boot = boot
        mom.deploy(kicker, 0)
        mom.start()
        mom.run_until_idle()
        reactions = [
            (tag, payload) for tag, payload, _ in log if payload != "boot"
        ]
        assert reactions == [("a", 1), ("b", 2), ("a", 3)]

    def test_unknown_target_agent_raises(self):
        mom = MessageBus(BusConfig(topology=single_domain(2)))
        bad = FunctionAgent(lambda ctx, s, p: None)
        # server 1 exists but has no agent 5
        bad.on_boot = lambda ctx: ctx.send(AgentId(1, 5), "void")
        mom.deploy(bad, 0)
        mom.start()
        with pytest.raises(AgentError):
            mom.run_until_idle()

    def test_reaction_exception_carries_context(self):
        mom = MessageBus(BusConfig(topology=single_domain(1)))

        def explode(ctx, sender, payload):
            raise AgentError("boom")

        bomb = FunctionAgent(explode)
        bomb_id = mom.deploy(bomb, 0)
        kicker = FunctionAgent(lambda ctx, s, p: None)
        kicker.on_boot = lambda ctx: ctx.send(bomb_id, "x")
        mom.deploy(kicker, 0)
        mom.start()
        with pytest.raises(AgentError, match="boom"):
            mom.run_until_idle()


class TestQueuePersistence:
    def test_queue_in_survives_crash_with_pending_work(self):
        mom = MessageBus(BusConfig(topology=single_domain(1)))
        log = []
        slow = Logger(log, "slow")
        slow_id = mom.deploy(slow, 0)
        kicker = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx):
            for i in range(5):
                ctx.send(slow_id, i)

        kicker.on_boot = boot
        mom.deploy(kicker, 0)
        mom.start()
        # crash while several reactions are still queued
        mom.sim.schedule_at(3.5, lambda: mom.server(0).crash())
        mom.sim.schedule_at(50.0, lambda: mom.server(0).recover())
        mom.run_until_idle()
        payloads = [p for tag, p, _ in log if tag == "slow" and p != "boot"]
        assert payloads == [0, 1, 2, 3, 4]


class Phase(enum.IntEnum):
    IDLE = 0
    BUSY = 1


class Keeper(Agent):
    """Keeps every payload in a list and a dict (default persistence)."""

    def __init__(self):
        super().__init__()
        self.items = []
        self.table = {}

    def react(self, ctx, sender, payload):
        self.items.append(payload)
        self.table[payload] = ctx.now


class Holder(Agent):
    """An agent whose state is whatever the test binds to it."""

    def react(self, ctx, sender, payload):
        pass


def _holder(**state):
    agent = Holder()
    agent.__dict__.update(state)
    return agent


def _same(left, right):
    """Equal values, types, container order and aliasing: pickle writes
    each of them, and a shared object as a back-reference."""
    return pickle.dumps(left) == pickle.dumps(right)


def _kept_bus(payloads):
    """A Keeper on server 0 that has committed one reaction per payload."""
    mom = MessageBus(BusConfig(topology=single_domain(2)))
    keeper = Keeper()
    keeper_id = mom.deploy(keeper, 0)
    kicker = FunctionAgent(lambda ctx, s, p: None)

    def boot(ctx):
        for payload in payloads:
            ctx.send(keeper_id, payload)

    kicker.on_boot = boot
    mom.deploy(kicker, 1)
    mom.start()
    mom.run_until_idle()
    return mom, keeper


def _bounce(mom, server_id=0):
    mom.server(server_id).crash()
    mom.server(server_id).recover()


class TestAgentSnapshots:
    def test_agent_ids_are_values(self):
        agent_id = AgentId(1, 2)
        assert copy.deepcopy(agent_id) is agent_id
        assert copy.copy(agent_id) is agent_id
        assert copy.deepcopy([agent_id])[0] is agent_id

    def test_mutation_after_commit_does_not_reach_the_store(self):
        mom, keeper = _kept_bus(["a", "b"])
        stored = mom.server(0).store.load("engine.agent.0")
        keeper.items.append("late")
        keeper.table["late"] = -1.0
        assert mom.server(0).store.load("engine.agent.0") == stored
        assert stored["items"] == ["a", "b"]
        assert set(stored["table"]) == {"a", "b"}

    def test_mutating_restored_state_spares_the_next_recovery(self):
        mom, keeper = _kept_bus(["a", "b"])
        _bounce(mom)
        assert keeper.items == ["a", "b"]
        keeper.items.append("volatile")
        keeper.table.clear()
        _bounce(mom)
        assert keeper.items == ["a", "b"]
        assert set(keeper.table) == {"a", "b"}

    def test_attributes_bound_to_one_list_stay_one_list(self):
        shared = [1, 2]
        agent = _holder(first=shared, second=shared)
        snapshot = agent.snapshot()
        assert snapshot["first"] is snapshot["second"]
        assert snapshot["first"] is not shared
        agent.restore(snapshot)
        assert agent.first is agent.second
        assert agent.first is not snapshot["first"]

    @pytest.mark.parametrize("flat_first", [True, False])
    def test_flat_list_reachable_from_nested_dict_stays_shared(self, flat_first):
        flat = [AgentId(0, 1), "x"]
        nested = {"flat": flat, "deep": [[1]]}
        state = (
            {"flat": flat, "nested": nested}
            if flat_first
            else {"nested": nested, "flat": flat}
        )
        snapshot = _holder(**state).snapshot()
        assert snapshot["nested"]["flat"] is snapshot["flat"]
        assert snapshot["flat"] is not flat
        assert _same(snapshot, copy.deepcopy(state))

    def test_mixed_state_snapshot_equals_deepcopy(self):
        inner = [3, 4]
        state = {
            "nested": [[1, 2], inner, {"k": inner}],
            "phase": Phase.BUSY,
            "phases": [Phase.IDLE, Phase.BUSY],
            "pair": ([5], "y"),
            "flat_pair": (1, "z", None),
            "ids": {AgentId(0, 0): 1.5, AgentId(2, 1): 2.5},
            # set.copy() of this set iterates 65, 1, 129 on CPython 3.11;
            # deepcopy's rebuild from the element list iterates 65, 129, 1
            "seen": set((1, 65, 129)),
            "blob": b"raw",
            "count": 7,
        }
        snapshot = _holder(**state).snapshot()
        assert _same(snapshot, copy.deepcopy(state))
        assert type(snapshot["phase"]) is Phase
        assert snapshot["pair"][0] is not state["pair"][0]
        assert snapshot["flat_pair"] is state["flat_pair"]

    def test_broadcast_driver_recovers_its_last_commit(self):
        mom = MessageBus(BusConfig(topology=single_domain(4)))
        targets = [mom.deploy(EchoAgent(), server) for server in (1, 2, 3)]
        driver = BroadcastDriver(3)
        driver.bind(targets)
        mom.deploy(driver, 0)
        mom.start()
        # step until the first round is part-way through: some echoes
        # committed, some still out
        while driver._pending != 1:
            assert mom.sim.run(max_events=1) == 1
        committed = copy.deepcopy(
            (driver.targets, driver.round_times, driver._pending)
        )
        mom.server(0).crash()
        # whatever happens in memory while down is lost on recovery
        driver.targets.append(AgentId(3, 9))
        driver.round_times.append(-1.0)
        driver._pending = 99
        mom.server(0).recover()
        assert (driver.targets, driver.round_times, driver._pending) == committed
        mom.run_until_idle()
        assert driver.completed == 3
        assert len(driver.round_times) == 3


_ATOM = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 1 << 40),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.builds(AgentId, st.integers(0, 3), st.integers(0, 3)),
    st.sampled_from(list(Phase)),
)
_VALUE = st.recursive(
    _ATOM,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(
            st.one_of(st.integers(0, 9), st.text(max_size=2)), inner, max_size=4
        ),
        st.sets(st.integers(-3, 1 << 20), max_size=6),
    ),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_VALUE, min_size=1, max_size=6), st.data())
def test_snapshot_is_deepcopy_with_its_aliasing(values, data):
    """Any state whose attributes share objects at random, bound directly
    or inside a list or dict, gets exactly ``deepcopy``'s result, from
    ``snapshot`` and from ``restore``."""
    pick = st.integers(0, len(values) - 1)
    shapes = data.draw(
        st.lists(st.tuples(st.sampled_from("vld"), pick, pick), min_size=2, max_size=8)
    )
    state = {}
    for index, (shape, first, second) in enumerate(shapes):
        if shape == "v":
            value = values[first]
        elif shape == "l":
            value = [values[first], values[second]]
        else:
            value = {"x": values[first], "y": values[second]}
        state[f"a{index}"] = value
    agent = _holder(**state)
    assert _same(agent.snapshot(), copy.deepcopy(state))
    agent.restore(state)
    restored = {name: getattr(agent, name) for name in state}
    assert _same(restored, copy.deepcopy(state))
