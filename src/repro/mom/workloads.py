"""The §6.1 measurement protocol, as agents.

"We have created an agent on each agent server, which sends back received
messages (ping-pong). Messages are sent by a main agent on server 0, which
computes the round-trip average time for 100 sends. We did three series of
tests: unicast on the local server, unicast on a remote server, broadcast
on all servers."

The echo partner is :class:`repro.mom.agent.EchoAgent`; the two main
agents here drive the unicast and broadcast series. Round counts are
configurable — with the default constant-latency network the simulation is
deterministic, so a handful of rounds already yields the exact mean the
paper needed 100 noisy rounds for.

These drivers are ordinary agents with no dependency on the bench harness,
so they live in :mod:`repro.mom` (the scenario runner needs them too).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import ConfigurationError
from repro.mom.agent import Agent, ReactionContext
from repro.mom.identifiers import AgentId


class PingPongDriver(Agent):
    """The main agent of the unicast series: sends a ping, waits for the
    echo, repeats; records per-round round-trip times."""

    def __init__(self, rounds: int):
        super().__init__()
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds
        self.target: Optional[AgentId] = None
        self.completed = 0
        self.rtts: List[float] = []
        self._round_started = 0.0

    def bind(self, target: AgentId) -> None:
        """Point the driver at its echo partner (call before the bus starts)."""
        self.target = target

    def on_boot(self, ctx: ReactionContext) -> None:
        if self.target is None:
            raise ConfigurationError("PingPongDriver.bind() was never called")
        self._round_started = ctx.now
        ctx.send(self.target, 0)

    def react(self, ctx: ReactionContext, sender: AgentId, payload: Any) -> None:
        assert self.target is not None  # on_boot already enforced bind()
        self.rtts.append(ctx.now - self._round_started)
        self.completed += 1
        if self.completed < self.rounds:
            self._round_started = ctx.now
            ctx.send(self.target, self.completed)

    @property
    def mean_rtt(self) -> float:
        if not self.rtts:
            raise ConfigurationError("no completed rounds yet")
        return sum(self.rtts) / len(self.rtts)


class OpenLoopDriver(Agent):
    """Open-loop load generator: sends to its target every ``period_ms``,
    regardless of whether previous messages were delivered — the standard
    way to measure delivery latency under load (saturation shows up as a
    growing gap between send rate and service rate).

    Pacing uses the engine's volatile timers (``ctx.send_after``)."""

    _TICK = "__open_loop_tick__"

    def __init__(self, period_ms: float, count: int):
        super().__init__()
        if period_ms <= 0:
            raise ConfigurationError(f"period must be > 0, got {period_ms}")
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        self.period_ms = period_ms
        self.count = count
        self.target: Optional[AgentId] = None
        self.sent = 0
        self.started_at = 0.0

    def bind(self, target: AgentId) -> None:
        self.target = target

    def on_boot(self, ctx: ReactionContext) -> None:
        if self.target is None:
            raise ConfigurationError("OpenLoopDriver.bind() was never called")
        self.started_at = ctx.now
        self._fire(ctx)

    def react(self, ctx: ReactionContext, sender: AgentId, payload: Any) -> None:
        if payload == self._TICK:
            self._fire(ctx)

    def _fire(self, ctx: ReactionContext) -> None:
        assert self.target is not None  # on_boot already enforced bind()
        # The payload carries the *intended* send instant of this message
        # (the open-loop schedule), so the sink can measure true sojourn
        # time including any sender-side queueing the load causes.
        intended = self.started_at + self.sent * self.period_ms
        ctx.send(self.target, intended)
        self.sent += 1
        if self.sent < self.count:
            # pace against the absolute schedule so per-tick reaction costs
            # do not accumulate as drift
            next_intended = self.started_at + self.sent * self.period_ms
            ctx.send_after(max(0.0, next_intended - ctx.now), ctx.my_id, self._TICK)


class SinkAgent(Agent):
    """The passive end of the open-loop experiment: records, per message,
    the sojourn time from intended send to delivery."""

    def __init__(self):
        super().__init__()
        self.received = 0
        self.sojourn_ms: List[float] = []

    def react(self, ctx: ReactionContext, sender: AgentId, payload: Any) -> None:
        if payload != OpenLoopDriver._TICK:
            self.received += 1
            self.sojourn_ms.append(ctx.now - payload)


class BroadcastDriver(Agent):
    """The main agent of the broadcast series: each round sends one message
    to an echo agent on *every* server and waits for all echoes before
    starting the next round; records per-round completion times."""

    def __init__(self, rounds: int):
        super().__init__()
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds
        self.targets: List[AgentId] = []
        self.completed = 0
        self.round_times: List[float] = []
        self._pending = 0
        self._round_started = 0.0

    def bind(self, targets: List[AgentId]) -> None:
        """Set the echo partners, one per server."""
        if not targets:
            raise ConfigurationError("broadcast needs at least one target")
        self.targets = list(targets)

    def on_boot(self, ctx: ReactionContext) -> None:
        if not self.targets:
            raise ConfigurationError("BroadcastDriver.bind() was never called")
        self._start_round(ctx)

    def _start_round(self, ctx: ReactionContext) -> None:
        self._round_started = ctx.now
        self._pending = len(self.targets)
        for target in self.targets:
            ctx.send(target, self.completed)

    def react(self, ctx: ReactionContext, sender: AgentId, payload: Any) -> None:
        self._pending -= 1
        if self._pending > 0:
            return
        self.round_times.append(ctx.now - self._round_started)
        self.completed += 1
        if self.completed < self.rounds:
            self._start_round(ctx)

    @property
    def mean_round_time(self) -> float:
        if not self.round_times:
            raise ConfigurationError("no completed rounds yet")
        return sum(self.round_times) / len(self.round_times)
