"""Exhaustive interleaving exploration: small-scale model checking.

The randomized system tests sample network schedules; this module
*enumerates* them. Given a set of servers running the matrix-clock
protocol and a scripted workload (initial sends plus react-rules), it
explores every admissible order in which the network can present messages
to receivers — the hold-back queue decides delivery — and checks causal
delivery in every reachable execution.

State spaces explode fast, so this is for protocol-kernel validation at
3–5 servers and a handful of messages: exactly the regime where subtle
clock bugs (off-by-one in the RST condition, merge-before-check races)
live. The MOM's channel shares the clock implementation with this checker,
so exhaustive coverage here transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.causality.message import Message
from repro.causality.order import CausalOrder
from repro.causality.trace import Trace
from repro.clocks.base import CausalClock
from repro.clocks.matrix import MatrixClock
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Send:
    """A scripted send: ``src`` sends ``tag`` to ``dst``."""

    src: int
    dst: int
    tag: str


@dataclass
class ExplorationResult:
    """Outcome of an exhaustive run.

    Attributes:
        executions: completed executions (every message delivered).
        violations: executions whose trace broke causal delivery.
        deadlocks: executions that got stuck — undeliverable messages left
            in flight (a liveness bug: a correct clock never deadlocks on
            a loss-free network).
        witness: a violating (or, failing that, deadlocked) trace.
    """

    executions: int
    violations: int
    deadlocks: int
    witness: Optional[Trace]

    @property
    def all_causal(self) -> bool:
        return self.violations == 0 and self.deadlocks == 0


class _State:
    """One node of the execution tree (mutable; cloned on branching)."""

    def __init__(self, size: int, clock_cls: Type[CausalClock]):
        self.clocks = [clock_cls(size, i) for i in range(size)]
        self.in_flight: List[Tuple[int, object, Message]] = []
        self.events: List[Tuple[str, Message]] = []

    def clone(self) -> "_State":
        other = _State.__new__(_State)
        other.clocks = [
            _restore_clock(type(clock), clock) for clock in self.clocks
        ]
        other.in_flight = list(self.in_flight)
        other.events = list(self.events)
        return other


def _restore_clock(clock_cls, clock) -> CausalClock:
    fresh = clock_cls(clock.size, clock.owner)
    fresh.restore(clock.snapshot())
    return fresh


def explore(
    size: int,
    initial_sends: Sequence[Send],
    react: Optional[Callable[[int, str], List[Send]]] = None,
    clock_cls: Type[CausalClock] = MatrixClock,
    max_executions: int = 200_000,
) -> ExplorationResult:
    """Enumerate every admissible delivery interleaving.

    Args:
        size: number of servers (keep small: 3–5).
        initial_sends: sends performed up front, in order, grouped by
            sender (a sender's sends happen in list order).
        react: optional ``(receiver, tag) -> [Send, ...]`` rule fired on
            each delivery, for relay scenarios; returned sends happen
            immediately at the receiver.
        clock_cls: which protocol to check (matrix or updates).
        max_executions: explosion guard.

    Returns:
        An :class:`ExplorationResult`; ``witness`` is a violating trace if
        any execution broke causal order.

    Raises:
        ConfigurationError: when the state space exceeds the guard.
    """
    state = _State(size, clock_cls)
    counter = {"mid": 0, "executions": 0, "violations": 0, "deadlocks": 0}
    witness: List[Optional[Trace]] = [None]

    def do_send(state: _State, send: Send) -> None:
        counter["mid"] += 1
        message = Message(counter["mid"], send.src, send.dst, payload=send.tag)
        stamp = state.clocks[send.src].prepare_send(send.dst)
        state.in_flight.append((send.dst, stamp, message))
        state.events.append(("send", message))

    for send in initial_sends:
        do_send(state, send)

    def finish(state: _State, deadlocked: bool) -> None:
        counter["executions"] += 1
        if counter["executions"] > max_executions:
            raise ConfigurationError(
                f"state space exceeds {max_executions} executions; "
                "shrink the scenario"
            )
        trace = _to_trace(state.events)
        violated = not CausalOrder(trace).respects_causality()
        if deadlocked:
            counter["deadlocks"] += 1
        if violated:
            counter["violations"] += 1
        if (violated or deadlocked) and witness[0] is None:
            witness[0] = trace

    def step(state: _State) -> None:
        deliverable = [
            index
            for index, (dst, stamp, message) in enumerate(state.in_flight)
            if state.clocks[dst].can_deliver(stamp)
        ]
        if not deliverable:
            finish(state, deadlocked=bool(state.in_flight))
            return
        for index in deliverable:
            branch = state.clone()
            dst, stamp, message = branch.in_flight.pop(index)
            branch.clocks[dst].deliver(stamp)
            branch.events.append(("receive", message))
            if react is not None:
                for send in react(dst, message.payload):
                    do_send(branch, send)
            step(branch)

    step(state)
    return ExplorationResult(
        executions=counter["executions"],
        violations=counter["violations"],
        deadlocks=counter["deadlocks"],
        witness=witness[0],
    )


def _to_trace(events: List[Tuple[str, Message]]) -> Trace:
    trace = Trace()
    for kind, message in events:
        if kind == "send":
            trace.record_send(message)
        else:
            trace.record_receive(message)
    return trace
