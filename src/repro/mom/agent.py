"""The agent programming model (§3).

"Agents are autonomous reactive objects executing concurrently, and
communicating through an event/reaction pattern. Agents are persistent and
their reaction is atomic."

Subclass :class:`Agent` and implement :meth:`Agent.react`; inside a
reaction, use the :class:`ReactionContext` to send notifications. Sends
are buffered and committed atomically with the reaction (crash before
commit = reaction never happened; the notification is redelivered on
recovery). Agent state that must survive crashes goes through
:meth:`Agent.snapshot` / :meth:`Agent.restore`.
"""

from __future__ import annotations

import abc
import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import AgentError
from repro.mom.identifiers import AgentId

#: Exact types a state copy keeps by reference, as ``deepcopy`` does.
_ATOMIC = frozenset({type(None), bool, int, float, complex, str, bytes, AgentId})
#: Containers of atomic values, each with the C-level copy equal to its
#: ``deepcopy``: a tuple comes back as itself; a set is rebuilt from its
#: element list (``set.copy()`` keeps the table, so may iterate otherwise).
_FLAT = {list: list.copy, dict: dict.copy, tuple: tuple, set: lambda s: set(list(s))}


def _copy_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """Exactly ``copy.deepcopy(state)``, with plain data copied in C:
    a :data:`_FLAT` container of exact :data:`_ATOMIC` keys and values (an
    ``IntEnum`` does not qualify) takes one C-level copy, anything else
    ``copy.deepcopy`` with one memo for the whole state. Fast copies are
    registered in that memo, so aliasing comes out as ``deepcopy``'s."""
    copied: Dict[str, Any] = {}
    memo: Dict[int, Any] = {id(state): copied}
    flat = _ATOMIC.issuperset
    for key, value in state.items():
        kind = type(value)
        if kind in _ATOMIC:
            copied[key] = value
        elif id(value) in memo:
            copied[key] = memo[id(value)]
        elif kind in _FLAT and flat(map(type, value)) and (
            kind is not dict or flat(map(type, value.values()))
        ):
            copied[key] = memo[id(value)] = _FLAT[kind](value)
        else:
            copied[key] = copy.deepcopy(value, memo)
    return copied


class ReactionContext:
    """Facilities available to an agent during one (atomic) reaction."""

    def __init__(self, agent_id: AgentId, now: float):
        self._agent_id = agent_id
        self._now = now
        self._outbox: List[Tuple[AgentId, Any]] = []
        self._timers: List[Tuple[float, AgentId, Any]] = []

    @property
    def my_id(self) -> AgentId:
        """The reacting agent's own identity."""
        return self._agent_id

    @property
    def now(self) -> float:
        """Simulated time at the start of the reaction, in ms."""
        return self._now

    def send(self, target: AgentId, payload: Any) -> None:
        """Send a notification to another agent (buffered; committed
        atomically with the reaction)."""
        if not isinstance(target, AgentId):
            raise AgentError(f"send target must be an AgentId, got {target!r}")
        self._outbox.append((target, payload))

    def send_after(self, delay_ms: float, target: AgentId, payload: Any) -> None:
        """Send a notification ``delay_ms`` after this reaction commits.

        Timers are **volatile**: a crash before the timer fires silently
        drops it (unlike buffered sends, which commit atomically with the
        reaction). Use them for workload pacing, heartbeats, timeouts —
        not for state the application cannot afford to lose.
        """
        if not isinstance(target, AgentId):
            raise AgentError(f"send target must be an AgentId, got {target!r}")
        if delay_ms < 0:
            raise AgentError(f"negative timer delay: {delay_ms}")
        self._timers.append((delay_ms, target, payload))

    @property
    def outbox(self) -> List[Tuple[AgentId, Any]]:
        """The buffered sends of this reaction (read by the engine)."""
        return list(self._outbox)

    @property
    def timers(self) -> List[Tuple[float, AgentId, Any]]:
        """The buffered delayed sends of this reaction (read by the engine)."""
        return list(self._timers)


class Agent(abc.ABC):
    """A persistent reactive object living on one agent server."""

    def __init__(self):
        self._agent_id: Optional[AgentId] = None

    @property
    def agent_id(self) -> AgentId:
        """The identity assigned at deployment."""
        if self._agent_id is None:
            raise AgentError("agent not deployed yet")
        return self._agent_id

    def _deployed(self, agent_id: AgentId) -> None:
        """Called by the engine exactly once, at deployment."""
        if self._agent_id is not None:
            raise AgentError(f"agent already deployed as {self._agent_id!r}")
        self._agent_id = agent_id

    @abc.abstractmethod
    def react(self, ctx: ReactionContext, sender: AgentId, payload: Any) -> None:
        """Handle one notification. Runs atomically; use ``ctx.send``."""

    def on_boot(self, ctx: ReactionContext) -> None:
        """Optional hook run once when the bus starts (e.g. to fire the
        first message of a workload). Same atomicity rules as a reaction."""

    def snapshot(self) -> Any:
        """Durable state; default captures the full ``__dict__`` minus the
        identity, as a private copy equal to ``copy.deepcopy`` of it (see
        :func:`_copy_state`; the engine calls this on every committed
        reaction). Override for leaner or custom persistence."""
        state = {
            key: value
            for key, value in self.__dict__.items()
            if key != "_agent_id"
        }
        return _copy_state(state)

    def restore(self, snapshot: Any) -> None:
        """Reload state saved by :meth:`snapshot` (crash recovery), bound
        as a private copy so later mutation cannot reach the snapshot."""
        for key, value in _copy_state(snapshot).items():
            setattr(self, key, value)


class FunctionAgent(Agent):
    """Wrap a plain function as an agent — handy in tests and examples.

    The function receives ``(ctx, sender, payload)``. Note that closures
    are not persisted; use a proper :class:`Agent` subclass when state
    must survive crashes.
    """

    def __init__(self, fn: Callable[[ReactionContext, AgentId, Any], None]):
        super().__init__()
        self._fn = fn

    def react(self, ctx: ReactionContext, sender: AgentId, payload: Any) -> None:
        self._fn(ctx, sender, payload)

    def snapshot(self) -> Any:
        return None

    def restore(self, snapshot: Any) -> None:
        pass


class EchoAgent(Agent):
    """§6.1's measurement partner: "an agent on each agent server, which
    sends back received messages (ping-pong)". Counts what it echoed."""

    def __init__(self):
        super().__init__()
        self.echoed = 0

    def react(self, ctx: ReactionContext, sender: AgentId, payload: Any) -> None:
        self.echoed += 1
        ctx.send(sender, payload)
