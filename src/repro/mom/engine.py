"""The Engine: agent execution with atomic, persistent reactions (§3).

"The Engine guarantees the Agents' properties": each notification in the
persistent QueueIN triggers one *reaction*; the reaction's sends are
buffered and committed atomically with the removal of the notification and
the persistence of the agent's state. A crash in the middle of a reaction
therefore rolls back to "never happened" — the notification is still in
QueueIN after recovery and the reaction replays.

The engine runs at most one reaction at a time on the server's processor
(one JVM thread), charging ``agent_reaction_ms`` each.

The engine sits strictly *above* the causal-delivery boundary: by the time
a notification reaches QueueIN, the channel's
:class:`~repro.protocol.core.CausalCore` has already decided deliverability
and merged the domain clock, so reactions never see (or touch) protocol
state — rule R018 (:mod:`repro.analysis.contract`) proves that isolation
statically.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional

from repro.errors import AgentError
from repro.mom.agent import Agent, ReactionContext
from repro.mom.identifiers import AgentId
from repro.mom.payloads import Notification

if TYPE_CHECKING:
    from repro.mom.accounting import BusAccounting
    from repro.mom.server import AgentServer

_BOOT = "__boot__"


class Engine:
    """One server's agent engine. Created by :class:`~repro.mom.server.AgentServer`."""

    def __init__(self, server: AgentServer) -> None:
        self._server = server
        self._agents: Dict[int, Agent] = {}
        # QueueIN, created on its first entry: an idle server has none
        self._queue_in: Optional[Deque[Any]] = None
        self._reacting = False
        # the bus's observer (accounting, or a tracer); set by the bus
        self._obs: Optional["BusAccounting"] = None
        # committed-delivery prefix (ordered nids), observer state: it is
        # not volatile protocol state, so crashes do not wipe it
        self._delivered_log: Optional[List[int]] = (
            [] if server.config.record_delivered_log else None
        )

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(self, agent: Agent) -> AgentId:
        """Install an agent; returns its bus-wide identity. Deployment is
        a boot-time operation (before the simulation starts)."""
        local = len(self._agents)
        agent_id = AgentId(self._server.server_id, local)
        agent._deployed(agent_id)
        self._agents[local] = agent
        self._persist_agent(local)
        return agent_id

    def agent(self, agent_id: AgentId) -> Agent:
        if agent_id.server != self._server.server_id:
            raise AgentError(
                f"{agent_id!r} does not live on server {self._server.server_id}"
            )
        try:
            return self._agents[agent_id.local]
        except KeyError:
            raise AgentError(f"no agent {agent_id!r} deployed") from None

    @property
    def agents(self) -> List[Agent]:
        return [self._agents[k] for k in sorted(self._agents)]

    # ------------------------------------------------------------------
    # QueueIN
    # ------------------------------------------------------------------

    def _append(self, entry: Any) -> None:
        """Append to QueueIN, creating it on the first entry."""
        if self._queue_in is None:
            self._queue_in = deque()
        self._queue_in.append(entry)

    def enqueue(self, notification: Notification) -> None:
        """Append to the persistent QueueIN and schedule processing."""
        self._append(notification)
        if self._obs is not None and self._obs.tracing:
            self._obs.engine_enqueue(self._server.server_id, notification)
        self._persist_queue()
        self._schedule_next()

    def schedule_boot(self, agent_id: AgentId) -> None:
        """Queue the one-shot ``on_boot`` pseudo-reaction of an agent."""
        self._append((_BOOT, agent_id.local))
        self._persist_queue()
        self._schedule_next()

    @property
    def queued(self) -> int:
        return len(self._queue_in) if self._queue_in is not None else 0

    def queued_nids(self) -> List[int]:
        """The notification ids in QueueIN, FIFO order (boot markers carry
        no nid and are excluded)."""
        return [
            entry.nid
            for entry in self._queue_in or ()
            if isinstance(entry, Notification)
        ]

    @property
    def delivered_log(self) -> Optional[List[int]]:
        """Ordered nids of every committed non-boot reaction, or ``None``
        when ``record_delivered_log`` is off."""
        return self._delivered_log

    def _schedule_next(self) -> None:
        if self._reacting or not self._queue_in or self._server.is_crashed:
            return
        self._reacting = True
        epoch = self._server.epoch
        self._server.processor.submit(
            self._server.config.cost_model.agent_reaction_ms,
            self._run_reaction,
            epoch,
        )

    # ------------------------------------------------------------------
    # Reactions
    # ------------------------------------------------------------------

    def _run_reaction(self, epoch: int) -> None:
        """Completion callback: execute and atomically commit one reaction.

        Everything in here happens at a single instant of simulated time —
        the instant the charged reaction duration elapses — which models
        §3's atomic reaction: either all of it (agent state change, sends,
        QueueIN removal) is persisted, or none.
        """
        if epoch != self._server.epoch:
            return  # the server crashed while this reaction was "running"
        self._reacting = False
        queue = self._queue_in
        if not queue:
            return
        head = queue[0]

        if isinstance(head, tuple) and head[0] == _BOOT:
            local = head[1]
            agent = self._agents[local]
            receive_of: Optional[Notification] = None
        else:
            notification = head
            agent = self.agent(notification.target)
            local = notification.target.local
            receive_of = notification

        obs = self._obs
        if obs is not None and obs.tracing:
            obs.engine_reaction_start(self._server.server_id, receive_of)
        ctx = ReactionContext(agent.agent_id, self._server.sim.now)
        if receive_of is None:
            agent.on_boot(ctx)
        else:
            agent.react(ctx, receive_of.sender, receive_of.payload)

        # ---- atomic commit ----
        if receive_of is not None:
            self._server.bus.record_app_receive(receive_of)
        for target, payload in ctx.outbox:
            self._server.bus.dispatch(agent.agent_id, target, payload)
        for delay, target, payload in ctx.timers:
            self._arm_timer(agent.agent_id, delay, target, payload)
        queue.popleft()
        self._persist_queue()
        self._persist_agent(local)
        if receive_of is not None and self._delivered_log is not None:
            self._delivered_log.append(receive_of.nid)
        # ---- end commit ----

        if obs is not None:
            obs.engine_reaction_commit(self._server.server_id, receive_of)
        self._server.metrics.counter("engine.reactions").add()
        self._schedule_next()

    # ------------------------------------------------------------------
    # Timers (volatile delayed sends, see ReactionContext.send_after)
    # ------------------------------------------------------------------

    def _arm_timer(
        self, sender: AgentId, delay: float, target: AgentId, payload: Any
    ) -> None:
        epoch = self._server.epoch
        self._server.sim.schedule_local(
            self._server.server_id,
            delay, self._fire_timer, sender, target, payload, epoch,
        )

    def _fire_timer(
        self, sender: AgentId, target: AgentId, payload: Any, epoch: int
    ) -> None:
        if epoch != self._server.epoch or self._server.is_crashed:
            return  # timers are volatile: crashes drop them
        self._server.bus.dispatch(sender, target, payload)

    # ------------------------------------------------------------------
    # Persistence / recovery
    # ------------------------------------------------------------------

    def _persist_queue(self) -> None:
        # Queue entries (Notifications, boot markers) are immutable; the
        # fresh list shell is a faithful snapshot.
        self._server.store.save(
            "engine.queue_in", list(self._queue_in or ()), owned=True
        )

    def _persist_agent(self, local: int) -> None:
        # Agent.snapshot() hands over a private copy (deepcopy's result).
        self._server.store.save(
            f"engine.agent.{local}", self._agents[local].snapshot(), owned=True
        )

    def on_crash(self) -> None:
        """Drop volatile execution state (queued reactions stay on disk)."""
        self._reacting = False
        if self._queue_in:
            self._queue_in.clear()

    def on_recover(self) -> None:
        """Reload QueueIN and every agent's durable state, then resume."""
        saved = self._server.store.load("engine.queue_in", default=[])
        self._queue_in = deque(saved)
        for local, agent in self._agents.items():
            snapshot = self._server.store.load(f"engine.agent.{local}")
            if snapshot is not None:
                agent.restore(snapshot)
        self._schedule_next()

    def __repr__(self) -> str:
        return (
            f"Engine(server={self._server.server_id}, "
            f"agents={len(self._agents)}, queued={self.queued})"
        )
