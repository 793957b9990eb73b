"""Sharded-parallel bus execution, bit-identical to sequential.

:func:`make_bus` is the front door: given a :class:`BusConfig` it returns
either a classic sequential :class:`~repro.mom.bus.MessageBus` or a
:class:`ShardedBus` that runs one event kernel per server shard in forked
worker processes under conservative (LBTS + lookahead) synchronization —
see ``docs/parallel.md`` for the full argument. The observable results —
traces, causality verdicts, metrics snapshots, ``cost_snapshot()`` bytes —
are **identical** in both modes; parallelism only changes wall-clock time.

Eligibility (anything else falls back to sequential, silently):

- the latency model is deterministic (``ConstantLatency``) with
  ``min_ms > 0`` — the lookahead of the conservative sync;
- ``loss_rate == 0`` — loss draws would be consumed in shard-dependent
  order;
- the shard plan yields at least two non-empty shards (multi-domain
  topology, at least two workers requested);
- the platform supports the ``fork`` start method (agents and scripted
  payloads are shipped to workers by memory inheritance, not pickling).

The :class:`ShardedBus` mirrors the scripting surface of the sequential
bus (``deploy`` / ``schedule_send`` / ``schedule_crash`` /
``schedule_partition`` / ``start`` / ``run`` / ``run_until_idle``) and its
read surface (``metrics``, ``accounting``, ``app_trace``,
``check_app_causality``, ``cost_snapshot``, ``total_*``, ``stats_table``).
Workers replay only the script entries owned by their local servers, in
recorded order, so every per-owner event-key counter matches the
sequential kernel exactly; after each run the parent gathers worker state
and rebuilds the merged registries/traces from scratch (worker state is
cumulative, so re-merging stays idempotent).
"""

from __future__ import annotations

import math
import multiprocessing
import os
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.causality.checker import (
    CausalityReport,
    check_all_domains,
    check_trace,
)
from repro.causality.trace import Trace
from repro.errors import ConfigurationError, SimulationError
from repro.metrics.registry import Registry
from repro.mom.accounting import accounting_enabled
from repro.mom.agent import Agent
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.mom.identifiers import AgentId
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.shard import ShardContext
from repro.simulation.sync import ShardCoordinator, serve
from repro.simulation.telemetry import (
    CoordinatorTelemetry,
    WorkerTelemetry,
)
from repro.simulation.telemetry import enabled as telemetry_enabled
from repro.simulation.telemetry import merged as merge_telemetry
from repro.topology.graph import validate_topology
from repro.topology.shardplan import ShardPlan, build_shard_plan, lookahead_ms

AnyBus = Union[MessageBus, "ShardedBus"]

#: Script entry tags (primitive, per-owner replayable — docs/parallel.md).
_SEND = "send"
_CRASH = "crash"
_PARTITION = "partition"


def resolve_mode(config: BusConfig) -> Tuple[str, int]:
    """The effective (mode, workers) after the ``REPRO_PARALLEL`` override.

    ``REPRO_PARALLEL``: ``0``/``off``/``no``/``false`` force sequential,
    ``auto`` enables auto-selection with the config's (or the machine's)
    worker count, an integer enables auto-selection with that many
    workers. Unset defers to ``config.parallel`` / ``config.workers``.
    """
    workers = config.workers or os.cpu_count() or 1
    env = os.environ.get("REPRO_PARALLEL")
    if env is not None:
        value = env.strip().lower()
        if value in ("", "0", "off", "no", "false"):
            return ("off", 0)
        if value == "auto":
            return ("auto", workers)
        try:
            count = int(value)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_PARALLEL must be 'off', 'auto' or an integer, "
                f"got {env!r}"
            ) from None
        return ("auto", count) if count > 1 else ("off", 0)
    if config.parallel == "off":
        return ("off", 0)
    return ("auto", workers)


def shard_eligibility(
    config: BusConfig, workers: int
) -> Tuple[Optional[ShardPlan], str]:
    """``(plan, reason)``: a usable shard plan, or ``(None, why-not)``."""
    latency = config.latency_model()
    if not latency.deterministic:
        return None, "latency model draws randomness per packet"
    if latency.min_ms <= 0:
        return None, "zero minimum latency leaves no lookahead"
    if config.loss_rate:
        return None, "packet loss draws randomness per packet"
    if workers < 2:
        return None, "fewer than two workers requested"
    if "fork" not in multiprocessing.get_all_start_methods():
        return None, "platform lacks the fork start method"
    plan = build_shard_plan(config.topology, workers)
    if plan.worker_count < 2:
        return None, "topology shards into a single worker"
    return plan, "eligible"


def make_bus(config: BusConfig) -> AnyBus:
    """Build the right bus for ``config``: sharded when enabled *and*
    eligible, the classic sequential :class:`MessageBus` otherwise."""
    mode, workers = resolve_mode(config)
    if mode == "off":
        return MessageBus(config)
    plan, _reason = shard_eligibility(config, workers)
    if plan is None:
        return MessageBus(config)
    return ShardedBus(config, plan)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _worker_main(
    conn: Any,
    config: BusConfig,
    shard_id: int,
    members: Any,
    deployments: List[Tuple[int, Agent]],
    script: List[tuple],
) -> None:
    """Entry point of one forked shard worker.

    Builds an ordinary :class:`MessageBus` restricted to ``members``,
    re-deploys the (memory-inherited) local agents in global deployment
    order, replays the locally-owned script entries in recorded order —
    reproducing the sequential kernel's per-owner event keys — then serves
    the coordinator's grant/collect loop.
    """
    bus = MessageBus(config, shard=ShardContext(shard_id, members))
    for server_id, agent in deployments:
        if server_id in members:
            # this is the fork's private copy; re-deploying re-assigns the
            # identical (server, per-server-index) id the parent computed
            agent._agent_id = None
            bus.deploy(agent, server_id)
    for entry in script:
        kind = entry[0]
        if kind == _SEND:
            _, at, sender, target, payload = entry
            if sender.server in members:
                bus.schedule_send(at, sender, target, payload)
        elif kind == _CRASH:
            _, at, server_id, down_for = entry
            if server_id in members:
                bus.schedule_crash(at, server_id, down_for)
        elif kind == _PARTITION:
            _, at, first, second, duration = entry
            for owner in (first, second):
                if owner in members:
                    bus.sim.schedule_setup(
                        at, owner, bus.network.partition, first, second
                    )
                    bus.sim.schedule_setup(
                        at + duration, owner, bus.network.heal, first, second
                    )
        else:  # pragma: no cover - parent and worker share this module
            raise ConfigurationError(f"unknown script entry {kind!r}")
    bus.start()
    worker_telemetry = (
        WorkerTelemetry(shard_id) if telemetry_enabled() else None
    )
    serve(
        conn,
        bus.sim,
        bus.network,
        lambda tag: _collect_state(bus),
        telemetry=worker_telemetry,
        flight=lambda exc: _flight_payload(bus, exc),
    )


def _flight_payload(
    bus: MessageBus, exc: BaseException
) -> Optional[Dict[str, Any]]:
    """The worker's crash flight record, shipped over the pipe.

    mom cannot import the obs layer (R006), so everything goes through
    the duck-typed tracer handle: ``dump()`` writes the full artifact
    directory from inside the worker when it can; the raw ring rows ride
    the pipe regardless, so the coordinator can still write an
    ``events.jsonl`` even when the worker-side dump failed. Returns
    ``None`` when tracing is off or autodumps are disabled."""
    if os.environ.get("REPRO_OBS_AUTODUMP", "1") == "0":
        return None
    tracer = getattr(bus, "_obs_tracer", None)
    record: Optional[Dict[str, Any]] = None
    if tracer is not None:
        path: Optional[str] = None
        try:
            path = tracer.dump("shard-worker-crash")
        except Exception:
            path = None  # unwritable tempdir: the rows still ship
        rows: List[Dict[str, Any]] = [
            {
                "record": "meta",
                "now": bus.sim.now,
                "capacity": tracer.ring.capacity,
                "next_seq": tracer.ring.next_seq,
                "dropped": tracer.ring.dropped,
                "server_ids": sorted(bus.servers),
                "domains": {d: list(s) for d, s in tracer.domains.items()},
                "reason": "shard-worker-crash",
                "error": repr(exc),
            }
        ]
        rows.extend(
            {"record": "event", **event._asdict()}
            for event in tracer.ring.events()
        )
        record = {"path": path, "rows": rows}
    return record


def _dump_trace(trace: Optional[Trace]) -> Optional[dict]:
    if trace is None:
        return None
    return {
        process: [(e.kind, e.message) for e in trace.events_of(process)]
        for process in trace.processes
    }


def _collect_state(bus: MessageBus) -> Dict[str, Any]:
    """Everything the parent needs to reconstruct the sequential read
    surface, cumulative as of now (pickled through the worker pipe)."""
    state: Dict[str, Any] = {
        "metrics": bus.metrics.dump_state(),
        "accounting": (
            bus.accounting.dump_state()
            if bus.accounting is not None
            else None
        ),
        "scan_counts": (
            dict(bus.routing_index.scan_counts)
            if bus.routing_index is not None
            else {}
        ),
        "app_trace": _dump_trace(bus.app_trace),
        "hop_trace": _dump_trace(bus.hop_trace),
        "agents": [
            (agent.agent_id.server, agent.agent_id.local, agent.snapshot())
            for server in bus.servers.values()
            for agent in server.engine.agents
        ],
        "network": (
            bus.network.packets_sent,
            bus.network.packets_dropped,
            bus.network.cells_transmitted,
        ),
        "persisted_cells": bus.total_persisted_cells(),
        "clock_state_cells": bus.total_clock_state_cells(),
        "server_rows": [
            (
                server_id,
                server.is_crashed,
                len(server.domains),
                server.channel.unacked_count,
                server.channel.heldback_count,
                server.engine.queued,
                server.store.cells_written,
                server.processor.busy_total,
            )
            for server_id, server in sorted(bus.servers.items())
        ],
    }
    tracer = getattr(bus, "_obs_tracer", None)
    state["obs_events"] = list(tracer.ring.events()) if tracer else None
    state["obs_hists"] = (
        {name: hist.dump_state() for name, hist in tracer.histograms.items()}
        if tracer
        else None
    )
    state["obs_cpu"] = list(tracer.cpu_slices) if tracer else None
    state["obs_ring"] = (
        {
            "capacity": tracer.ring.capacity,
            "next_seq": tracer.ring.next_seq,
            "dropped": tracer.ring.dropped,
        }
        if tracer
        else None
    )
    return state


# ----------------------------------------------------------------------
# Parent-side facades
# ----------------------------------------------------------------------


class _SimClock:
    """The read-only slice of :class:`Simulator` the parent exposes as
    ``bus.sim``: the merged clock and event count. Scheduling goes through
    the bus-level ``schedule_*`` methods instead."""

    def __init__(self) -> None:
        self.now = 0.0
        self.processed_events = 0

    def __repr__(self) -> str:
        return f"_SimClock(now={self.now:.3f})"


class _NetworkStats:
    """The read-only slice of :class:`Network` the parent exposes as
    ``bus.network``: merged wire counters plus the latency model."""

    def __init__(self, latency: Any) -> None:
        self._latency = latency
        self.packets_sent = 0
        self.packets_dropped = 0
        self.cells_transmitted = 0

    @property
    def latency(self) -> Any:
        return self._latency

    def __repr__(self) -> str:
        return (
            f"_NetworkStats(sent={self.packets_sent}, "
            f"dropped={self.packets_dropped})"
        )


class ShardedBus:
    """A bus whose simulation runs sharded across forked workers.

    Scripting mirrors :class:`MessageBus` (``deploy``, ``schedule_send``,
    ``schedule_crash``, ``schedule_partition``) but must complete before
    :meth:`start` — workers fork there and replay the recorded script.
    After every :meth:`run` / :meth:`run_until_idle` the parent merges
    worker state, so agents, traces, metrics and accounting read exactly
    as they would after the same sequential run.
    """

    def __init__(self, config: BusConfig, plan: ShardPlan):
        if config.validate:
            validate_topology(config.topology)
        self.config = config
        self.plan = plan
        self.lookahead = lookahead_ms(config.latency_model().min_ms)
        if self.lookahead <= 0:
            raise ConfigurationError(
                "sharded execution needs a positive minimum latency"
            )
        self.sim = _SimClock()
        self.network = _NetworkStats(config.latency_model())
        self.metrics = MetricsRegistry()
        self.accounting: Optional[Registry] = (
            Registry() if accounting_enabled() else None
        )
        self.app_trace: Optional[Trace] = (
            Trace() if config.record_app_trace else None
        )
        self.hop_trace: Optional[Trace] = (
            Trace() if config.record_hop_trace else None
        )
        self._deployments: List[Tuple[int, Agent]] = []
        self._agents: Dict[AgentId, Agent] = {}
        self._agent_counts: Dict[int, int] = {}
        self._script: List[tuple] = []
        self._started = False
        self._finished = False
        self._coordinator: Optional[ShardCoordinator] = None
        self._procs: List[Any] = []
        self._shard_map: Dict[int, int] = {
            server: index
            for index, shard in enumerate(plan.shards)
            for server in shard
        }
        self._persisted_cells = 0
        self._clock_state_cells = 0
        self._server_rows: List[tuple] = []
        self._obs_events: List[Any] = []
        self._obs_hist_states: List[Dict[str, Any]] = []
        self._obs_cpu: List[tuple] = []
        self._obs_ring_meta: Optional[Dict[str, int]] = None
        self._telemetry: Optional[CoordinatorTelemetry] = (
            CoordinatorTelemetry(plan.worker_count, self.lookahead)
            if telemetry_enabled()
            else None
        )
        self._worker_telemetry: List[Optional[Dict[str, Any]]] = []
        self._shard_telemetry: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Scripting (pre-start)
    # ------------------------------------------------------------------

    def _check_scriptable(self, what: str) -> None:
        if self._started:
            raise ConfigurationError(
                f"{what} after start() is not supported on a sharded bus; "
                "script everything first, then start"
            )

    def deploy(self, agent: Agent, server_id: int) -> AgentId:
        """Install an agent (before :meth:`start`); same ids as sequential."""
        self._check_scriptable("deploy")
        if server_id not in self.config.topology.servers:
            raise ConfigurationError(f"unknown server {server_id}")
        local = self._agent_counts.get(server_id, 0)
        self._agent_counts[server_id] = local + 1
        agent_id = AgentId(server_id, local)
        agent._deployed(agent_id)
        self._deployments.append((server_id, agent))
        self._agents[agent_id] = agent
        return agent_id

    def schedule_send(
        self, at: float, sender: AgentId, target: AgentId, payload: Any
    ) -> None:
        """Script a send at absolute time ``at`` (see
        :meth:`MessageBus.schedule_send`)."""
        self._check_scriptable("schedule_send")
        self._script.append((_SEND, at, sender, target, payload))

    def schedule_crash(
        self, at: float, server_id: int, down_for: float
    ) -> None:
        """Script a fail-stop crash with recovery ``down_for`` ms later."""
        self._check_scriptable("schedule_crash")
        if server_id not in self.config.topology.servers:
            raise ConfigurationError(f"unknown server {server_id}")
        self._script.append((_CRASH, at, server_id, down_for))

    def schedule_partition(
        self, at: float, first: int, second: int, duration: float
    ) -> None:
        """Script a network partition between two servers."""
        self._check_scriptable("schedule_partition")
        self._script.append((_PARTITION, at, first, second, duration))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Fork one worker per shard and boot every agent (at t=0)."""
        if self._started:
            raise ConfigurationError("bus already started")
        self._started = True
        ctx = multiprocessing.get_context("fork")
        conns = []
        for shard_id, members in enumerate(self.plan.shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    self.config,
                    shard_id,
                    members,
                    self._deployments,
                    self._script,
                ),
                daemon=True,
                name=f"repro-shard-{shard_id}",
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            self._procs.append(proc)
        self._coordinator = ShardCoordinator(
            conns,
            self.lookahead,
            self._shard_map.__getitem__,
            telemetry=self._telemetry,
        )

    def run(self, until: Optional[float] = None) -> int:
        """Advance the sharded simulation (semantics of
        :meth:`Simulator.run`); merges worker state afterwards."""
        coordinator = self._require_running("run")
        if coordinator is None:  # already quiesced and shut down
            if until is not None and until > self.sim.now:
                self.sim.now = until
            return 0
        fired = coordinator.advance(until=until)
        self._sync()
        return fired

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run to quiescence, then release the worker processes."""
        coordinator = self._require_running("run_until_idle")
        if coordinator is None:
            return 0
        fired = coordinator.advance(max_events=max_events)
        if not coordinator.idle:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        self._sync()
        self.close()
        return fired

    def _require_running(self, what: str) -> Optional[ShardCoordinator]:
        if not self._started:
            raise ConfigurationError(
                f"{what}() before start() on a sharded bus"
            )
        return self._coordinator if not self._finished else None

    def close(self) -> None:
        """Shut the workers down (idempotent; state merged so far stays)."""
        if self._finished:
            return
        self._finished = True
        if self._coordinator is not None:
            self._coordinator.finish()
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - safety net
                proc.terminate()
        self._procs = []

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            if self._started and not self._finished:
                self.close()
        except (OSError, ValueError, AttributeError):
            # interpreter shutdown: pipes may be gone, modules half-torn
            return

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        """Rebuild the merged read surface from fresh worker state dumps.

        Worker state is cumulative, so every sync rebuilds from scratch —
        repeated syncs after successive ``run`` calls stay exact."""
        assert self._coordinator is not None
        states = self._coordinator.collect()
        self.sim.now = self._coordinator.now
        self.sim.processed_events = self._coordinator.processed_events

        metrics = MetricsRegistry()
        for state in states:
            metrics.merge_state(state["metrics"])
        self.metrics = metrics

        if self.accounting is not None:
            registry = Registry()
            for state in states:
                if state["accounting"] is not None:
                    registry.merge_state(state["accounting"])
            # Routing BFS cost: shards materialize overlapping destination
            # trees, so plain counter sums over-count. The per-destination
            # scan counts are pure functions of (topology, dest); the union
            # over shards is exactly the sequential tree set.
            scan_union: Dict[int, int] = {}
            for state in states:
                scan_union.update(state["scan_counts"])
            if len(registry):
                registry.counter("routing_bfs_trees_total").value = len(
                    scan_union
                )
                registry.counter("routing_bfs_scans_total").value = sum(
                    scan_union.values()
                )
            self.accounting = registry

        if self.config.record_app_trace:
            self.app_trace = self._merge_traces(
                [state["app_trace"] for state in states]
            )
        if self.config.record_hop_trace:
            self.hop_trace = self._merge_traces(
                [state["hop_trace"] for state in states]
            )

        for state in states:
            for server, local, snapshot in state["agents"]:
                if snapshot is not None:
                    self._agents[AgentId(server, local)].restore(snapshot)

        self.network.packets_sent = sum(s["network"][0] for s in states)
        self.network.packets_dropped = sum(s["network"][1] for s in states)
        self.network.cells_transmitted = sum(
            s["network"][2] for s in states
        )
        self._persisted_cells = sum(s["persisted_cells"] for s in states)
        self._clock_state_cells = sum(
            s["clock_state_cells"] for s in states
        )
        self._server_rows = sorted(
            row for state in states for row in state["server_rows"]
        )
        merged_events = sorted(
            (event.t, shard, event.seq, event)
            for shard, state in enumerate(states)
            if state["obs_events"] is not None
            for event in state["obs_events"]
        )
        # Per-shard ring seqs collide after the merge; re-sequence in the
        # global (t, shard, seq) order so seq-based reasoning — the `why`
        # blocker scan, the critpath release linkage — works on merged
        # dumps exactly as on sequential ones. Per-server relative order
        # is preserved: a server lives on exactly one shard.
        self._obs_events = [
            entry[3]._replace(seq=index)
            for index, entry in enumerate(merged_events)
        ]
        self._obs_hist_states = [
            state["obs_hists"]
            for state in states
            if state.get("obs_hists")
        ]
        self._obs_cpu = sorted(
            (
                row
                for state in states
                for row in (state.get("obs_cpu") or [])
            ),
            key=lambda row: (row[1], row[0]),
        )
        ring_rows = [
            state["obs_ring"] for state in states if state.get("obs_ring")
        ]
        self._obs_ring_meta = (
            {
                "capacity": sum(r["capacity"] for r in ring_rows),
                "next_seq": sum(r["next_seq"] for r in ring_rows),
                "dropped": sum(r["dropped"] for r in ring_rows),
            }
            if ring_rows
            else None
        )
        self._worker_telemetry = list(self._coordinator.worker_telemetry)
        if self._telemetry is not None:
            self._shard_telemetry = merge_telemetry(
                self._telemetry.dump(),
                [row for row in self._worker_telemetry if row],
                self.plan.worker_count,
                self.lookahead,
                coordinator_wait_s=self._telemetry.wall_wait_s,
            )

    @staticmethod
    def _merge_traces(dumps: List[Optional[dict]]) -> Trace:
        """Union of per-shard local histories, re-validated strictly.

        Every trace process (agent or server) lives on exactly one shard,
        so its complete local history is recorded there; the union is the
        sequential trace and :meth:`Trace.from_histories` re-checks
        send/receive consistency across the stitched shards."""
        histories: Dict[Any, list] = {}
        for dump in dumps:
            if dump is None:
                continue
            for process, local in dump.items():
                if process in histories:
                    raise SimulationError(
                        f"trace process {process!r} recorded on two shards"
                    )
                histories[process] = local
        return Trace.from_histories(histories)

    # ------------------------------------------------------------------
    # Read surface (parity with MessageBus)
    # ------------------------------------------------------------------

    def agent(self, agent_id: AgentId) -> Agent:
        try:
            return self._agents[agent_id]
        except KeyError:
            raise ConfigurationError(
                f"no agent {agent_id!r} deployed"
            ) from None

    def check_app_causality(self) -> CausalityReport:
        """Check the merged agent-level trace for causal delivery."""
        if self.app_trace is None:
            raise ConfigurationError("app trace recording is disabled")
        return check_trace(self.app_trace, scope="app")

    def check_domain_causality(self) -> Dict[Any, CausalityReport]:
        """Check the merged hop-level trace restricted to each domain."""
        if self.hop_trace is None:
            raise ConfigurationError("hop trace recording is disabled")
        membership = self.config.topology.membership()
        return check_all_domains(self.hop_trace, membership)

    def export_app_trace(self, stream: Any) -> int:
        """Write the merged app trace as JSONL — the exact artifact the
        sequential bus produces (the export only reads ``app_trace``)."""
        if self.app_trace is None:
            raise ConfigurationError("app trace recording is disabled")
        return MessageBus.export_app_trace(self, stream)  # type: ignore[arg-type]

    def cost_snapshot(self) -> Optional[Dict[str, Any]]:
        """The merged accounting snapshot — byte-identical to the
        sequential run's (the differential suite pins this)."""
        if self.accounting is None:
            return None
        return self.accounting.snapshot(
            now=self.sim.now,
            meta={
                "servers": len(self.config.topology.servers),
                "domains": sorted(self.config.topology.domain_ids),
                "seed": self.config.seed,
                "clock": self.config.clock_algorithm,
            },
        )

    def total_persisted_cells(self) -> int:
        return self._persisted_cells

    def total_clock_state_cells(self) -> int:
        return self._clock_state_cells

    def trace_events(self) -> List[Any]:
        """Merged observability events (when ``REPRO_TRACE`` attached a
        tracer inside each worker), ordered by ``(time, shard, seq)`` and
        re-sequenced globally in that order."""
        return list(self._obs_events)

    def obs_histogram_states(self) -> List[Dict[str, Any]]:
        """Per-shard tracer histogram ``dump_state`` payloads (merge them
        with :func:`repro.obs.shardmon.merged_trace_dump`)."""
        return list(self._obs_hist_states)

    def obs_cpu_slices(self) -> List[tuple]:
        """Merged tracer CPU slices, ordered by (start, server)."""
        return list(self._obs_cpu)

    def obs_ring_meta(self) -> Optional[Dict[str, int]]:
        """Summed ring capacity/next_seq/dropped across the worker rings."""
        return None if self._obs_ring_meta is None else dict(
            self._obs_ring_meta
        )

    def shard_telemetry(self) -> Optional[Dict[str, Any]]:
        """The merged shardmon payload of the last sync: deterministic
        ``sim`` observables plus the separated ``wallclock`` section.
        ``None`` before the first run or under ``REPRO_SHARDMON=0``."""
        return self._shard_telemetry

    @property
    def flight_records(self) -> List[str]:
        """Artifact paths of worker flight records written on crashes."""
        if self._coordinator is None:
            return []
        return list(self._coordinator.flight_records)

    def stats_table(self) -> str:
        """Per-server operational summary, merged across shards."""
        header = (
            f"{'server':>6}  {'state':>7}  {'domains':>7}  {'unacked':>7}  "
            f"{'heldback':>8}  {'queued':>6}  {'disk cells':>10}  "
            f"{'cpu ms':>8}"
        )
        lines = [header, "-" * len(header)]
        for row in self._server_rows:
            (server_id, crashed, n_domains, unacked, heldback, queued,
             cells, busy) = row
            state = "crashed" if crashed else "up"
            lines.append(
                f"{server_id:>6}  {state:>7}  {n_domains:>7}  "
                f"{unacked:>7}  {heldback:>8}  {queued:>6}  "
                f"{cells:>10}  {busy:>8.1f}"
            )
        lines.append(
            f"t={self.sim.now:.1f}ms  "
            f"packets={self.network.packets_sent}  "
            f"wire_cells={self.network.cells_transmitted}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ShardedBus(shards={self.plan.worker_count}, "
            f"servers={len(self.config.topology.servers)}, "
            f"t={self.sim.now:.1f}ms)"
        )
