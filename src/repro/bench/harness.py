"""One-call experiment runners.

Each runner builds a fresh bus from a topology recipe, deploys the §6.1
agents, runs to quiescence and returns an :class:`ExperimentResult` with
the simulated turn-around time plus the cost-side aggregates the paper's
argument is really about: cells on the wire, cells written to disk,
resident clock state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines.causal_broadcast import BroadcastGroup
from repro.mom.workloads import BroadcastDriver, PingPongDriver
from repro.errors import ConfigurationError
from repro.mom.agent import EchoAgent
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.mom.parallel import AnyBus, make_bus
from repro.obs.tracer import Tracer
from repro.obs.tracer import attach as attach_tracer
from repro.simulation.costs import CostModel
from repro.topology import builders
from repro.topology.domains import Topology
from repro.topology.routing import hop_distances

_TOPOLOGIES: Dict[str, Callable[[int, int], Topology]] = {
    "flat": lambda n, size: builders.single_domain(n),
    "bus": lambda n, size: builders.bus(n, size),
    "daisy": lambda n, size: builders.daisy(n, size),
    "tree": lambda n, size: builders.tree(n, domain_size=size)
    if size
    else builders.tree(n),
}


@dataclass
class ExperimentResult:
    """Outcome of one experiment point (one n, one organization)."""

    name: str
    server_count: int
    topology: str
    clock_algorithm: str
    rounds: int
    mean_turnaround_ms: float
    """The paper's measured quantity: mean message turn-around (§6.1)."""

    wire_cells: int
    """Total matrix cells serialized on the network over the run."""

    persisted_cells: int
    """Total matrix cells written to the simulated disks."""

    clock_state_cells: int
    """Resident matrix state summed over servers (the O(n³) vs O(n·s²)
    global-state argument of §1)."""

    messages: int
    """Application notifications sent."""

    hops: int
    """Intra-domain hop messages sent (≥ messages on domained buses)."""

    causal_ok: bool
    """Did the recorded app trace respect causality? (always checked)"""

    extras: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flatten for table rendering."""
        return {
            "n": self.server_count,
            "topology": self.topology,
            "clock": self.clock_algorithm,
            "turnaround_ms": round(self.mean_turnaround_ms, 1),
            "wire_cells": self.wire_cells,
            "persist_cells": self.persisted_cells,
            "state_cells": self.clock_state_cells,
            "hops": self.hops,
            "causal_ok": self.causal_ok,
        }


def make_topology(kind: str, server_count: int, domain_size: int = 0) -> Topology:
    """Build one of the named organizations (flat/bus/daisy/tree)."""
    try:
        factory = _TOPOLOGIES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology kind {kind!r}; choose from {sorted(_TOPOLOGIES)}"
        ) from None
    return factory(server_count, domain_size)


def farthest_plain_server(topology: Topology, source: int = 0) -> int:
    """The non-router server with the longest route from ``source`` — the
    paper's "remote server", maximizing the number of domain crossings.

    Falls back to the farthest server of any kind when every candidate is
    a router (tiny topologies). Ties break towards the highest id.
    """
    candidates = [server for server in topology.servers if server != source]
    if not candidates:
        raise ConfigurationError("topology has a single server")
    distances = hop_distances(topology, source)

    def preference(server: int) -> tuple:
        plain = 0 if topology.is_router(server) else 1
        return (plain, distances[server], server)

    return max(candidates, key=preference)


def _build_bus(
    kind: str,
    server_count: int,
    domain_size: int,
    clock: str,
    cost_model: Optional[CostModel],
    seed: int,
    record_hop_trace: bool,
    sequential_only: bool = False,
) -> AnyBus:
    topology = make_topology(kind, server_count, domain_size)
    config = BusConfig(
        topology=topology,
        clock_algorithm=clock,
        cost_model=cost_model or CostModel(),
        seed=seed,
        record_app_trace=True,
        record_hop_trace=record_hop_trace,
    )
    if sequential_only:
        # the obs tracer instruments a concrete MessageBus (its servers,
        # channels, transports); traced runs therefore stay sequential
        return MessageBus(config)
    return make_bus(config)


def _trace_extras(tracer: Tracer) -> Dict[str, float]:
    """Histogram percentiles of a traced run, flattened for ``extras``.

    Per-domain breakdowns (``clock_merge_cells.D3``) are left out — at
    bench scale they would swamp the result row; dump the tracer for the
    full picture.
    """
    extras: Dict[str, float] = {}
    for name in sorted(tracer.histograms):
        if "." in name:
            continue
        hist = tracer.histograms[name]
        extras[f"{name}.count"] = float(hist.count)
        for q in (50, 95, 99):
            extras[f"{name}.p{q}"] = round(hist.percentile(q), 3)
    return extras


def _finish(
    name: str,
    bus: AnyBus,
    kind: str,
    clock: str,
    rounds: int,
    mean_ms: float,
    tracer: Optional[Tracer] = None,
) -> ExperimentResult:
    report = bus.check_app_causality()
    snapshot = bus.metrics.snapshot()
    extras = _trace_extras(tracer) if tracer is not None else {}
    return ExperimentResult(
        name=name,
        server_count=bus.config.topology.server_count,
        topology=kind,
        clock_algorithm=clock,
        rounds=rounds,
        mean_turnaround_ms=mean_ms,
        wire_cells=bus.network.cells_transmitted,
        persisted_cells=bus.total_persisted_cells(),
        clock_state_cells=bus.total_clock_state_cells(),
        messages=int(snapshot.get("bus.notifications", 0)),
        hops=int(snapshot.get("channel.hops_sent", 0)),
        causal_ok=report.respects_causality,
        extras=extras,
    )


def run_remote_unicast(
    server_count: int,
    topology: str = "flat",
    rounds: int = 20,
    clock: str = "matrix",
    domain_size: int = 0,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
    trace: bool = False,
) -> ExperimentResult:
    """§6.1 "unicast on a remote server": main agent on server 0
    ping-pongs with the echo agent on the farthest plain server.

    With ``trace=True`` a :class:`~repro.obs.tracer.Tracer` rides along
    and the result's ``extras`` carry p50/p95/p99 of the latency
    histograms (holdback dwell, e2e delivery, ACK RTT, queue wait)."""
    bus = _build_bus(
        topology, server_count, domain_size, clock, cost_model, seed, False,
        sequential_only=trace,
    )
    tracer = attach_tracer(bus) if trace else None
    target_server = farthest_plain_server(bus.config.topology, source=0)
    echo_id = bus.deploy(EchoAgent(), target_server)
    driver = PingPongDriver(rounds)
    driver.bind(echo_id)
    bus.deploy(driver, 0)
    bus.start()
    bus.run_until_idle()
    return _finish(
        "remote_unicast", bus, topology, clock, rounds, driver.mean_rtt,
        tracer,
    )


def run_local_unicast(
    server_count: int,
    topology: str = "flat",
    rounds: int = 20,
    clock: str = "matrix",
    domain_size: int = 0,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
    trace: bool = False,
) -> ExperimentResult:
    """§6.1 "unicast on the local server": driver and echo share server 0
    (Figure 1's Local Bus — no channel, no stamps, constant cost)."""
    bus = _build_bus(
        topology, server_count, domain_size, clock, cost_model, seed, False,
        sequential_only=trace,
    )
    tracer = attach_tracer(bus) if trace else None
    echo_id = bus.deploy(EchoAgent(), 0)
    driver = PingPongDriver(rounds)
    driver.bind(echo_id)
    bus.deploy(driver, 0)
    bus.start()
    bus.run_until_idle()
    return _finish(
        "local_unicast", bus, topology, clock, rounds, driver.mean_rtt,
        tracer,
    )


def run_baseline_unicast(
    server_count: int,
    rounds: int = 20,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Remote unicast over the §2 vector-clock causal-broadcast baseline.

    Node 0 ping-pongs with node n-1, but every ping and every pong floods
    the whole group (n-1 packets each) because that is how broadcast-based
    causal order works. Directly comparable with
    :func:`run_remote_unicast` on the matrix-clock MOM.
    """
    group = BroadcastGroup(server_count, cost_model=cost_model, seed=seed)
    target = server_count - 1
    rtts: List[float] = []
    state = {"sent_at": 0.0, "completed": 0}

    def on_driver(sender: int, payload: Any) -> None:
        rtts.append(group.sim.now - state["sent_at"])
        state["completed"] += 1
        if state["completed"] < rounds:
            state["sent_at"] = group.sim.now
            driver.broadcast(state["completed"], dest=target)

    def on_echo(sender: int, payload: Any) -> None:
        echo.broadcast(payload, dest=0)

    driver = group.add_node(on_driver)
    for node_id in range(1, server_count - 1):
        group.add_node(lambda sender, payload: None)
    echo = group.add_node(on_echo)

    group.sim.schedule(0.0, lambda: driver.broadcast(0, dest=target))
    group.run_until_idle()

    mean_rtt = sum(rtts) / len(rtts)
    return ExperimentResult(
        name="baseline_broadcast_unicast",
        server_count=server_count,
        topology="bss-broadcast",
        clock_algorithm="vector",
        rounds=rounds,
        mean_turnaround_ms=mean_rtt,
        wire_cells=group.wire_cells,
        persisted_cells=group.persisted_cells,
        clock_state_cells=server_count * server_count,  # n vectors of n
        messages=2 * rounds,
        hops=group.packets_sent,
        causal_ok=True,  # BSS is causal by construction; asserted in tests
    )


def run_broadcast(
    server_count: int,
    topology: str = "flat",
    rounds: int = 5,
    clock: str = "matrix",
    domain_size: int = 0,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
    trace: bool = False,
) -> ExperimentResult:
    """§6.1 "broadcast on all servers": one echo agent per server; the main
    agent sends to all of them and waits for every echo per round."""
    bus = _build_bus(
        topology, server_count, domain_size, clock, cost_model, seed, False,
        sequential_only=trace,
    )
    tracer = attach_tracer(bus) if trace else None
    echo_ids = [
        bus.deploy(EchoAgent(), server) for server in bus.config.topology.servers
    ]
    driver = BroadcastDriver(rounds)
    driver.bind(echo_ids)
    bus.deploy(driver, 0)
    bus.start()
    bus.run_until_idle()
    return _finish(
        "broadcast", bus, topology, clock, rounds, driver.mean_round_time,
        tracer,
    )


def run_holdback_churn(
    sends: int = 25, trace: bool = False
) -> Tuple[MessageBus, Optional[Tracer]]:
    """The hold-back churn run: four senders on servers 0-3 each send
    ``sends`` notifications at boot to one echo agent on server 11 of a
    12-server domain, over 0.1-20 ms uniform latency (seed 11), so most
    hops arrive out of FIFO order and wait in the hold-back store.

    ``trace`` attaches a tracer before any agent is deployed. Returns the
    quiescent bus and its tracer (``None`` untraced)."""
    from repro.mom.agent import FunctionAgent
    from repro.simulation.network import UniformLatency

    bus = MessageBus(
        BusConfig(
            topology=builders.single_domain(12),
            seed=11,
            latency=UniformLatency(0.1, 20.0),
        )
    )
    tracer = attach_tracer(bus) if trace else None
    echo_id = bus.deploy(EchoAgent(), 11)
    for src in range(4):
        sender = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx: Any, echo_id: Any = echo_id) -> None:
            for i in range(sends):
                ctx.send(echo_id, i)

        sender.on_boot = boot
        bus.deploy(sender, src)
    bus.start()
    bus.run_until_idle()
    return bus, tracer
