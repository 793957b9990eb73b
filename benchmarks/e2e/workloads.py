"""The benchmark's load generator: seven closed-loop MOM workloads.

Every workload is a sequence of *epochs*. One epoch builds a fresh bus
from its own seed, deploys K client/echo pairs, runs to quiescence and
checks causality; the three phases are timed separately (``setup_s``,
``run_wall_s``, ``verify_s``). Epochs exist because the causality checker
is quadratic in per-agent receives: many short epochs scale a workload
linearly where one long epoch would not. Load is closed-loop, as in §6.1
of the paper: a :class:`WindowDriver` keeps W pings in flight towards its
echo agent and sends the next one only when an echo returns.

``fig_sweep`` is the exception in shape, not in contract: its epoch is
the paper's figure grids run through the public ``repro.bench`` runners,
which own their buses, so the per-bus numbers are harvested at the one
public method every runner calls (``check_app_causality``).

The simulator is deterministic: an epoch's ``fingerprint`` (simulated
time, metric snapshot, cost snapshot) depends on its inputs alone.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import json
import random
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.mom.agent import Agent, EchoAgent, ReactionContext
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.mom.identifiers import AgentId
from repro.mom.parallel import ShardedBus, make_bus
from repro.obs import tracer as obs_tracer
from repro.simulation.metrics import Samples
from repro.simulation.network import LatencyModel, UniformLatency
from repro.topology import builders
from repro.topology.domains import Topology

FIG_SWEEP = "fig_sweep"

#: simulated ms between scripted crashes of ``lossy_crash``, and how long
#: each victim stays down
CRASH_EVERY_MS = 1500.0
CRASH_DOWN_MS = 400.0


@dataclass(frozen=True)
class Spec:
    """One workload: K pairs, W pings in flight, R round trips per pair,
    E distinct epoch inputs per seed (the run cycles through them)."""

    topology: Optional[Callable[[], Topology]]
    pairs: int
    window: int
    rounds: int
    epochs: int
    latency: Optional[Callable[[], LatencyModel]] = None
    loss_rate: float = 0.0
    crashes: bool = False
    obs: bool = False
    sharded: bool = False
    sanitizer_ab: bool = False

    def scaled(self, quick: bool) -> "Spec":
        """``--quick``: one epoch input, a tenth of the round trips."""
        if not quick:
            return self
        return dataclasses.replace(
            self, rounds=max(2, self.rounds // 10), epochs=1
        )


def _churn(**extra: Any) -> Spec:
    return Spec(
        topology=lambda: builders.single_domain(12),
        pairs=6, window=8, rounds=250, epochs=2,
        latency=lambda: UniformLatency(0.1, 20.0),
        **extra,
    )


#: R and E are sized so an epoch takes 0.7-2 s on a 2-core host and a
#: 12 s run holds six or more; every other number is the issue's.
SPECS: Dict[str, Spec] = {
    FIG_SWEEP: Spec(topology=None, pairs=1, window=1, rounds=60, epochs=2),
    "flat_s150": Spec(
        topology=lambda: builders.single_domain(150),
        pairs=40, window=1, rounds=75, epochs=2,
    ),
    "bus_n4000": Spec(
        topology=lambda: builders.bus(4000),
        pairs=96, window=1, rounds=12, epochs=2,
    ),
    "churn_w8": _churn(sanitizer_ab=True),
    "churn_w8_traced": _churn(obs=True),
    "lossy_crash": Spec(
        topology=lambda: builders.bus(64),
        pairs=16, window=4, rounds=100, epochs=2,
        latency=lambda: UniformLatency(0.5, 5.0),
        loss_rate=0.05, crashes=True,
    ),
    "bus_s150_sharded": Spec(
        topology=lambda: builders.bus(150),
        pairs=40, window=2, rounds=8, epochs=4, sharded=True,
    ),
}


class WindowDriver(Agent):
    """Closed-loop client: ``window`` pings in flight, ``rounds`` in all."""

    def __init__(self, window: int, rounds: int):
        super().__init__()
        self.window = window
        self.rounds = rounds
        self.target: Optional[AgentId] = None
        self.sent = 0
        self.completed = 0

    def on_boot(self, ctx: ReactionContext) -> None:
        for _ in range(min(self.window, self.rounds)):
            self._ping(ctx)

    def react(self, ctx: ReactionContext, sender: AgentId, payload: Any) -> None:
        self.completed += 1
        if self.sent < self.rounds:
            self._ping(ctx)

    def _ping(self, ctx: ReactionContext) -> None:
        assert self.target is not None
        ctx.send(self.target, self.sent)
        self.sent += 1


@dataclass
class Harvest:
    """What one quiesced bus contributes to an epoch's result."""

    fingerprints: List[str] = field(default_factory=list)
    delivery_ms: List[float] = field(default_factory=list)
    stamp_bytes: int = 0
    notifications: int = 0
    leaks: int = 0
    counters: Counter = field(default_factory=Counter)

    def add(self, bus: Any) -> None:
        """Read a bus that has run to quiescence (sequential or sharded)."""
        snapshot = bus.metrics.snapshot()
        # None when the accounting A/B twin runs with REPRO_METRICS=0
        cost = bus.cost_snapshot() or {"instruments": []}
        digest = json.dumps(
            [round(bus.sim.now, 6), snapshot, cost], sort_keys=True
        )
        self.fingerprints.append(_blake(digest))
        self.delivery_ms.extend(bus.metrics.samples("bus.delivery_ms").values)
        for instrument in cost["instruments"]:
            if instrument["name"] == "channel_stamp_bytes_total":
                self.stamp_bytes += instrument["value"]
            elif instrument["name"] == "bus_notifications_total":
                self.notifications += instrument["value"]
        counters = self.counters
        counters.update(snapshot)
        counters["network.packets_sent"] += bus.network.packets_sent
        counters["network.packets_dropped"] += bus.network.packets_dropped
        counters["kernel.events"] += bus.sim.processed_events
        # a sharded bus keeps its servers in the workers; its sequential
        # twin supplies the per-server counters and the leak check
        for server in getattr(bus, "servers", {}).values():
            self.leaks += (
                server.channel.heldback_count + server.channel.unacked_count
            )
            counters["transport.retransmissions"] += server.transport.retransmissions
            counters["transport.duplicates_suppressed"] += (
                server.transport.duplicates_suppressed
            )
            counters["persistence.writes"] += server.store.writes
        tracer = getattr(bus, "_obs_tracer", None)
        if tracer is not None:
            counters["obs.events"] += tracer.ring.next_seq

    def failures(self) -> List[str]:
        if not self.leaks:
            return []
        return [f"{self.leaks} envelope(s) held back or unacked at quiescence"]


@dataclass
class Epoch:
    """One epoch's timings, counts and simulated observables."""

    setup_s: float
    run_wall_s: float
    verify_s: float
    wall_s: float
    """The whole epoch (``fig_sweep`` verifies inside its run)."""
    ops_attempted: int
    ops_completed: int
    harvest: Harvest
    failures: List[str] = field(default_factory=list)
    paper_err_pct: float = 0.0
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def fingerprint(self) -> str:
        return _blake("".join(self.harvest.fingerprints))

    @property
    def deliveries(self) -> int:
        return len(self.harvest.delivery_ms)


def _blake(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def choose_pairs(
    topology: Topology, count: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """``count`` disjoint (client, echo) pairs of non-router servers, from
    a seeded shuffle; on multi-domain topologies the two ends lie in
    different leaf domains, so every round trip crosses the backbone."""
    plain = [s for s in topology.servers if not topology.is_router(s)]
    rng.shuffle(plain)
    multi = len(topology.domains) > 1
    leaf = {s: topology.domains_of(s)[0].domain_id for s in plain}
    used: set = set()
    pairs: List[Tuple[int, int]] = []
    for client in plain:
        if len(pairs) == count:
            break
        if client in used:
            continue
        for echo in plain:
            if echo in used or echo == client:
                continue
            if multi and leaf[echo] == leaf[client]:
                continue
            pairs.append((client, echo))
            used.update((client, echo))
            break
    if len(pairs) != count:
        raise ValueError(f"topology too small for {count} disjoint pairs")
    return pairs


def run_epoch(
    name: str,
    seed: int,
    quick: bool = False,
    region: Callable[[str], Any] = nullcontext,
    sharded: Optional[bool] = None,
    obs: Optional[bool] = None,
    reimport: bool = True,
) -> Epoch:
    """Run one epoch of workload ``name`` on inputs made from ``seed``.

    ``region`` brackets the three phases for the span recorder;
    ``sharded`` and ``obs`` override the spec for the A/B twins;
    ``reimport=False`` keeps ``fig_sweep`` on the loaded modules (a span
    recorder's patches live there).
    """
    spec = SPECS[name].scaled(quick)
    if name == FIG_SWEEP:
        return _fig_sweep_epoch(spec, seed, region, reimport)
    return _pairs_epoch(
        spec, seed, region,
        spec.sharded if sharded is None else sharded,
        spec.obs if obs is None else obs,
    )


def _pairs_epoch(
    spec: Spec,
    seed: int,
    region: Callable[[str], Any],
    sharded: bool,
    obs: bool,
) -> Epoch:
    assert spec.topology is not None
    gc.collect()
    started = time.perf_counter()
    with region("bench.setup"):
        topology = spec.topology()
        config = BusConfig(
            topology=topology,
            seed=seed,
            latency=spec.latency() if spec.latency else None,
            loss_rate=spec.loss_rate,
            parallel="auto" if sharded else "off",
            # two workers regardless of host size: the number must mean
            # the same thing on every machine
            workers=2 if sharded else 0,
        )
        bus = make_bus(config) if sharded else MessageBus(config)
        if sharded and not isinstance(bus, ShardedBus):
            raise RuntimeError("sharded workload fell back to sequential")
        if obs:
            obs_tracer.attach(bus)
        pairs = choose_pairs(topology, spec.pairs, random.Random(seed))
        drivers = []
        for client, echo in pairs:
            driver = WindowDriver(spec.window, spec.rounds)
            driver.target = bus.deploy(EchoAgent(), echo)
            bus.deploy(driver, client)
            drivers.append(driver)
        if spec.crashes:
            # every router and every echo server goes down once; a
            # driver's server never does (its window state is the load)
            victims = list(topology.routers) + [echo for _, echo in pairs]
            for index, victim in enumerate(victims):
                bus.schedule_crash(
                    CRASH_EVERY_MS * (index + 1), victim, CRASH_DOWN_MS
                )
        bus.start()
    setup_s = time.perf_counter() - started

    try:
        gc.collect()
        started = time.perf_counter()
        with region("bench.run"):
            bus.run_until_idle()
        run_wall_s = time.perf_counter() - started
    finally:
        if isinstance(bus, ShardedBus):
            bus.close()

    gc.collect()
    started = time.perf_counter()
    with region("bench.verify"):
        report = bus.check_app_causality()
    verify_s = time.perf_counter() - started

    harvest = Harvest()
    harvest.add(bus)
    failures = harvest.failures()
    if not report.respects_causality:
        failures.append("causality violated")
    return Epoch(
        setup_s=setup_s,
        run_wall_s=run_wall_s,
        verify_s=verify_s,
        wall_s=setup_s + run_wall_s + verify_s,
        ops_attempted=spec.pairs * spec.rounds,
        # a sharded bus restores its workers' agent state into these objects
        ops_completed=sum(driver.completed for driver in drivers),
        harvest=harvest,
        failures=failures,
        telemetry=bus.shard_telemetry() if isinstance(bus, ShardedBus) else None,
    )


def _reimport_program() -> float:
    """Drop every loaded ``repro`` module and time a fresh
    ``import repro.bench`` — ``fig_sweep``'s set-up, as a reader of the
    paper pays it (third-party dependencies stay loaded)."""
    for module in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[module]
    gc.collect()
    started = time.perf_counter()
    importlib.import_module("repro.bench")
    return time.perf_counter() - started


@contextmanager
def _timed_checks() -> Iterator[SimpleNamespace]:
    """Time ``MessageBus.check_app_causality`` and keep each bus it is
    called on (``.seconds``, ``.buses``): the figure runners own their
    buses and expose none."""
    bus_cls = importlib.import_module("repro.mom.bus").MessageBus
    original = bus_cls.check_app_causality
    checks = SimpleNamespace(seconds=0.0, buses=[])

    def check_app_causality(bus: Any) -> Any:
        started = time.perf_counter()
        try:
            return original(bus)
        finally:
            checks.seconds += time.perf_counter() - started
            checks.buses.append(bus)

    bus_cls.check_app_causality = check_app_causality
    try:
        yield checks
    finally:
        bus_cls.check_app_causality = original


def _fig_sweep_epoch(
    spec: Spec, seed: int, region: Callable[[str], Any], reimport: bool
) -> Epoch:
    with region("bench.setup"):
        setup_s = _reimport_program() if reimport else 0.0
    bench = importlib.import_module("repro.bench")
    unicast = spec.rounds
    broadcast = max(1, spec.rounds // 20)
    results = []  # (paper series or None, n, expected messages, result)
    gc.collect()
    started = time.perf_counter()
    with region("bench.run"), _timed_checks() as checks:
        for n in bench.PAPER_FIG7:
            result = bench.run_remote_unicast(n, "flat", rounds=unicast, seed=seed)
            results.append((bench.PAPER_FIG7, n, 2 * unicast, result))
        for n in bench.PAPER_FIG8:
            result = bench.run_broadcast(n, "flat", rounds=broadcast, seed=seed)
            results.append((bench.PAPER_FIG8, n, 2 * broadcast * n, result))
        for n in bench.PAPER_FIG10:
            result = bench.run_remote_unicast(n, "bus", rounds=unicast, seed=seed)
            results.append((bench.PAPER_FIG10, n, 2 * unicast, result))
        for n in bench.PAPER_FIG7:
            result = bench.run_remote_unicast(
                n, "flat", rounds=unicast, clock="updates", seed=seed
            )
            results.append((None, n, 2 * unicast, result))
    run_wall_s = time.perf_counter() - started
    harvest = Harvest()
    for bus in checks.buses:  # after the clock stopped: harvesting is not the run
        harvest.add(bus)

    errors = [
        abs(result.mean_turnaround_ms - paper[n]) / paper[n]
        for paper, n, _, result in results
        if paper is not None
    ]
    failures = [
        f"{result.name} n={n}: causality violated"
        for _, n, _, result in results
        if not result.causal_ok
    ]
    failures.extend(harvest.failures())
    return Epoch(
        setup_s=setup_s,
        run_wall_s=run_wall_s,
        verify_s=checks.seconds,
        wall_s=setup_s + run_wall_s,
        # one operation = one echoed message pair
        ops_attempted=sum(expected for _, _, expected, _ in results) // 2,
        ops_completed=sum(
            min(result.messages, expected) for _, _, expected, result in results
        ) // 2,
        harvest=harvest,
        failures=failures,
        paper_err_pct=100.0 * statistics.fmean(errors),
    )


# ----------------------------------------------------------------------
# The timed run (tracing off)
# ----------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """The repo's own percentile definition (numpy-compatible)."""
    samples = Samples("bench")
    for value in values:
        samples.record(value)
    return samples.percentile(q)


def sim_metrics(epochs: List[Epoch]) -> Dict[str, float]:
    """Simulated observables pooled over ``epochs``; they repeat exactly
    for equal inputs, so a simulator-only optimisation must not move them."""
    delivery_ms = [ms for epoch in epochs for ms in epoch.harvest.delivery_ms]
    notifications = sum(epoch.harvest.notifications for epoch in epochs)
    return {
        "sim.delivery_ms_p50": percentile(delivery_ms, 50),
        "sim.delivery_ms_p99": percentile(delivery_ms, 99),
        "sim.stamp_bytes_per_delivery": (
            sum(epoch.harvest.stamp_bytes for epoch in epochs) / notifications
        ),
        "sim.paper_err_pct": statistics.fmean(e.paper_err_pct for e in epochs),
    }


def fast_quartile(values: List[float], higher_is_better: bool = False) -> float:
    """The quartile on the fast side of a run's per-epoch values.

    Other tenants of the host only ever add time, and do so in bursts of
    several seconds — up to half of a 10 s run — which drags a median
    between two modes; the fast quartile stays in the undisturbed one.
    """
    if len(values) == 1:
        return values[0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[2] if higher_is_better else quartiles[0]


def params(spec: Spec) -> Dict[str, int]:
    return {
        "K": spec.pairs, "W": spec.window, "R": spec.rounds, "E": spec.epochs,
    }


def run_fingerprint(distinct: List[Epoch]) -> str:
    """One fingerprint for a run: its E distinct epoch inputs, in order."""
    return _blake("".join(epoch.fingerprint for epoch in distinct))


def measure(name: str, seed: int, seconds: float, quick: bool = False) -> Dict[str, Any]:
    """Run epochs of ``name`` for ``seconds`` (at least one of each of the
    spec's E inputs) and reduce them to the end-to-end metrics.

    Epoch ``e`` runs on seed ``seed*1000 + e mod E``: once the inputs
    cycle, a repeated input must reproduce its fingerprint bit for bit,
    which is the in-run determinism check.
    """
    spec = SPECS[name].scaled(quick)
    epochs: List[Epoch] = []
    failures: List[str] = []
    began = time.perf_counter()
    while len(epochs) < spec.epochs or time.perf_counter() - began < seconds:
        index = len(epochs)
        epoch_seed = seed * 1000 + index % spec.epochs
        epoch = run_epoch(name, epoch_seed, quick)
        if index >= spec.epochs:
            if epoch.fingerprint != epochs[index - spec.epochs].fingerprint:
                failures.append(f"epoch {index}: fingerprint not reproducible")
        elif spec.sharded:
            twin = run_epoch(name, epoch_seed, quick, sharded=False)
            failures.extend(f"sequential twin: {f}" for f in twin.failures)
            if twin.fingerprint != epoch.fingerprint:
                failures.append(
                    f"epoch {index}: sharded fingerprint differs from its "
                    "sequential twin"
                )
        failures.extend(f"epoch {index}: {f}" for f in epoch.failures)
        epochs.append(epoch)

    attempted = sum(epoch.ops_attempted for epoch in epochs)
    incomplete = attempted - sum(epoch.ops_completed for epoch in epochs)
    if incomplete:
        failures.append(f"{incomplete} round trip(s) not completed")
    samples = {
        "setup_s": [e.setup_s for e in epochs],
        "run_wall_s": [e.run_wall_s for e in epochs],
        "verify_s": [e.verify_s for e in epochs],
        "deliveries_per_s": [e.deliveries / e.run_wall_s for e in epochs],
    }
    metrics = {
        key: fast_quartile(values, higher_is_better=key == "deliveries_per_s")
        for key, values in samples.items()
    }
    distinct = epochs[: spec.epochs]
    return {
        "params": params(spec),
        "epochs_run": len(epochs),
        "ops_attempted": attempted,
        # any gate failure voids the whole run, not just the missing ops
        "ops_failed": attempted if failures else 0,
        "failures": failures,
        "sim_fingerprint": run_fingerprint(distinct),
        "samples": samples,
        "metrics": metrics,
        "sim": sim_metrics(distinct),
    }
