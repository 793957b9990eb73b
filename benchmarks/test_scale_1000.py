"""Scale demonstration: 1000 servers.

The paper stops at 150 servers (their hardware limit: ~15 JVMs per host).
The simulator has no such limit, so this bench runs the domained MOM an
order of magnitude past the paper's edge and checks the §6.2 scaling
claims keep holding:

- flat MOM at n=1000 would cost ~`0.026·10⁶ ≈ 26 s` of CPU per message —
  we assert the *model's* prediction rather than simulate the absurdity;
- the bus of ~√n domains keeps remote unicast in the low hundreds of ms;
- a deeper tree (fixed domain size, log-depth routing) beats the bus at
  this scale *on state* while paying more hops — the K vs K′ trade §6.2
  works out.

The sharded kernel's own contract rides along at s = 150: the fan-in
run's simulated observables and shard telemetry are pinned exactly, and
on a host with at least four CPUs it must run ≥ 1.5× faster sharded
than sequential.
"""

import json
import os
import time

import pytest

from conftest import bench_once, record
from repro.bench import run_remote_unicast
from repro.mom.config import BusConfig
from repro.mom.parallel import ShardedBus, make_bus
from repro.mom.workloads import OpenLoopDriver, SinkAgent
from repro.simulation.costs import CostModel
from repro.topology import builders
from repro.topology.cost import flat_unicast_cost

N = 1000
ROUNDS = 3

#: REPRO_PARALLEL value per execution mode: ``auto`` pins two workers so
#: the sharded kernel actually engages even on single-core CI runners.
_PARALLEL_ENV = {"off": "0", "auto": "2"}


def _observables(result):
    """The sim-level outputs that must not depend on the execution mode."""
    return (
        result.mean_turnaround_ms,
        result.wire_cells,
        result.persisted_cells,
        result.clock_state_cells,
        result.messages,
        result.hops,
        result.causal_ok,
    )


@pytest.mark.parametrize("parallel", ["off", "auto"])
@pytest.mark.parametrize("kind", ["bus", "tree"])
def test_scale_point(benchmark, kind, parallel, monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", _PARALLEL_ENV[parallel])
    result = benchmark.pedantic(
        run_remote_unicast,
        kwargs=dict(server_count=N, topology=kind, rounds=ROUNDS),
        iterations=1,
        rounds=1,
    )
    benchmark.extra_info["parallel"] = parallel
    record(benchmark, result)
    assert result.causal_ok


def test_parallel_observables_identical(benchmark, monkeypatch):
    """The sharded kernel is invisible at n=1000: every simulated
    observable matches the sequential run exactly."""

    def both():
        runs = {}
        for parallel, env in _PARALLEL_ENV.items():
            monkeypatch.setenv("REPRO_PARALLEL", env)
            runs[parallel] = run_remote_unicast(
                N, topology="bus", rounds=ROUNDS
            )
        return runs

    runs = bench_once(benchmark, both)
    assert _observables(runs["auto"]) == _observables(runs["off"])


def test_bus_keeps_unicast_in_the_hundreds_of_ms(benchmark):
    result = bench_once(
        benchmark,
        lambda: run_remote_unicast(N, topology="bus", rounds=ROUNDS),
    )
    assert result.mean_turnaround_ms < 500.0
    # while the flat model predicts tens of seconds per round trip:
    model = CostModel()
    flat_per_message_ms = (
        model.ser_ms_per_cell + model.deser_ms_per_cell
        + 2 * model.io_ms_per_cell
    ) * flat_unicast_cost(N)
    assert flat_per_message_ms > 20_000

def test_state_stays_tractable(benchmark):
    bus_result, tree_result = bench_once(
        benchmark,
        lambda: (
            run_remote_unicast(N, topology="bus", rounds=1),
            run_remote_unicast(N, topology="tree", rounds=1, domain_size=8),
        ),
    )
    flat_cells = N ** 3  # what the undomained MOM would hold resident
    # bus of √n domains: ~n·(√n)² = n² cells — here ~900x below flat's n³
    assert bus_result.clock_state_cells < flat_cells / 500
    # fixed-size tree domains hold even less state than √n bus domains
    assert tree_result.clock_state_cells < bus_result.clock_state_cells


FAN_IN_WORKERS = 4


def _fan_in(parallel, workers=0):
    """The s = 150 fan-in: twelve open-loop senders spread over the leaf
    domains, 40 sends each every 5 ms, all converging on one sink on
    the last server; returns ``(bus, sink, wall_s)``."""
    started = time.perf_counter()
    topology = builders.bus(150)
    bus = make_bus(
        BusConfig(
            topology=topology, seed=5, parallel=parallel, workers=workers
        )
    )
    sink_server = topology.servers[-1]
    sink = SinkAgent()
    sink_id = bus.deploy(sink, sink_server)
    plain = [
        s for s in topology.servers
        if not topology.is_router(s) and s != sink_server
    ]
    step = max(1, len(plain) // 12)
    for src in plain[::step][:12]:
        driver = OpenLoopDriver(period_ms=5.0, count=40)
        driver.bind(sink_id)
        bus.deploy(driver, src)
    bus.start()
    bus.run_until_idle()
    return bus, sink, time.perf_counter() - started


def _fan_in_observables(bus, sink):
    return (
        round(bus.sim.now, 6),
        sink.received,
        json.dumps(bus.cost_snapshot(), sort_keys=True),
    )


@pytest.fixture
def config_controls_parallel(monkeypatch):
    """The mode comes from the config, not from a suite-wide
    ``REPRO_PARALLEL``; shard telemetry stays on."""
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    monkeypatch.delenv("REPRO_SHARDMON", raising=False)


def test_sharded_fan_in_contract(config_controls_parallel):
    seq_bus, seq_sink, _ = _fan_in("off")
    par_bus, par_sink, _ = _fan_in("auto", workers=FAN_IN_WORKERS)
    assert isinstance(par_bus, ShardedBus), "fan-in fell back to sequential"
    assert _fan_in_observables(par_bus, par_sink) == _fan_in_observables(
        seq_bus, seq_sink
    )
    assert round(seq_bus.sim.now, 3) == 11159.143
    assert seq_sink.received == 480
    telemetry = par_bus.shard_telemetry()
    sim = telemetry["sim"]
    assert sim["grants"] == 3696
    assert sim["events_total"] == 13899
    assert sim["events_per_shard"][0] == 11021
    assert sim["cross_shard"]["messages"] == 1690
    assert sim["cross_shard"]["bytes"] >= 1
    assert sim["window_width_ms"]["count"] == 3696
    assert sim["window_width_ms"]["max"] == 1.0000000000000142
    fraction = telemetry["wallclock"]["sync_overhead_fraction"]
    print(f"grants {sim['grants']}, sync overhead fraction {fraction:.4f}")
    assert 0.0 <= fraction <= 1.0


def test_sharded_fan_in_speedup(config_controls_parallel):
    """Best of two runs per side; only a host with at least as many CPUs
    as workers can measure a parallel speedup honestly."""
    cpus = os.cpu_count() or 1
    if cpus < FAN_IN_WORKERS:
        pytest.skip(f"host has {cpus} CPU(s); need >= {FAN_IN_WORKERS}")
    sequential_s = min(_fan_in("off")[2] for _ in range(2))
    sharded_s = min(
        _fan_in("auto", workers=FAN_IN_WORKERS)[2] for _ in range(2)
    )
    speedup = sequential_s / sharded_s
    print(f"speedup {speedup:.2f}x on {cpus} CPUs")
    assert speedup >= 1.5, f"speedup {speedup:.2f}x < 1.5x"
