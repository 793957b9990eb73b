"""Determinism guarantees: identical runs are bit-for-bit identical;
different seeds genuinely differ.

Everything else in this repository leans on this property — calibrated
figures, low round counts, diffable reports — so it gets its own tests.
"""

import io

import pytest

from repro.bench import run_broadcast, run_remote_unicast
from repro.bench.harness import run_lossy_jittery
from repro.mom.scenario import run_scenario


def run_jittery(seed):
    return run_lossy_jittery(seed)[0]


class TestDeterminism:
    def test_identical_runs_produce_identical_metrics(self):
        first = run_jittery(7).metrics.snapshot()
        second = run_jittery(7).metrics.snapshot()
        assert first == second

    def test_identical_runs_produce_identical_traces(self):
        a, b = run_jittery(7), run_jittery(7)
        buffer_a, buffer_b = io.StringIO(), io.StringIO()
        a.export_app_trace(buffer_a)
        b.export_app_trace(buffer_b)
        assert buffer_a.getvalue() == buffer_b.getvalue()

    def test_identical_runs_end_at_the_same_instant(self):
        assert run_jittery(3).sim.now == run_jittery(3).sim.now

    def test_different_seeds_differ(self):
        first = run_jittery(1)
        second = run_jittery(2)
        # with 10% loss and 20 ms jitter, two seeds agreeing on both the
        # final time and retransmission count would be astonishing
        fingerprints = [
            (
                mom.sim.now,
                sum(s.transport.retransmissions for s in mom.servers.values()),
            )
            for mom in (first, second)
        ]
        assert fingerprints[0] != fingerprints[1]

    def test_experiment_runners_are_deterministic(self):
        a = run_remote_unicast(20, topology="bus", rounds=5, seed=9)
        b = run_remote_unicast(20, topology="bus", rounds=5, seed=9)
        assert a.mean_turnaround_ms == b.mean_turnaround_ms
        assert a.wire_cells == b.wire_cells
        assert a.persisted_cells == b.persisted_cells

    def test_broadcast_runner_deterministic(self):
        a = run_broadcast(15, rounds=3, seed=4)
        b = run_broadcast(15, rounds=3, seed=4)
        assert a.mean_turnaround_ms == b.mean_turnaround_ms

    def test_scenarios_are_deterministic(self):
        scenario = {
            "topology": {"kind": "daisy", "servers": 10, "domain_size": 4},
            "seed": 11,
            "latency": {"kind": "exponential", "mean": 4.0},
            "agents": [
                {"name": "echo", "server": 9, "kind": "echo"},
                {
                    "name": "driver",
                    "server": 0,
                    "kind": "pingpong",
                    "target": "echo",
                    "rounds": 6,
                },
            ],
        }
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.metrics == second.metrics
        assert first.bus.sim.now == second.bus.sim.now
