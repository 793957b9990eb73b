"""End-to-end properties of the always-on cost accounting.

Three contracts the subsystem lives by:

1. **Determinism** — two runs with the same seed produce *byte-identical*
   snapshots (``write_json`` and ``to_prometheus`` output), including
   when the flight recorder (``REPRO_TRACE=1``) rides along. Snapshots
   are artifacts, so they must diff cleanly and gate in CI.
2. **The paper's cost claim** — read straight off the registry: a flat
   domain stamps 8·n² bytes per message (matrix clock over n servers),
   the bus decomposition at √n domain size stamps Θ(n). The empirical
   exponent must separate cleanly even at small sizes.
3. **CLI surfaces** — ``python -m repro.metrics`` demo/top/prom/json and
   ``python -m repro.mom --metrics-out`` round-trip the same snapshot.
"""

import hashlib
import io
import json

import pytest

from repro.metrics import read_json, to_prometheus, total, write_json
from repro.metrics.__main__ import main as metrics_main
from repro.mom import BusConfig, EchoAgent, MessageBus
from repro.mom.__main__ import main as mom_main
from repro.mom.workloads import PingPongDriver
from repro.simulation.network import UniformLatency
from repro.topology import builders
from repro.topology.routing import route


def _pingpong(topology, seed=0, rounds=6, latency=None):
    config = BusConfig(topology=topology, seed=seed)
    if latency is not None:
        config = BusConfig(topology=topology, seed=seed, latency=latency)
    mom = MessageBus(config)
    echo_id = mom.deploy(EchoAgent(), topology.server_count - 1)
    driver = PingPongDriver(rounds)
    driver.bind(echo_id)
    mom.deploy(driver, 0)
    mom.start()
    mom.run_until_idle()
    return mom


def _snapshot_bytes(mom):
    snapshot = mom.cost_snapshot()
    assert snapshot is not None
    out = io.StringIO()
    write_json(snapshot, out)
    return out.getvalue(), to_prometheus(snapshot)


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        jitter = UniformLatency(0.1, 15.0)
        a = _pingpong(builders.bus(12, 4), seed=3, latency=jitter)
        b = _pingpong(builders.bus(12, 4), seed=3, latency=jitter)
        json_a, prom_a = _snapshot_bytes(a)
        json_b, prom_b = _snapshot_bytes(b)
        assert json_a == json_b
        assert prom_a == prom_b

    def test_seed_changes_the_snapshot(self):
        """Negative control: the byte-identity above is not vacuous."""
        jitter = UniformLatency(0.1, 15.0)
        a = _pingpong(builders.bus(12, 4), seed=3, latency=jitter)
        b = _pingpong(builders.bus(12, 4), seed=4, latency=jitter)
        assert _snapshot_bytes(a)[0] != _snapshot_bytes(b)[0]

    def test_trace_does_not_perturb_accounting(self, monkeypatch):
        off = _snapshot_bytes(_pingpong(builders.bus(12, 4), seed=3))
        monkeypatch.setenv("REPRO_TRACE", "1")
        on = _snapshot_bytes(_pingpong(builders.bus(12, 4), seed=3))
        assert on == off

    def test_snapshot_roundtrips_through_json(self):
        mom = _pingpong(builders.bus(12, 4))
        snapshot = mom.cost_snapshot()
        out = io.StringIO()
        write_json(snapshot, out)
        assert read_json(io.StringIO(out.getvalue())) == snapshot


def _mostly_idle_bus():
    """bus(64) with two cross-domain ping-pong pairs and a scripted crash
    of a router on one route: 8 of the 64 servers ever see an edge."""
    mom = MessageBus(BusConfig(topology=builders.bus(64), seed=5))
    for src, dst in ((0, 42), (17, 58)):
        echo_id = mom.deploy(EchoAgent(), dst)
        driver = PingPongDriver(6)
        driver.bind(echo_id)
        mom.deploy(driver, src)
    mom.schedule_crash(30.0, 47, 200.0)
    mom.start()
    return mom


def _touched(server):
    """The domains whose item exists on ``server``; each must come with
    its hold-back store, created on the same first touch."""
    channel = server.channel
    touched = {
        domain.domain_id
        for domain in server.domains
        if channel.touched_item(domain.domain_id) is not None
    }
    assert set(channel._holdback) == touched
    return touched


def _sha(obj, **kwargs):
    return hashlib.sha256(json.dumps(obj, **kwargs).encode()).hexdigest()


#: What the boot-time accounting (every row an instrument) emitted for
#: ``_mostly_idle_bus``: the final snapshot and dump, and a snapshot
#: schedule (before the run, mid-run, final, dump). A sanitized bus
#: (REPRO_SANITIZE=1) must reproduce them byte for byte.
_FINAL_DIGEST = (
    "1b95ac08cbff69ecdf5d3abf7b6fecb9050f5a9e414ee3e5ad215e27f6141869"
)
_DUMP_DIGEST = (
    "26f4a0688f27653a56cda5176539e9278c34eee900d58e54e462aa703f62036e"
)
_SCHEDULE_DIGESTS = [
    "2f7a2fac94a2d4f1673b6228598b71283e396b9ac36eb3169bcc20e62206d845",
    "eaf1255641eb4fea822098ce0d970504ead36efb6ae314ee84bececddd224b8c",
    "2d8b39568fb1d1734741b3863fa0fc08b89f4efbfbe7a0ec6fb7188039a9be06",
    "6852f1dcb8783bd0a1f2d23bde1b00ed155ba6022e4e80bb5a7cd84f13f433aa",
]


class TestBootFollowsTraffic:
    """A server's instruments exist once an edge names it; the rows of a
    server no edge touched are rendered from the topology, and must match
    what the boot-time accounting emitted byte for byte."""

    def test_boot_builds_only_bus_wide_instruments(self):
        bus = MessageBus(BusConfig(topology=builders.bus(4000)))
        # 64 dwell histograms + 4 bus-wide instruments
        assert len(bus.accounting) <= 70
        rows = bus.cost_snapshot()["instruments"]
        assert len(rows) == 56_572
        assert len(bus.accounting) <= 70  # a snapshot resolves no one

    def test_boot_creates_no_channel_state(self):
        """No domain item, clock or hold-back store exists after boot,
        and the reads a harvest makes on every server create none."""
        bus = MessageBus(BusConfig(topology=builders.bus(4000)))
        for server in bus.servers.values():
            channel = server.channel
            assert channel.heldback_count == channel.unacked_count == 0
            assert server.engine.queued == 0
            assert server.transport.retransmissions == 0
            assert server.store.writes == 0
        bus.cost_snapshot()
        assert bus.total_clock_state_cells() == sum(
            domain.size ** 3 for domain in bus.config.topology.domains
        )
        assert not any(_touched(server) for server in bus.servers.values())

    def test_channel_state_follows_traffic(self):
        """After the run, exactly the (server, domain) pairs some hop
        crossed hold an item (with its clock) and a hold-back store; the
        nominal clock state is read off the topology, before and after."""
        mom = _mostly_idle_bus()
        cells = mom.total_clock_state_cells()
        assert not any(_touched(server) for server in mom.servers.values())
        mom.run_until_idle()
        topology = mom.config.topology
        tables = {sid: server.routing for sid, server in mom.servers.items()}
        crossed = set()
        for src, dst in ((0, 42), (42, 0), (17, 58), (58, 17)):
            path = route(tables, src, dst)
            for hop_src, hop_dst in zip(path, path[1:]):
                domain_id = topology.shared_domain(hop_src, hop_dst).domain_id
                crossed.update({(hop_src, domain_id), (hop_dst, domain_id)})
        assert {
            (sid, domain_id)
            for sid, server in mom.servers.items()
            for domain_id in _touched(server)
        } == crossed
        assert mom.total_clock_state_cells() == cells == sum(
            domain.size ** 3 for domain in topology.domains
        )

    def test_idle_rows_match_boot_time_accounting(self):
        mom = _mostly_idle_bus()
        mom.run_until_idle()
        assert mom.check_app_causality().respects_causality
        snapshot = mom.cost_snapshot()
        assert len(mom.accounting) < len(snapshot["instruments"])
        assert _sha(snapshot, sort_keys=True) == _FINAL_DIGEST
        assert _sha(mom.accounting.dump_state()) == _DUMP_DIGEST

    def test_observation_schedule_matches_boot_time_accounting(self):
        """Snapshots before the run (QueueIN full of boot reactions no
        edge has seen yet), mid-run and at the end: pulled gauges keep
        their peaks across snapshots, so the schedule is pinned whole."""
        mom = _mostly_idle_bus()
        digests = [_sha(mom.cost_snapshot(), sort_keys=True)]
        mom.run(until=100.0)
        digests.append(_sha(mom.cost_snapshot(), sort_keys=True))
        mom.run_until_idle()
        digests.append(_sha(mom.cost_snapshot(), sort_keys=True))
        digests.append(_sha(mom.accounting.dump_state(), sort_keys=True))
        assert digests == _SCHEDULE_DIGESTS


class TestStampCostScaling:
    """The §6 decomposition claim, empirically, at test-sized n."""

    def _bytes_per_msg(self, topology):
        mom = _pingpong(topology)
        snapshot = mom.cost_snapshot()
        messages = total(snapshot, "bus_notifications_total")
        return total(snapshot, "channel_stamp_bytes_total") / messages

    def test_flat_is_quadratic(self):
        # 8 bytes/cell × n² cells per stamp, exactly.
        for n in (9, 16, 36):
            assert self._bytes_per_msg(builders.single_domain(n)) == 8 * n * n

    def test_bus_is_linear(self):
        # √n leaf domains: every stamp is 8·n bytes over a 3-hop route,
        # constant 16·n per end-to-end message.
        for n in (16, 36, 64):
            assert self._bytes_per_msg(builders.bus(n)) == 16 * n

    def test_empirical_exponents_separate(self):
        """Fit log(bytes)/log(n) growth between n=16 and n=64: the flat
        exponent must be ~2, the decomposed one ~1."""
        import math

        def exponent(build):
            lo = self._bytes_per_msg(build(16))
            hi = self._bytes_per_msg(build(64))
            return math.log(hi / lo) / math.log(64 / 16)

        flat = exponent(builders.single_domain)
        bus = exponent(builders.bus)
        assert flat == pytest.approx(2.0, abs=0.01)
        assert bus == pytest.approx(1.0, abs=0.01)
        assert flat - bus > 0.9


class TestMetricsCli:
    def test_demo_writes_snapshot_and_prom(self, tmp_path, capsys):
        json_path = tmp_path / "snap.json"
        prom_path = tmp_path / "snap.prom"
        code = metrics_main(
            [
                "demo",
                "--servers",
                "12",
                "--rounds",
                "4",
                "--json",
                str(json_path),
                "--prom",
                str(prom_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stamp" in out  # the dashboard rendered something costy
        snapshot = json.loads(json_path.read_text())
        assert snapshot["format"].startswith("repro.metrics")
        assert "channel_stamp_bytes_total" in prom_path.read_text()

    def test_top_prom_json_consume_a_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        metrics_main(["demo", "--rounds", "3", "--json", str(snap)])
        capsys.readouterr()

        assert metrics_main(["top", str(snap), "--servers"]) == 0
        assert "domain" in capsys.readouterr().out

        assert metrics_main(["prom", str(snap)]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE" in prom and "channel_commits_total" in prom

        norm = tmp_path / "norm.json"
        assert metrics_main(["json", str(snap), "-o", str(norm)]) == 0
        assert json.loads(norm.read_text()) == json.loads(snap.read_text())

    def test_missing_snapshot_is_a_config_error(self, tmp_path, capsys):
        assert metrics_main(["top", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_snapshot_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a snapshot"}')
        assert metrics_main(["prom", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestMomMetricsOut:
    SCENARIO = {
        "topology": {"kind": "bus", "servers": 12, "domain_size": 4},
        "seed": 5,
        "agents": [
            {"name": "echo", "server": 11, "kind": "echo"},
            {
                "name": "driver",
                "server": 0,
                "kind": "pingpong",
                "target": "echo",
                "rounds": 8,
            },
        ],
    }

    def test_metrics_out_writes_loadable_snapshot(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(self.SCENARIO))
        out = tmp_path / "costs.json"
        code = mom_main([str(scenario), "--metrics-out", str(out)])
        assert code == 0
        assert "cost snapshot written" in capsys.readouterr().out
        with open(out) as stream:
            snapshot = read_json(stream)
        assert total(snapshot, "bus_notifications_total") > 0
        # ...and the metrics CLI can render it.
        assert metrics_main(["top", str(out)]) == 0

    def test_metrics_out_fails_cleanly_when_disabled(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_METRICS", "0")
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(self.SCENARIO))
        out = tmp_path / "costs.json"
        assert mom_main([str(scenario), "--metrics-out", str(out)]) == 2
        assert "disabled" in capsys.readouterr().err
        assert not out.exists()
