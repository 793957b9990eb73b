"""Shard-runtime telemetry (``REPRO_SHARDMON``) and its read side.

The contract under test (docs/parallel.md): the merged payload keeps a
**deterministic** ``sim`` section — byte-identical across repeated runs
of the same scenario, the part ``benchmarks/test_scale_1000.py`` pins —
strictly separated from the **non-deterministic** ``wallclock``
section, and a monitored run stays bit-identical to a bare one. The worker-crash path
rides along: a shard worker that dies ships its flight record over the
pipe, and the re-raised error names the artifact.
"""

import json
import re

import pytest

from repro.errors import ConfigurationError
from repro.mom.agent import Agent, EchoAgent
from repro.mom.config import BusConfig
from repro.mom.parallel import ShardedBus, make_bus
from repro.mom.workloads import PingPongDriver
from repro.obs import install as obs_install
from repro.obs import is_installed as obs_is_installed
from repro.obs import shardmon
from repro.obs import uninstall as obs_uninstall
from repro.obs.__main__ import main
from repro.simulation.telemetry import FORMAT, sync_overhead_fraction
from repro.topology import builders


@pytest.fixture(autouse=True)
def config_controls_parallel(monkeypatch):
    """Pin the execution mode via the config field (the CI parallel job
    sets ``REPRO_PARALLEL`` suite-wide) and keep telemetry on."""
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    monkeypatch.delenv("REPRO_SHARDMON", raising=False)


def _sharded_run(*, seed=0, rounds=10, workers=4, traced=False):
    """A routed ping-pong on the sharded kernel; returns the bus."""
    config = BusConfig(
        topology=builders.bus(12, 4), seed=seed,
        parallel="auto", workers=workers,
    )
    # never uninstall a hook this test did not install: a REPRO_TRACE=1
    # suite run owns the global tracer hook, and removing it here would
    # silently untrace every test that follows
    installed_here = traced and not obs_is_installed()
    if installed_here:
        obs_install()
    try:
        bus = make_bus(config)
        assert isinstance(bus, ShardedBus)
        echo_id = bus.deploy(EchoAgent(), 9)
        driver = PingPongDriver(rounds)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        bus.start()
        bus.run_until_idle()
    finally:
        if installed_here:
            obs_uninstall()
    return bus


@pytest.fixture(scope="module")
def payload():
    # module-scoped fixtures are set up before the function-scoped
    # autouse env cleanup, so pin the env here too (a suite-level
    # REPRO_PARALLEL=2 would otherwise change the shard plan)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_PARALLEL", raising=False)
        mp.delenv("REPRO_SHARDMON", raising=False)
        telemetry = _sharded_run().shard_telemetry()
    assert telemetry is not None
    return telemetry


class TestPayload:
    def test_shape_and_sections(self, payload):
        assert payload["format"] == FORMAT
        workers = payload["workers"]
        assert workers >= 2
        assert payload["lookahead_ms"] > 0
        sim = payload["sim"]
        assert sim["grants"] > 0
        assert sim["events_total"] > 0
        assert len(sim["events_per_shard"]) == workers
        assert len(sim["arrivals_per_shard"]) == workers
        assert len(sim["packets_out_per_shard"]) == workers
        assert sum(sim["events_per_shard"]) == sim["events_total"]
        # routed ping-pong must cross shard borders
        assert sim["cross_shard"]["messages"] > 0
        assert sim["cross_shard"]["bytes"] > 0
        for pair, stats in sim["cross_shard"]["pairs"].items():
            src, dst = pair.split("->")
            assert src != dst
            assert stats["messages"] > 0
        width = sim["window_width_ms"]
        assert width["count"] == sim["grants"]
        assert 0 < width["min"] <= width["max"]
        # every granted window is at most the lookahead wide (float
        # noise aside, which the recorded max itself exposes)
        assert width["max"] == pytest.approx(payload["lookahead_ms"])

    def test_wallclock_section_separated(self, payload):
        wall = payload["wallclock"]
        assert len(wall["per_shard"]) == payload["workers"]
        for row in wall["per_shard"]:
            assert row["compute_s"] >= 0.0
            assert row["blocked_on_grant_s"] >= 0.0
            assert row["pipe_io_s"] >= 0.0
        assert 0.0 <= wall["sync_overhead_fraction"] <= 1.0
        # no wall-clock key leaks into the gated sim section
        assert not any(key.endswith("_s") for key in payload["sim"])

    def test_grant_timeline_covers_the_run(self, payload):
        timeline = payload["sim"]["grant_timeline"]
        assert timeline
        assert len(timeline) <= payload["sim"]["grants"]
        for (lbts, bound, fired) in timeline:
            assert bound > lbts
            assert fired >= 0
        # rounds are granted in nondecreasing LBTS order
        starts = [row[0] for row in timeline]
        assert starts == sorted(starts)

    def test_sim_section_is_byte_deterministic(self, payload):
        again = _sharded_run().shard_telemetry()
        assert json.dumps(again["sim"], sort_keys=True) == json.dumps(
            payload["sim"], sort_keys=True
        )

    def test_kill_switch_disables_recording(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDMON", "0")
        bus = _sharded_run(rounds=3)
        assert bus.shard_telemetry() is None

    def test_sync_overhead_fraction(self):
        assert sync_overhead_fraction([]) == 0.0
        dumps = [
            {"wallclock": {"compute_s": 3.0, "blocked_on_grant_s": 1.0,
                           "pipe_io_s": 0.0}},
            {"wallclock": {"compute_s": 3.0, "blocked_on_grant_s": 0.0,
                           "pipe_io_s": 1.0}},
        ]
        assert sync_overhead_fraction(dumps) == pytest.approx(0.25)
        idle = [{"wallclock": {"compute_s": 0.0}}]
        assert sync_overhead_fraction(idle) == 0.0


class TestRenderAndLoad:
    def test_render_keeps_the_sections_apart(self, payload):
        report = shardmon.render(payload)
        assert "  sim observables (deterministic, gated):" in report
        assert "  wallclock (non-deterministic, unguarded):" in report
        assert report.index("sim observables") < report.index("wallclock")
        assert "grant rounds" in report
        assert "messages, " in report and "bytes on the worker pipes" in report
        assert "rounds retained" in report
        assert "sync overhead" in report
        assert f"shard runtime ({FORMAT})" in report

    def test_render_rejects_foreign_payloads(self):
        with pytest.raises(ConfigurationError):
            shardmon.render({"format": "something/else"})

    def test_load_round_trips(self, payload, tmp_path):
        path = tmp_path / "telemetry.json"
        path.write_text(json.dumps(payload))
        assert shardmon.load(str(path)) == json.loads(json.dumps(payload))

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ConfigurationError):
            shardmon.load(str(path))


class TestCli:
    def test_shards_from_file(self, payload, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        path.write_text(json.dumps(payload))
        assert main(["shards", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sim observables (deterministic, gated):" in out
        assert "wallclock (non-deterministic, unguarded):" in out

    def test_shards_needs_a_source(self, capsys):
        assert main(["shards"]) == 2
        assert "telemetry JSON path" in capsys.readouterr().err

    def test_shards_demo(self, monkeypatch, capsys):
        # the demo mutates REPRO_PARALLEL/REPRO_SHARDMON directly;
        # registering them with monkeypatch restores them afterwards
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert main(
            ["shards", "--demo", "--servers", "10", "--domain-size", "4",
             "--rounds", "3", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        assert "sim observables (deterministic, gated):" in out


class TestMergedTraceDump:
    def test_sequential_shaped_dump_from_sharded_bus(self):
        bus = _sharded_run(traced=True)
        dump = shardmon.merged_trace_dump(bus)
        events = dump.events
        assert events
        # globally re-sequenced: seq is the (t, shard, seq) order
        assert [e.seq for e in events] == list(range(len(events)))
        assert [e.t for e in events] == sorted(e.t for e in events)
        assert dump.meta["now"] == bus.sim.now
        assert dump.meta["server_ids"] == sorted(
            bus.config.topology.servers
        )
        assert dump.histograms, "worker tracers must ship histograms"

    def test_untraced_bus_is_rejected(self):
        # a REPRO_TRACE=1 suite run traces every worker bus; force the
        # untraced case either way
        was_installed = obs_is_installed()
        if was_installed:
            obs_uninstall()
        try:
            bus = _sharded_run(rounds=3)
        finally:
            if was_installed:
                obs_install()
        with pytest.raises(ConfigurationError):
            shardmon.merged_trace_dump(bus)


class _Exploder(Agent):
    """Dies on its first delivery — inside a forked shard worker."""

    def react(self, ctx, sender, payload):
        raise RuntimeError("exploder died on purpose")


class TestWorkerCrashFlightRecord:
    def test_error_names_the_artifact(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        config = BusConfig(
            topology=builders.bus(12, 4), seed=0,
            parallel="auto", workers=2,
        )
        installed_here = not obs_is_installed()
        if installed_here:
            obs_install()
        try:
            bus = make_bus(config)
            assert isinstance(bus, ShardedBus)
            victim = bus.deploy(_Exploder(), 9)
            driver = PingPongDriver(3)
            driver.bind(victim)
            bus.deploy(driver, 0)
            bus.start()
            with pytest.raises(RuntimeError) as excinfo:
                bus.run_until_idle()
        finally:
            if installed_here:
                obs_uninstall()
            bus.close()
        message = str(excinfo.value)
        assert "exploder died on purpose" in message
        match = re.search(r"\[flight record: (.+?)\]", message)
        assert match, f"error must name the flight record: {message!r}"
        path = match.group(1)
        assert bus.flight_records == [path]
        assert str(tmp_path) in path
        rows = [
            json.loads(line)
            for line in open(f"{path}/events.jsonl")
        ]
        kinds = {row["kind"] for row in rows if row["record"] == "event"}
        # the worker's ring holds its own shard's events only; the one
        # certainty is the reaction the crash interrupted
        assert "reaction_start" in kinds, (
            "the ring tail must reach the artifact"
        )

    def test_autodump_kill_switch(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_OBS_AUTODUMP", "0")
        config = BusConfig(
            topology=builders.bus(12, 4), seed=0,
            parallel="auto", workers=2,
        )
        installed_here = not obs_is_installed()
        if installed_here:
            obs_install()
        try:
            bus = make_bus(config)
            victim = bus.deploy(_Exploder(), 9)
            driver = PingPongDriver(3)
            driver.bind(victim)
            bus.deploy(driver, 0)
            bus.start()
            with pytest.raises(RuntimeError) as excinfo:
                bus.run_until_idle()
        finally:
            if installed_here:
                obs_uninstall()
            bus.close()
        assert "[flight record:" not in str(excinfo.value)
        assert bus.flight_records == []
