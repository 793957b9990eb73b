"""The flight recorder: post-mortem dumps on failure paths.

On a :class:`SanitizerViolation` (or an unhandled exception during a
traced run) every live tracer dumps its ring, Chrome trace and per-server
state to an artifact directory, and the violation message points at it.
"""

import hashlib
import json
import os

import pytest

from repro.analysis.sanitizer import SanitizerViolation
from repro.mom.agent import EchoAgent
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.mom.workloads import OpenLoopDriver, PingPongDriver, SinkAgent
from repro.obs import flight_recorder
from repro.obs.export import read_jsonl
from repro.obs.tracer import attach
from repro.topology.builders import bus as bus_topology
from repro.topology.builders import single_domain


def traced_pingpong(topology=None, rounds=3):
    mom = MessageBus(BusConfig(topology=topology or single_domain(4)))
    tracer = attach(mom)
    echo_id = mom.deploy(EchoAgent(), mom.config.topology.server_count - 1)
    driver = PingPongDriver(rounds)
    driver.bind(echo_id)
    mom.deploy(driver, 0)
    mom.start()
    mom.run_until_idle()
    return mom, tracer


class TestDumpArtifact:
    def test_dump_writes_all_three_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        _, tracer = traced_pingpong()
        path = flight_recorder.dump(tracer, reason="unit test!")
        assert os.path.dirname(path) == str(tmp_path)
        assert "unit-test" in os.path.basename(path)
        files = sorted(os.listdir(path))
        assert files == ["events.jsonl", "state.json", "trace.json"]

    def test_events_artifact_reloads_as_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        _, tracer = traced_pingpong()
        path = flight_recorder.dump(tracer)
        with open(os.path.join(path, "events.jsonl")) as stream:
            dump = read_jsonl(stream)
        assert dump.meta["next_seq"] == tracer.ring.next_seq
        assert dump.events == tracer.events()

    def test_state_artifact_describes_every_server(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        mom, tracer = traced_pingpong(topology=bus_topology(8, 4))
        path = flight_recorder.dump(tracer, reason="state-check")
        with open(os.path.join(path, "state.json")) as stream:
            state = json.load(stream)
        assert state["reason"] == "state-check"
        assert state["sim_now_ms"] == mom.sim.now
        servers = state["servers"]
        assert sorted(int(k) for k in servers) == list(
            mom.config.topology.servers
        )
        for entry in servers.values():
            assert entry["crashed"] is False
            assert "clocks" in entry


class TestStateBytes:
    """``state.json`` is read through the channel's public state view;
    its bytes are pinned on a crash instant with unacked hops, held-back
    envelopes in two domains and a crashed server."""

    #: sha256 of the artifact's state.json at t=100 ms
    PINNED = (
        "ec5322b325a12ab93f7062b3f43818662f17e92d3748238c3df476c734f615b6"
    )

    def test_crash_instant_state_bytes_are_pinned(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        mom = MessageBus(BusConfig(topology=bus_topology(12, 4)))
        for src, dst in [(0, 9), (9, 0), (4, 11)]:
            sink_id = mom.deploy(SinkAgent(), dst)
            driver = OpenLoopDriver(period_ms=7.0, count=15)
            driver.bind(sink_id)
            mom.deploy(driver, src)
        mom.schedule_crash(40.0, 3, 300.0)
        tracer = attach(mom)
        mom.start()
        mom.run(until=100.0)
        path = flight_recorder.dump(tracer, reason="pinned")
        with open(os.path.join(path, "state.json"), "rb") as stream:
            data = stream.read()
        servers = json.loads(data)["servers"]
        assert servers["3"]["crashed"] is True
        assert servers["11"]["heldback"] == {"D0": 1, "D3": 2}
        assert servers["7"]["unacked_hop_seqs"] == [2, 3]
        assert hashlib.sha256(data).hexdigest() == self.PINNED


class TestAutodump:
    def test_capped_per_tracer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        _, tracer = traced_pingpong()
        paths = [
            flight_recorder.autodump(tracer, "cap-check") for _ in range(5)
        ]
        assert all(p is not None for p in paths[: flight_recorder.MAX_AUTODUMPS])
        assert all(p is None for p in paths[flight_recorder.MAX_AUTODUMPS :])

    def test_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_OBS_AUTODUMP", "0")
        _, tracer = traced_pingpong()
        assert flight_recorder.autodump(tracer, "disabled") is None
        assert os.listdir(tmp_path) == []


class TestSanitizerIntegration:
    def test_violation_message_points_at_flight_record(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        _, tracer = traced_pingpong()
        error = SanitizerViolation("unit-kind", "something broke")
        assert error.artifact is not None
        assert f"[flight record: {error.artifact}]" in str(error)
        assert "violation-unit-kind" in os.path.basename(error.artifact)
        assert os.path.exists(os.path.join(error.artifact, "events.jsonl"))
        assert tracer.ring.next_seq > 0

    def test_violation_without_tracing_has_no_artifact(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        import gc

        gc.collect()  # tracer<->bus cycles from earlier tests
        if flight_recorder._live_tracers():
            pytest.skip("another live tracer in this process would dump")
        error = SanitizerViolation("unit-kind", "something broke")
        assert error.artifact is None
        assert "[flight record:" not in str(error)


class TestCrashEvents:
    def test_crash_and_recover_recorded(self):
        mom, tracer = traced_pingpong(topology=single_domain(4), rounds=8)
        # run again with a mid-stream crash of the echo server
        mom = MessageBus(BusConfig(topology=single_domain(4)))
        tracer = attach(mom)
        echo_id = mom.deploy(EchoAgent(), 3)
        driver = PingPongDriver(8)
        driver.bind(echo_id)
        mom.deploy(driver, 0)
        mom.sim.schedule_at(5.0, lambda: mom.server(3).crash())
        mom.sim.schedule_at(250.0, lambda: mom.server(3).recover())
        mom.start()
        mom.run_until_idle()
        kinds = [
            (e.kind, e.server)
            for e in tracer.events()
            if e.kind in ("crash", "recover")
        ]
        assert kinds == [("crash", 3), ("recover", 3)]
        crash, recover = (
            e for e in tracer.events() if e.kind in ("crash", "recover")
        )
        assert crash.t == 5.0
        assert recover.t == 250.0
        assert crash.nid == -1
