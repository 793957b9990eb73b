"""The critical-path profiler: exact attribution, the run-level walk,
the CLI, and the Chrome-trace overlay.

The headline contract (also pinned on the traced churn run by
``tests/test_bench_contract.py``): for every delivered message, the five
categories {transit, hop_relay, causal_holdback, queue, processing} sum
to the measured end-to-end sim-time latency *bit-identically* — no
float slack, on routed and held-back deliveries alike.
"""

import json
import os
from fractions import Fraction

import pytest

from repro.mom.agent import EchoAgent, FunctionAgent
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.obs import attach
from repro.obs.critpath import (
    CATEGORIES,
    CriticalPathAnalyzer,
    critpath_spans,
)
from repro.obs.__main__ import main
from repro.simulation.network import UniformLatency
from repro.topology.builders import bus as bus_topology
from repro.topology.builders import single_domain


def _run_traced(topology, *, seed=7, jitter=True, loss=0.1, sends=10,
                target=None):
    """A traced fan-in run; jitter + loss exercises hold-back."""
    kwargs = {}
    if jitter:
        kwargs["latency"] = UniformLatency(0.1, 20.0)
        kwargs["loss_rate"] = loss
    mom = MessageBus(BusConfig(topology=topology, seed=seed, **kwargs))
    tracer = attach(mom)
    if target is None:
        target = topology.server_count - 1
    echo_id = mom.deploy(EchoAgent(), target)
    sender = FunctionAgent(lambda ctx, s, p: None)

    def boot(ctx):
        for i in range(sends):
            ctx.send(echo_id, i)

    sender.on_boot = boot
    mom.deploy(sender, 0)
    mom.start()
    mom.run_until_idle()
    return tracer.ring.events()


@pytest.fixture(scope="module")
def jittery_analyzer():
    """Routed + held-back + retransmitted: the hard case."""
    events = _run_traced(bus_topology(12, 4), target=9)
    assert any(e.kind == "holdback_enter" for e in events)
    assert any(e.kind == "retransmit" for e in events)
    return CriticalPathAnalyzer(events)


class TestExactAttribution:
    def test_every_delivery_decomposes_exactly(self, jittery_analyzer):
        nids = jittery_analyzer.delivered_nids()
        assert len(nids) >= 10
        for nid in nids:
            b = jittery_analyzer.breakdown(nid)
            assert b is not None
            assert b.is_exact(), f"nid {nid}: attribution not exact"
            # the exact identity, spelled out: sum of category Fractions
            # equals the exact timestamp difference
            assert sum(b.totals.values(), Fraction(0)) == (
                Fraction(b.delivered_at) - Fraction(b.sent_at)
            )
            # ... and its correctly-rounded float equals the recorded
            # end-to-end latency of the reaction_commit event
            if b.e2e_value > 0:
                assert b.e2e_ms == b.e2e_value

    def test_segments_tile_the_timeline(self, jittery_analyzer):
        for nid in jittery_analyzer.delivered_nids():
            b = jittery_analyzer.breakdown(nid)
            segs = b.segments
            assert segs[0].t0 == b.sent_at
            assert segs[-1].t1 == b.delivered_at
            for left, right in zip(segs, segs[1:]):
                assert left.t1 == right.t0, "segments must tile, no gaps"
                assert left.category != right.category, (
                    "maximal same-category runs must be merged"
                )
            for seg in segs:
                assert seg.category in CATEGORIES
                assert seg.ms >= 0

    def test_held_messages_show_causal_holdback(self, jittery_analyzer):
        held = {
            e.nid
            for e in jittery_analyzer._events
            if e.kind == "holdback_enter"
        }
        delivered_held = held & set(jittery_analyzer.delivered_nids())
        assert delivered_held, "fixture must deliver a held-back message"
        for nid in delivered_held:
            b = jittery_analyzer.breakdown(nid)
            assert b.totals["causal_holdback"] > 0

    def test_routed_delivery_has_hop_relay(self, jittery_analyzer):
        for nid in jittery_analyzer.delivered_nids():
            b = jittery_analyzer.breakdown(nid)
            if len(b.route) > 2:  # crossed at least one router
                assert b.totals["hop_relay"] > 0
                break
        else:
            pytest.fail("bus(12,4) traffic must cross routers")

    def test_single_domain_has_no_relay(self):
        events = _run_traced(single_domain(4), jitter=False, sends=3)
        analyzer = CriticalPathAnalyzer(events)
        nids = analyzer.delivered_nids()
        assert nids
        for nid in nids:
            b = analyzer.breakdown(nid)
            assert b.is_exact()
            assert len(b.route) == 2  # sender -> target, one hop
            # no routers to relay through — but in-domain hold-back is
            # still possible (a later send arriving before an earlier
            # one committed), so only hop_relay must vanish
            assert b.totals["hop_relay"] == 0
            assert b.totals["transit"] > 0
            assert b.totals["processing"] > 0

    def test_unknown_nid_is_none(self, jittery_analyzer):
        assert jittery_analyzer.breakdown(999999) is None

    def test_category_summary_aggregates_exactly(self, jittery_analyzer):
        summary = jittery_analyzer.category_summary()
        assert summary["exact"] is True
        assert summary["deliveries"] == len(
            jittery_analyzer.delivered_nids()
        )
        shares = sum(
            row["share"] for row in summary["categories"].values()
        )
        assert shares == pytest.approx(1.0)
        total = sum(row["ms"] for row in summary["categories"].values())
        assert total == pytest.approx(summary["e2e_ms_total"])


class TestRunCriticalPath:
    def test_path_ends_at_last_delivery(self, jittery_analyzer):
        steps = jittery_analyzer.run_critical_path()
        assert steps, "completed run must have a critical path"
        last = max(
            (
                e
                for e in jittery_analyzer._events
                if e.kind == "reaction_commit" and e.nid >= 0
            ),
            key=lambda e: (e.t, e.nid),
        )
        assert steps[-1].nid == last.nid  # root-cause-first ordering
        for step in steps:
            assert step.is_exact()

    def test_chain_links_through_releasing_commits(self, jittery_analyzer):
        steps = jittery_analyzer.run_critical_path()
        for earlier, later in zip(steps, steps[1:]):
            waits = jittery_analyzer.waits(later.nid)
            blockers = {
                w["blocker_nid"]
                for w in waits
                if w["blocker_nid"] is not None
            }
            assert earlier.nid in blockers

    def test_waits_blockers_precede_releases(self, jittery_analyzer):
        checked = 0
        for nid in jittery_analyzer.delivered_nids():
            for wait in jittery_analyzer.waits(nid):
                if wait["released_at"] is None:
                    continue
                assert wait["entered_at"] <= wait["released_at"]
                if wait["blocker_nid"] is not None:
                    assert wait["blocker_nid"] != nid
                    checked += 1
        assert checked > 0


class TestChromeOverlay:
    def test_spans_are_balanced_async_pairs(self, jittery_analyzer):
        spans = critpath_spans(jittery_analyzer._events)
        assert spans and len(spans) % 2 == 0
        assert {s["cat"] for s in spans} == {"critpath"}
        begins = [s for s in spans if s["ph"] == "b"]
        ends = [s for s in spans if s["ph"] == "e"]
        assert len(begins) == len(ends)
        assert {s["id"] for s in begins} == {s["id"] for s in ends}
        for span in spans:
            assert span["args"]["category"] in CATEGORIES


@pytest.fixture(scope="module")
def demo_dump(tmp_path_factory):
    root = tmp_path_factory.mktemp("critpath-cli")
    assert main(
        ["record", "--servers", "10", "--domain-size", "4",
         "--rounds", "5", "--seed", "0", "-o", str(root)]
    ) == 0
    (artifact,) = os.listdir(root)
    return str(root / artifact)


def _delivered_nid(dump_dir):
    with open(os.path.join(dump_dir, "events.jsonl")) as stream:
        for line in stream:
            row = json.loads(line)
            if (
                row.get("record") == "event"
                and row["kind"] == "reaction_commit"
                and row["nid"] >= 0
            ):
                return row["nid"]
    raise AssertionError("demo run delivered nothing")


class TestCli:
    def test_critpath_one_delivery(self, demo_dump, capsys):
        nid = _delivered_nid(demo_dump)
        assert main(["critpath", str(nid), demo_dump]) == 0
        out = capsys.readouterr().out
        assert f"message {nid}" in out
        for name in CATEGORIES:
            assert name in out
        assert "[exact: categories sum to the measured latency]" in out

    def test_critpath_run_summary(self, demo_dump, capsys):
        assert main(["critpath", "--run", demo_dump]) == 0
        out = capsys.readouterr().out
        assert "run critical path:" in out
        assert "run summary:" in out
        assert "INEXACT" not in out

    def test_critpath_needs_nid_or_run(self, demo_dump, capsys):
        assert main(["critpath", demo_dump]) == 2

    def test_critpath_unknown_nid(self, demo_dump, capsys):
        assert main(["critpath", "999999", demo_dump]) == 1

    def test_export_overlays_critical_path(self, demo_dump, tmp_path,
                                           capsys):
        out_path = str(tmp_path / "with.json")
        assert main(
            ["export", demo_dump, "--chrome", "-o", out_path]
        ) == 0
        with open(out_path) as stream:
            doc = json.load(stream)
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "critpath" in cats

        bare_path = str(tmp_path / "without.json")
        assert main(
            ["export", demo_dump, "--chrome", "--no-critpath",
             "-o", bare_path]
        ) == 0
        with open(bare_path) as stream:
            bare = json.load(stream)
        assert "critpath" not in {
            e.get("cat") for e in bare["traceEvents"]
        }
