"""The small-scope protocol model checker (the dynamic admission gate).

Covers: admission of all shipping causal cores, rejection of the
non-causal FIFO baseline and the ``notransitive`` fixture with a
causal-violation witness, rejection of a seeded merge bug (the
``droprow`` fixture) with a hold-back-leak counterexample, Theorem 1 at
small scope through the real router (an acyclic two-domain topology is
admitted, the Figure-4(a) ring is not), the scripted scenario table
(scenario × core), the static admission scan for file-loaded
candidates, the ``--changed`` trigger set, and the CLI exit-code
contract (0 admitted / 1 violation / 2 usage or scan error).
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.__main__ import _model_relevant
from repro.analysis.model import (
    ScanError,
    Send,
    check_core,
    check_named,
    check_scenario,
    check_topology,
    checkable_cores,
    clamp_scope,
    load_candidate,
    scan_candidate,
)
from repro.causality import check_trace
from repro.errors import ConfigurationError, ProtocolError
from repro.protocol import get_core
from repro.topology.builders import from_domain_map, single_domain

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "model_fixtures"
DROPROW = FIXTURES / "droprow.py"
NOTRANSITIVE = FIXTURES / "notransitive.py"


def relay_react(receiver, tag):
    """The triangle relay: 0 -> 2 direct races 0 -> 1 -> 2."""
    return [Send(1, 2, "m2")] if (receiver, tag) == (1, "m1") else []


def diamond_react(receiver, tag):
    """0 fans out to 1 and 2; each relays to 3."""
    if tag == "fan" and receiver in (1, 2):
        return [Send(receiver, 3, f"relay{receiver}")]
    return []


def pingpong_react(receiver, tag):
    """0 <-> 2 ping-pong with a side relay through 1."""
    if receiver == 2 and tag == "ping":
        return [Send(2, 0, "pong")]
    if receiver == 1 and tag == "via":
        return [Send(1, 2, "relayed")]
    return []


def crossing_react(receiver, tag):
    """Two relays crossing in opposite directions through the middle."""
    if receiver == 1 and tag == "east":
        return [Send(1, 2, "east2")]
    if receiver == 1 and tag == "west":
        return [Send(1, 0, "west2")]
    return []


def chatter_react(receiver, tag):
    """A 4-server storm: fan-out, reply, and a second-generation relay."""
    if tag == "seed" and receiver in (1, 2):
        return [
            Send(receiver, 3, f"gen1-{receiver}"),
            Send(receiver, 0, "ack"),
        ]
    if tag == "gen1-1" and receiver == 3:
        return [Send(3, 0, "closing")]
    return []


# scenario: (servers, initial sends, react rule, distinct terminal
# delivery orders admitted by an exact core, and by the per-pair FIFO
# core). A delivery order is every server's sequence of (sender, tag);
# where the fifo count is larger, the extra orders are causal violations.
SCENARIOS = {
    # a-then-b or b-then-a at server 2
    "concurrent": (3, [Send(0, 2, "a"), Send(1, 2, "b")], None, 2, 2),
    "fifo-pair": (2, [Send(0, 1, "first"), Send(0, 1, "second")], None, 1, 1),
    # the burst is totally ordered; only x floats: 5 positions
    "burst": (
        3,
        [Send(0, 2, str(i)) for i in range(4)] + [Send(1, 2, "x")],
        None,
        5,
        5,
    ),
    "relay": (3, [Send(0, 2, "n"), Send(0, 1, "m1")], relay_react, 1, 2),
    # Counted as whole-run interleavings this was "> 10"; as delivery
    # orders only server 3's two relays float after the direct message.
    # fifo adds the four orders where a relay beats it.
    "diamond": (
        4,
        [Send(0, 3, "direct"), Send(0, 1, "fan"), Send(0, 2, "fan")],
        diamond_react,
        2,
        6,
    ),
    # ping precedes relayed at 2; fifo lets relayed go first
    "pingpong": (
        3, [Send(0, 2, "ping"), Send(0, 1, "via")], pingpong_react, 1, 2
    ),
    # east/west in either order at 1; each far end gets one message
    "crossing": (
        3, [Send(0, 1, "east"), Send(2, 1, "west")], crossing_react, 2, 2
    ),
    # direct is sent after the seeds, so nothing at 3 or 0 is ordered:
    # 3! orders at server 3 times 3! at server 0
    "chatter": (
        4,
        [Send(0, 1, "seed"), Send(0, 2, "seed"), Send(0, 3, "direct")],
        chatter_react,
        36,
        36,
    ),
    # without relays per-pair FIFO is enough: c floats around a, b
    "no-relay": (
        3,
        [Send(0, 2, "a"), Send(0, 2, "b"), Send(1, 2, "c")],
        None,
        3,
        3,
    ),
}
EXACT_CORES = ("matrix", "updates", "histories")


class TestAdmission:
    @pytest.mark.parametrize("name", ["matrix", "updates", "histories"])
    def test_shipping_causal_cores_admitted_at_small_scope(self, name):
        result = check_named(name, servers=2, messages=2)
        assert result.ok, result.format()
        assert result.kind == "admitted"
        assert result.trace == []
        assert result.states > 1

    def test_matrix_admitted_at_default_scope(self):
        # The full n=3, m=3 sweep the CI gate runs.
        result = check_named("matrix")
        assert result.ok, result.format()
        assert (result.servers, result.messages) == (3, 3)
        assert result.states == 3085

    def test_scope_is_capped(self):
        # the clamp itself, without paying for the n=3, m=4 exploration
        # (CI's analysis job runs that one: `model matrix --messages 4`)
        assert clamp_scope(9, 99) == (3, 4)
        assert clamp_scope(2, 1) == (2, 1)
        # ...and check_core explores and reports the clamped scope
        result = check_named("matrix", servers=9, messages=2)
        assert result.servers == 3
        assert result.messages == 2

    def test_exploration_is_deterministic(self):
        first = check_named("updates", servers=2, messages=2)
        second = check_named("updates", servers=2, messages=2)
        assert first.to_dict() == second.to_dict()

    def test_checkable_cores_reports_causality_flags(self):
        table = dict(checkable_cores())
        assert table == {
            "matrix": True,
            "updates": True,
            "histories": True,
            "fifo": False,
        }


class TestRejection:
    def test_fifo_baseline_violates_causal_delivery(self):
        result = check_named("fifo")
        assert not result.ok
        assert result.kind == "causal-violation"
        assert result.trace, "a violation must carry its interleaving"
        assert "causal predecessor" in result.detail
        formatted = result.format()
        assert "CAUSAL-VIOLATION" in formatted
        assert "counterexample interleaving:" in formatted
        assert not check_trace(result.witness).respects_causality

    def test_notransitive_fixture_violates_causal_delivery(self):
        result = check_core(load_candidate(NOTRANSITIVE))
        assert result.kind == "causal-violation"
        assert "causal predecessor" in result.detail
        assert not check_trace(result.witness).respects_causality

    def test_seeded_merge_bug_wedges_holdback(self):
        core = load_candidate(DROPROW)
        result = check_core(core, servers=2, messages=2)
        assert not result.ok
        assert result.kind == "holdback-leak"
        assert "wedged in hold-back" in result.detail
        assert any("held back" in step for step in result.trace)

    def test_counterexample_steps_are_numbered(self):
        core = load_candidate(DROPROW)
        result = check_core(core, servers=2, messages=2)
        lines = result.format().splitlines()
        assert lines[0].startswith("core 'droprow': HOLDBACK-LEAK")
        steps = [l for l in lines if l.strip()[0:1].isdigit()]
        assert len(steps) == len(result.trace)


class TestTheoremOne:
    """Both directions of Theorem 1 at small scope: free sends between
    any two servers, routed hop by hop through the causal router."""

    def test_acyclic_two_domains_admitted(self):
        topology = from_domain_map({"A": [0, 1, 2], "B": [2, 3]})
        result = check_topology(get_core("matrix"), topology, messages=2)
        assert result.ok, result.format()
        assert (result.servers, result.messages) == (4, 2)
        assert result.states == 409

    def test_figure_4a_ring_violates_causal_delivery(self):
        topology = from_domain_map({"A": [0, 1], "B": [1, 2], "C": [2, 0]})
        result = check_topology(get_core("matrix"), topology, messages=3)
        assert result.kind == "causal-violation"
        assert "causal predecessor" in result.detail
        formatted = result.format()
        assert "counterexample interleaving:" in formatted
        assert len(result.trace) == 5
        assert not check_trace(result.witness).respects_causality


@functools.lru_cache(maxsize=None)
def run_scenario(scenario, core):
    """One scripted run per (scenario, core), shared by the tests below;
    ``core`` is a registered name or a fixture path."""
    servers, sends, react = SCENARIOS[scenario][:3]
    loaded = load_candidate(core) if isinstance(core, Path) else get_core(core)
    return check_scenario(loaded, single_domain(servers), sends, react)


RELAYING = [name for name, row in SCENARIOS.items() if row[4] > row[3]]


class TestScenarios:
    @pytest.mark.parametrize("core", EXACT_CORES + ("fifo",))
    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_scenario(self, scenario, core):
        exact, fifo_only = SCENARIOS[scenario][3:]
        result = run_scenario(scenario, core)
        if core in EXACT_CORES or fifo_only == exact:
            assert result.ok, result.format()
            assert result.orders == exact
            assert result.witness is None
            return
        # the extra orders per-pair FIFO admits break causal delivery
        assert result.kind == "causal-violation"
        assert result.orders == fifo_only > exact
        assert not check_trace(result.witness).respects_causality

    @pytest.mark.parametrize("core", ["updates", "histories"])
    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_exact_core_matches_matrix(self, scenario, core):
        # every exact core characterizes ≺, so they admit the same orders
        matrix = run_scenario(scenario, "matrix")
        assert run_scenario(scenario, core).orders == matrix.orders

    @pytest.mark.parametrize("scenario", RELAYING)
    def test_fifo_admits_more_orders_than_matrix(self, scenario):
        matrix = run_scenario(scenario, "matrix")
        assert run_scenario(scenario, "fifo").orders > matrix.orders

    def test_fifo_relay_never_wedges_hold_back(self):
        assert run_scenario("relay", "fifo").leaks == 0

    def test_notransitive_fixture_loses_the_relay_race(self):
        result = run_scenario("relay", NOTRANSITIVE)
        assert result.kind == "causal-violation"
        assert result.orders == SCENARIOS["relay"][4]

    def test_notransitive_relay_witness_is_a_real_violation(self):
        witness = run_scenario("relay", NOTRANSITIVE).witness
        assert not check_trace(witness).respects_causality

    def test_droprow_wedges_a_scripted_fifo_pair(self):
        result = run_scenario("fifo-pair", DROPROW)
        assert result.kind == "holdback-leak"
        assert result.leaks > 0

    def test_explosion_guard(self):
        sends = [Send(i % 4, 4, str(i)) for i in range(16)]
        with pytest.raises(ConfigurationError, match="state space"):
            check_scenario(
                get_core("matrix"), single_domain(5), sends, max_states=50
            )


class TestChangedGate:
    """``model --changed`` runs when a change can move a verdict."""

    ROOT = Path("/work/mom/checkout")

    @pytest.mark.parametrize(
        "name",
        [
            "src/repro/baselines/causal_histories.py",
            "src/repro/baselines/local_fifo.py",
            "src/repro/clocks/matrix.py",
            "src/repro/clocks/base.py",
            "src/repro/protocol/registry.py",
            "src/repro/analysis/model.py",
            "src/repro/causality/order.py",
            # the real protocol the explorer drives
            "src/repro/mom/channel.py",
            "src/repro/mom/domain_item.py",
            "src/repro/mom/payloads.py",
            "src/repro/mom/persistence.py",
            "src/repro/topology/routing.py",
            # ... and the topology it is built from
            "src/repro/topology/domains.py",
            "src/repro/topology/builders.py",
        ],
    )
    def test_triggers(self, name):
        assert _model_relevant({self.ROOT / name}, self.ROOT)

    @pytest.mark.parametrize(
        "name",
        ["README.py", "src/repro/obs/trace.py", "src/repro/mom/engine.py"],
    )
    def test_non_triggers_under_a_checkout_named_mom(self, name):
        assert not _model_relevant({self.ROOT / name}, self.ROOT)

    def test_paths_outside_the_checkout_never_trigger(self):
        elsewhere = Path("/elsewhere/src/repro/clocks/matrix.py")
        assert not _model_relevant({elsewhere}, self.ROOT)


class TestAdmissionScan:
    def test_fixture_passes_the_scan(self):
        scan_candidate(DROPROW.read_text(encoding="utf-8"), str(DROPROW))

    def test_forbidden_import_rejected(self):
        with pytest.raises(ScanError, match="sandbox"):
            scan_candidate("import os\n", "candidate.py")

    def test_forbidden_from_import_rejected(self):
        with pytest.raises(ScanError, match="subprocess"):
            scan_candidate("from subprocess import run\n", "candidate.py")

    def test_forbidden_call_rejected(self):
        with pytest.raises(ScanError, match=r"open\(\)"):
            scan_candidate("data = open('x').read()\n", "candidate.py")

    def test_syntax_error_rejected(self):
        with pytest.raises(ScanError, match="not parseable"):
            scan_candidate("def broken(:\n", "candidate.py")

    def test_load_candidate_requires_exactly_one_core(self, tmp_path):
        empty = tmp_path / "empty.py"
        empty.write_text("X = 1\n", encoding="utf-8")
        with pytest.raises(ScanError, match="exactly one"):
            load_candidate(empty)

    def test_load_candidate_uses_core_attribute(self):
        core = load_candidate(DROPROW)
        assert core.name == "droprow"
        with pytest.raises(ProtocolError):
            # never registered: only loadable through its file path
            check_named("droprow")


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", "model", *args],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )

    def test_admitted_core_exits_zero(self):
        result = self.run_cli("matrix", "--servers", "2", "--messages", "2")
        assert result.returncode == 0, result.stdout + result.stderr
        assert (
            "core 'matrix': ADMITTED (n=2, m=2, 25 states explored)"
            in result.stdout
        )

    def test_violating_candidate_exits_one_with_counterexample(self):
        result = self.run_cli(
            str(DROPROW), "--servers", "2", "--messages", "2"
        )
        assert result.returncode == 1
        assert "core 'droprow': HOLDBACK-LEAK" in result.stdout
        assert "counterexample interleaving:" in result.stdout
        assert "held back" in result.stdout

    def test_unknown_core_exits_two(self):
        result = self.run_cli("nosuch")
        assert result.returncode == 2
        assert "no causal core registered as 'nosuch'" in result.stderr

    def test_rejected_candidate_file_exits_two(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import socket\n", encoding="utf-8")
        result = self.run_cli(str(bad))
        assert result.returncode == 2
        assert "admission scan failed" in result.stderr

    def test_no_core_and_no_all_exits_two(self):
        result = self.run_cli()
        assert result.returncode == 2
        assert "name a core or pass --all" in result.stderr

    def test_all_skips_non_causal_baselines(self):
        result = self.run_cli(
            "--all", "--servers", "2", "--messages", "2", "--json"
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "core 'fifo': skipped" in result.stderr
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        checked = {entry["core"] for entry in payload["results"]}
        assert checked == {"matrix", "updates", "histories"}

    def test_json_reports_the_violation(self):
        result = self.run_cli(
            str(DROPROW), "--servers", "2", "--messages", "2", "--json"
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["ok"] is False
        (entry,) = payload["results"]
        assert entry["kind"] == "holdback-leak"
        assert entry["states"] == 19
        assert entry["trace"]
