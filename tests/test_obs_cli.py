"""The ``python -m repro.obs`` CLI, end to end through ``main(argv)``."""

import json
import os

import pytest

from repro.obs.__main__ import main


@pytest.fixture(scope="module")
def dump_dir(tmp_path_factory):
    """One recorded demo run shared by all CLI tests."""
    root = tmp_path_factory.mktemp("obs-cli")
    code = main(
        [
            "record",
            "--servers", "10",
            "--domain-size", "4",
            "--rounds", "5",
            "--seed", "0",
            "-o", str(root),
        ]
    )
    assert code == 0
    (artifact,) = os.listdir(root)
    return str(root / artifact)


def test_record_produces_full_artifact(dump_dir):
    assert sorted(os.listdir(dump_dir)) == [
        "events.jsonl", "state.json", "trace.json",
    ]


def test_summary(dump_dir, capsys):
    assert main(["summary", dump_dir]) == 0
    out = capsys.readouterr().out
    assert "events" in out
    for kind in ("post", "stamp", "commit", "reaction_commit"):
        assert kind in out
    assert "e2e_delivery_ms" in out


def routed_nid(dump_dir):
    """A nid that crossed a router (has a route_forward event)."""
    with open(os.path.join(dump_dir, "events.jsonl")) as stream:
        for line in stream:
            row = json.loads(line)
            if row.get("record") == "event" and row["kind"] == "route_forward":
                return row["nid"]
    raise AssertionError("demo run produced no routed message")


def test_trace_shows_per_hop_path(dump_dir, capsys):
    nid = routed_nid(dump_dir)
    assert main(["trace", str(nid), dump_dir]) == 0
    out = capsys.readouterr().out
    assert f"nid {nid}" in out or f"msg {nid}" in out or str(nid) in out
    assert "hop" in out
    assert "route_forward" in out
    assert "reaction_commit" in out


def test_trace_unknown_nid_fails(dump_dir, capsys):
    assert main(["trace", "999999", dump_dir]) != 0


def test_slowest(dump_dir, capsys):
    assert main(["slowest", dump_dir, "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "ms" in out
    assert len([l for l in out.splitlines() if l.strip()]) >= 2


def test_export_chrome(dump_dir, tmp_path, capsys):
    out_path = str(tmp_path / "trace.json")
    assert main(["export", dump_dir, "--chrome", "-o", out_path]) == 0
    with open(out_path) as stream:
        doc = json.load(stream)
    assert "traceEvents" in doc
    assert doc["otherData"]["source"] == "repro.obs"
    assert any(e["ph"] == "i" for e in doc["traceEvents"])


def test_loads_events_file_directly(dump_dir, capsys):
    assert main(["summary", os.path.join(dump_dir, "events.jsonl")]) == 0
    assert "events" in capsys.readouterr().out


def test_missing_dump_is_a_clean_error(tmp_path, capsys):
    assert main(["summary", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def jittery_dump(tmp_path_factory):
    """A lossy, jittery run that actually exercises hold-back, dumped."""
    from repro.bench.harness import run_lossy_jittery
    from repro.obs import flight_recorder

    _, tracer = run_lossy_jittery(7, trace=True)

    held = sorted(
        {e.nid for e in tracer.events() if e.kind == "holdback_enter"}
    )
    assert held, "seed 7 must exercise hold-back (see test_obs_tracing)"
    root = tmp_path_factory.mktemp("obs-why")
    old = os.environ.get("REPRO_OBS_DIR")
    os.environ["REPRO_OBS_DIR"] = str(root)
    try:
        path = flight_recorder.dump(tracer, "whytest")
    finally:
        if old is None:
            os.environ.pop("REPRO_OBS_DIR", None)
        else:
            os.environ["REPRO_OBS_DIR"] = old
    unheld = sorted(
        {e.nid for e in tracer.events() if e.nid > 0} - set(held)
    )
    return path, held, unheld


def test_why_names_the_blocking_dependency(jittery_dump, capsys):
    path, held, _ = jittery_dump
    assert main(["why", str(held[0]), path]) == 0
    out = capsys.readouterr().out
    assert "held back" in out
    assert "released by the commit of message" in out
    assert "causal wait total" in out


def test_why_reports_no_wait_for_unheld_message(jittery_dump, capsys):
    path, _, unheld = jittery_dump
    assert unheld, "some messages must go through without hold-back"
    assert main(["why", str(unheld[0]), path]) == 0
    out = capsys.readouterr().out
    assert "never held back" in out


def test_why_unknown_nid_fails(jittery_dump, capsys):
    path, _, _ = jittery_dump
    assert main(["why", "999999", path]) == 1


# ----------------------------------------------------------------------
# Partial dumps: one-line exit-2 diagnosis, not a traceback
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def partial_dump(dump_dir, tmp_path_factory):
    """The demo dump with every ``arrive`` event stripped — the shape of
    a recording made with partial hooks."""
    root = tmp_path_factory.mktemp("obs-partial")
    path = str(root / "events.jsonl")
    with open(os.path.join(dump_dir, "events.jsonl")) as stream:
        rows = [json.loads(line) for line in stream]
    with open(path, "w") as stream:
        for row in rows:
            if row.get("record") == "event" and row["kind"] == "arrive":
                continue
            stream.write(json.dumps(row) + "\n")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["summary"],
        ["why", "1099511627776"],
        ["critpath", "1099511627776"],
        ["critpath", "--run"],
    ],
    ids=["summary", "why", "critpath", "critpath-run"],
)
def test_partial_dump_is_a_one_line_exit_2(partial_dump, argv, capsys):
    assert main(argv + [partial_dump]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1, "diagnosis must be one line"
    assert (
        "error: dump is missing event kind 'arrive' — re-record with "
        "REPRO_TRACE=1 full hooks"
    ) in captured.err


def test_full_dump_still_passes_the_completeness_gate(dump_dir, capsys):
    assert main(["summary", dump_dir]) == 0


# ----------------------------------------------------------------------
# replay / diff subcommands, end to end
# ----------------------------------------------------------------------


def test_replay_renders_state_table(dump_dir, capsys):
    assert main(["replay", dump_dir]) == 0
    out = capsys.readouterr().out
    assert "replayed" in out
    assert "delivered" in out
    assert "S0" in out


def test_replay_at_json_is_the_protocol_snapshot_shape(dump_dir, capsys):
    assert main(["replay", dump_dir, "--at", "100.0", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    entry = snapshot["servers"]["0"]
    for key in (
        "crashed", "epoch", "hop_seq", "unacked", "holdback",
        "pending", "queued", "clocks", "delivered",
    ):
        assert key in entry
    assert main(["replay", dump_dir, "--json", "--no-delivered"]) == 0
    bare = json.loads(capsys.readouterr().out)
    assert "delivered" not in bare["servers"]["0"]


def test_replay_watch_deliverable_stops_early(dump_dir, capsys):
    nid = routed_nid(dump_dir)
    assert main(["replay", dump_dir, "--watch-deliverable", str(nid)]) == 0
    out = capsys.readouterr().out
    assert "watchpoint hit" in out


def test_replay_watchpoint_never_triggering_exits_1(dump_dir, capsys):
    assert main(["replay", dump_dir, "--watch-holdback", "0:99999"]) == 1
    assert "never triggered" in capsys.readouterr().out


def test_replay_bad_watch_syntax_exits_2(dump_dir, capsys):
    assert main(["replay", dump_dir, "--watch-holdback", "three:five"]) == 2
    assert "SERVER:DEPTH" in capsys.readouterr().err


def test_replay_partial_dump_exits_2(partial_dump, capsys):
    assert main(["replay", partial_dump]) == 2
    assert "missing event kind" in capsys.readouterr().err


def test_diff_of_a_dump_with_itself_is_clean(dump_dir, capsys):
    assert main(["diff", dump_dir, dump_dir]) == 0
    assert "causally identical" in capsys.readouterr().out


def test_why_blocker_is_causally_consistent(jittery_dump, capsys):
    """The named blocker must have committed at the same server/domain
    strictly before our release — re-derive it from the raw events."""
    path, held, _ = jittery_dump
    nid = held[0]
    assert main(["why", str(nid), path]) == 0
    out = capsys.readouterr().out
    import re

    blockers = [
        int(m.group(1))
        for m in re.finditer(r"commit of message (\d+)", out)
    ]
    assert blockers
    with open(os.path.join(path, "events.jsonl")) as stream:
        rows = [json.loads(line) for line in stream]
    events = [r for r in rows if r.get("record") == "event"]
    releases = [
        e for e in events
        if e["kind"] == "holdback_release" and e["nid"] == nid
    ]
    assert releases
    for blocker in blockers:
        commits = [
            e for e in events
            if e["kind"] == "commit" and e["nid"] == blocker
        ]
        assert any(
            c["seq"] < r["seq"]
            and c["server"] == r["server"]
            and c["domain"] == r["domain"]
            for c in commits
            for r in releases
        )
