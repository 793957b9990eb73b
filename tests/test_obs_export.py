"""Trace export: JSONL round-trip and Chrome ``trace_event`` validity."""

import io
import json

import pytest

from repro.bench.harness import run_lossy_jittery
from repro.errors import ConfigurationError
from repro.obs.export import (
    TID_CPU,
    TID_DOMAIN_BASE,
    TID_ENGINE,
    TraceDump,
    chrome_trace,
    read_jsonl,
    write_jsonl,
)


@pytest.fixture(scope="module")
def traced_dump():
    """A dump from a jittery multi-domain run: routed messages, hold-back
    dwells, retransmits — everything the exporters must handle."""
    _, tracer = run_lossy_jittery(7, trace=True)
    return TraceDump.from_tracer(tracer)


class TestJsonlRoundTrip:
    def test_round_trip_is_lossless(self, traced_dump):
        buf = io.StringIO()
        lines = write_jsonl(traced_dump, buf)
        assert lines == buf.getvalue().count("\n")
        buf.seek(0)
        back = read_jsonl(buf)
        assert back.meta == traced_dump.meta
        assert back.events == traced_dump.events
        assert [tuple(c) for c in back.cpu] == [
            tuple(c) for c in traced_dump.cpu
        ]
        assert back.histograms == traced_dump.histograms

    def test_every_line_is_valid_json_with_record_tag(self, traced_dump):
        buf = io.StringIO()
        write_jsonl(traced_dump, buf)
        for line in buf.getvalue().splitlines():
            row = json.loads(line)
            assert row["record"] in {"meta", "event", "cpu", "hist"}

    def test_unknown_record_rejected(self):
        with pytest.raises(ConfigurationError):
            read_jsonl(io.StringIO('{"record": "mystery"}\n'))

    def test_missing_meta_rejected(self):
        with pytest.raises(ConfigurationError):
            read_jsonl(io.StringIO(""))


class TestChromeTrace:
    def test_top_level_schema(self, traced_dump):
        doc = chrome_trace(traced_dump)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert json.loads(json.dumps(doc)) == doc  # JSON-serializable

    def test_every_event_well_formed(self, traced_dump):
        for ev in chrome_trace(traced_dump)["traceEvents"]:
            assert ev["ph"] in {"M", "i", "b", "e", "X"}
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            if ev["ph"] != "M":
                assert ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_processes_and_threads_named(self, traced_dump):
        doc = chrome_trace(traced_dump)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "process_name"
        }
        assert set(process_names) == set(traced_dump.meta["server_ids"])
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in meta
            if e["name"] == "thread_name"
        }
        for server in traced_dump.meta["server_ids"]:
            assert thread_names[(server, TID_ENGINE)] == "engine"
            assert thread_names[(server, TID_CPU)] == "cpu"

    def test_async_spans_balanced_per_id(self, traced_dump):
        doc = chrome_trace(traced_dump)
        open_spans = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "b":
                key = (ev["id"], ev["pid"])
                assert key not in open_spans, f"double-open {key}"
                open_spans[key] = ev["ts"]
            elif ev["ph"] == "e":
                key = (ev["id"], ev["pid"])
                assert key in open_spans, f"end without begin {key}"
                assert ev["ts"] >= open_spans.pop(key)
        assert not open_spans, f"unclosed spans: {sorted(open_spans)}"

    def test_cpu_slices_never_overlap_within_a_server(self, traced_dump):
        doc = chrome_trace(traced_dump)
        by_pid = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X" and ev["tid"] == TID_CPU:
                by_pid.setdefault(ev["pid"], []).append(
                    (ev["ts"], ev["ts"] + ev["dur"])
                )
        assert by_pid, "traced run must produce CPU slices"
        for pid, slices in by_pid.items():
            slices.sort()
            for (_, end), (start, _) in zip(slices, slices[1:]):
                assert start >= end - 1e-9, f"overlap on server {pid}"

    def test_body_sorted_by_timestamp(self, traced_dump):
        doc = chrome_trace(traced_dump)
        stamps = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert stamps == sorted(stamps)

    def test_holdback_spans_present_in_jittery_run(self, traced_dump):
        doc = chrome_trace(traced_dump)
        holds = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "b" and e.get("cat") == "holdback"
        ]
        assert holds, "jittery lossy run must park messages in hold-back"

    def test_message_lifetime_spans_cover_delivered_messages(
        self, traced_dump
    ):
        doc = chrome_trace(traced_dump)
        msg_ids = {
            e["id"]
            for e in doc["traceEvents"]
            if e["ph"] == "b" and e.get("cat") == "message"
        }
        delivered = {
            e.nid
            for e in traced_dump.events
            if e.kind == "reaction_commit" and e.nid >= 0
        }
        posted = {
            e.nid for e in traced_dump.events if e.kind == "post"
        }
        assert msg_ids == {f"msg-{nid}" for nid in delivered & posted}

    def test_domain_tracks_used_by_channel_events(self, traced_dump):
        doc = chrome_trace(traced_dump)
        domain_tids = {
            e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "i" and e["name"] in {"stamp", "commit", "transmit"}
        }
        assert domain_tids, "channel events missing from the trace"
        assert all(tid >= TID_DOMAIN_BASE for tid in domain_tids)
