"""Trace export: JSONL dumps and Chrome ``trace_event`` JSON.

A :class:`TraceDump` is the serializable view of a tracer — metadata,
retained events, CPU slices and histogram snapshots — round-trippable
through JSONL (``write_jsonl`` / ``read_jsonl``), which is also the
flight-recorder artifact format the ``python -m repro.obs`` CLI reads.

:func:`chrome_trace` converts a dump to the Chrome ``trace_event`` JSON
object format, so a traced run opens directly in Perfetto or
``chrome://tracing``: every server is a *process*; thread 0 is the engine
(posts, reactions, crashes), thread 1 the CPU occupancy, and each domain
the server belongs to gets its own track for channel events. Hold-back
dwells and whole-message lifetimes are nestable async spans (``b``/``e``),
because they overlap freely; CPU occupancy uses complete ``X`` slices,
which the single-threaded :class:`~repro.simulation.kernel.Processor`
guarantees never overlap. Timestamps are sim-time milliseconds scaled to
the format's microseconds.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, Any, Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.obs.events import TraceEvent

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

#: Thread ids inside each server "process" of a Chrome trace.
TID_ENGINE = 0
TID_CPU = 1
TID_DOMAIN_BASE = 2

#: Event kinds shown on the engine track (the rest go to domain tracks).
_ENGINE_KINDS = frozenset(
    {"post", "enqueue_in", "reaction_start", "reaction_commit",
     "crash", "recover", "ack"}
)


class TraceDump:
    """A tracer's recorded state, detached from the live bus."""

    def __init__(
        self,
        meta: Dict[str, Any],
        events: List[TraceEvent],
        cpu: List[Tuple[int, float, float]],
        histograms: Dict[str, Dict[str, Any]],
    ) -> None:
        self.meta = meta
        self.events = events
        self.cpu = cpu
        self.histograms = histograms

    @classmethod
    def from_tracer(cls, tracer: "Tracer") -> "TraceDump":
        meta: Dict[str, Any] = {
            "now": tracer.bus.sim.now,
            "capacity": tracer.ring.capacity,
            "next_seq": tracer.ring.next_seq,
            "dropped": tracer.ring.dropped,
            "server_ids": list(tracer.server_ids),
            "domains": {d: list(s) for d, s in tracer.domains.items()},
            "clock": tracer.bus.config.clock_algorithm,
        }
        histograms = {
            name: {
                "snapshot": hist.snapshot(),
                "buckets": [list(b) for b in hist.buckets()],
            }
            for name, hist in sorted(tracer.histograms.items())
        }
        return cls(
            meta, tracer.ring.events(), list(tracer.cpu_slices), histograms
        )

    def events_of(self, nid: int) -> List[TraceEvent]:
        return [e for e in self.events if e.nid == nid]

    def __repr__(self) -> str:
        return (
            f"TraceDump(events={len(self.events)}, "
            f"cpu={len(self.cpu)}, histograms={sorted(self.histograms)})"
        )


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------


def write_jsonl(dump: TraceDump, stream: IO[str]) -> int:
    """Write a dump as JSONL; returns the number of lines written."""
    lines = 1
    stream.write(json.dumps({"record": "meta", **dump.meta}) + "\n")
    for event in dump.events:
        row = {"record": "event", **event._asdict()}
        stream.write(json.dumps(row) + "\n")
        lines += 1
    for server, start, duration in dump.cpu:
        stream.write(
            json.dumps(
                {"record": "cpu", "server": server,
                 "start": start, "duration": duration}
            )
            + "\n"
        )
        lines += 1
    for name, payload in dump.histograms.items():
        stream.write(
            json.dumps({"record": "hist", "name": name, **payload}) + "\n"
        )
        lines += 1
    return lines


def read_jsonl(stream: IO[str]) -> TraceDump:
    """Rebuild a :class:`TraceDump` from its JSONL form."""
    meta: Dict[str, Any] = {}
    events: List[TraceEvent] = []
    cpu: List[Tuple[int, float, float]] = []
    histograms: Dict[str, Dict[str, Any]] = {}
    for line in stream:
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        record = row.pop("record", None)
        if record == "meta":
            meta = row
        elif record == "event":
            events.append(TraceEvent(**row))
        elif record == "cpu":
            cpu.append((row["server"], row["start"], row["duration"]))
        elif record == "hist":
            name = row.pop("name")
            histograms[name] = row
        else:
            raise ConfigurationError(
                f"unknown trace dump record type: {record!r}"
            )
    if not meta:
        raise ConfigurationError("trace dump has no meta record")
    return TraceDump(meta, events, cpu, histograms)


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------


def _tid_of(event: TraceEvent, domain_tids: Dict[str, int]) -> int:
    if event.kind in _ENGINE_KINDS or event.domain is None:
        return TID_ENGINE
    return domain_tids[event.domain]


def chrome_trace(
    dump: TraceDump, critical_path: bool = False
) -> Dict[str, Any]:
    """The dump in Chrome ``trace_event`` JSON object format.

    With ``critical_path=True`` the run's critical path (the chain of
    deliveries that determined the makespan, each exactly attributed to
    {transit, hop_relay, causal_holdback, queue, processing}) is overlaid
    as nestable async spans in the ``critpath`` category — off by default
    because flight-recorder crash dumps rarely contain complete chains
    and must stay cheap to write.
    """
    domains: Dict[str, List[int]] = dump.meta.get("domains", {})
    domain_tids = {
        d: TID_DOMAIN_BASE + i for i, d in enumerate(sorted(domains))
    }
    trace_events: List[Dict[str, Any]] = []

    # -- metadata: name the processes and threads --------------------
    server_ids: List[int] = dump.meta.get("server_ids", [])
    for server in server_ids:
        trace_events.append(
            {"name": "process_name", "ph": "M", "pid": server, "tid": 0,
             "args": {"name": f"server {server}"}}
        )
        named = {TID_ENGINE: "engine", TID_CPU: "cpu"}
        for domain, members in sorted(domains.items()):
            if server in members:
                named[domain_tids[domain]] = f"domain {domain}"
        for tid, name in sorted(named.items()):
            trace_events.append(
                {"name": "thread_name", "ph": "M", "pid": server,
                 "tid": tid, "args": {"name": name}}
            )

    body: List[Dict[str, Any]] = []

    # -- instant events: every retained lifecycle edge ----------------
    for event in dump.events:
        body.append(
            {
                "name": event.kind,
                "ph": "i",
                "s": "t",
                "pid": event.server,
                "tid": _tid_of(event, domain_tids),
                "ts": event.t * 1000.0,
                "args": {
                    "nid": event.nid,
                    "domain": event.domain,
                    "src": event.src,
                    "dst": event.dst,
                    "hop_seq": event.hop_seq,
                    "value": event.value,
                },
            }
        )

    # -- async spans: hold-back dwells (overlap freely => nestable) ---
    held: Dict[Tuple[int, int, int], TraceEvent] = {}
    for event in dump.events:
        key = (event.server, event.src, event.hop_seq)
        if event.kind == "holdback_enter":
            held[key] = event
        elif event.kind == "holdback_release":
            enter = held.pop(key, None)
            if enter is None:
                continue  # the enter edge fell off the ring
            span_id = f"hold-{event.src}-{event.hop_seq}"
            common = {
                "cat": "holdback",
                "name": f"holdback nid={event.nid}",
                "id": span_id,
                "pid": event.server,
                "tid": _tid_of(event, domain_tids),
                "args": {"nid": event.nid, "dwell_ms": event.value},
            }
            body.append({**common, "ph": "b", "ts": enter.t * 1000.0})
            body.append({**common, "ph": "e", "ts": event.t * 1000.0})

    # -- async spans: whole-message lifetime (post -> last commit) ----
    first_post: Dict[int, TraceEvent] = {}
    last_commit: Dict[int, TraceEvent] = {}
    for event in dump.events:
        if event.nid < 0:
            continue
        if event.kind == "post" and event.nid not in first_post:
            first_post[event.nid] = event
        elif event.kind == "reaction_commit":
            last_commit[event.nid] = event
    for nid, post in sorted(first_post.items()):
        commit = last_commit.get(nid)
        if commit is None:
            continue  # still in flight (or the tail was dropped)
        common = {
            "cat": "message",
            "name": f"msg {nid}",
            "id": f"msg-{nid}",
            "pid": post.server,
            "tid": TID_ENGINE,
            "args": {"nid": nid, "e2e_ms": commit.value},
        }
        body.append({**common, "ph": "b", "ts": post.t * 1000.0})
        body.append({**common, "ph": "e", "ts": commit.t * 1000.0})

    # -- CPU occupancy: X slices (serialized by the Processor) --------
    for server, start, duration in dump.cpu:
        body.append(
            {
                "name": "busy",
                "ph": "X",
                "pid": server,
                "tid": TID_CPU,
                "ts": start * 1000.0,
                "dur": duration * 1000.0,
            }
        )

    # -- async spans: the run's critical path, exactly attributed -----
    if critical_path:
        from repro.obs.critpath import critpath_spans

        body.extend(critpath_spans(dump.events))

    body.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    trace_events.extend(body)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "sim_now_ms": dump.meta.get("now", 0.0),
            "dropped_events": dump.meta.get("dropped", 0),
        },
    }
