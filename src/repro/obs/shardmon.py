"""Shard-runtime telemetry views (``python -m repro.obs shards``).

The recording side lives in :mod:`repro.simulation.telemetry` (it must —
the sync layer cannot import obs, R006); this module is the read side:

- :func:`merged_trace_dump` rebuilds a single sequential-shaped
  :class:`~repro.obs.export.TraceDump` from a
  :class:`~repro.mom.parallel.ShardedBus`'s merged observability state —
  globally re-sequenced events, shard histograms folded through
  :meth:`~repro.metrics.histogram.LogHistogram.merge_state`, merged CPU
  slices — so every ``python -m repro.obs`` subcommand (``trace``,
  ``why``, ``critpath``, ``export``) works on parallel runs unchanged;
- :func:`render` pretty-prints a ``repro.shardmon/v1`` payload, keeping
  the deterministic ``sim`` section visually separate from the
  non-deterministic ``wallclock`` one;
- :func:`load` reads a payload back from JSON.

The bus argument of :func:`merged_trace_dump` is duck-typed (it only
needs the ``trace_events`` / ``obs_*`` read surface), so this module has
no import-time dependency on the mom layer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.errors import ConfigurationError
from repro.metrics.histogram import LogHistogram
from repro.obs.export import TraceDump
from repro.simulation.telemetry import FORMAT

__all__ = ["merged_trace_dump", "merge_histogram_states", "render", "load"]


def merge_histogram_states(
    shard_states: List[Dict[str, Dict[str, Any]]],
) -> Dict[str, LogHistogram]:
    """Fold per-shard tracer histogram states into one histogram per name.

    The integer-quanta running sums make the fold associative and
    commutative, so any merge order reproduces the sequential histogram
    bit for bit (docs/parallel.md; pinned by the merge edge-case tests).
    """
    merged: Dict[str, LogHistogram] = {}
    for states in shard_states:
        for name, state in sorted(states.items()):
            hist = merged.get(name)
            if hist is None:
                hist = LogHistogram(
                    name,
                    low=state["low"],
                    high=state["high"],
                    per_decade=state["per_decade"],
                )
                merged[name] = hist
            hist.merge_state(state)
    return merged


def merged_trace_dump(bus: Any) -> TraceDump:
    """A sequential-shaped :class:`TraceDump` from a sharded bus.

    Requires the bus to have run (and synced) with tracers attached in
    its workers — ``REPRO_TRACE=1`` or an installed tracer hook.
    """
    events = bus.trace_events()
    if not events:
        raise ConfigurationError(
            "no merged observability events on this bus (run with "
            "REPRO_TRACE=1 / repro.obs.tracer.install() and sync first)"
        )
    ring = bus.obs_ring_meta() or {}
    topology = bus.config.topology
    meta: Dict[str, Any] = {
        "now": bus.sim.now,
        "capacity": ring.get("capacity", len(events)),
        "next_seq": ring.get("next_seq", len(events)),
        "dropped": ring.get("dropped", 0),
        "server_ids": sorted(topology.servers),
        "domains": {
            d.domain_id: sorted(d.servers) for d in topology.domains
        },
        "clock": bus.config.clock_algorithm,
    }
    histograms = {
        name: {
            "snapshot": hist.snapshot(),
            "buckets": [list(b) for b in hist.buckets()],
        }
        for name, hist in sorted(
            merge_histogram_states(bus.obs_histogram_states()).items()
        )
    }
    return TraceDump(meta, events, list(bus.obs_cpu_slices()), histograms)


def load(path: str) -> Dict[str, Any]:
    """Read a ``repro.shardmon/v1`` payload from a JSON file."""
    with open(path) as stream:
        payload = json.load(stream)
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise ConfigurationError(
            f"{path!r} is not a {FORMAT} payload"
        )
    return payload


def _int_row(values: List[int]) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def render(payload: Dict[str, Any]) -> str:
    """A ``repro.shardmon/v1`` payload as a human-readable report."""
    if payload.get("format") != FORMAT:
        raise ConfigurationError(
            f"expected a {FORMAT} payload, got {payload.get('format')!r}"
        )
    sim = payload.get("sim", {})
    wall = payload.get("wallclock", {})
    width = sim.get("window_width_ms", {})
    per_window = sim.get("events_per_window", {})
    cross = sim.get("cross_shard", {})
    rounds = sim.get("grants", 0)
    lines = [
        f"shard runtime ({payload.get('format')}): "
        f"{payload.get('workers', 0)} workers, "
        f"lookahead {payload.get('lookahead_ms', 0.0):.3f}ms",
        "",
        "  sim observables (deterministic, gated):",
        f"    grant rounds       {rounds}",
        (
            f"    window width ms    min {width.get('min', 0.0):.3f}  "
            f"max {width.get('max', 0.0):.3f}  "
            f"mean {(width.get('sum', 0.0) / rounds) if rounds else 0.0:.3f}"
        ),
        (
            f"    events fired       {sim.get('events_total', 0)} "
            f"(per window min {per_window.get('min', 0)} "
            f"max {per_window.get('max', 0)} "
            f"mean {per_window.get('mean', 0.0):.1f})"
        ),
        f"    events per shard   {_int_row(sim.get('events_per_shard', []))}",
        (
            "    arrivals in        "
            f"{_int_row(sim.get('arrivals_per_shard', []))}"
        ),
        (
            "    packets out        "
            f"{_int_row(sim.get('packets_out_per_shard', []))}"
        ),
        (
            f"    cross-shard        {cross.get('messages', 0)} messages, "
            f"{cross.get('bytes', 0)} bytes on the worker pipes"
        ),
    ]
    for pair, stats in sorted(cross.get("pairs", {}).items()):
        lines.append(
            f"      {pair:<8} {stats.get('messages', 0):>6} messages  "
            f"{stats.get('bytes', 0):>10} bytes"
        )
    timeline = sim.get("grant_timeline", [])
    if timeline:
        shown = timeline[:8]
        lines.append(
            f"    grant timeline     {len(timeline)} rounds retained"
            + (" (truncated)" if sim.get("grant_timeline_truncated") else "")
        )
        for lbts, bound, fired in shown:
            lines.append(
                f"      [{lbts:10.3f}, {bound:10.3f})ms  "
                f"{int(fired):>6} events"
            )
        if len(timeline) > len(shown):
            lines.append(f"      ... {len(timeline) - len(shown)} more")
    lines.append("")
    lines.append("  wallclock (non-deterministic, unguarded):")
    for row in wall.get("per_shard", []):
        compute = row.get("compute_s", 0.0)
        blocked = row.get("blocked_on_grant_s", 0.0)
        pipe = row.get("pipe_io_s", 0.0)
        lines.append(
            f"    shard {row.get('shard', '?')}: "
            f"compute {1e3 * compute:9.3f}ms  "
            f"blocked-on-grant {1e3 * blocked:9.3f}ms  "
            f"pipe I/O {1e3 * pipe:9.3f}ms"
        )
    lines.append(
        "    coordinator wait   "
        f"{1e3 * wall.get('coordinator_wait_s', 0.0):.3f}ms"
    )
    lines.append(
        "    sync overhead      "
        f"{100.0 * wall.get('sync_overhead_fraction', 0.0):.1f}% "
        "of worker wall-clock not spent computing"
    )
    return "\n".join(lines)
