"""Per-shard runtime telemetry for the sharded kernel (``REPRO_SHARDMON``).

The conservative sync of :mod:`repro.simulation.sync` runs dark by
default: nothing records how wide the granted LBTS windows were, how many
events each shard fired per window, how much traffic crossed the worker
pipes, or where the workers' wall-clock time went. This module is the
instrument — two passive recorder classes, one per side of the pipe:

- :class:`WorkerTelemetry` lives inside a shard worker and splits the
  worker's wall-clock into *compute* (running the granted window),
  *blocked-on-grant* (waiting in ``conn.recv``) and *pipe I/O* (sending
  reports), plus sim-side counts of grants, fired events, injected
  arrivals and drained outbox packets;
- :class:`CoordinatorTelemetry` lives in the parent and records the LBTS
  grant timeline (lbts, bound, events fired), granted-window widths,
  per-shard event counts, and cross-shard messages/bytes routed between
  workers.

The merged payload (:func:`merged`) keeps two strictly separated
sections: ``"sim"`` holds **deterministic** sim-time observables — byte
identical across repeated runs of the same scenario, pinned on the
s=150 fan-in by ``benchmarks/test_scale_1000.py`` — while ``"wallclock"`` holds the
**non-deterministic** ``time.perf_counter`` measurements (including the
derived sync-overhead fraction). Keeping them apart is what lets
profiled runs stay bit-identical in every deterministic artifact.

Recording is observation-only: no simulated cost, no RNG draw, no metric
counter — a monitored run is bit-identical to a bare one. ``R002``
deliberately allows ``time.perf_counter`` (monotonic, never feeds back
into the simulation); the observation-purity closure (R008) covers every
method here because the module is registered as an observation layer.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, List, Optional, Sequence

#: Schema tag of the merged payload.
FORMAT = "repro.shardmon/v1"

#: Grant-timeline rounds retained before truncation (long runs keep the
#: head; the aggregates always cover every round).
TIMELINE_CAP = 4096


def enabled() -> bool:
    """Shard telemetry is on by default; ``REPRO_SHARDMON=0`` disables."""
    return os.environ.get("REPRO_SHARDMON", "1") != "0"


class WorkerTelemetry:
    """One shard worker's runtime counters (lives inside the fork)."""

    __slots__ = (
        "shard_id",
        "grants",
        "events_fired",
        "arrivals_in",
        "packets_out",
        "wall_compute_s",
        "wall_blocked_s",
        "wall_pipe_s",
    )

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.grants = 0
        self.events_fired = 0
        self.arrivals_in = 0
        self.packets_out = 0
        self.wall_compute_s = 0.0
        self.wall_blocked_s = 0.0
        self.wall_pipe_s = 0.0

    def record_window(self, arrivals: int, fired: int, outbox: int) -> None:
        """One granted window ran: counts injected arrivals, events fired
        inside the window and outbox packets drained for routing."""
        self.grants += 1
        self.arrivals_in += arrivals
        self.events_fired += fired
        self.packets_out += outbox

    def add_compute(self, seconds: float) -> None:
        self.wall_compute_s += seconds

    def add_blocked(self, seconds: float) -> None:
        self.wall_blocked_s += seconds

    def add_pipe(self, seconds: float) -> None:
        self.wall_pipe_s += seconds

    def dump(self) -> Dict[str, Any]:
        """JSON-ready snapshot shipped to the parent at collect time."""
        return {
            "shard": self.shard_id,
            "sim": {
                "grants": self.grants,
                "events_fired": self.events_fired,
                "arrivals_in": self.arrivals_in,
                "packets_out": self.packets_out,
            },
            "wallclock": {
                "compute_s": self.wall_compute_s,
                "blocked_on_grant_s": self.wall_blocked_s,
                "pipe_io_s": self.wall_pipe_s,
            },
        }

    def __repr__(self) -> str:
        return (
            f"WorkerTelemetry(shard={self.shard_id}, grants={self.grants}, "
            f"events={self.events_fired})"
        )


class CoordinatorTelemetry:
    """The parent-side view: grant rounds and cross-shard routing."""

    __slots__ = (
        "workers",
        "lookahead",
        "rounds",
        "width_sum",
        "width_min",
        "width_max",
        "events_total",
        "events_per_window_min",
        "events_per_window_max",
        "events_per_shard",
        "cross_messages",
        "cross_bytes",
        "cross_pairs",
        "timeline",
        "timeline_truncated",
        "wall_wait_s",
    )

    def __init__(self, workers: int, lookahead: float) -> None:
        self.workers = workers
        self.lookahead = lookahead
        self.rounds = 0
        self.width_sum = 0.0
        self.width_min: Optional[float] = None
        self.width_max: Optional[float] = None
        self.events_total = 0
        self.events_per_window_min: Optional[int] = None
        self.events_per_window_max: Optional[int] = None
        self.events_per_shard = [0] * workers
        self.cross_messages = 0
        self.cross_bytes = 0
        self.cross_pairs: Dict[str, Dict[str, int]] = {}
        self.timeline: List[List[float]] = []
        self.timeline_truncated = False
        self.wall_wait_s = 0.0

    def record_window(
        self, lbts: float, bound: float, fired_per_shard: Sequence[int]
    ) -> None:
        """One LBTS round completed (all shard reports are in)."""
        width = bound - lbts
        fired = 0
        for shard, count in enumerate(fired_per_shard):
            self.events_per_shard[shard] += count
            fired += count
        self.rounds += 1
        self.width_sum += width
        if self.width_min is None or width < self.width_min:
            self.width_min = width
        if self.width_max is None or width > self.width_max:
            self.width_max = width
        self.events_total += fired
        if (
            self.events_per_window_min is None
            or fired < self.events_per_window_min
        ):
            self.events_per_window_min = fired
        if (
            self.events_per_window_max is None
            or fired > self.events_per_window_max
        ):
            self.events_per_window_max = fired
        if len(self.timeline) < TIMELINE_CAP:
            self.timeline.append([lbts, bound, float(fired)])
        else:
            self.timeline_truncated = True

    def record_route(self, src_shard: int, dst_shard: int, entry: Any) -> None:
        """One outbox entry routed from ``src_shard`` to ``dst_shard``.

        Byte counts use the pickled size of the entry — the exact payload
        the worker pipe carries for it.
        """
        size = len(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
        self.cross_messages += 1
        self.cross_bytes += size
        key = f"{src_shard}->{dst_shard}"
        pair = self.cross_pairs.get(key)
        if pair is None:
            pair = {"messages": 0, "bytes": 0}
            self.cross_pairs[key] = pair
        pair["messages"] += 1
        pair["bytes"] += size

    def add_wait(self, seconds: float) -> None:
        self.wall_wait_s += seconds

    def dump(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the coordinator-side observables."""
        return {
            "grants": self.rounds,
            "window_width_ms": {
                "count": self.rounds,
                "sum": self.width_sum,
                "min": self.width_min if self.width_min is not None else 0.0,
                "max": self.width_max if self.width_max is not None else 0.0,
            },
            "events_total": self.events_total,
            "events_per_window": {
                "min": self.events_per_window_min or 0,
                "max": self.events_per_window_max or 0,
                "mean": (
                    self.events_total / self.rounds if self.rounds else 0.0
                ),
            },
            "events_per_shard": list(self.events_per_shard),
            "cross_shard": {
                "messages": self.cross_messages,
                "bytes": self.cross_bytes,
                "pairs": {
                    key: dict(value)
                    for key, value in sorted(self.cross_pairs.items())
                },
            },
            "grant_timeline": [list(row) for row in self.timeline],
            "grant_timeline_truncated": self.timeline_truncated,
        }

    def __repr__(self) -> str:
        return (
            f"CoordinatorTelemetry(workers={self.workers}, "
            f"rounds={self.rounds}, cross={self.cross_messages})"
        )


def sync_overhead_fraction(worker_dumps: Sequence[Dict[str, Any]]) -> float:
    """``1 - compute / (compute + blocked + pipe)`` over all workers.

    The wall-clock share of worker time *not* spent running granted
    windows — the price of the conservative sync. 0.0 when nothing was
    measured (all-zero clocks on a degenerate run).
    """
    compute = blocked = pipe = 0.0
    for dump in worker_dumps:
        wall = dump.get("wallclock", {})
        compute += wall.get("compute_s", 0.0)
        blocked += wall.get("blocked_on_grant_s", 0.0)
        pipe += wall.get("pipe_io_s", 0.0)
    total = compute + blocked + pipe
    if total <= 0.0:
        return 0.0
    return 1.0 - compute / total


def merged(
    coordinator_dump: Dict[str, Any],
    worker_dumps: Sequence[Dict[str, Any]],
    workers: int,
    lookahead: float,
    coordinator_wait_s: float = 0.0,
) -> Dict[str, Any]:
    """The full shardmon payload: deterministic ``sim`` section plus the
    clearly separated non-deterministic ``wallclock`` section."""
    arrivals = [0] * workers
    packets_out = [0] * workers
    wall_rows = []
    for dump in worker_dumps:
        shard = dump.get("shard", 0)
        sim = dump.get("sim", {})
        if 0 <= shard < workers:
            arrivals[shard] = sim.get("arrivals_in", 0)
            packets_out[shard] = sim.get("packets_out", 0)
        wall = dump.get("wallclock", {})
        wall_rows.append(
            {
                "shard": shard,
                "compute_s": wall.get("compute_s", 0.0),
                "blocked_on_grant_s": wall.get("blocked_on_grant_s", 0.0),
                "pipe_io_s": wall.get("pipe_io_s", 0.0),
            }
        )
    return {
        "format": FORMAT,
        "workers": workers,
        "lookahead_ms": lookahead,
        "sim": {
            **coordinator_dump,
            "arrivals_per_shard": arrivals,
            "packets_out_per_shard": packets_out,
        },
        "wallclock": {
            "per_shard": wall_rows,
            "coordinator_wait_s": coordinator_wait_s,
            "sync_overhead_fraction": sync_overhead_fraction(worker_dumps),
        },
    }
