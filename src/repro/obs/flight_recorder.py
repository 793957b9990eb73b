"""The flight recorder: post-mortem dumps of the last N events.

When something goes wrong in a traced run — a sanitizer violation, an
unexpected exception out of ``bus.run*``, a failed quiesce check — the
last thing anyone wants is "the run failed, re-run it with print
statements". Every live :class:`~repro.obs.tracer.Tracer` registers here,
and :func:`dump` writes a self-contained artifact directory:

- ``events.jsonl`` — the tracer's full :class:`~repro.obs.export.TraceDump`
  (meta + retained ring events + CPU slices + histogram snapshots), the
  format the ``python -m repro.obs`` CLI consumes;
- ``trace.json`` — the same dump in Chrome ``trace_event`` form, ready for
  Perfetto;
- ``state.json`` — per-server protocol state at the instant of the dump:
  crash flag, epoch, unacked hop sequence numbers, held-back counts per
  domain, engine queue depth, and each domain clock's matrix (only read
  via the public :meth:`~repro.clocks.base.CausalClock.cell` accessor, so
  dumping never perturbs persistence journals or dirty tracking).

Artifact directories live under ``$REPRO_OBS_DIR`` (default:
``<tempdir>/repro-obs``) and are named by wall-clock timestamp + pid +
an in-process counter — naming is the one place wall time is allowed,
since it never feeds back into the simulation.

:func:`record_violation` is the sanitizer's entry point: it dumps every
registered tracer and returns the artifact path for the exception
message. All failure paths here degrade to "no dump" rather than masking
the original error.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import time
import weakref
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs.export import TraceDump, chrome_trace, write_jsonl

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

#: Autodump at most this many times per tracer (exception storms must not
#: fill the disk with near-identical artifacts).
MAX_AUTODUMPS = 3

#: Matrices larger than this (per side) are summarized, not dumped.
MAX_MATRIX_SIZE = 32

_registered: List["weakref.ref[Tracer]"] = []
# A counter object, not a rebound module int: shard workers dump flight
# records too, and each process advancing its own post-fork copy is fine
# (the pid in the artifact name disambiguates) — but it must not look
# like a fork-boundary lost update to the R013 happens-before model.
_dump_counter = itertools.count(1)
_dumping = False


def register(tracer: "Tracer") -> None:
    """Track a live tracer as a flight-recorder source (weakly)."""
    _registered.append(weakref.ref(tracer))


def _live_tracers() -> List["Tracer"]:
    alive: List["Tracer"] = []
    dead: List["weakref.ref[Tracer]"] = []
    for ref in _registered:
        tracer = ref()
        if tracer is None:
            dead.append(ref)
        else:
            alive.append(tracer)
    for ref in dead:
        _registered.remove(ref)
    return alive


def base_dir() -> str:
    """Artifact root: ``$REPRO_OBS_DIR`` or ``<tempdir>/repro-obs``."""
    configured = os.environ.get("REPRO_OBS_DIR")
    if configured:
        return configured
    return os.path.join(tempfile.gettempdir(), "repro-obs")


def _next_artifact_dir(reason: str) -> str:
    # Wall-clock naming is deliberate and safe: the name never feeds back
    # into the simulation (R002 bans time.time()/datetime.now(), not
    # strftime-based artifact labels).
    stamp = time.strftime("%Y%m%dT%H%M%S")
    slug = "".join(c if c.isalnum() or c in "-_" else "-" for c in reason)
    name = f"{stamp}-pid{os.getpid()}-{next(_dump_counter):03d}-{slug}"
    return os.path.join(base_dir(), name)


# ----------------------------------------------------------------------
# State capture
# ----------------------------------------------------------------------


def _clock_state(item: Any) -> Dict[str, Any]:
    clock = item.clock
    size = clock.size
    state: Dict[str, Any] = {"size": size, "owner": clock.owner}
    if size <= MAX_MATRIX_SIZE:
        state["matrix"] = [
            [clock.cell(row, col) for col in range(size)]
            for row in range(size)
        ]
    else:
        state["matrix"] = f"<{size}x{size} matrix omitted>"
        state["own_row"] = [
            clock.cell(clock.owner, col) for col in range(size)
        ]
    return state


def capture_state(tracer: "Tracer") -> Dict[str, Any]:
    """Per-server protocol state, JSON-ready (read-only observation)."""
    bus = tracer.bus
    servers: Dict[str, Any] = {}
    for server_id in sorted(bus.servers):
        server = bus.servers[server_id]
        channel = server.channel
        servers[str(server_id)] = {
            "crashed": server.is_crashed,
            "epoch": server.epoch,
            "unacked_hop_seqs": channel.unacked_hop_seqs(),
            "heldback": {
                domain_id: channel.holdback_depth(domain_id)
                for domain_id in sorted(channel.domain_items)
                if channel.holdback_depth(domain_id)
            },
            "engine_queued": server.engine.queued,
            "processor_busy_ms": server.processor.busy_total,
            "clocks": {
                domain_id: _clock_state(item)
                for domain_id, item in sorted(channel.domain_items.items())
            },
        }
    return {
        "sim_now_ms": bus.sim.now,
        "pending_events": bus.sim.pending,
        "servers": servers,
    }


# ----------------------------------------------------------------------
# Dumping
# ----------------------------------------------------------------------


def dump(tracer: "Tracer", reason: str = "manual") -> str:
    """Write one artifact directory for a tracer; returns its path.

    Raises ``OSError`` if the artifact location is unwritable — callers
    on failure paths should go through :func:`autodump` or
    :func:`record_violation`, which degrade gracefully.
    """
    path = _next_artifact_dir(reason)
    os.makedirs(path, exist_ok=True)
    trace_dump = TraceDump.from_tracer(tracer)
    with open(os.path.join(path, "events.jsonl"), "w") as stream:
        write_jsonl(trace_dump, stream)
    with open(os.path.join(path, "trace.json"), "w") as stream:
        json.dump(chrome_trace(trace_dump), stream)
    with open(os.path.join(path, "state.json"), "w") as stream:
        json.dump(
            {"reason": reason, **capture_state(tracer)}, stream, indent=2
        )
    return path


def autodump(tracer: "Tracer", reason: str) -> Optional[str]:
    """Best-effort dump on a failure path: capped per tracer, disabled by
    ``REPRO_OBS_AUTODUMP=0``, and never raising over the original error."""
    if os.environ.get("REPRO_OBS_AUTODUMP", "1") == "0":
        return None
    if tracer.autodumps >= MAX_AUTODUMPS:
        return None
    tracer.autodumps += 1
    global _dumping
    if _dumping:
        return None  # a dump triggered inside a dump; don't recurse
    _dumping = True
    try:
        return dump(tracer, reason)
    except OSError:
        return None  # an unwritable tempdir must not mask the real error
    finally:
        _dumping = False


def record_violation(kind: str) -> Optional[str]:
    """Dump every registered tracer on a sanitizer violation.

    Called (lazily, via import) from
    :class:`~repro.analysis.sanitizer.SanitizerViolation`; returns the
    last artifact path so the violation message can point at it, or
    ``None`` when tracing is off or dumping failed.
    """
    path: Optional[str] = None
    for tracer in _live_tracers():
        written = autodump(tracer, f"violation-{kind}")
        if written is not None:
            path = written
    return path
