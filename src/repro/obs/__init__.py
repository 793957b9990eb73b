"""repro.obs — causal message tracing, latency histograms, flight recorder.

The observability layer of the MOM (see ``docs/observability.md``). A
:class:`Tracer` attached to a :class:`~repro.mom.bus.MessageBus` records
every lifecycle edge of every message — post, stamp, transmit, hold-back,
commit, router forward, reaction — into a bounded ring, keyed by the
notification id (the *trace id*, stable across router hops), and feeds
log-scaled latency histograms. Dumps export as JSONL and Chrome
``trace_event`` JSON; the flight recorder writes them automatically on
sanitizer violations and unexpected exceptions.

Activation: ``REPRO_TRACE=1`` in the environment (the test conftest then
calls :func:`install`, instrumenting every bus built afterwards) or
:func:`attach` on one live bus. With tracing off, the instrumented hot
paths pay a single ``is not None`` attribute check per edge, and a traced
run is bit-identical to an untraced one — tracing never schedules events,
never draws randomness, never touches the metrics registry.
"""

from repro.obs.events import DEFAULT_CAPACITY, KINDS, EventRing, TraceEvent
from repro.metrics.histogram import LogHistogram
from repro.obs.export import TraceDump, chrome_trace, read_jsonl, write_jsonl
from repro.obs import flight_recorder
from repro.obs.diff import (
    DiffReport,
    canonical_events,
    diff_dumps,
    explain,
    watch_explain,
)
from repro.obs.replay import (
    Replayer,
    check_dump_complete,
    watch_deliverable,
    watch_holdback_exceeds,
)
from repro.obs.tracer import (
    Tracer,
    attach,
    detach,
    install,
    is_installed,
    uninstall,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "KINDS",
    "EventRing",
    "TraceEvent",
    "LogHistogram",
    "TraceDump",
    "chrome_trace",
    "read_jsonl",
    "write_jsonl",
    "flight_recorder",
    "DiffReport",
    "canonical_events",
    "diff_dumps",
    "explain",
    "watch_explain",
    "Replayer",
    "check_dump_complete",
    "watch_deliverable",
    "watch_holdback_exceeds",
    "Tracer",
    "attach",
    "detach",
    "install",
    "is_installed",
    "uninstall",
]
