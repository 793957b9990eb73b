"""repro.metrics — always-on causality-cost accounting.

The paper's central claim is quantitative: domains of causality cut the
per-message causality cost from Θ(n²) to Θ(n) (§6). This package makes
that cost a continuously observable quantity instead of an after-the-fact
benchmark result: a :class:`Registry` of typed instruments
(:class:`Counter`, :class:`Gauge`, sim-time-windowed :class:`EwmaRate`,
bounded-memory :class:`LogHistogram`) that the MOM's hot paths update
through handles resolved on a server's first lifecycle edge — no registry
lookup, no allocation, no wall clock per event — labeled per ``server``
and per ``domain``. Servers no edge has touched hold no instruments; their
all-zero rows are rendered from the topology at snapshot time.

The package sits at the very bottom of the layer stack (only ``errors``
below it) so every layer — clocks, topology, mom — may account its own
costs. It never *reads* the simulation: callers pass sim-time in, and a
metrics-enabled run is bit-identical to a disabled one (accounting is
observation-only, like the tracer).

Exposition: :func:`to_prometheus` (Prometheus text format),
:func:`write_json` (deterministic JSON snapshots), and a ``top``-style
per-domain terminal dashboard (:func:`render_dashboard`), all available
offline over dumped snapshots via ``python -m repro.metrics``.

Disable switch: ``REPRO_METRICS=0`` in the environment when a bus is
built (the one switch, read by
``repro.mom.accounting.accounting_enabled``) turns the whole surface off;
untraced, the hot paths then pay one ``_obs is not None`` check per edge.
"""

from repro.metrics.dashboard import render as render_dashboard
from repro.metrics.exposition import (
    PROM_PREFIX,
    label_values,
    read_json,
    select,
    to_prometheus,
    total,
    write_json,
)
from repro.metrics.histogram import LogHistogram
from repro.metrics.instruments import Counter, EwmaRate, Gauge
from repro.metrics.registry import SNAPSHOT_FORMAT, Registry

__all__ = [
    "Counter",
    "EwmaRate",
    "Gauge",
    "LogHistogram",
    "PROM_PREFIX",
    "Registry",
    "SNAPSHOT_FORMAT",
    "label_values",
    "read_json",
    "render_dashboard",
    "select",
    "to_prometheus",
    "total",
    "write_json",
]
