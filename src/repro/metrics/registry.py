"""The instrument registry: named, labeled, snapshot-able.

A :class:`Registry` owns every instrument of one accounting surface (one
:class:`~repro.mom.bus.MessageBus` in practice). Instruments are created
on first request — ``registry.counter(name, labels)`` — and the returned
handle is the bare instrument object, so hot paths pay **zero** registry
cost per event: resolve the handle once, call ``inc``/``mark`` forever
after (:class:`~repro.mom.accounting.BusAccounting` resolves a server's
handles on the first lifecycle edge that names the server).

Labels are ``{key: value}`` string pairs; the registry interns each
``(name, sorted labels)`` combination to exactly one instrument. The
paper's two label axes are ``server`` (global server id) and ``domain``
(causality-domain id) — the decomposition §4 argues about is literally
the ``domain`` label here.

*Collectors* are zero-argument callables run at snapshot time; the
instrumented layers register them to pull state that would be wasteful to
push per event (queue depths, resident clock-state cells, clock
merge-mode counts). Collection order is registration order and every
collector reads sim-state deterministically, so two identical runs
produce byte-identical snapshots (pinned by the determinism tests).

*Row sources* supply rows no instrument backs: the accounting renders
the all-zero rows of servers no edge has touched from the topology,
each pointing at a shared, never-mutated template :class:`Entry`, so an
idle server costs nothing until a snapshot walks it.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.metrics.histogram import LogHistogram
from repro.metrics.instruments import Counter, EwmaRate, Gauge

#: Snapshot schema identifier (bumped on incompatible changes).
SNAPSHOT_FORMAT = "repro.metrics/v1"

Labels = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Mapping[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Entry:
    """One row's kind, help text and instrument (its name and labels are
    the registry key). A row source shares one per template."""

    __slots__ = ("kind", "help", "instrument")

    def __init__(self, kind: str, help: str, instrument) -> None:
        self.kind = kind
        self.help = help
        self.instrument = instrument


Row = Tuple[Tuple[str, Labels], Entry]

_FACTORIES: Dict[str, Callable[[], object]] = {
    "counter": Counter,
    "gauge": Gauge,
    "rate": EwmaRate,
}


def _finite(value: float) -> float:
    """NaN/inf-free float for strict-JSON snapshots (empty -> 0.0)."""
    return value if math.isfinite(value) else 0.0


class Registry:
    """Named, labeled instruments plus snapshot-time collectors."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, Labels], Entry] = {}
        self._collectors: List[Callable[[], None]] = []
        self._row_sources: List[Callable[[], Iterable[Row]]] = []

    # ------------------------------------------------------------------
    # Instrument factories (idempotent per (name, labels))
    # ------------------------------------------------------------------

    def _get(
        self,
        kind: str,
        name: str,
        labels: Labels,
        help: str,
        factory: Callable[[], object],
    ):
        key = (name, labels)
        entry = self._entries.get(key)
        if entry is None:
            entry = Entry(kind, help, factory())
            self._entries[key] = entry
        elif entry.kind != kind:
            raise ConfigurationError(
                f"instrument {name!r}{dict(labels)} already registered "
                f"as {entry.kind}, requested as {kind}"
            )
        return entry.instrument

    def instrument(self, kind: str, name: str, labels: Labels, help: str = ""):
        """The counter, gauge or (1 s window) rate under ``(name,
        labels)``, ``labels`` an already-sorted key — for callers that
        build one key per handle bundle."""
        return self._get(kind, name, labels, help, _FACTORIES[kind])

    def counter(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Counter:
        return self._get("counter", name, _labels_key(labels), help, Counter)

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Gauge:
        return self._get("gauge", name, _labels_key(labels), help, Gauge)

    def rate(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        tau_ms: float = 1000.0,
    ) -> EwmaRate:
        return self._get(
            "rate", name, _labels_key(labels), help, lambda: EwmaRate(tau_ms)
        )

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        low: float = 1e-3,
        high: float = 1e7,
        per_decade: int = 32,
    ) -> LogHistogram:
        return self._get(
            "histogram",
            name,
            _labels_key(labels),
            help,
            lambda: LogHistogram(name, low=low, high=high,
                                 per_decade=per_decade),
        )

    # ------------------------------------------------------------------
    # Collectors
    # ------------------------------------------------------------------

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a pull hook run (in order) at every snapshot."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector()

    def add_row_source(self, source: Callable[[], Iterable[Row]]) -> None:
        """Register rows no instrument of this registry backs: ``source()``
        yields ``((name, labels), entry)`` pairs, called after the
        collectors at every snapshot and dump, never for a held key."""
        self._row_sources.append(source)

    def _rows(self) -> List[Row]:
        """Collectors first, then every row in (name, labels) order."""
        self.collect()
        sources = [source() for source in self._row_sources]
        return sorted(
            chain(self._entries.items(), *sources), key=itemgetter(0)
        )

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(
        self, now: float = 0.0, meta: Optional[dict] = None
    ) -> dict:
        """JSON-ready snapshot: run collectors, then serialize everything.

        Deterministic: instruments sorted by (name, labels), every float
        finite, no wall-clock anywhere — two identical sim runs dump
        byte-identical JSON.

        Rows are read-only: every row with the same labels shares one
        ``labels`` dict (one per server, not one per row).
        """
        instruments = []
        shared: Dict[Labels, Dict[str, str]] = {}
        for (name, labels), entry in self._rows():
            label_dict = shared.get(labels)
            if label_dict is None:
                label_dict = shared[labels] = dict(labels)
            row: dict = {
                "name": name,
                "type": entry.kind,
                "labels": label_dict,
            }
            if entry.help:
                row["help"] = entry.help
            obj = entry.instrument
            if entry.kind == "counter":
                row["value"] = obj.value
            elif entry.kind == "gauge":
                row["value"] = _finite(obj.value)
                row["max"] = _finite(obj.max_value)
            elif entry.kind == "rate":
                row["value"] = _finite(obj.per_second(now))
                row["tau_ms"] = obj.tau_ms
            else:  # histogram
                row["count"] = obj.count
                row["sum"] = _finite(obj.total)
                row["min"] = _finite(obj.minimum)
                row["max"] = _finite(obj.maximum)
                for q in (50, 90, 95, 99):
                    row[f"p{q}"] = _finite(obj.percentile(q))
                row["buckets"] = [
                    [lo, hi, count] for lo, hi, count in obj.buckets()
                ]
            instruments.append(row)
        return {
            "format": SNAPSHOT_FORMAT,
            "meta": dict(meta or {}),
            "sim_now_ms": now,
            "instruments": instruments,
        }

    # ------------------------------------------------------------------
    # Cross-process shard merging (repro.mom.parallel)
    # ------------------------------------------------------------------

    def dump_state(self) -> List[dict]:
        """Picklable registry contents: collectors run first (so pulled
        gauges are current), then every row ships its kind, identity,
        help text and instrument state."""
        rows = []
        for (name, labels), entry in self._rows():
            rows.append({
                "kind": entry.kind,
                "name": name,
                "labels": list(labels),
                "help": entry.help,
                "state": entry.instrument.dump_state(),
            })
        return rows

    def merge_state(self, rows: List[dict]) -> None:
        """Fold one shard registry's :meth:`dump_state` into this one.

        Instruments are created on demand (with the shipped help text and
        construction parameters) and each delegates to its own
        ``merge_state`` — counters and histogram statistics are
        commutative reductions, gauges and rates are pinned to one shard
        by their label discipline, so merge order never matters."""
        for row in rows:
            kind = row["kind"]
            name = row["name"]
            labels = dict(row["labels"])
            state = row["state"]
            if kind == "counter":
                instrument = self.counter(name, labels, help=row["help"])
            elif kind == "gauge":
                instrument = self.gauge(name, labels, help=row["help"])
            elif kind == "rate":
                instrument = self.rate(
                    name, labels, help=row["help"], tau_ms=state[0]
                )
            elif kind == "histogram":
                instrument = self.histogram(
                    name,
                    labels,
                    help=row["help"],
                    low=state["low"],
                    high=state["high"],
                    per_decade=state["per_decade"],
                )
            else:
                raise ConfigurationError(
                    f"cannot merge unknown instrument kind {kind!r}"
                )
            instrument.merge_state(state)

    def __repr__(self) -> str:
        return (
            f"Registry(instruments={len(self._entries)}, "
            f"collectors={len(self._collectors)})"
        )
