"""Outside-in span recorder: where the Python process spends a run.

The recorder wraps the *public entry points* of each layer of ``src/repro``
— from this file, without touching the program — and every callback the
program hands to the kernel's ``schedule_*`` API or registers with the
network, so that each piece of work is charged to the layer whose module
defines it and ``kernel`` self time is heap + dispatch only.

A span is ``(layer.function, start_ns, end_ns, parent, nid)``; ``nid`` is
the notification an argument exposes, else the parent's, so the spans of
one message share an identifier. Spans stay in memory (five flat arrays)
and are aggregated when the run ends: self time = duration − the time
covered by child spans. The wrapper's own cost is measured by
:meth:`SpanRecorder.calibrate` and subtracted per span, because it would
otherwise inflate exactly the layers that make many small calls.

Tracing inside ``src/`` is a later issue; end-to-end metrics are always
measured with this recorder off.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

#: layer -> module prefixes (the longest matching prefix wins); the names
#: every later issue uses
LAYERS: Dict[str, Tuple[str, ...]] = {
    "kernel": ("repro.simulation.kernel",),
    "network": ("repro.simulation.network",),
    "transport": ("repro.simulation.transport",),
    "channel": ("repro.mom.channel", "repro.mom.domain_item"),
    "engine": ("repro.mom.engine", "repro.mom.agent"),
    "bus": ("repro.mom.bus", "repro.causality.trace"),
    "clocks": ("repro.clocks", "repro.protocol"),
    "persistence": ("repro.mom.persistence",),
    "routing": ("repro.topology.routing", "repro.topology.domains"),
    "metrics": (
        "repro.metrics", "repro.mom.accounting", "repro.simulation.metrics",
    ),
    "obs": ("repro.obs",),
    "sanitizer": ("repro.analysis.sanitizer",),
    "causality": ("repro.causality",),
    "parallel": (
        "repro.mom.parallel", "repro.simulation.sync",
        "repro.simulation.shard", "repro.simulation.telemetry",
        "repro.topology.shardplan",
    ),
}

UNATTRIBUTED = "unattributed"
#: the benchmark's own region spans (``bench.setup`` / ``run`` / ``verify``)
BENCH = "bench"
NO_NID = -1

_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in LAYERS.items() for prefix in prefixes),
    key=lambda item: -len(item[0]),
)


def layer_of(module: str) -> Optional[str]:
    """The layer owning ``module``, or ``None`` when no layer claims it."""
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


#: (module, class, method, index of the argument that exposes a nid)
_METHODS: Tuple[Tuple[str, str, str, Optional[int]], ...] = (
    ("repro.simulation.kernel", "Simulator", "run", None),
    ("repro.simulation.kernel", "Processor", "submit", None),
    ("repro.simulation.network", "Network", "transmit", 3),
    ("repro.simulation.transport", "ReliableTransport", "send", 2),
    ("repro.mom.channel", "Channel", "post", 1),
    ("repro.mom.channel", "Channel", "on_packet", 2),
    ("repro.mom.channel", "Channel", "on_crash", None),
    ("repro.mom.channel", "Channel", "on_recover", None),
    ("repro.mom.engine", "Engine", "enqueue", 1),
    ("repro.mom.bus", "MessageBus", "__init__", None),
    ("repro.mom.bus", "MessageBus", "dispatch", None),
    ("repro.mom.bus", "MessageBus", "record_app_send", 1),
    ("repro.mom.bus", "MessageBus", "record_app_receive", 1),
    ("repro.mom.bus", "MessageBus", "record_hop_send", 1),
    ("repro.mom.bus", "MessageBus", "record_hop_receive", 1),
    ("repro.mom.persistence", "PersistentStore", "save", None),
    ("repro.mom.persistence", "PersistentStore", "put_entry", None),
    ("repro.mom.persistence", "PersistentStore", "delete_entry", None),
    ("repro.mom.persistence", "PersistentStore", "load", None),
    ("repro.topology.routing", "RoutingTable", "next_hop", None),
    ("repro.topology.domains", "Topology", "shared_domain", None),
)

#: kernel scheduling entry points and where their callback argument sits
_SCHEDULERS = (
    ("schedule_setup", 3), ("schedule_local_at", 3), ("schedule_arrival", 5),
)
_CORE_METHODS = ("stamp", "deliverable", "duplicate", "merge", "next_expected")
_CLOCK_METHODS = ("sync_image", "restore")
_TRACER_HOOKS = ("bus_", "channel_", "engine_", "server_", "transport_", "cpu")


def _nid_of(obj: Any) -> int:
    """The notification id ``obj`` exposes: a notification, an envelope,
    or a transport packet carrying one."""
    nid = getattr(obj, "nid", None)
    if nid is None:
        inner = getattr(obj, "notification", None)
        if inner is None:
            inner = getattr(getattr(obj, "payload", None), "notification", None)
        nid = getattr(inner, "nid", None)
    return NO_NID if nid is None else nid


@dataclass
class Row:
    """One span name inside one region."""

    calls: int
    self_ns: float
    """Self time with the calibrated wrapper cost removed."""
    raw_self_ns: int
    total_ns: int


@dataclass
class Aggregate:
    """Spans reduced per region: ``rows[region][span name]``; the region's
    own span is in there too, under its own name."""

    region_ns: Dict[str, int]
    rows: Dict[str, Dict[str, Row]]
    span_count: int

    def layer_self_ns(self, region: str, layer: str) -> float:
        """Self time of every span of ``layer`` inside ``region``."""
        return sum(
            row.self_ns for name, row in self.rows[region].items()
            if name.split(".", 1)[0] == layer
        )

    def calls(self, name: str) -> int:
        """Spans called ``name``, over all regions."""
        return sum(
            rows[name].calls for rows in self.rows.values() if name in rows
        )

    def total_ns(self, name: str) -> int:
        """Inclusive time of the spans called ``name``, over all regions."""
        return sum(
            rows[name].total_ns for rows in self.rows.values() if name in rows
        )


class SpanRecorder:
    """Records spans while :meth:`install`-ed; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._nid = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: List[int] = [-1]
        self._trampolines: Dict[Any, Callable] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self._start)

    def spans(self) -> Iterator[Tuple[str, int, int, int, int]]:
        """Every span recorded so far, in start order:
        ``(layer.function, start_ns, end_ns, parent index, nid)``."""
        for name_id, start, end, parent, nid in zip(
            self._name, self._start, self._end, self._parent, self._nid
        ):
            yield self.names[name_id], start, end, parent, nid

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _intern(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = len(self.names)
            self._ids[name] = name_id
            self.names.append(name)
        return name_id

    def _span_id(self, fn: Callable) -> int:
        layer = layer_of(fn.__module__) or UNATTRIBUTED
        return self._intern(f"{layer}.{fn.__name__}")

    def _traced(
        self, name_id: int, fn: Callable, nid_arg: Optional[int]
    ) -> Callable:
        """``fn`` wrapped in a span. ``nid_arg``: index of the argument
        exposing a nid, -1 to scan them all, ``None`` to inherit only."""
        names, parents, nids = self._name, self._parent, self._nid
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            nid = NO_NID
            if nid_arg is not None:
                if nid_arg >= 0:
                    if len(args) > nid_arg:
                        nid = _nid_of(args[nid_arg])
                else:
                    for arg in args:
                        nid = _nid_of(arg)
                        if nid != NO_NID:
                            break
            if nid == NO_NID and parent >= 0:
                nid = nids[parent]
            index = len(starts)
            names.append(name_id)
            parents.append(parent)
            nids.append(nid)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _entry_point(
        self, fn: Callable, nid_arg: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Callable:
        """A layer's entry point in a span named after its module's layer
        (or ``name``); keeps ``fn``'s identity for introspection."""
        name_id = self._intern(name) if name else self._span_id(fn)
        return functools.update_wrapper(self._traced(name_id, fn, nid_arg), fn)

    def _scheduler(self, fn: Callable, position: int) -> Callable:
        """A kernel scheduling entry point. The callback at
        ``args[position]`` fires inside a span charged to the layer whose
        module defines it: the event is scheduled as ``trampoline(callback,
        *args)``, one cached trampoline per callback function, so nothing
        is built per event and the kernel is not charged for the wrapping.
        """
        traced = self._entry_point(fn)
        trampolines = self._trampolines

        def fire(callback: Callable, *args: Any) -> Any:
            return callback(*args)

        def schedule(*args: Any, **kwargs: Any) -> Any:
            callback = args[position]
            func = getattr(callback, "__func__", callback)
            func = getattr(func, "__wrapped__", func)
            key = getattr(func, "__code__", func)  # lambdas share their code
            trampoline = trampolines.get(key)
            if trampoline is None:
                trampoline = self._traced(self._span_id(func), fire, -1)
                trampolines[key] = trampoline
            return traced(
                *args[:position], trampoline, callback, *args[position + 1:],
                **kwargs,
            )

        return functools.update_wrapper(schedule, fn)

    def _registrar(self, fn: Callable, position: int) -> Callable:
        """An entry point that registers a handler (``Network.attach``):
        the handler at ``args[position]`` gets a span of its own layer."""
        traced = self._entry_point(fn)

        def register(*args: Any, **kwargs: Any) -> Any:
            handler = args[position]
            func = getattr(handler, "__func__", handler)
            return traced(
                *args[:position],
                self._traced(self._span_id(func), handler, -1),
                *args[position + 1:],
                **kwargs,
            )

        return functools.update_wrapper(register, fn)

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A root span of the benchmark's own (``bench.run`` ...)."""
        index = len(self._start)
        self._name.append(self._intern(name))
        self._parent.append(self._stack[-1])
        self._nid.append(NO_NID)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self._end[index] = time.perf_counter_ns()
            self._stack.pop()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_defining_class(
        self, cls: type, attr: str, seen: Set[Tuple[type, str]]
    ) -> None:
        """Wrap ``attr`` on the class of ``cls``'s MRO that defines it."""
        for base in cls.__mro__:
            if attr in vars(base):
                if (base, attr) not in seen:
                    seen.add((base, attr))
                    fn = vars(base)[attr]
                    self._patch(
                        base, attr, self._entry_point(fn)
                    )
                return

    def install(self) -> None:
        """Wrap every layer's entry points; undo with :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("span recorder already installed")
        for module, cls_name, attr, nid_arg in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            fn = vars(cls)[attr]
            self._patch(cls, attr, self._entry_point(fn, nid_arg))

        kernel = importlib.import_module("repro.simulation.kernel")
        for attr, position in _SCHEDULERS:
            fn = vars(kernel.Simulator)[attr]
            self._patch(kernel.Simulator, attr, self._scheduler(fn, position))
        network = importlib.import_module("repro.simulation.network")
        self._patch(
            network.Network, "attach",
            self._registrar(vars(network.Network)["attach"], 2),
        )

        seen: Set[Tuple[type, str]] = set()
        protocol = importlib.import_module("repro.protocol")
        for core in protocol.registered_cores():
            for attr in _CORE_METHODS:
                self._patch_defining_class(type(core), attr, seen)
            for attr in _CLOCK_METHODS:
                self._patch_defining_class(core.clock_cls, attr, seen)

        tracer_cls = importlib.import_module("repro.obs.tracer").Tracer
        for attr, fn in list(vars(tracer_cls).items()):
            if attr.startswith(_TRACER_HOOKS) and callable(fn):
                self._patch(
                    tracer_cls, attr, self._entry_point(fn)
                )

        # the checker runs behind a bus method; charge it to its own layer
        bus_cls = importlib.import_module("repro.mom.bus").MessageBus
        self._patch(
            bus_cls, "check_app_causality",
            self._entry_point(
                vars(bus_cls)["check_app_causality"],
                name="causality.check_app_causality",
            ),
        )

        # a module function: rebind it wherever it was imported by name
        routing = importlib.import_module("repro.topology.routing")
        build = routing.build_routing_tables
        traced_build = self._entry_point(build)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and module is not None:
                if vars(module).get("build_routing_tables") is build:
                    self._patch(module, "build_routing_tables", traced_build)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calibrate(self, calls: int = 20_000) -> None:
        """Record two regions that differ only in the span wrapper, from
        which :meth:`aggregate` derives the wrapper's cost per span."""
        def bare() -> None:
            pass

        probe = self._traced(self._intern(f"{BENCH}.probe"), bare, None)
        with self.region(f"{BENCH}.calibrate_traced"):
            for _ in range(calls):
                probe()
        with self.region(f"{BENCH}.calibrate_bare"):
            for _ in range(calls):
                bare()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def aggregate(self) -> Aggregate:
        """Reduce the recorded spans (see :class:`Aggregate`)."""
        count = len(self)
        name = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        duration = np.array(self._end, dtype=np.int64) - np.array(
            self._start, dtype=np.int64
        )
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=count
        ).astype(np.int64)
        children = np.bincount(parent[nested], minlength=count)
        raw_self = duration - covered

        # every span's root region, by pointer jumping (parent < child)
        index = np.arange(count, dtype=np.int64)
        root = np.where(nested, parent, index)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped

        # wrapper cost per span: inside its own interval, and in its parent
        inner_ns = outer_ns = 0.0
        traced_id = self._ids.get(f"{BENCH}.calibrate_traced")
        bare_id = self._ids.get(f"{BENCH}.calibrate_bare")
        if traced_id is not None and bare_id is not None:
            traced_root = int(np.flatnonzero(name == traced_id)[0])
            bare_root = int(np.flatnonzero(name == bare_id)[0])
            probes = int(children[traced_root])
            inner_ns = float(covered[traced_root]) / probes
            outer_ns = float(raw_self[traced_root] - raw_self[bare_root]) / probes
        self_ns = np.maximum(raw_self - inner_ns - outer_ns * children, 0.0)

        names = len(self.names)
        region_ns: Dict[str, int] = {}
        rows: Dict[str, Dict[str, Row]] = {}
        for region_index in np.flatnonzero(~nested):
            region = self.names[name[region_index]]
            inside = root == region_index
            ids = name[inside]
            calls = np.bincount(ids, minlength=names)
            adjusted = np.bincount(ids, weights=self_ns[inside], minlength=names)
            raw = np.bincount(ids, weights=raw_self[inside], minlength=names)
            total = np.bincount(ids, weights=duration[inside], minlength=names)
            region_ns[region] = int(duration[region_index])
            rows[region] = {
                self.names[i]: Row(
                    int(calls[i]), float(adjusted[i]), int(raw[i]), int(total[i])
                )
                for i in np.flatnonzero(calls)
            }
        return Aggregate(
            region_ns=region_ns,
            rows=rows,
            span_count=count,
        )
