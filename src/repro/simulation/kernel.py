"""The discrete-event kernel: a clock and a priority queue of callbacks.

Events are ordered by a *partition-independent* key, so the same workload
produces the same execution order whether one kernel runs the whole
topology or several shard kernels each run a slice of it (see
``repro/simulation/shard.py`` and docs/parallel.md):

``(time, band, a, b, c)`` with three bands at equal time —

- **band 0 — setup**: scripted/bootstrap events, keyed by
  ``(owner, per-owner sequence)``. The legacy :meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at` entry points land here under the anonymous
  owner ``-1`` (fine for single-kernel callers: the per-owner counter then
  reproduces plain scheduling order).
- **band 1 — server-local**: CPU completions, protocol timers — keyed by
  ``(server, per-server sequence)``. Everything in this band touches the
  state of exactly one server, so the per-server counter advances
  identically no matter which kernel hosts the server.
- **band 2 — network arrival**: keyed by ``(dst, src, per-link sequence)``.
  The link sequence is assigned at *send* time by the network, so an
  arrival injected from a remote shard carries the same key the sequential
  kernel would have used.

Together with seeded, stream-keyed RNGs this makes every run bit-for-bit
reproducible — and makes the sharded execution provably order-identical to
the sequential one.

Keys are unique by construction, so heap entries are plain tuples
``(time, band, a, b, c, handle)`` compared in C that never reach the
handle; a repeated key (only a :meth:`Simulator.schedule_arrival` caller
can make one) raises :class:`~repro.errors.SimulationError` naming it.
``schedule_setup``, ``schedule_local_at`` and ``schedule_arrival`` are the
only ways into the heap: the e2e span tracer (``benchmarks/e2e/layers.py``)
patches them by name and argument position, and
``kernel.fired_per_scheduled`` counts their calls.

:class:`Processor` models one server's single-threaded CPU (one JVM in the
paper's setup): submitted work executes back to back, so a burst of sends —
e.g. the broadcast of Figure 8 fanning out of server 0 — serializes exactly
as it did on the real machines.
"""

from __future__ import annotations

import math
from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

#: Event bands: all setup events at time t fire before all server-local
#: events at t, which fire before all network arrivals at t.
BAND_SETUP = 0
BAND_LOCAL = 1
BAND_ARRIVAL = 2


class EventHandle:
    """A scheduled callback; keep it to :meth:`cancel` the event.

    The last item of its heap entry ``(time, band, a, b, c, handle)``;
    keys are unique, so it defines no ordering of its own.
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable, args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, {state})"


class Simulator:
    """The event loop. All simulated components of one shard share one
    instance (the sequential path is simply the one-shard special case)."""

    def __init__(self):
        self._now = 0.0
        self._queue: List[Tuple[Any, ...]] = []
        self._setup_seq: Dict[int, int] = {}
        self._local_seq: Dict[int, int] = {}
        self._running = False
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time, in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Events executed since construction, counted as each run returns."""
        return self._processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _duplicate(self) -> SimulationError:
        """A pop raised ``TypeError``: two queued keys tie, so it compared
        their handles."""
        counts = Counter(entry[:5] for entry in self._queue)
        key = next(key for key, count in counts.items() if count > 1)
        return SimulationError(f"duplicate event key {key}")

    def schedule(self, delay: float, fn: Callable, *args: Any) -> EventHandle:
        """Run ``fn(*args)`` ``delay`` ms from now (``delay >= 0``).

        Band-0 under the anonymous owner; shard-safe code paths use the
        owner-explicit entry points below instead.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        return self.schedule_setup(time, -1, fn, *args)

    def schedule_setup(
        self, time: float, owner: int, fn: Callable, *args: Any
    ) -> EventHandle:
        """Band-0 event attributed to ``owner`` (a server id, or -1)."""
        seq = self._setup_seq.get(owner, 0)
        self._setup_seq[owner] = seq + 1
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} before now={self._now}")
        handle = EventHandle(time, fn, args)
        heappush(self._queue, (time, BAND_SETUP, owner, seq, 0, handle))
        return handle

    def schedule_local(
        self, owner: int, delay: float, fn: Callable, *args: Any
    ) -> EventHandle:
        """Band-1 event on ``owner``'s timeline, ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_local_at(owner, self._now + delay, fn, *args)

    def schedule_local_at(
        self, owner: int, time: float, fn: Callable, *args: Any
    ) -> EventHandle:
        """Band-1 event on ``owner``'s timeline at absolute time ``time``."""
        seq = self._local_seq.get(owner, 0)
        self._local_seq[owner] = seq + 1
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} before now={self._now}")
        handle = EventHandle(time, fn, args)
        heappush(self._queue, (time, BAND_LOCAL, owner, seq, 0, handle))
        return handle

    def schedule_arrival(
        self,
        time: float,
        dst: int,
        src: int,
        link_seq: int,
        fn: Callable,
        *args: Any,
    ) -> EventHandle:
        """Band-2 network arrival at ``dst`` from ``src``.

        ``link_seq`` is the sender-assigned per-``(src, dst)`` sequence; the
        resulting key is computable on any shard, which is what lets a
        remote shard inject the arrival with the exact key the sequential
        kernel would have produced. A queued key raises SimulationError.
        """
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} before now={self._now}")
        handle = EventHandle(time, fn, args)
        entry = (time, BAND_ARRIVAL, dst, src, link_seq, handle)
        try:
            heappush(self._queue, entry)
        except TypeError:  # a queued twin: undo the push, name the key
            self._queue.remove(entry)
            heapify(self._queue)
            raise SimulationError(f"duplicate event key {entry[:5]}") from None
        return handle

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired. Returns the number of events processed.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        """
        fired = self._fire(math.inf if until is None else until, True, max_events)
        queue = self._queue
        if until is not None and (not queue or queue[0][0] > until):
            self._now = max(self._now, until)
        return fired

    def run_window(
        self, bound: float, max_events: Optional[int] = None
    ) -> int:
        """Process every event with time *strictly below* ``bound``.

        The conservative-sync primitive: a shard granted the window
        ``[now, bound)`` may fire everything before ``bound`` without risk
        of a remote arrival landing inside the window (docs/parallel.md).
        Unlike :meth:`run`, the clock is left at the last fired event so
        later-injected arrivals at ``t >= bound`` still schedule cleanly.
        """
        return self._fire(bound, False, max_events)

    def _fire(
        self, limit: float, inclusive: bool, max_events: Optional[int]
    ) -> int:
        """Fire events up to ``limit`` (included when ``inclusive``)."""
        if self._running:
            raise SimulationError("Simulator.run() re-entered")
        self._running = True
        queue = self._queue
        pop = heappop
        budget = math.inf if max_events is None else max_events
        fired = 0
        try:
            while queue and fired < budget:
                entry = queue[0]
                if entry[0] >= limit and (entry[0] > limit or not inclusive):
                    break
                try:
                    pop(queue)
                except TypeError:
                    raise self._duplicate() from None
                handle = entry[5]
                if handle.cancelled:
                    continue
                self._now = entry[0]
                handle.fn(*handle.args)
                fired += 1
        finally:
            self._processed += fired
            self._running = False
        return fired

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely; guard against runaway event storms."""
        fired = self.run(max_events=max_events)
        if self._queue and fired >= max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return fired

    def next_event_time(self) -> float:
        """Earliest pending (non-cancelled) event time; ``inf`` when idle.

        The shard coordinator's LBTS input."""
        queue = self._queue
        while queue and queue[0][5].cancelled:
            try:
                heappop(queue)
            except TypeError:
                raise self._duplicate() from None
        return queue[0][0] if queue else math.inf

    @property
    def pending(self) -> int:
        """Scheduled-but-unfired events (including cancelled ones)."""
        return len(self._queue)

    @property
    def settled(self) -> bool:
        """True when no pending event is scheduled at (or before) ``now``
        — i.e. the current instant has fully fired. ``run(until=T)``
        always leaves the clock settled at ``T``, which is what makes a
        mid-run :meth:`~repro.mom.bus.MessageBus.protocol_snapshot`
        well-defined (and replayable from a trace dump)."""
        return self.next_event_time() > self._now

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.3f}, pending={self.pending})"


class Processor:
    """A single-threaded CPU: submitted work runs sequentially.

    Work submitted while the processor is busy queues behind the current
    occupancy; the completion callback fires when the work *finishes*. Busy
    time is accumulated for utilization reporting.

    ``owner`` is the server id whose timeline (band-1 key space) the
    completions are attributed to; the default anonymous owner keeps
    single-kernel callers (tests, baselines) working unchanged.
    """

    __slots__ = (
        "_sim", "_owner", "_busy_until", "_busy_total", "_halted", "_obs",
    )

    def __init__(self, sim: Simulator, owner: int = -1):
        self._sim = sim
        self._owner = owner
        self._busy_until = 0.0
        self._busy_total = 0.0
        self._halted = False
        # the tracer while one is attached (repro.obs, set via duck
        # typing — this layer cannot know its type); None otherwise
        self._obs: Optional[Any] = None

    @property
    def busy_until(self) -> float:
        return self._busy_until

    @property
    def busy_total(self) -> float:
        """Total occupied milliseconds (for utilization metrics)."""
        return self._busy_total

    def halt(self) -> None:
        """Refuse further work (server crash). Queued completions for work
        already started are the caller's business to ignore."""
        self._halted = True

    def resume(self) -> None:
        """Accept work again after :meth:`halt` (server recovery). Any
        occupancy from before the crash is discarded."""
        self._halted = False
        self._busy_until = self._sim.now

    def submit(self, duration: float, fn: Callable, *args: Any) -> EventHandle:
        """Occupy the CPU for ``duration`` ms, then call ``fn(*args)``.

        Raises:
            SimulationError: if the processor is halted or ``duration`` is
                negative.
        """
        if self._halted:
            raise SimulationError("processor is halted (server crashed)")
        if duration < 0:
            raise SimulationError(f"negative work duration: {duration}")
        start = max(self._sim.now, self._busy_until)
        self._busy_until = start + duration
        self._busy_total += duration
        if self._obs is not None:
            self._obs.cpu(self._owner, start, duration)
        return self._sim.schedule_local_at(
            self._owner, self._busy_until, fn, *args
        )

    def __repr__(self) -> str:
        return (
            f"Processor(busy_until={self._busy_until:.3f}, "
            f"busy_total={self._busy_total:.3f})"
        )
