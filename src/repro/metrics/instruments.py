"""Typed metric instruments: Counter, Gauge, sim-time EWMA Rate.

These are the always-on hot-path primitives of :mod:`repro.metrics`: each
instrument is a plain ``__slots__`` object whose update methods touch only
its own attributes — no registry lookup, no allocation, no wall clock.
The instrumented layers resolve one handle per (component, instrument)
once and the per-event cost is a single bound-method call.

Everything is deterministic in simulated time: :class:`EwmaRate` decays
against the sim-time ``now`` its caller passes in, never against
``time.time()``, so two identical runs report byte-identical values.

(The fourth instrument, the bounded-memory
:class:`~repro.metrics.histogram.LogHistogram`, lives in its own module;
the :class:`~repro.metrics.registry.Registry` hands all four out.)
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


class Counter:
    """A monotonically increasing count (Prometheus ``counter``)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter cannot decrease (inc {amount})"
            )
        self.value += amount

    def dump_state(self) -> int:
        return self.value

    def merge_state(self, state: int) -> None:
        self.inc(int(state))

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A value that goes up and down, with a high-water mark.

    ``max_value`` tracks the largest value ever set — the peak pressure a
    queue-depth gauge saw, even if the queue is empty at snapshot time.
    """

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1.0) -> None:
        value = self.value + amount
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def dump_state(self) -> "tuple":
        return (self.value, self.max_value)

    def merge_state(self, state: "tuple") -> None:
        """Adopt a shard's reading. Every gauge carries a ``server`` or
        ``domain`` label that pins it to exactly one shard, so at most one
        merged state is ever non-default; the high-water mark still folds
        commutatively for safety."""
        value, max_value = state
        self.value = value
        if max_value > self.max_value:
            self.max_value = max_value

    def __repr__(self) -> str:
        return f"Gauge({self.value}, max={self.max_value})"


class EwmaRate:
    """An exponentially-weighted event rate over a sim-time window.

    ``mark(now)`` records events at simulated instant ``now`` (ms);
    ``per_second(now)`` reads the decayed rate. The window ``tau_ms`` is
    the e-folding time: events older than a few tau contribute almost
    nothing. The decay uses only the caller-supplied sim-time, so the
    instrument is deterministic and costs one ``math.exp`` per mark.
    """

    __slots__ = ("tau_ms", "_rate", "_last_ms")

    def __init__(self, tau_ms: float = 1000.0) -> None:
        if tau_ms <= 0:
            raise ConfigurationError(
                f"EWMA window must be positive, got {tau_ms}"
            )
        self.tau_ms = tau_ms
        self._rate = 0.0  # events per ms
        self._last_ms = 0.0

    def mark(self, now: float, count: float = 1.0) -> None:
        """Record ``count`` events at sim-time ``now`` (ms)."""
        dt = now - self._last_ms
        if dt > 0:
            self._rate *= math.exp(-dt / self.tau_ms)
            self._last_ms = now
        self._rate += count / self.tau_ms

    def per_second(self, now: float) -> float:
        """The rate at sim-time ``now``, in events per second."""
        dt = now - self._last_ms
        rate = self._rate
        if dt > 0:
            rate *= math.exp(-dt / self.tau_ms)
        return rate * 1000.0

    def dump_state(self) -> "tuple":
        return (self.tau_ms, self._rate, self._last_ms)

    def merge_state(self, state: "tuple") -> None:
        """Adopt a shard's decay state. Rates are per-server labeled, so
        exactly one merged state is ever non-zero; a zero-rate state folds
        in as the bitwise no-op ``rate += 0.0``, keeping the surviving
        state identical to the sequential instrument's."""
        tau_ms, rate, last_ms = state
        if tau_ms != self.tau_ms:
            raise ConfigurationError(
                f"cannot merge EWMA windows {tau_ms} into {self.tau_ms}"
            )
        if last_ms > self._last_ms:
            dt = last_ms - self._last_ms
            self._rate *= math.exp(-dt / self.tau_ms)
            self._last_ms = last_ms
        elif last_ms < self._last_ms:
            rate *= math.exp(-(self._last_ms - last_ms) / self.tau_ms)
        self._rate += rate

    def __repr__(self) -> str:
        return f"EwmaRate(tau={self.tau_ms}ms, rate/ms={self._rate:.6g})"
