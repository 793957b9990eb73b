"""Lightweight metrics: counters and sample collections.

Every experiment reports through a :class:`MetricsRegistry`; the bench
harness turns registries into the rows of the paper's figures.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.errors import ConfigurationError


_PAIRWISE_BLOCK = 128


def _pairwise_sum(values: List[float], start: int, count: int) -> float:
    """Float sum with numpy's pairwise algorithm, bit for bit.

    The metrics snapshots feed determinism fingerprints that were recorded
    when :class:`Samples` used ``np.mean``; a plain ``sum()`` (or
    ``math.fsum``) rounds differently in the last ulp. This mirrors
    numpy's ``pairwise_sum_DOUBLE``: sequential below 8 elements, eight
    interleaved accumulators up to one block, recursive halving (rounded
    to a multiple of 8) above.
    """
    if count < 8:
        total = 0.0
        for i in range(start, start + count):
            total += values[i]
        return total
    if count <= _PAIRWISE_BLOCK:
        acc = values[start : start + 8]
        i = start + 8
        last = start + count - (count % 8)
        while i < last:
            for j in range(8):
                acc[j] += values[i + j]
            i += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for i in range(last, start + count):
            total += values[i]
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(
        values, start + half, count - half
    )


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (add {amount})"
            )
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class LazyCounter:
    """An interned counter handle that defers registration to first use.

    Hot paths resolve ``registry.lazy_counter(name)`` once per component
    instead of once per event, but eager resolution would *register* the
    counter immediately and surface zero-valued keys in snapshots that
    lazily-looked-up counters never created. This handle keeps the
    registration lazy (snapshot key sets stay exactly as before) while
    making the per-event cost a single attribute check. The registry
    hands out one handle per name, shared by every component.
    """

    __slots__ = ("_registry", "_name", "_counter")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._counter: Counter = None  # type: ignore[assignment]

    def add(self, amount: int = 1) -> None:
        counter = self._counter
        if counter is None:
            counter = self._registry.counter(self._name)
            self._counter = counter
        counter.add(amount)

    def __repr__(self) -> str:
        return f"LazyCounter({self._name})"


class Samples:
    """A collection of float observations with summary statistics."""

    __slots__ = ("name", "_values")

    def __init__(self, name: str):
        self.name = name
        self._values: List[float] = []

    def record(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    @property
    def mean(self) -> float:
        """Mean over the *sorted* values: a canonical summation order, so
        the statistic depends only on the observation multiset — per-shard
        sample sets merged in any order reproduce the sequential value bit
        for bit (docs/parallel.md)."""
        if not self._values:
            return math.nan
        ordered = sorted(self._values)
        return _pairwise_sum(ordered, 0, len(ordered)) / len(ordered)

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1) in canonical (sorted)
        summation order, like :attr:`mean`."""
        n = len(self._values)
        if n < 2:
            return 0.0
        mean = self.mean
        squares = [(v - mean) * (v - mean) for v in sorted(self._values)]
        return math.sqrt(_pairwise_sum(squares, 0, n) / (n - 1))

    @property
    def minimum(self) -> float:
        return min(self._values) if self._values else math.nan

    @property
    def maximum(self) -> float:
        return max(self._values) if self._values else math.nan

    def percentile(self, q: float) -> float:
        """Linear-interpolation percentile — numpy's default ``linear``
        method, including its lerp rounding (``b - diff·(1-γ)`` when
        γ ≥ ½), so pre-rewrite fingerprints still match bit for bit."""
        values = self._values
        if not values:
            return math.nan
        ordered = sorted(values)
        n = len(ordered)
        virtual = (q / 100.0) * (n - 1)
        lower = math.floor(virtual)
        upper = min(lower + 1, n - 1)
        gamma = virtual - lower
        a = ordered[lower]
        b = ordered[upper]
        diff = b - a
        if gamma >= 0.5:
            return b - diff * (1.0 - gamma)
        return a + diff * gamma

    def __repr__(self) -> str:
        return f"Samples({self.name}: n={self.count}, mean={self.mean:.3f})"


class MetricsRegistry:
    """Named counters and sample sets, created on first use."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._samples: Dict[str, Samples] = {}
        self._lazy: Dict[str, LazyCounter] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def lazy_counter(self, name: str) -> LazyCounter:
        """The one :class:`LazyCounter` handle of ``name``."""
        handle = self._lazy.get(name)
        if handle is None:
            handle = LazyCounter(self, name)
            self._lazy[name] = handle
        return handle

    def samples(self, name: str) -> Samples:
        samples = self._samples.get(name)
        if samples is None:
            samples = Samples(name)
            self._samples[name] = samples
        return samples

    def snapshot(self) -> Dict[str, float]:
        """Flatten to ``{name: value}`` (counters) and
        ``{name.mean/.p50/.p99: value}`` (samples).

        Keys are emitted in sorted order — first-touch order would depend
        on which shard touched a metric first in a parallel run."""
        flat: Dict[str, float] = {}
        for name in sorted(self._counters):
            flat[name] = self._counters[name].value
        for name in sorted(self._samples):
            samples = self._samples[name]
            flat[f"{name}.count"] = samples.count
            flat[f"{name}.mean"] = samples.mean
            flat[f"{name}.p50"] = samples.percentile(50)
            flat[f"{name}.p99"] = samples.percentile(99)
        return flat

    def dump_state(self) -> Dict[str, Dict[str, object]]:
        """Picklable contents, for shipping a shard's registry to the
        coordinating process."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "samples": {n: list(s.values) for n, s in self._samples.items()},
        }

    def merge_state(self, state: Dict[str, Dict[str, object]]) -> None:
        """Fold one shard's :meth:`dump_state` into this registry.

        Counters add; sample sets concatenate (all summary statistics are
        canonical in the observation multiset, so merge order is
        irrelevant)."""
        for name, value in state["counters"].items():
            self.counter(name).add(int(value))
        for name, values in state["samples"].items():
            samples = self.samples(name)
            for value in values:  # type: ignore[union-attr]
                samples.record(value)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={sorted(self._counters)}, "
            f"samples={sorted(self._samples)})"
        )
