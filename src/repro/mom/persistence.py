"""Simulated per-server durable storage.

Agents are persistent and reactions atomic (§3); the channel keeps "a
persistent image of the matrix on each server in order to recover
communication in case of failure". This store models that durability:
values survive :meth:`~repro.mom.server.AgentServer.crash`, while
everything *not* written here is lost.

Writes are synchronous private snapshots (a deep copy, or an owned value
such as an agent's ``snapshot()``, which equals one), so later in-memory
mutation cannot retroactively corrupt the "disk" — the property the
crash-recovery tests rely on. Time cost of persistence is charged by the
channel/engine through the :class:`~repro.simulation.costs.CostModel`;
the store itself only counts traffic.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional

from repro.errors import PersistenceError


class PersistentStore:
    """A key → snapshot map that survives server crashes."""

    def __init__(self, server_id: int):
        self._server_id = server_id
        self._data: Dict[str, Any] = {}
        self.writes = 0
        self.cells_written = 0

    @property
    def server_id(self) -> int:
        return self._server_id

    def save(self, key: str, value: Any, cells: int = 0, owned: bool = False) -> None:
        """Durably store ``value``.

        Args:
            key: storage slot name.
            value: snapshot to persist. Deep-copied unless ``owned``.
            cells: logical size of the write, in matrix cells, for the
                disk-traffic accounting of §3's "high disk I/O activity".
            owned: the caller hands over a private or immutable snapshot
                (e.g. a clock's ``sync_image()`` or a dict of frozen
                envelopes); the store keeps it without copying. Only pass
                True when no live reference can mutate the value later.
        """
        if not key:
            raise PersistenceError("empty persistence key")
        self._data[key] = value if owned else copy.deepcopy(value)
        self.writes += 1
        self.cells_written += cells

    def put_entry(
        self, key: str, entry: Any, value: Any, cells: int = 0
    ) -> None:
        """Durably upsert one entry of the dict stored at ``key``.

        Equivalent to re-saving the whole table with ``entry`` added —
        same one-write, ``cells``-cell accounting — without copying the
        table. ``value`` is kept by reference, so callers must hand over
        immutable or private objects (the unacked table stores frozen
        envelopes). The table is created on first use.
        """
        if not key:
            raise PersistenceError("empty persistence key")
        table = self._data.get(key)
        if table is None:
            table = {}
            self._data[key] = table
        table[entry] = value
        self.writes += 1
        self.cells_written += cells

    def delete_entry(self, key: str, entry: Any, cells: int = 0) -> None:
        """Durably remove one entry of the dict stored at ``key``.

        Equivalent to re-saving the whole table with ``entry`` removed;
        counts one write. Missing tables and missing entries are fine —
        the write still happened (the seed implementation re-saved the
        table unconditionally too).
        """
        if not key:
            raise PersistenceError("empty persistence key")
        table = self._data.get(key)
        if table is not None:
            table.pop(entry, None)
        self.writes += 1
        self.cells_written += cells

    def load(self, key: str, default: Any = None) -> Any:
        """Read back a snapshot (deep copy; the store keeps its own)."""
        if key not in self._data:
            return default
        return copy.deepcopy(self._data[key])

    def has(self, key: str) -> bool:
        return key in self._data

    def delete(self, key: str) -> None:
        self._data.pop(key, None)

    def keys(self):
        return sorted(self._data)

    def __repr__(self) -> str:
        return (
            f"PersistentStore(server={self._server_id}, "
            f"keys={len(self._data)}, writes={self.writes})"
        )
