"""R009 fixture: a deliberate unguarded hook call, suppressed."""

from typing import Optional


class R009Suppressed:
    _obs: Optional[object]

    def __init__(self) -> None:
        self._obs = None

    def always_traced(self, mid: str) -> None:
        self._obs.on_send(mid)  # noqa: R009
