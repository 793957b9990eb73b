"""R009 fixture: hook calls that dodge the is-not-None guard."""

from typing import Optional


class R009Channel:
    _obs: Optional[object]

    def __init__(self) -> None:
        self._obs = None

    def unguarded(self, mid: str) -> None:
        self._obs.on_send(mid)  # no guard at all

    def one_armed(self, mid: str, fast: bool) -> None:
        if fast:
            if self._obs is not None:
                self._obs.on_send(mid)
        else:
            self._obs.on_send(mid)  # this branch is unguarded

    def stale_guard(self, mid: str) -> None:
        if self._obs is not None:
            self._obs = self._fresh()
            self._obs.on_send(mid)  # rebinding killed the fact

    def _fresh(self) -> Optional[object]:
        return None
