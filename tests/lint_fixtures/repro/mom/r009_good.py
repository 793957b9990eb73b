"""R009 fixture: every accepted guard idiom for hook handles."""

from typing import Optional


class R009Guarded:
    _obs: Optional[object]

    def __init__(self) -> None:
        self._obs = None
        self.obs = None

    def direct(self, mid: str) -> None:
        if self._obs is not None:
            self._obs.on_send(mid)

    def early_return(self, mid: str) -> None:
        if self._obs is None:
            return
        self._obs.on_send(mid)

    def local_alias(self, mid: str) -> None:
        obs = self._obs
        if obs is not None:
            obs.on_send(mid)

    def ternary(self, server_id: str) -> None:
        self.handle = (
            self.obs.server(server_id) if self.obs is not None else None
        )

    def short_circuit(self, mid: str) -> bool:
        return self._obs is not None and self._obs.on_send(mid)

    def truthiness(self, mid: str) -> None:
        if self._obs:
            self._obs.on_send(mid)
