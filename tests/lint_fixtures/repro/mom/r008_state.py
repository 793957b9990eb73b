"""R008 fixture host: protocol state + guarded hook call sites.

This file itself is clean; it exists so the r008_* tracer fixtures in
``repro/obs/`` are reachable from a protocol module's hook call sites
(the way ``Channel`` calls ``self._obs``).
"""

from typing import Optional


class R008Channel:
    _obs: Optional["R008TracerBad"]
    _good_obs: Optional["R008TracerGood"]
    _quiet_obs: Optional["R008TracerNoqa"]

    def __init__(self) -> None:
        self.sent = 0
        self._obs = None
        self._good_obs = None
        self._quiet_obs = None

    def transmit(self, mid: str) -> None:
        self.sent += 1
        if self._obs is not None:
            self._obs.on_send(self, mid)
        if self._good_obs is not None:
            self._good_obs.on_send(self, mid)
        if self._quiet_obs is not None:
            self._quiet_obs.on_send(self, mid)
