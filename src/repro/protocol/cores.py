"""The built-in causal cores: matrix, updates, histories, fifo.

Each core pairs a clock class from :mod:`repro.clocks` or
:mod:`repro.baselines` with its stamp class. Delivery behaviour is pure
delegation (:class:`~repro.protocol.core.DelegatingCore`), so factoring
the protocol behind the core boundary changes no simulation result — the
differential tests pin bit-identity against the pre-core implementation.
"""

from __future__ import annotations

from repro.baselines.causal_histories import HistoryClock, HistoryStamp
from repro.baselines.local_fifo import FifoClock, FifoStamp
from repro.clocks.matrix import MatrixClock, MatrixStamp
from repro.clocks.updates import UpdatesClock, UpdateStamp
from repro.protocol.core import DelegatingCore
from repro.protocol.registry import register_core


class MatrixCore(DelegatingCore):
    """§3's classic full-matrix algorithm (the paper's baseline stamping):
    every stamp carries the whole s×s matrix."""

    name = "matrix"
    clock_cls = MatrixClock
    stamp_cls = MatrixStamp


class UpdatesCore(DelegatingCore):
    """Appendix A's Updates algorithm: delta stamps (the modified-cell
    list), identical delivery semantics."""

    name = "updates"
    clock_cls = UpdatesClock
    stamp_cls = UpdateStamp


class HistoryCore(DelegatingCore):
    """Causal histories with pruning (§2's unbounded-history ancestor,
    :mod:`repro.baselines.causal_histories`). Registered so the baseline
    boots on a real bus for head-to-head benches; a stamp carries the
    ref, the pruned dependency set and the ack counter."""

    name = "histories"
    clock_cls = HistoryClock
    stamp_cls = HistoryStamp


class FifoCore(DelegatingCore):
    """Per-pair FIFO only — the §2 baseline
    (:mod:`repro.baselines.local_fifo`). Causal on trees of 2-server
    domains at the checked scope, not on cycles or on any domain of 3 or
    more servers. ``causal = False``: the model checker's blanket
    admission run skips it, and checking it explicitly prints the
    triangle-relay interleaving that voids causal delivery."""

    name = "fifo"
    clock_cls = FifoClock
    stamp_cls = FifoStamp
    causal = False


register_core(MatrixCore())
register_core(UpdatesCore())
register_core(HistoryCore())
register_core(FifoCore())
