"""Related-work baselines (§2).

The solutions the paper positions itself against fall in two families:

- **vector clocks + causal broadcast** — the substrate of the hierarchical
  cluster protocol [Adly–Nagi–Bacon 1993] and the hierarchical Daisy
  [Baldoni–Friedman–van Renesse 1997]. Every message is broadcast to the
  whole group and delivered through the Birman–Schiper–Stephenson rule.
  :mod:`repro.baselines.causal_broadcast` implements that substrate on the
  same simulator, so its costs are directly comparable with the
  matrix-clock MOM's: n-1 packets on the wire per payload and an O(n)
  stamp per packet, versus one routed message with per-domain stamps.

- **matrix clocks with reduced stamps** — the Updates algorithm of
  Appendix A (implemented in :mod:`repro.clocks.updates`) and the
  restriction-based approaches; the ablation benches cover those.

- **explicit causal histories** — the clock-free family of
  Rodrigues–Veríssimo [10]: messages carry the identifiers of their
  causal predecessors, pruned via acknowledgments
  (:mod:`repro.baselines.causal_histories`). Exact like matrix clocks,
  but its wire cost tracks the breadth of the causal past instead of the
  group size — the trade [10] manages with separators and the paper's
  domains dissolve.

- **locality-restricted clocks** — the FM-class reduction of
  Meldal–Sankar–Vera [19], pushed to per-pair FIFO counters in
  :mod:`repro.baselines.local_fifo`; the model checker
  (:mod:`repro.analysis.model`) proves §2's verdict that it "does not
  ensure the global causal delivery of messages". It is the registered
  ``fifo`` core, so it also boots into the MOM itself
  (``clock_algorithm="fifo"``) for end-to-end demonstrations.

``benchmarks/test_baseline_broadcast.py`` puts the families side by side.
"""

from repro.baselines.causal_broadcast import (
    BroadcastGroup,
    BroadcastNode,
)
from repro.baselines.daisy import DaisyChain
from repro.baselines.local_fifo import FifoClock, FifoStamp
from repro.baselines.causal_histories import HistoryClock, HistoryStamp

__all__ = [
    "BroadcastGroup",
    "BroadcastNode",
    "DaisyChain",
    "FifoClock",
    "FifoStamp",
    "HistoryClock",
    "HistoryStamp",
]
