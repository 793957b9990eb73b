"""Bus configuration: one object per experiment.

Everything that varies between the paper's experiments is a field here:
the topology (flat vs bus vs daisy vs tree), the stamping algorithm
(full matrix vs Appendix-A Updates), the cost model, the network, the
seed. ``validate=False`` is the escape hatch the theorem tests use to boot
deliberately cyclic topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Type

from repro.clocks.base import CausalClock
from repro.errors import ConfigurationError
from repro.protocol import CausalCore, core_names, get_core, has_core
from repro.simulation.costs import CostModel
from repro.simulation.network import ConstantLatency, LatencyModel
from repro.topology.domains import Topology

@dataclass
class BusConfig:
    """Static configuration of a :class:`~repro.mom.bus.MessageBus`."""

    topology: Topology
    """The domain decomposition (see :mod:`repro.topology.builders`)."""

    clock_algorithm: str = "matrix"
    """The name of a registered core (:mod:`repro.protocol.cores`):
    ``"matrix"`` (full-matrix stamps, §3's classical algorithm),
    ``"updates"`` (Appendix A delta stamps), ``"histories"`` (causal
    histories with pruning) or ``"fifo"`` (per-pair FIFO only, the
    deliberately non-causal §2 baseline)."""

    cost_model: CostModel = field(default_factory=CostModel)
    """Simulated-time constants (see :mod:`repro.simulation.costs`)."""

    latency: Optional[LatencyModel] = None
    """One-way network latency model; defaults to the cost model's
    constant ``latency_ms``."""

    loss_rate: float = 0.0
    """Network packet loss probability (exercises the reliable transport)."""

    seed: int = 0
    """Master seed; every random stream derives from it."""

    record_app_trace: bool = True
    """Record agent-level sends/deliveries for the causality checker."""

    record_hop_trace: bool = False
    """Record per-hop (intra-domain) messages too — needed by the
    per-domain causality checks, sizeable for big runs."""

    record_delivered_log: bool = False
    """Keep each engine's committed-delivery prefix (the ordered nid list
    of every non-boot reaction commit). Off by default — it grows with
    run length. The replay identity oracle
    (:meth:`~repro.mom.bus.MessageBus.protocol_snapshot` vs.
    :class:`repro.obs.replay.Replayer`) turns it on to compare delivered
    prefixes too."""

    validate: bool = True
    """Run :func:`repro.topology.graph.validate_topology` at boot. The
    theorem tests set this to False to boot cyclic topologies on purpose."""

    retransmit_ms: float = 50.0
    """Transport retransmission timeout (base, doubles per attempt)."""

    channel_ack_timeout_ms: float = 500.0
    """Channel-level ACK timeout: an envelope still unacked this long after
    its send is retransmitted (with its original stamp). This is what
    bridges a *receiver* crash that wiped not-yet-committed envelopes: the
    transport already acked their arrival, so only the channel can notice
    the missing transaction ACK. Doubles per retry, capped at 8× base."""

    parallel: str = "off"
    """Sharded-parallel execution policy for :func:`repro.mom.parallel.make_bus`
    (docs/parallel.md): ``"off"`` runs the classic sequential kernel,
    ``"auto"`` shards the simulation across worker processes when the
    configuration is eligible (deterministic latency, no loss, multi-domain
    topology), falling back to sequential otherwise. The environment
    variable ``REPRO_PARALLEL`` (``0``/``off``, ``auto``, or a worker
    count) overrides this field either way. Results are bit-identical to
    sequential in both modes."""

    workers: int = 0
    """Worker-process count for parallel runs; ``0`` picks
    ``os.cpu_count()``. The shard plan never uses more workers than the
    topology has domains."""

    def __post_init__(self):
        if not has_core(self.clock_algorithm):
            raise ConfigurationError(
                f"unknown clock algorithm {self.clock_algorithm!r}; "
                f"choose one of {core_names()}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if self.parallel not in ("off", "auto"):
            raise ConfigurationError(
                f"parallel must be 'off' or 'auto', got {self.parallel!r}"
            )
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}"
            )

    @property
    def core(self) -> CausalCore:
        """The registered :class:`~repro.protocol.core.CausalCore` named
        by :attr:`clock_algorithm`."""
        return get_core(self.clock_algorithm)

    @property
    def clock_cls(self) -> Type[CausalClock]:
        """The clock class selected by :attr:`clock_algorithm`."""
        return self.core.clock_cls

    def latency_model(self) -> LatencyModel:
        """The effective latency model."""
        return self.latency or ConstantLatency(self.cost_model.latency_ms)
