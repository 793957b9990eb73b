"""The causality formalism of §4.2–§4.3, executable.

This package turns the paper's definitions into checkable objects:

- :mod:`repro.causality.message` — messages with a source and destination
  process;
- :mod:`repro.causality.trace` — global histories (traces) as per-process
  event sequences, with the local orders ``<p``;
- :mod:`repro.causality.order` — the causal-precedence relation ``≺`` on
  messages (the three rules of §4.2), trace correctness (``≺`` is a partial
  order), and the causal-delivery predicate;
- :mod:`repro.causality.chains` — process paths (direct, minimal, cycles)
  and message chains, including the Lemma-1 reduction of an arbitrary chain
  to a direct chain;
- :mod:`repro.causality.virtual` — virtual traces: sets of non-crossing
  minimal chains collapsed into virtual messages (§4.2, Figure 3);
- :mod:`repro.causality.checker` — one-call checkers producing structured
  violation reports, globally and per domain;
- :mod:`repro.causality.counterexample` — the Figure-4(a) construction: for
  any cyclic domain graph, a trace that respects causality in every domain
  yet violates it globally (the ``P1 ⇒ P2`` half of the main theorem).

The MOM (:mod:`repro.mom`) records its deliveries into these traces, so the
theorem's other half (``P2 ⇒ P1``) is validated end-to-end by running real
workloads on acyclic topologies and checking the recorded trace.
"""

from repro.causality.message import Message
from repro.causality.trace import Event, EventKind, Trace
from repro.causality.order import CausalOrder
from repro.causality.chains import (
    Membership,
    Chain,
    is_path,
    is_direct_path,
    is_minimal_path,
    is_cycle,
    reduce_to_direct_chain,
)
from repro.causality.virtual import VirtualTrace, chains_cross_over
from repro.causality.checker import (
    Violation,
    CausalityReport,
    check_trace,
    check_domain,
    check_all_domains,
)
from repro.causality.counterexample import (
    find_cycle_path,
    build_violation_trace,
)
from repro.causality.diagram import render_space_time, render_timeline
from repro.causality.export import dump_trace, load_trace
from repro.causality.dot import trace_to_dot

__all__ = [
    "Message",
    "Event",
    "EventKind",
    "Trace",
    "CausalOrder",
    "Membership",
    "Chain",
    "is_path",
    "is_direct_path",
    "is_minimal_path",
    "is_cycle",
    "reduce_to_direct_chain",
    "VirtualTrace",
    "chains_cross_over",
    "Violation",
    "CausalityReport",
    "check_trace",
    "check_domain",
    "check_all_domains",
    "find_cycle_path",
    "build_violation_trace",
    "render_space_time",
    "render_timeline",
    "dump_trace",
    "load_trace",
    "trace_to_dot",
]
