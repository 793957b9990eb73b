"""The causal-precedence relation ``≺`` on messages (§4.2) and the one
delivery oracle that judges it.

``m ≺ m'`` iff one of:

1. both sent by the same process ``p`` and ``m <p m'``;
2. ``m`` received by ``p``, which later sends ``m'`` (``m <p m'``);
3. transitivity through some message ``n``.

A trace is *correct* iff ``≺`` is a partial order (no two distinct messages
precede each other), and a correct trace *respects causality* iff every
process receives messages in an order that agrees with ``≺``.

:class:`DeliveryOracle` decides the delivery predicate incrementally with
sparse vector clocks that count *sends*: ``m ≺ m'`` iff ``m ≠ m'`` and
``index(m) ≤ sendVC(m')[src(m)]``, where ``index(m)`` is ``m``'s position
among ``src(m)``'s sends. It has three drivers and no second
implementation: :class:`CausalOrder` sweeps a recorded trace through it
offline, the sanitizer's ``OrderChecker`` feeds it online from the bus
hooks, and the model checker (:mod:`repro.analysis.model`) feeds it in
every explored state. The explicit message graph survives only behind
:meth:`CausalOrder.precedes`, built lazily for the graphviz export and
the tests that ask pairwise.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.causality.message import Message
from repro.causality.trace import EventKind, Trace


class DeliveryOracle:
    """Which causal predecessors addressed to the receiver are undelivered?

    Feed it sends and receives in any order consistent with the local
    orders and send-before-receive. Only sends increment a process's
    vector; receives merge the sender's. Cost per receive is the number of
    entries in the message's send vector plus the violations reported.
    """

    def __init__(self, processes: Iterable[Hashable] = ()) -> None:
        # processes are interned to dense ints: a user-defined id (AgentId
        # hashes in Python) is hashed once per event, not once per entry
        self._ids: Dict[Hashable, int] = {}
        self._clocks: List[Dict[int, int]] = []
        # per receiver: sender -> the link's (send index, mid), ascending,
        # from the lowest undelivered one on
        self._inbound: List[Dict[int, Deque[Tuple[int, Hashable]]]] = []
        # mid -> (send vector, src, dst) while sent and not yet received
        self._in_flight: Dict[Hashable, Tuple[Dict[int, int], int, int]] = {}
        # received ahead of an older message that still heads their link
        self._overtook: Set[Hashable] = set()
        for process in processes:
            self._id(process)

    def _id(self, process: Hashable) -> int:
        pid = self._ids.get(process)
        if pid is None:
            pid = self._ids[process] = len(self._clocks)
            self._clocks.append({})
            self._inbound.append(defaultdict(deque))
        return pid

    def send(
        self, mid: Hashable, src: Hashable, dst: Hashable, awaited: bool = True
    ) -> None:
        """``src`` sends ``mid`` to ``dst``. ``awaited=False`` marks a
        message known never to be received: it still counts as a send but
        can never be reported as an undelivered predecessor."""
        sender, receiver = self._id(src), self._id(dst)
        clock = self._clocks[sender]
        index = clock[sender] = clock.get(sender, 0) + 1
        if awaited:
            self._inbound[receiver][sender].append((index, mid))
            self._in_flight[mid] = (clock.copy(), sender, receiver)

    def receive(self, mid: Hashable) -> List[Hashable]:
        """Deliver ``mid``; returns the still-undelivered messages to the
        same process that causally precede it (empty = delivery is causal).
        A ``mid`` not in flight is ignored."""
        entry = self._in_flight.pop(mid, None)
        if entry is None:
            return []
        vector, sender, receiver = entry
        inbound = self._inbound[receiver]
        overtook = self._overtook
        overtook.add(mid)
        own = inbound[sender]
        while own and own[0][1] in overtook:
            overtook.discard(own.popleft()[1])
        clock = self._clocks[receiver]
        missing: List[Hashable] = []
        for process, bound in vector.items():
            if bound > clock.get(process, 0):
                clock[process] = bound
            for index, earlier in inbound.get(process, ()):
                if index > bound:
                    break
                if earlier not in overtook:
                    missing.append(earlier)
        return missing

    def copy(self) -> "DeliveryOracle":
        """An independent oracle in the same state. The send vectors of
        in-flight messages are never mutated, so the copy shares them."""
        other = DeliveryOracle()
        other._ids = dict(self._ids)
        other._clocks = [dict(clock) for clock in self._clocks]
        other._inbound = [
            defaultdict(deque, {p: deque(link) for p, link in links.items()})
            for links in self._inbound
        ]
        other._in_flight = dict(self._in_flight)
        other._overtook = set(self._overtook)
        return other

    def vectors(self) -> Tuple[Tuple[int, ...], ...]:
        """Every process's vector, dense in interning order: a hashable
        snapshot that is canonical when the processes were interned up
        front (the constructor's ``processes``) rather than first-seen."""
        width = range(len(self._clocks))
        return tuple(
            tuple(clock.get(p, 0) for p in width) for clock in self._clocks
        )


class CausalOrder:
    """The ``≺`` relation derived from one trace: the trace predicates run
    one :class:`DeliveryOracle` sweep, the pairwise queries build the
    message graph on first use."""

    def __init__(self, trace: Trace):
        self._trace = trace
        self._succ: Optional[Dict[Hashable, Set[Hashable]]] = None
        self._descendants: Dict[Hashable, Set[Hashable]] = {}
        self._correct = False
        self._violations: Optional[List[Tuple[Hashable, Message, Message]]] = None

    # ------------------------------------------------------------------
    # Reachability (lazy: only dot.py and tests ask)
    # ------------------------------------------------------------------

    def _successors(self) -> Dict[Hashable, Set[Hashable]]:
        """The sparse precedence graph: per process, every event's message
        is linked to the next *send* there — send -> next send encodes
        rule 1, receive -> next send rule 2, transitivity does the rest."""
        if self._succ is None:
            self._succ = {}
            for process in self._trace.processes:
                upcoming: Optional[Hashable] = None
                for event in reversed(self._trace.events_of(process)):
                    targets = self._succ.setdefault(event.message.mid, set())
                    if upcoming is not None:
                        targets.add(upcoming)
                    if event.kind is EventKind.SEND:
                        upcoming = event.message.mid
        return self._succ

    def _descendants_of(self, mid: Hashable) -> Set[Hashable]:
        """All messages strictly causally after ``mid`` (memoized DFS; on
        an incorrect trace a message on a ≺-cycle is its own descendant)."""
        seen = self._descendants.get(mid)
        if seen is None:
            succ = self._successors()
            seen = self._descendants[mid] = set()
            stack = list(succ.get(mid, ()))
            while stack:
                current = stack.pop()
                if current not in seen:
                    seen.add(current)
                    stack.extend(succ[current])
        return seen

    def precedes(self, first: Message, second: Message) -> bool:
        """The paper's ``first ≺ second``."""
        if first.mid == second.mid:
            return False
        return second.mid in self._descendants_of(first.mid)

    def concurrent(self, first: Message, second: Message) -> bool:
        """Neither message causally precedes the other."""
        return not self.precedes(first, second) and not self.precedes(second, first)

    # ------------------------------------------------------------------
    # Trace predicates (one oracle sweep)
    # ------------------------------------------------------------------

    def _sweep(self) -> List[Tuple[Hashable, Message, Message]]:
        """Drive the oracle over one linearization of the trace (once).
        The linearization stops short exactly when ≺ has a cycle, so
        correctness needs no descendant sets. A message the trace never
        receives is not awaited: only received pairs can violate."""
        if self._violations is None:
            trace, oracle = self._trace, DeliveryOracle()
            found = self._violations = []
            order = trace.linearize()
            for event in order:
                message = event.message
                if event.kind is EventKind.SEND:
                    oracle.send(
                        message.mid, message.src, message.dst,
                        trace.was_received(message),
                    )
                else:
                    for earlier in oracle.receive(message.mid):
                        found.append(
                            (event.process, trace.message(earlier), message)
                        )
            self._correct = len(order) == len(trace)
        return self._violations

    def is_correct(self) -> bool:
        """§4.2 correctness: ``≺`` is a partial order, i.e. acyclic, i.e.
        the sweep reached the end of every local history."""
        self._sweep()
        return self._correct

    def delivery_violations(self) -> List[Tuple[Hashable, Message, Message]]:
        """All causal-delivery violations: triples ``(process, earlier,
        later)`` where ``earlier ≺ later`` yet ``process`` received
        ``later`` first. Empty iff the trace respects causality. On an
        incorrect trace the list stops where the sweep did: at the
        receives that wait on the cycle."""
        return list(self._sweep())

    def respects_causality(self) -> bool:
        """§4.2: every process's receive order agrees with ``≺``."""
        return not self.delivery_violations()

    def __repr__(self) -> str:
        return f"CausalOrder(over {self._trace!r})"
