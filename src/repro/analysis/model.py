"""Small-scope protocol model checker: the dynamic half of the core
admission gate, and the repository's one interleaving explorer.

The contract rules (R018–R023) prove *structural* properties of a
:class:`~repro.protocol.core.CausalCore` — isolation, conformance, guard
purity, picklability. This module checks the *behavioural* property they
cannot: that the core's ``stamp``/``deliverable``/``duplicate``/``merge``
quadruple, run inside the real protocol, actually implements causal
delivery.

It explores every distinct reachable state of a small world: one real
:class:`~repro.mom.channel.Channel` per server of a
:class:`~repro.topology.domains.Topology`, routed by the real routing
tables, over a host that runs processor and engine tasks FIFO after every
move and hands ACKs back at once (no loss, no crash). The channel decides
hold-back, release, commit and forwarding, the core deliverability and
merge; the checker only picks the next move, with one of two move
generators:

- **free sends** (:func:`check_core`, the admission gate): any server
  may send to any other until m messages are out, at n ≤ 3 servers in one
  domain and m ≤ 4 messages (the "small scope hypothesis": protocol bugs
  that exist at all show up in tiny configurations);
  :func:`check_topology` does the same over any topology. The first
  violation wins.
- **scripted scenarios** (:func:`check_scenario`): initial
  :class:`Send` records plus a ``react(receiver, tag)`` rule fired on
  each delivery. Every arrival order is explored to the end, and the result
  counts the distinct terminal delivery orders the core admits.

Either way it checks two properties:

- **causal delivery** — judged by
  :class:`~repro.causality.order.DeliveryOracle`, fed every send and
  delivery: a delivery that leaves a causal predecessor addressed to the
  same server undelivered is a ``causal-violation``, and the run comes
  back as a :class:`~repro.causality.trace.Trace` witness;
- **no hold-back leak** — in every terminal state (all messages sent and
  arrived) the hold-back stores are empty and every message was
  delivered exactly once. A merge that forgets causal knowledge (the
  classic "drop one matrix row" bug) parks its successors in hold-back
  forever; the checker prints the interleaving that wedges.

Cores are taken from the registry by name, or loaded from a ``.py`` file
after a *static admission scan*: the candidate module's AST must not
import outside a small whitelist or call process/filesystem primitives —
so pointing the checker at a file never runs arbitrary effects, it only
exercises the protocol surface.

CLI::

    python -m repro.analysis model matrix
    python -m repro.analysis model --all
    python -m repro.analysis model path/to/candidate_core.py --servers 2

Exit status: 0 admitted (or nothing to check), 1 property violation,
2 usage/scan error.
"""

from __future__ import annotations

import ast
import copy
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from repro.causality.message import Message
from repro.causality.order import DeliveryOracle
from repro.causality.trace import Trace
from repro.errors import ConfigurationError
from repro.mom.channel import Channel
from repro.mom.identifiers import AgentId
from repro.mom.payloads import ChannelAck, Envelope, Notification
from repro.mom.persistence import PersistentStore
from repro.protocol import CausalCore, get_core, registered_cores
from repro.simulation.costs import CostModel
from repro.topology.builders import single_domain
from repro.topology.domains import Topology
from repro.topology.routing import RoutingTable, build_routing_tables

if TYPE_CHECKING:
    from repro.mom.server import AgentServer

# ----------------------------------------------------------------------
# Static admission scan for file-loaded candidate cores
# ----------------------------------------------------------------------

#: Import roots a candidate core module may use. Everything a protocol
#: implementation legitimately needs; nothing that touches the world.
ALLOWED_IMPORT_ROOTS = frozenset(
    {
        "abc",
        "array",
        "collections",
        "copy",
        "dataclasses",
        "enum",
        "functools",
        "itertools",
        "math",
        "typing",
        "repro",
    }
)

#: Call names that end the admission scan immediately.
FORBIDDEN_CALLS = frozenset(
    {
        "open",
        "exec",
        "eval",
        "compile",
        "__import__",
        "input",
        "breakpoint",
        "exit",
        "quit",
    }
)


class ScanError(Exception):
    """The candidate module failed the static admission scan."""


def scan_candidate(source: str, origin: str) -> ast.Module:
    """Parse ``source`` and verify it stays inside the protocol sandbox.

    Returns the parsed tree; raises :class:`ScanError` with the first
    offending construct otherwise.
    """
    try:
        tree = ast.parse(source, filename=origin)
    except SyntaxError as exc:
        raise ScanError(f"{origin}: not parseable: {exc}") from exc
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root not in ALLOWED_IMPORT_ROOTS:
                    raise ScanError(
                        f"{origin}:{node.lineno}: import of '{alias.name}' "
                        "is outside the candidate-core sandbox"
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level == 0 and root not in ALLOWED_IMPORT_ROOTS:
                raise ScanError(
                    f"{origin}:{node.lineno}: import from '{node.module}' "
                    "is outside the candidate-core sandbox"
                )
        elif isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in FORBIDDEN_CALLS:
                raise ScanError(
                    f"{origin}:{node.lineno}: call to {name}() is outside "
                    "the candidate-core sandbox"
                )
    return tree


def load_candidate(path: Path) -> CausalCore:
    """Scan, import and return the candidate core declared in ``path``.

    The module either binds a ``CORE`` attribute to a
    :class:`~repro.protocol.core.CausalCore` instance, or defines exactly
    one concrete ``CausalCore`` subclass (which is instantiated with no
    arguments).
    """
    import importlib.util
    import inspect

    source = path.read_text(encoding="utf-8")
    scan_candidate(source, str(path))
    spec = importlib.util.spec_from_file_location(
        f"repro_model_candidate_{path.stem}", path
    )
    if spec is None or spec.loader is None:
        raise ScanError(f"{path}: not importable")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    core = getattr(module, "CORE", None)
    if isinstance(core, CausalCore):
        return core
    candidates = [
        obj
        for obj in vars(module).values()
        if inspect.isclass(obj)
        and issubclass(obj, CausalCore)
        and not inspect.isabstract(obj)
        and obj.__module__ == module.__name__
    ]
    if len(candidates) != 1:
        raise ScanError(
            f"{path}: expected a CORE attribute or exactly one concrete "
            f"CausalCore subclass, found {len(candidates)}"
        )
    return candidates[0]()


# ----------------------------------------------------------------------
# State freezing (memoization over explored worlds)
# ----------------------------------------------------------------------


def _freeze(obj) -> object:
    """A hashable, equality-faithful snapshot of arbitrary clock/stamp
    state — dicts, sets, arrays, deques, ``__slots__``/``__dict__``
    objects all reduce to nested tuples."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(item) for item in obj)
    if isinstance(obj, array):
        return ("array", obj.typecode, tuple(obj))
    if isinstance(obj, dict):
        return _sorted((_freeze(k), _freeze(v)) for k, v in obj.items())
    if isinstance(obj, (set, frozenset)):
        return _sorted(_freeze(item) for item in obj)
    params = getattr(obj, "__dataclass_params__", None)
    if params is not None and params.frozen:
        return obj  # immutable, compared and hashed by value
    if hasattr(obj, "__dict__") and vars(obj):
        return (type(obj).__name__, _freeze(vars(obj)))
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        pairs = []
        for name in slots:
            if hasattr(obj, name):
                pairs.append((name, _freeze(getattr(obj, name))))
        return (type(obj).__name__, tuple(pairs))
    try:
        return tuple(_freeze(item) for item in iter(obj))
    except TypeError:
        return repr(obj)


def _sorted(items) -> Tuple:
    """Frozen items in a canonical order, by ``repr`` only where they do
    not compare with each other."""
    ordered = list(items)
    try:
        ordered.sort()
    except TypeError:
        ordered.sort(key=repr)
    return tuple(ordered)


# ----------------------------------------------------------------------
# The explored world
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Send:
    """A scripted send: ``src`` sends ``tag`` to ``dst``."""

    src: int
    dst: int
    tag: str


def _label(msg: Message) -> str:
    return f"m{msg.mid}(s{msg.src}->s{msg.dst})"


def _ignore(*args: Any) -> None:
    """A collaborator call the explored world has no use for."""


class _Host:
    """Everything a real :class:`~repro.mom.channel.Channel` reaches
    through its ``server``, for one server of the explored world. The host
    plays every role itself: ``processor.submit`` and ``engine.enqueue``
    queue on the world's FIFO task queue, run after every move;
    ``transport.send`` puts envelopes in flight and hands ACKs over at
    once; ``sim.schedule_local`` (the ACK timer) is dropped, since nothing
    is lost in this scope; the metrics registry and its counters count
    nothing; ``store`` is a real :class:`PersistentStore`."""

    epoch = 0
    channel_ack_timeout_ms = 0.0
    cost_model = CostModel()
    add = schedule_local = record_hop_send = _ignore

    def __init__(
        self, world: "_World", server: int, routing: RoutingTable
    ) -> None:
        self.world, self.server_id, self.routing = world, server, routing
        self.core, self.topology = world.core, world.topology
        self.domains = world.topology.domains_of(server)
        self.store = PersistentStore(server)
        self.bus = self.sim = self.config = self.metrics = self
        self.processor = self.transport = self.engine = self
        self.channel = Channel(cast("AgentServer", self))

    def counter(self, name: str) -> "_Host":
        return self

    lazy_counter = counter

    def submit(self, cost: float, fn: Callable[..., None], *args: Any) -> None:
        self.world.tasks.append((fn, args))

    def enqueue(self, notification: Notification) -> None:
        reaction = (self.server_id, notification)
        self.world.tasks.append((self.world.react_to, reaction))

    def send(self, dst: int, packet: Any, cells: int = 0) -> None:
        if isinstance(packet, ChannelAck):
            self.world.hosts[dst].channel.on_packet(self.server_id, packet)
        else:
            self.world.flight.append(packet)

    def record_hop_receive(self, envelope: Envelope) -> None:
        self.world.held.pop(envelope.hop_mid(), None)
        self.world.commits.append(envelope.hop_mid())


class _World:
    """One reachable state: a real channel per server of ``topology``,
    the oracle, and the books the verdicts read."""

    def __init__(
        self, core: CausalCore, topology: Topology, react: Any = None
    ) -> None:
        self.core, self.topology, self.react = core, topology, react
        tables = build_routing_tables(topology)
        self.tasks: Deque[Tuple[Callable[..., None], Tuple]] = deque()
        self.hosts = [_Host(self, s, tables[s]) for s in topology.servers]
        # never copied by a clone: stateless, or a cache any clone may fill
        shared = (core, topology, *topology.domains, *tables.values(), react)
        self.shared = {id(obj): obj for obj in shared}
        # servers interned up front: first-seen interning would give equal
        # states different vectors
        self.oracle = DeliveryOracle(topology.servers)
        self.msgs: List[Message] = []  # application messages, by mid
        self.flight: List[Envelope] = []
        self.held: Dict[Tuple, Envelope] = {}  # by hop id, in arrival order
        self.commits: List[Tuple] = []  # hop ids committed by this move
        self.delivered: List[List[int]] = [[] for _ in topology.servers]
        self.log: List[Tuple[bool, int]] = []  # (is send, mid)
        # the first causal violation on this path: detail, overtaken mids
        self.violation: Optional[Tuple[str, List[int]]] = None

    def clone(self) -> "_World":
        other = copy.copy(self)
        memo = {**self.shared, id(self): other}
        other.hosts, other.flight, other.held = copy.deepcopy(
            (self.hosts, self.flight, self.held), memo
        )
        other.tasks = deque()
        other.msgs = list(self.msgs)
        other.delivered = [list(d) for d in self.delivered]
        other.log = list(self.log)
        other.oracle = self.oracle.copy()
        return other

    def freeze(self) -> object:
        """The state key: every clock and every in-flight or held stamp
        frozen whole, so no bookkeeping a merge may read is folded."""

        def hop(e: Envelope) -> Tuple:
            stamp = _freeze(e.stamp)
            return (e.src_server, e.hop_seq, e.notification.nid, stamp)

        channels = [h.channel for h in self.hosts]
        clocks = [[i.clock for i in c.domain_items.values()] for c in channels]
        # one hold-back store per (server, domain), each in arrival order
        # (a stable sort keeps it); how arrivals at different stores
        # interleaved does not matter
        held = sorted(
            self.held.values(), key=lambda e: (e.dst_server, e.domain_id)
        )
        return (
            _freeze(clocks),
            tuple(c.hop_seq for c in channels),
            self.oracle.vectors(),
            tuple(sorted(map(hop, self.flight))),
            tuple(map(hop, held)),
            tuple(tuple(d) for d in self.delivered),
            len(self.msgs),
        )

    def orders(self) -> Tuple[Tuple[Tuple[int, str], ...], ...]:
        """Every server's delivery order as ``(sender, tag)`` pairs: mids
        follow send order, which differs between interleavings of the
        same deliveries."""
        return tuple(
            tuple((self.msgs[mid].src, self.msgs[mid].payload) for mid in d)
            for d in self.delivered
        )

    # -- transitions ----------------------------------------------------

    def moves(self, budget: int) -> List[Tuple[str, int, int]]:
        """Free sends while fewer than ``budget`` messages are out, then
        the arrival of any in-flight envelope."""
        servers = self.topology.servers if len(self.msgs) < budget else ()
        moves = [("send", a, b) for a in servers for b in servers if a != b]
        return moves + [("arrive", i, -1) for i in range(len(self.flight))]

    def move(self, kind: str, a: int, b: int) -> str:
        self.commits = []
        if kind == "send":
            step = f"send {_label(self.send(a, b))}"
            self.settle()
            return step
        envelope = self.flight.pop(a)
        msg = self.msgs[envelope.notification.nid]
        label = _label(msg)
        if (envelope.src_server, envelope.dst_server) != (msg.src, msg.dst):
            label += f" hop s{envelope.src_server}->s{envelope.dst_server}"
        channel = self.hosts[envelope.dst_server].channel
        depth = channel.holdback_depth(envelope.domain_id)
        channel.on_packet(envelope.src_server, envelope)
        if channel.holdback_depth(envelope.domain_id) > depth:
            self.held[envelope.hop_mid()] = envelope
            return f"arrive {label}: held back"
        self.settle()
        if envelope.hop_mid() not in self.commits:
            return f"arrive {label}: dropped as duplicate"
        done = "delivered" if msg.dst == envelope.dst_server else "forwarded"
        released = len(self.commits) - 1
        note = f" (released {released} held)" if released else ""
        return f"arrive {label}: {done}{note}"

    def send(self, sender: int, dest: int, tag: str = "") -> Message:
        """An application send: the oracle records it, the sender's
        channel stamps it for the first hop."""
        msg = Message(len(self.msgs), sender, dest, tag)
        self.oracle.send(msg.mid, sender, dest)
        self.msgs.append(msg)
        self.log.append((True, msg.mid))
        agents = AgentId(sender, 0), AgentId(dest, 0)
        note = Notification(msg.mid, *agents, tag, 0.0)
        self.hosts[sender].channel.post(note)
        return msg

    def settle(self) -> None:
        while self.tasks:
            fn, args = self.tasks.popleft()
            fn(*args)

    def react_to(self, server: int, notification: Notification) -> None:
        """The engine's reaction: the delivery, judged by the oracle, then
        the scenario's reply sends."""
        msg = self.msgs[notification.nid]
        missing = self.oracle.receive(msg.mid)
        if missing and self.violation is None:
            self.violation = (
                f"{_label(msg)} delivered at s{server} before its causal "
                "predecessor "
                + ", ".join(_label(self.msgs[mid]) for mid in missing),
                missing,
            )
        self.delivered[server].append(msg.mid)
        self.log.append((False, msg.mid))
        for send in self.react(server, msg.payload) if self.react else ():
            self.send(send.src, send.dst, send.tag)

    # -- verdicts -------------------------------------------------------

    def audit_terminal(self) -> Optional[Tuple[str, str]]:
        held = self.held.values()
        stuck = [_label(self.msgs[e.notification.nid]) for e in held]
        if stuck:
            return (
                "holdback-leak",
                f"terminal state with {len(stuck)} message(s) wedged in "
                f"hold-back: {', '.join(stuck)}; the merge failed to "
                "unlock their deliverability",
            )
        delivered = sum(len(d) for d in self.delivered)
        if delivered != len(self.msgs):
            return (
                "lost-message",
                f"terminal state delivered {delivered} of {len(self.msgs)} "
                "messages; the duplicate test dropped a live message",
            )
        return None

    def witness(self) -> Trace:
        """The run so far as a causality trace. The predecessors a causal
        violation overtook are appended as delivered last, so the order
        the oracle judged stays in the trace whatever the core does with
        them next."""
        trace = Trace()
        for is_send, mid in self.log:
            record = trace.record_send if is_send else trace.record_receive
            record(self.msgs[mid])
        for mid in self.violation[1] if self.violation else ():
            if mid not in self.delivered[self.msgs[mid].dst]:
                trace.record_receive(self.msgs[mid])
        return trace


# ----------------------------------------------------------------------
# Exhaustive exploration
# ----------------------------------------------------------------------

MAX_SERVERS = 3
MAX_MESSAGES = 4


@dataclass
class ModelResult:
    """Outcome of one admission run."""

    core: str
    ok: bool
    kind: str  # admitted | causal-violation | holdback-leak | lost-message
    servers: int
    messages: int
    states: int
    detail: str = ""
    trace: List[str] = field(default_factory=list)
    # distinct terminal delivery orders reached: complete only for
    # scripted scenarios, which do not stop at the first violation
    orders: int = 0
    leaks: int = 0  # terminal states that failed the audit, likewise
    witness: Optional[Trace] = None  # the failing run, as a causality trace

    def to_dict(self) -> Dict[str, object]:
        fields = dict(vars(self), trace=list(self.trace))
        del fields["witness"]  # a Trace object, not JSON
        return fields

    def format(self) -> str:
        head = (
            f"core '{self.core}': "
            f"{'ADMITTED' if self.ok else self.kind.upper()} "
            f"(n={self.servers}, m={self.messages}, "
            f"{self.states} states explored)"
        )
        if self.ok:
            return head
        lines = [head, f"  {self.detail}", "  counterexample interleaving:"]
        lines.extend(
            f"    {i + 1}. {step}" for i, step in enumerate(self.trace)
        )
        return "\n".join(lines)


def clamp_scope(servers: int, messages: int) -> Tuple[int, int]:
    """The scope :func:`check_core` actually explores for a request."""
    return min(servers, MAX_SERVERS), min(messages, MAX_MESSAGES)


def _explore(
    root: _World,
    budget: int,
    exhaust: bool,
    max_states: Optional[int] = None,
) -> ModelResult:
    """Depth-first search over distinct frozen states from ``root``.
    Without ``exhaust`` the first violation ends the search."""
    servers = root.topology.server_count
    result = ModelResult(root.core.name, True, "admitted", servers, budget, 0)
    seen: Set[object] = set()
    orders: Set[object] = set()
    stack: List[Tuple[_World, List[str]]] = [(root, [])]

    def reject(kind: str, detail: str, trace: List[str], world: _World):
        result.ok, result.kind, result.detail = False, kind, detail
        result.trace, result.witness = trace, world.witness()

    while stack:
        world, trace = stack.pop()
        key = world.freeze()
        if key in seen:
            continue
        seen.add(key)
        result.states += 1
        if max_states is not None and result.states > max_states:
            raise ConfigurationError(
                f"state space exceeds {max_states} states; shrink the scenario"
            )
        result.messages = max(result.messages, len(world.msgs))
        moves = world.moves(budget)
        if not moves:
            orders.add(world.orders())
            result.orders = len(orders)
            audit = world.audit_terminal()
            result.leaks += audit is not None
            if audit is not None and result.ok:
                reject(*audit, trace, world)
                if not exhaust:
                    return result
        for index, (kind, a, b) in enumerate(moves):
            # the last move may take the world itself: nothing reads it again
            child = world if index == len(moves) - 1 else world.clone()
            step = child.move(kind, a, b)
            if child.violation is not None and result.ok:
                detail = child.violation[0]
                reject("causal-violation", detail, trace + [step], child)
                if not exhaust:
                    return result
            stack.append((child, trace + [step]))
    return result


def check_core(
    core: CausalCore, servers: int = 3, messages: int = 3
) -> ModelResult:
    """Explore every interleaving of ``messages`` free sends and their
    arrivals across ``servers`` servers in one domain; the first
    violation wins."""
    servers, messages = clamp_scope(servers, messages)
    return check_topology(core, single_domain(servers), messages)


def check_topology(
    core: CausalCore, topology: Topology, messages: int = 3
) -> ModelResult:
    """Free sends between any two servers of ``topology``, forwarded by
    its causal routers; the first violation wins. No scope cap."""
    return _explore(_World(core, topology), messages, exhaust=False)


def check_scenario(
    core: CausalCore,
    topology: Topology,
    sends: Sequence[Send],
    react: Optional[Callable[[int, str], List[Send]]] = None,
    max_states: int = 200_000,
) -> ModelResult:
    """Explore every arrival order of a scripted workload to the end.

    ``sends`` happen up front, in order; ``react(receiver, tag)`` fires
    on each delivery and its sends happen at once at the receiver. The
    result counts the distinct terminal delivery orders the core admits
    and carries the first violation found. Raises
    :class:`~repro.errors.ConfigurationError` past ``max_states``.
    """
    root = _World(core, topology, react)
    for send in sends:
        root.send(send.src, send.dst, send.tag)
    root.settle()
    return _explore(root, 0, exhaust=True, max_states=max_states)


def check_named(
    name: str, servers: int = 3, messages: int = 3
) -> ModelResult:
    return check_core(get_core(name), servers=servers, messages=messages)


def checkable_cores() -> Iterator[Tuple[str, bool]]:
    """(name, causal) for every registered core (the built-ins register
    on import of :mod:`repro.protocol`)."""
    for core in registered_cores():
        yield core.name, core.causal
