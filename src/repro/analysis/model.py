"""Small-scope protocol model checker: the dynamic half of the core
admission gate, and the repository's one interleaving explorer.

The contract rules (R018–R023) prove *structural* properties of a
:class:`~repro.protocol.core.CausalCore` — isolation, conformance, guard
purity, picklability. This module checks the *behavioural* property they
cannot: that the core's ``stamp``/``deliverable``/``duplicate``/``merge``
quadruple actually implements causal delivery.

It explores every distinct reachable state of a small world, holding
back undeliverable messages exactly like the channel does, with one of
two move generators:

- **free sends** (:func:`check_core`, the admission gate): any server
  may send to any other until m messages are out, at n ≤ 3 servers and
  m ≤ 4 messages (the "small scope hypothesis": protocol bugs that exist
  at all show up in tiny configurations). The first violation wins.
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.causality.message import Message
from repro.causality.order import DeliveryOracle
from repro.causality.trace import Trace
from repro.errors import ConfigurationError

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


def load_candidate(path: Path):
    """Scan, import and return the candidate core declared in ``path``.

    The module either binds a ``CORE`` attribute to a
    :class:`~repro.protocol.core.CausalCore` instance, or defines exactly
    one concrete ``CausalCore`` subclass (which is instantiated with no
    arguments).
    """
    import importlib.util
    import inspect

    from repro.protocol.core import CausalCore

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


@dataclass(eq=False)
class _Msg:
    """One in-model message: the protocol stamp plus what the witness
    trace records."""

    mid: int
    sender: int
    dest: int
    stamp: object
    tag: str

    def label(self) -> str:
        return f"m{self.mid}(s{self.sender}->s{self.dest})"


class _World:
    """One reachable protocol state: clocks, the oracle, message books."""

    def __init__(self, core, servers: int, react=None) -> None:
        self.core = core
        self.react = react
        self.clocks = [core.create_clock(servers, i) for i in range(servers)]
        # servers interned up front: first-seen interning would give equal
        # states different vectors
        self.oracle = DeliveryOracle(range(servers))
        self.msgs: List[_Msg] = []  # indexed by mid
        self.flight: List[_Msg] = []
        self.holdback: List[List[_Msg]] = [[] for _ in range(servers)]
        self.delivered: List[List[int]] = [[] for _ in range(servers)]
        self.log: List[Tuple[bool, int]] = []  # (is send, mid)
        # the first causal violation on this path: detail, overtaken mids
        self.violation: Optional[Tuple[str, List[int]]] = None

    def clone(self) -> "_World":
        other = copy.copy(self)
        # the clocks and the stamps still to arrive go through one
        # deepcopy, so object sharing between them survives; delivered
        # messages are never read again and stay shared
        live = self.flight + [m for held in self.holdback for m in held]
        other.clocks, copies = copy.deepcopy((self.clocks, live))
        other.msgs = list(self.msgs)
        for msg in copies:
            other.msgs[msg.mid] = msg
        other.flight = [other.msgs[m.mid] for m in self.flight]
        other.holdback = [
            [other.msgs[m.mid] for m in held] for held in self.holdback
        ]
        other.delivered = [list(d) for d in self.delivered]
        other.log = list(self.log)
        other.oracle = self.oracle.copy()
        return other

    def freeze(self) -> object:
        return (
            _freeze(self.clocks),
            self.oracle.vectors(),
            tuple(sorted((m.mid, _freeze(m.stamp)) for m in self.flight)),
            tuple(
                tuple((m.mid, _freeze(m.stamp)) for m in held)
                for held in self.holdback
            ),
            tuple(tuple(d) for d in self.delivered),
            len(self.msgs),
        )

    def orders(self) -> Tuple[Tuple[Tuple[int, str], ...], ...]:
        """Every server's delivery order as ``(sender, tag)`` pairs: mids
        follow send order, which differs between interleavings of the
        same deliveries."""
        return tuple(
            tuple((self.msgs[mid].sender, self.msgs[mid].tag) for mid in d)
            for d in self.delivered
        )

    # -- transitions ----------------------------------------------------

    def moves(self, budget: int) -> List[Tuple[str, int, int]]:
        """Free sends while fewer than ``budget`` messages are out, then
        the arrival of any in-flight message."""
        servers = range(len(self.clocks)) if len(self.msgs) < budget else ()
        moves = [("send", a, b) for a in servers for b in servers if a != b]
        return moves + [("arrive", i, -1) for i in range(len(self.flight))]

    def send(self, sender: int, dest: int, tag: str = "") -> str:
        stamp = self.core.stamp(self.clocks[sender], dest)
        msg = _Msg(len(self.msgs), sender, dest, stamp, tag)
        self.oracle.send(msg.mid, sender, dest)
        self.msgs.append(msg)
        self.flight.append(msg)
        self.log.append((True, msg.mid))
        return f"send {msg.label()}"

    def arrive(self, index: int) -> str:
        msg = self.flight.pop(index)
        dest = msg.dest
        clock = self.clocks[dest]
        if self.core.duplicate(clock, msg.stamp):
            return f"arrive {msg.label()}: dropped as duplicate"
        if self.core.deliverable(clock, msg.stamp):
            self._deliver(msg)
            drained = self._drain(dest)
            note = f" (released {drained} held)" if drained else ""
            return f"arrive {msg.label()}: delivered{note}"
        self.holdback[dest].append(msg)
        return f"arrive {msg.label()}: held back"

    # -- delivery, judged by the oracle ---------------------------------

    def _deliver(self, msg: _Msg) -> None:
        dest = msg.dest
        missing = self.oracle.receive(msg.mid)
        if missing and self.violation is None:
            self.violation = (
                f"{msg.label()} delivered at s{dest} before its causal "
                "predecessor "
                + ", ".join(self.msgs[mid].label() for mid in missing),
                missing,
            )
        self.core.merge(self.clocks[dest], msg.stamp)
        self.delivered[dest].append(msg.mid)
        self.log.append((False, msg.mid))
        if self.react is not None:
            for send in self.react(dest, msg.tag):
                self.send(send.src, send.dst, send.tag)

    def _drain(self, dest: int) -> int:
        """Release held-back messages the fresh clock now admits, in
        arrival order, to fixpoint — the channel's release loop."""
        clock, held = self.clocks[dest], self.holdback[dest]
        released = 0
        while True:
            for msg in held:
                duplicate = self.core.duplicate(clock, msg.stamp)
                if duplicate or self.core.deliverable(clock, msg.stamp):
                    held.remove(msg)
                    if not duplicate:
                        self._deliver(msg)
                        released += 1
                    break
            else:
                return released

    # -- verdicts -------------------------------------------------------

    def audit_terminal(self) -> Optional[Tuple[str, str]]:
        stuck = [m.label() for held in self.holdback for m in held]
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
        messages = [Message(m.mid, m.sender, m.dest, m.tag) for m in self.msgs]
        trace = Trace()
        for is_send, mid in self.log:
            record = trace.record_send if is_send else trace.record_receive
            record(messages[mid])
        for mid in self.violation[1] if self.violation else ():
            if mid not in self.delivered[messages[mid].dst]:
                trace.record_receive(messages[mid])
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
    core,
    root: _World,
    budget: int,
    exhaust: bool,
    max_states: Optional[int] = None,
) -> ModelResult:
    """Depth-first search over distinct frozen states from ``root``.
    Without ``exhaust`` the first violation ends the search."""
    servers = len(root.clocks)
    result = ModelResult(core.name, True, "admitted", servers, budget, 0)
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
        for kind, a, b in moves:
            child = world.clone()
            step = child.send(a, b) if kind == "send" else child.arrive(a)
            if child.violation is not None and result.ok:
                detail = child.violation[0]
                reject("causal-violation", detail, trace + [step], child)
                if not exhaust:
                    return result
            stack.append((child, trace + [step]))
    return result


def check_core(core, servers: int = 3, messages: int = 3) -> ModelResult:
    """Explore every interleaving of ``messages`` free sends and their
    arrivals across ``servers`` servers; the first violation wins."""
    servers, messages = clamp_scope(servers, messages)
    return _explore(core, _World(core, servers), messages, exhaust=False)


def check_scenario(
    core,
    servers: int,
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
    root = _World(core, servers, react)
    for send in sends:
        root.send(send.src, send.dst, send.tag)
    return _explore(core, root, 0, exhaust=True, max_states=max_states)


def check_named(
    name: str, servers: int = 3, messages: int = 3
) -> ModelResult:
    import repro.protocol.cores  # noqa: F401  (registration side effect)
    from repro.protocol.registry import get_core

    return check_core(get_core(name), servers=servers, messages=messages)


def checkable_cores() -> Iterator[Tuple[str, bool]]:
    """(name, causal) for every registered core, import side effects
    included (the built-ins register on package import)."""
    import repro.protocol.cores  # noqa: F401  (registration side effect)
    from repro.protocol.registry import registered_cores

    for core in registered_cores():
        yield core.name, core.causal
