"""Small-scope protocol model checker: the dynamic half of the core
admission gate.

The contract rules (R018–R023) prove *structural* properties of a
:class:`~repro.protocol.core.CausalCore` — isolation, conformance, guard
purity, picklability. This module checks the *behavioural* property they
cannot: that the core's ``stamp``/``deliverable``/``duplicate``/``merge``
quadruple actually implements causal delivery.

It exhaustively explores every interleaving of sends and arrivals for a
small scope (n ≤ 3 servers, m ≤ 4 messages — the "small scope
hypothesis": protocol bugs that exist at all show up in tiny
configurations), holding back undeliverable messages exactly like the
channel does, and checks two properties in every reachable state:

- **causal delivery** — against an independent vector-clock oracle: when
  the core admits message ``x`` at its destination, every message ``y``
  to the same destination whose send happened-before ``x``'s send must
  already be delivered there;
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
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
        return tuple(
            sorted(
                ((_freeze(k), _freeze(v)) for k, v in obj.items()),
                key=repr,
            )
        )
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted((_freeze(item) for item in obj), key=repr))
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


# ----------------------------------------------------------------------
# The explored world
# ----------------------------------------------------------------------


class _Msg:
    """One in-model message: protocol stamp plus oracle metadata."""

    def __init__(
        self, mid: int, sender: int, dest: int, stamp, vc: Tuple[int, ...]
    ) -> None:
        self.mid = mid
        self.sender = sender
        self.dest = dest
        self.stamp = stamp
        self.vc = vc

    def label(self) -> str:
        return f"m{self.mid}(s{self.sender}->s{self.dest})"


class PropertyViolation(Exception):
    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


class _World:
    """One reachable protocol state: clocks, oracle VCs, message books."""

    def __init__(self, core, servers: int) -> None:
        self.core = core
        self.servers = servers
        self.clocks = [core.create_clock(servers, i) for i in range(servers)]
        self.vcs = [[0] * servers for _ in range(servers)]
        self.flight: List[_Msg] = []
        self.holdback: List[List[_Msg]] = [[] for _ in range(servers)]
        self.delivered: List[List[int]] = [[] for _ in range(servers)]
        self.msgs: Dict[int, _Msg] = {}
        self.sent = 0

    def clone(self) -> "_World":
        # one deepcopy call for the whole world, so object sharing
        # between a clock and its in-flight stamps is preserved
        return copy.deepcopy(self)

    def freeze(self) -> object:
        return (
            _freeze(self.clocks),
            _freeze(self.vcs),
            tuple(sorted((m.mid, _freeze(m.stamp)) for m in self.flight)),
            tuple(
                tuple((m.mid, _freeze(m.stamp)) for m in held)
                for held in self.holdback
            ),
            tuple(tuple(d) for d in self.delivered),
            self.sent,
        )

    # -- transitions ----------------------------------------------------

    def send(self, sender: int, dest: int) -> str:
        stamp = self.core.stamp(self.clocks[sender], dest)
        self.vcs[sender][sender] += 1
        msg = _Msg(self.sent, sender, dest, stamp, tuple(self.vcs[sender]))
        self.msgs[msg.mid] = msg
        self.flight.append(msg)
        self.sent += 1
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

    # -- delivery + oracle ----------------------------------------------

    def _deliver(self, msg: _Msg) -> None:
        dest = msg.dest
        for other in self.msgs.values():
            if (
                other.mid != msg.mid
                and other.dest == dest
                and other.mid not in self.delivered[dest]
                and _strictly_before(other.vc, msg.vc)
            ):
                raise PropertyViolation(
                    "causal-violation",
                    f"{msg.label()} delivered at s{dest} before its causal "
                    f"predecessor {other.label()} "
                    f"(send VCs {other.vc} < {msg.vc})",
                )
        self.core.merge(self.clocks[dest], msg.stamp)
        vc = self.vcs[dest]
        for i, value in enumerate(msg.vc):
            if value > vc[i]:
                vc[i] = value
        self.delivered[dest].append(msg.mid)

    def _drain(self, dest: int) -> int:
        """Release held-back messages the fresh clock now admits, in
        arrival order, to fixpoint — the channel's release loop."""
        clock = self.clocks[dest]
        released = 0
        progress = True
        while progress:
            progress = False
            for held in list(self.holdback[dest]):
                if self.core.duplicate(clock, held.stamp):
                    self.holdback[dest].remove(held)
                    progress = True
                    break
                if self.core.deliverable(clock, held.stamp):
                    self.holdback[dest].remove(held)
                    self._deliver(held)
                    released += 1
                    progress = True
                    break
        return released

    # -- terminal-state audit -------------------------------------------

    def audit_terminal(self) -> None:
        held = sum(len(h) for h in self.holdback)
        if held:
            stuck = ", ".join(
                m.label() for h in self.holdback for m in h
            )
            raise PropertyViolation(
                "holdback-leak",
                f"terminal state with {held} message(s) wedged in "
                f"hold-back: {stuck}; the merge failed to unlock their "
                "deliverability",
            )
        delivered = sum(len(d) for d in self.delivered)
        if delivered != self.sent:
            raise PropertyViolation(
                "lost-message",
                f"terminal state delivered {delivered} of {self.sent} "
                "messages; the duplicate test dropped a live message",
            )


def _strictly_before(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and tuple(a) != tuple(b)


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

    def to_dict(self) -> Dict[str, object]:
        return {
            "core": self.core,
            "ok": self.ok,
            "kind": self.kind,
            "servers": self.servers,
            "messages": self.messages,
            "states": self.states,
            "detail": self.detail,
            "trace": list(self.trace),
        }

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


def check_core(core, servers: int = 3, messages: int = 3) -> ModelResult:
    """Explore every interleaving of ``messages`` sends and their
    arrivals across ``servers`` servers; first violation wins."""
    servers, messages = clamp_scope(servers, messages)
    root = _World(core, servers)
    seen: Set[object] = set()
    stack: List[Tuple[_World, List[str]]] = [(root, [])]
    states = 0
    while stack:
        world, trace = stack.pop()
        key = world.freeze()
        if key in seen:
            continue
        seen.add(key)
        states += 1
        moves: List[Tuple[str, int, int]] = []
        if world.sent < messages:
            for sender in range(servers):
                for dest in range(servers):
                    if sender != dest:
                        moves.append(("send", sender, dest))
        for index in range(len(world.flight)):
            moves.append(("arrive", index, -1))
        if not moves:
            try:
                world.audit_terminal()
            except PropertyViolation as violation:
                return ModelResult(
                    core=core.name,
                    ok=False,
                    kind=violation.kind,
                    servers=servers,
                    messages=messages,
                    states=states,
                    detail=violation.detail,
                    trace=trace,
                )
            continue
        for kind, a, b in moves:
            child = world.clone()
            label = (
                f"send s{a}->s{b}"
                if kind == "send"
                else f"arrive {world.flight[a].label()}"
            )
            try:
                step = child.send(a, b) if kind == "send" else child.arrive(a)
            except PropertyViolation as violation:
                return ModelResult(
                    core=core.name,
                    ok=False,
                    kind=violation.kind,
                    servers=servers,
                    messages=messages,
                    states=states,
                    detail=violation.detail,
                    trace=trace + [label],
                )
            stack.append((child, trace + [step]))
    return ModelResult(
        core=core.name,
        ok=True,
        kind="admitted",
        servers=servers,
        messages=messages,
        states=states,
    )


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
