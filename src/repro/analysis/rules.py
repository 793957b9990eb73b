"""The rule catalogue, R001–R017 (see ``docs/analysis.md`` for rationale).

Each rule guards one invariant the PR-1 hot-path rewrite (and the paper's
protocol itself) depends on:

- **R001** — clock internals (``_buf``, ``_log``, ``_image`` and the
  Updates-clock buffers) are mutated only inside ``repro/clocks/``. The
  copy-on-write stamp discipline means an out-of-module write can corrupt
  a stamp that is already on the wire.
- **R002** — no ambient nondeterminism (``random.*`` module functions,
  unseeded ``random.Random()``, ``time.time()``, ``datetime.now()``,
  ``os.urandom``) outside ``repro/simulation/rng.py``. Every random draw
  must flow from the seeded per-stream factory or runs stop being
  bit-for-bit reproducible.
- **R003** — no iteration over bare ``set`` expressions or ``.keys()``
  views in ``repro/simulation/`` and ``repro/mom/``: hash order feeding
  event scheduling or message fan-out silently breaks determinism.
- **R004** — no ``==``/``!=`` on virtual-timestamp expressions; simulated
  times are floats and exact equality is a latent flake.
- **R005** — no bare ``except`` and no swallowed protocol errors
  (``ClockError``/``ReproError`` caught without re-raising): a suppressed
  clock error converts a crash into a silent causality violation.
- **R006** — layered imports only: a package may import packages at or
  below its own layer (``errors < simulation < clocks < causality <
  topology < baselines < mom < pubsub < obs < bench < analysis``).

R007–R012 are the whole-program/flow-sensitive tier added with the
CFG/call-graph/dataflow engine (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.callgraph`, :mod:`repro.analysis.dataflow`,
:mod:`repro.analysis.effects`):

- **R007** — nondeterminism taint: a value drawn from an
  ``RngFactory`` stream must never flow (through assignments and calls,
  interprocedurally) into protocol-visible state outside the
  ``simulation`` layer. Determinism of protocol state given message
  order is what makes runs replayable.
- **R008** — observation purity: no function reachable over the call
  graph from a ``repro.obs``/``repro.metrics`` hook may mutate
  ``mom``/``clocks`` protocol state — the static form of the
  "bit-identical with tracer/accounting on" claim.
- **R009** — guard discipline: every hook call through an ``_obs``
  observer handle must be dominated by an ``is not None`` check (CFG
  must-facts, plus ``x and x.m()`` / ternary lexical guards), so the
  no-observer fast path stays a pointer test.
- **R010** — transaction pairing: a ``._pending_commits.add(...)``
  must reach a ``.discard()``/``.clear()`` or a processor hand-off
  (``.submit()``/``.schedule()``) on **every** CFG path to the normal
  exit, exception edges included.
- **R011** — persistence API: the store internals ``_data`` /
  ``writes`` / ``cells_written`` are written only inside
  ``repro/mom/persistence.py``; everyone else goes through
  ``save()``/``put_entry()``/``delete_entry()`` so recovery replays
  see every write.
- **R012** — hold-back leaks: a hold-back insertion whose only route
  to the normal exit crosses an exception edge without a matching
  ``remove()``/``clear()`` leaves a zombie entry that blocks the
  domain's delivery queue forever.

R013–R017 are the concurrency tier added with the fork/pipe
happens-before model (:mod:`repro.analysis.concurrency`) for the PR-6
sharded kernel:

- **R013** — fork-boundary lost updates: a write, in worker-reachable
  code, to module-level state that the parent process reads. Fork is a
  one-way snapshot, so the write silently vanishes — results must ship
  through the worker pipe.
- **R014** — pipe pickle-safety: every type statically inferable as
  crossing a worker pipe (send payloads, protocol stamps) must be
  picklable — no lambdas, locks, open files, generators, sockets or
  bound methods in shipped fields.
- **R015** — epoch discipline: every *rebinding* of a clock change-log
  (``…._log = …``) must write the matching ``_log_epoch`` on all CFG
  paths; in-place appends preserve identity and are exempt. Readers
  dedupe log entries by (epoch, index), so a silent swap replays or
  loses updates.
- **R016** — coordinator flush discipline: on every CFG path, pending
  cross-shard arrivals are flushed into the grant batch before an LBTS
  ``("grant", …)`` message is sent — the bit-identity linchpin of the
  conservative sync protocol.
- **R017** — shard-scoped RNG streams: a stream name constructed in
  worker-reachable code must embed the shard id (constant names would
  give every worker an identical stream), unless lexically guarded by
  the sequential-only ``shard is None`` branch.

R018–R023 are the plug-in contract tier guarding the
:class:`~repro.protocol.core.CausalCore` boundary; they live in
:mod:`repro.analysis.contract` and are appended to ``ALL_RULES`` at the
bottom of this module.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import FunctionInfo, Project
from repro.analysis.cfg import CFG, CFGNode, build_cfg
from repro.analysis.concurrency import fork_model
from repro.analysis.dataflow import (
    expr_chain,
    guard_facts_from_test,
    non_none_facts,
    solve_forward,
)
from repro.analysis.effects import EffectEngine, stream_call_sites
from repro.analysis.lint import Diagnostic, LintContext
from repro.analysis.rulebase import (
    MUTATOR_METHODS as _MUTATOR_METHODS,
    ProjectRule,
    Rule,
    effect_engine,
    function_defs as _function_defs,
    package_of as _package_of,
)

# Attributes that are private to the clock implementations: the flat
# stamp/clock buffers, the change log, the persistence image/journal and
# the per-sender merge positions. Reading them elsewhere is tolerated
# (diagnostics, the sanitizer); *mutating* them outside repro/clocks is
# how a published stamp gets corrupted.
CLOCK_INTERNALS = frozenset(
    {
        "_buf",
        "_log",
        "_image",
        "_value",
        "_cstate",
        "_origin",
        "_sent_state",
        "_changes",
        "_journal",
        "_journal_sent",
        "_merged",
        "_shared",
    }
)

# Layer order for R006; a package may import itself and anything below.
# ``protocol`` sits between ``baselines`` and ``mom``: the built-in cores
# wrap clock classes from ``clocks`` and ``baselines``, and the MOM
# resolves everything through the core registry.
LAYERS: Dict[str, int] = {
    "errors": 0,
    "metrics": 1,
    "simulation": 2,
    "clocks": 3,
    "causality": 4,
    "topology": 5,
    "baselines": 6,
    "protocol": 7,
    "mom": 8,
    "pubsub": 9,
    "obs": 10,
    "bench": 11,
    "analysis": 12,
}

_TIMELIKE_NAMES = frozenset(
    {
        "now",
        "_now",
        "sent_at",
        "started_at",
        "_round_started",
        "busy_until",
        "_busy_until",
        "virtual_time",
        "vtime",
        "send_time",
        "recv_time",
        "delivery_time",
        "timestamp",
    }
)

_PROTOCOL_ERRORS = frozenset({"ClockError", "ReproError", "SanitizerViolation"})
_BROAD_ERRORS = frozenset({"Exception", "BaseException"})

_DATETIME_NOW = frozenset({"now", "utcnow", "today", "fromtimestamp"})


class ClockInternalMutation(Rule):
    """R001: clock internals are written only inside ``repro/clocks/``."""

    rule_id = "R001"
    title = "mutation of clock internals outside repro/clocks/"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.module is not None and ctx.module.startswith("repro.clocks"):
            return
        for node in ast.walk(tree):
            yield from self._check_node(node, ctx)

    def _check_node(self, node: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in CLOCK_INTERNALS
            ):
                yield ctx.diagnostic(
                    self.rule_id,
                    node,
                    f"call mutates clock internal '.{func.value.attr}' via "
                    f".{func.attr}(); clock state may only change inside "
                    "repro/clocks/ (COW stamps alias these buffers)",
                )
            return
        for target in targets:
            internal = self._internal_target(target)
            if internal is not None:
                yield ctx.diagnostic(
                    self.rule_id,
                    node,
                    f"assignment to clock internal '.{internal}' outside "
                    "repro/clocks/; published stamps share these buffers "
                    "copy-on-write",
                )

    @staticmethod
    def _internal_target(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Attribute) and target.attr in CLOCK_INTERNALS:
            return target.attr
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr in CLOCK_INTERNALS
        ):
            return target.value.attr
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                found = ClockInternalMutation._internal_target(element)
                if found is not None:
                    return found
        return None


class AmbientNondeterminism(Rule):
    """R002: nondeterministic sources only inside ``repro/simulation/rng.py``."""

    rule_id = "R002"
    title = "ambient nondeterminism outside simulation/rng.py"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.module == "repro.simulation.rng":
            return
        random_mods: Set[str] = set()
        time_mods: Set[str] = set()
        datetime_mods: Set[str] = set()
        os_mods: Set[str] = set()
        # name -> original, for `from random import randint as r`
        from_random: Dict[str, str] = {}
        from_time: Dict[str, str] = {}
        from_datetime: Dict[str, str] = {}
        from_os: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        random_mods.add(bound)
                    elif alias.name == "time":
                        time_mods.add(bound)
                    elif alias.name == "datetime":
                        datetime_mods.add(bound)
                    elif alias.name == "os":
                        os_mods.add(bound)
            elif isinstance(node, ast.ImportFrom):
                table = {
                    "random": from_random,
                    "time": from_time,
                    "datetime": from_datetime,
                    "os": from_os,
                }.get(node.module or "")
                if table is not None:
                    for alias in node.names:
                        table[alias.asname or alias.name] = alias.name

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            message = self._forbidden_call(
                node,
                random_mods,
                time_mods,
                datetime_mods,
                os_mods,
                from_random,
                from_time,
                from_datetime,
                from_os,
            )
            if message is not None:
                yield ctx.diagnostic(
                    self.rule_id,
                    node,
                    message
                    + "; draw from the seeded RngFactory stream instead "
                    "(repro/simulation/rng.py)",
                )

    @staticmethod
    def _forbidden_call(
        node: ast.Call,
        random_mods: Set[str],
        time_mods: Set[str],
        datetime_mods: Set[str],
        os_mods: Set[str],
        from_random: Dict[str, str],
        from_time: Dict[str, str],
        from_datetime: Dict[str, str],
        from_os: Dict[str, str],
    ) -> Optional[str]:
        func = node.func
        unseeded = not node.args and not node.keywords
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in random_mods:
                    if func.attr == "Random":
                        if unseeded:
                            return "unseeded random.Random() is nondeterministic"
                        return None
                    if func.attr == "SystemRandom":
                        return "random.SystemRandom() is nondeterministic"
                    return (
                        f"module-level random.{func.attr}() uses the global, "
                        "unseeded RNG"
                    )
                if base.id in time_mods and func.attr in {"time", "time_ns"}:
                    return f"wall-clock time.{func.attr}() in simulated code"
                if base.id in os_mods and func.attr == "urandom":
                    return "os.urandom() is nondeterministic"
                if (
                    base.id in from_datetime
                    and from_datetime[base.id] in {"datetime", "date"}
                    and func.attr in _DATETIME_NOW
                ):
                    return f"wall-clock datetime {func.attr}()"
            elif isinstance(base, ast.Attribute) and isinstance(
                base.value, ast.Name
            ):
                if (
                    base.value.id in datetime_mods
                    and base.attr in {"datetime", "date"}
                    and func.attr in _DATETIME_NOW
                ):
                    return f"wall-clock datetime.{base.attr}.{func.attr}()"
        elif isinstance(func, ast.Name):
            origin = from_random.get(func.id)
            if origin is not None:
                if origin == "Random":
                    if unseeded:
                        return "unseeded Random() is nondeterministic"
                    return None
                if origin == "SystemRandom":
                    return "SystemRandom() is nondeterministic"
                return f"module-level random.{origin}() uses the global RNG"
            if from_time.get(func.id) in {"time", "time_ns"}:
                return "wall-clock time.time() in simulated code"
            if from_os.get(func.id) == "urandom":
                return "os.urandom() is nondeterministic"
        return None


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _is_unordered_iterable(node: ast.expr) -> Optional[str]:
    if _is_set_expression(node):
        return "a bare set expression"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    ):
        return "a dict .keys() view"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"list", "tuple"}
        and len(node.args) == 1
        and _is_set_expression(node.args[0])
    ):
        return "a set converted to a sequence"
    return None


class UnorderedIteration(Rule):
    """R003: no hash-ordered iteration feeding scheduling or fan-out."""

    rule_id = "R003"
    title = "iteration over unordered set/keys() in simulation/ or mom/"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        package = _package_of(ctx.module)
        if package is not None and package not in {"simulation", "mom"}:
            return
        iters: List[ast.expr] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
        for expr in iters:
            what = _is_unordered_iterable(expr)
            if what is not None:
                yield ctx.diagnostic(
                    self.rule_id,
                    expr,
                    f"iterating {what}: hash order is not stable run to run; "
                    "sort it (sorted(...)) or use an insertion-ordered "
                    "structure before it feeds event scheduling or fan-out",
                )


def _timelike(node: ast.expr) -> Optional[str]:
    name: Optional[str] = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    if name is None:
        return None
    if name in _TIMELIKE_NAMES or name.endswith("_at"):
        return name
    return None


class FloatTimestampEquality(Rule):
    """R004: no exact equality on virtual-timestamp expressions."""

    rule_id = "R004"
    title = "float equality on virtual timestamps"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[index], operands[index + 1]):
                    name = _timelike(side)
                    if name is not None:
                        yield ctx.diagnostic(
                            self.rule_id,
                            node,
                            f"'{name}' looks like a virtual timestamp; exact "
                            "float equality is a latent flake — compare with "
                            "<=/>= or an explicit tolerance",
                        )
                        break


class SwallowedProtocolError(Rule):
    """R005: no bare ``except``; protocol errors must not be swallowed."""

    rule_id = "R005"
    title = "bare except / swallowed protocol error"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.diagnostic(
                    self.rule_id,
                    node,
                    "bare 'except:' hides protocol violations (and "
                    "KeyboardInterrupt); name the exceptions you mean",
                )
                continue
            caught = self._caught_names(node.type)
            # A handler that re-raises, or returns a value (a CLI boundary
            # converting the error into an exit status), handles the error.
            handled = any(
                isinstance(inner, ast.Raise)
                or (isinstance(inner, ast.Return) and inner.value is not None)
                for inner in ast.walk(node)
            )
            if caught & _PROTOCOL_ERRORS and not handled:
                name = sorted(caught & _PROTOCOL_ERRORS)[0]
                yield ctx.diagnostic(
                    self.rule_id,
                    node,
                    f"'{name}' caught and swallowed: a suppressed protocol "
                    "error turns a crash into a silent causality violation; "
                    "re-raise or handle explicitly (# noqa: R005 if truly "
                    "intended)",
                )
            elif caught & _BROAD_ERRORS and self._is_trivial_body(node.body):
                yield ctx.diagnostic(
                    self.rule_id,
                    node,
                    "broad exception swallowed with an empty handler; "
                    "narrow the type or handle the error",
                )

    @staticmethod
    def _caught_names(expr: ast.expr) -> Set[str]:
        names: Set[str] = set()
        nodes = expr.elts if isinstance(expr, ast.Tuple) else [expr]
        for node in nodes:
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        return names

    @staticmethod
    def _is_trivial_body(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue
            return False
        return True


class LayeredImports(Rule):
    """R006: a package only imports packages at or below its own layer."""

    rule_id = "R006"
    title = "forbidden cross-layer import"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        package = _package_of(ctx.module)
        if package is None or package not in LAYERS:
            return
        layer = LAYERS[package]
        type_checking_only = self._type_checking_imports(tree)
        for node in ast.walk(tree):
            if node in type_checking_only:
                continue
            for target, site in self._imports(node):
                if target == "repro":
                    yield ctx.diagnostic(
                        self.rule_id,
                        site,
                        "import of the 'repro' root aggregator from inside a "
                        "layer package; import the specific subpackage",
                    )
                    continue
                imported = _package_of(target + ".x")
                if imported is None or imported not in LAYERS:
                    continue
                if LAYERS[imported] > layer:
                    yield ctx.diagnostic(
                        self.rule_id,
                        site,
                        f"'{package}' (layer {layer}) imports "
                        f"'{imported}' (layer {LAYERS[imported]}); the layer "
                        "order is "
                        + " < ".join(
                            sorted(LAYERS, key=LAYERS.__getitem__)
                        ),
                    )

    @staticmethod
    def _type_checking_imports(tree: ast.AST) -> Set[ast.AST]:
        """Imports under ``if TYPE_CHECKING:`` — annotation-only, no
        runtime dependency, so no layering edge."""
        guarded: Set[ast.AST] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
                isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
            )
            if not is_tc:
                continue
            for stmt in node.body:
                for inner in ast.walk(stmt):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        guarded.add(inner)
        return guarded

    @staticmethod
    def _imports(node: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                yield module, node


# ----------------------------------------------------------------------
# Whole-program tier (R007–R012)
# ----------------------------------------------------------------------


#: Attribute-chain tails that carry an optional observation handle: the
#: bus observer every MOM component reports to, and the shard telemetry.
HOOK_HANDLES = frozenset({"_obs", "obs", "_telemetry", "telemetry"})

#: Modules that *are* the observation layer (hook targets for R008).
#: The ``repro.obs`` prefix closes over every submodule, including the
#: offline read surfaces (``repro.obs.replay``, ``repro.obs.diff``) that
#: reconstruct protocol state from dumps — they may read anything but
#: must never mutate live protocol state.
_OBSERVATION_PREFIXES = (
    "repro.obs",
    "repro.metrics",
    "repro.mom.accounting",
    "repro.simulation.telemetry",
)


def _is_observation_module(module: Optional[str]) -> bool:
    if not module:
        return False
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _OBSERVATION_PREFIXES
    )


def _owned_exprs(node: CFGNode) -> List[ast.AST]:
    """The expressions *evaluated at* a CFG node — for compound
    statements only the header (test / iterator / context managers),
    never the nested body, which has CFG nodes of its own."""
    stmt = node.stmt
    if stmt is None or node.kind == "finally":
        return []
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(
        stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return []
    return [stmt]


def _calls_with_lexical_facts(
    root: ast.AST,
) -> List[Tuple[ast.Call, FrozenSet[str]]]:
    """Every call under ``root`` paired with the chains proven
    non-``None`` *lexically* at that call: the short-circuit prefix of an
    ``and``/``or`` chain, or the test of an enclosing ternary."""
    found: List[Tuple[ast.Call, FrozenSet[str]]] = []

    def visit(node: ast.AST, facts: FrozenSet[str]) -> None:
        if isinstance(
            node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # body runs later; facts do not transfer
        if isinstance(node, ast.IfExp):
            visit(node.test, facts)
            visit(node.body, facts | guard_facts_from_test(node.test, True))
            visit(node.orelse, facts | guard_facts_from_test(node.test, False))
            return
        if isinstance(node, ast.BoolOp):
            acc = facts
            for value in node.values:
                visit(value, acc)
                acc = acc | guard_facts_from_test(
                    value, isinstance(node.op, ast.And)
                )
            return
        if isinstance(node, ast.Call):
            found.append((node, facts))
        for child in ast.iter_child_nodes(node):
            visit(child, facts)

    visit(root, frozenset())
    return found


def _overrides(project: Project, method: FunctionInfo) -> List[str]:
    """The subclass methods a call resolved to ``method`` may dispatch to
    (a tracer overriding the accounting observer's hooks)."""
    name = method.name
    subs = project.subclasses_of(method.cls.name) if method.cls else []
    return [c.methods[name].qualname for c in subs if name in c.methods]


class NondeterminismTaint(ProjectRule):
    """R007: RngFactory stream values stay inside the simulation layer."""

    rule_id = "R007"
    title = "rng stream value flows into protocol state"

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        engine = effect_engine(project)
        for hit in engine.rng_sink_hits():
            ctx = contexts.get(hit.fn.module)
            if ctx is None:
                continue
            via = f" through {hit.via}" if hit.via else ""
            yield ctx.diagnostic(
                self.rule_id,
                hit.node,
                f"value derived from an RngFactory stream reaches protocol "
                f"state ({hit.target}){via}; randomness may only shape the "
                "simulation/network layer — protocol state must be a "
                "deterministic function of message order",
            )


class ObservationPurity(ProjectRule):
    """R008: nothing reachable from an obs/metrics hook mutates
    protocol state."""

    rule_id = "R008"
    title = "obs/metrics hook path mutates protocol state"

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        engine = effect_engine(project)
        engine.solve()
        roots = self._hook_roots(project)
        parent = project.reachable_from(sorted(roots))
        for qualname in sorted(parent):
            summary = engine.summaries.get(qualname)
            if summary is None or not summary.mutates_protocol:
                continue
            fn = project.functions[qualname]
            ctx = contexts.get(fn.module)
            if ctx is None:
                continue
            chain = " -> ".join(
                name.rsplit(".", 1)[-1]
                for name in project.path_to(parent, qualname)
            )
            for site in summary.mutates_protocol:
                yield ctx.diagnostic(
                    self.rule_id,
                    site.node,
                    f"{site.description}; reachable from an obs/metrics hook "
                    f"(call path: {chain}) — observation must not perturb "
                    "protocol state, or runs stop being bit-identical with "
                    "tracing/accounting enabled",
                )

    @staticmethod
    def _hook_roots(project: Project) -> Set[str]:
        """Observation-layer functions invoked from protocol code: the
        resolved targets of handle call sites plus registered metric
        collectors and row sources (registered anywhere, run at every
        snapshot). Any protocol→observation call edge is a hook."""
        roots: Set[str] = set()
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            if not fn.module.startswith("repro."):
                continue
            observing = _is_observation_module(fn.module)
            env = project.local_env(fn)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in (
                    "add_collector", "add_row_source"
                ):
                    for arg in node.args:
                        if isinstance(arg, (ast.Name, ast.Attribute)):
                            probe = ast.Call(func=arg, args=[], keywords=[])
                            for target in project.resolve_call(probe, fn, env):
                                roots.add(target.qualname)
                    continue
                if observing:
                    continue
                candidates = project.resolve_call(node, fn, env)
                observation = [
                    c for c in candidates if _is_observation_module(c.module)
                ]
                if observation:
                    for target in observation:
                        roots.add(target.qualname)
                        roots.update(_overrides(project, target))
                    continue
                if candidates or not isinstance(func, ast.Attribute):
                    continue
                chain = expr_chain(func.value)
                if chain is not None and chain.split(".")[-1] in HOOK_HANDLES:
                    # unresolved handle call: match by method name
                    roots.update(
                        f.qualname
                        for f in project.functions_by_name.get(func.attr, [])
                        if _is_observation_module(f.module)
                    )
        return roots


_GUARD_SCOPE = frozenset(
    {
        "simulation",
        "clocks",
        "causality",
        "topology",
        "baselines",
        "protocol",
        "mom",
        "pubsub",
    }
)


class GuardDiscipline(Rule):
    """R009: hook handle calls are dominated by ``is not None``."""

    rule_id = "R009"
    title = "hook call not dominated by an 'is not None' guard"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        package = _package_of(ctx.module)
        if package is None or package not in _GUARD_SCOPE:
            return
        for func in _function_defs(tree):
            graph = build_cfg(func)
            facts = non_none_facts(graph)
            for node in graph.nodes:
                owned = _owned_exprs(node)
                if not owned:
                    continue
                in_fact = facts.get(node.index)
                if in_fact is None:
                    continue  # unreachable
                for expr in owned:
                    for call, lexical in _calls_with_lexical_facts(expr):
                        if not isinstance(call.func, ast.Attribute):
                            continue
                        chain = expr_chain(call.func.value)
                        if chain is None:
                            continue
                        if chain.split(".")[-1] not in HOOK_HANDLES:
                            continue
                        if chain in in_fact or chain in lexical:
                            continue
                        yield ctx.diagnostic(
                            self.rule_id,
                            call,
                            f"hook call through '{chain}' is not dominated "
                            f"by a '{chain} is not None' guard; the "
                            "no-observer configuration must skip hook "
                            "dispatch entirely",
                        )


def _attr_call(expr: ast.AST) -> Optional[Tuple[str, str]]:
    """``(receiver_chain, method)`` for ``a.b.m(...)`` calls."""
    if not isinstance(expr, ast.Call) or not isinstance(expr.func, ast.Attribute):
        return None
    chain = expr_chain(expr.func.value)
    if chain is None:
        return None
    return chain, expr.func.attr


_TXN_CHAIN_TAIL = "_pending_commits"
_TXN_CLOSERS = frozenset({"discard", "remove", "clear"})
_HANDOFF_METHODS = frozenset({"submit", "schedule", "call_later", "defer"})
_HOLDBACK_TAILS = ("_holdback", "holdback")
_HOLDBACK_INSERTS = frozenset({"add", "insert", "append"})
_HOLDBACK_REMOVALS = frozenset({"remove", "clear", "pop", "discard"})


def _txn_scope(module: Optional[str]) -> bool:
    return _package_of(module) in {"mom", "pubsub"}


class TransactionPairing(Rule):
    """R010: every opened commit transaction closes or hands off on
    every CFG path."""

    rule_id = "R010"
    title = "commit transaction opened but not closed on some path"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        if not _txn_scope(ctx.module):
            return
        for func in _function_defs(tree):
            graph = build_cfg(func)
            begins: List[Tuple[int, ast.Call]] = []
            closers: Set[int] = set()
            for node in graph.nodes:
                for expr in _owned_exprs(node):
                    for sub in ast.walk(expr):
                        described = _attr_call(sub)
                        if described is None:
                            continue
                        chain, method = described
                        tail = chain.split(".")[-1]
                        if tail == _TXN_CHAIN_TAIL:
                            if method == "add":
                                begins.append((node.index, sub))  # type: ignore[arg-type]
                            elif method in _TXN_CLOSERS:
                                closers.add(node.index)
                        elif method in _HANDOFF_METHODS:
                            closers.add(node.index)
            for index, call in begins:
                if index in closers:
                    continue
                if graph.reaches_exit_without(index, closers):
                    yield ctx.diagnostic(
                        self.rule_id,
                        call,
                        "transaction opened with ._pending_commits.add() can "
                        "reach the function exit without .discard()/.clear() "
                        "or a processor hand-off (.submit()/.schedule()) on "
                        "some path — a crash there wedges the commit forever",
                    )


class PersistenceBypass(Rule):
    """R011: store internals are written only via the persistence API."""

    rule_id = "R011"
    title = "persistent-state write bypasses the persistence API"

    _INTERNALS = frozenset({"_data", "writes", "cells_written"})
    _STORE_SEGMENTS = frozenset({"store", "_store"})

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.module == "repro.mom.persistence":
            return
        for node in ast.walk(tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                ):
                    internal = self._internal_chain(func.value)
                    if internal is not None:
                        yield ctx.diagnostic(
                            self.rule_id,
                            node,
                            f"mutating store internal '{internal}' via "
                            f".{func.attr}(); persistent state changes only "
                            "through save()/put_entry()/delete_entry() so "
                            "recovery replays see every write",
                        )
                continue
            for target in targets:
                for leaf in _flatten(target):
                    if isinstance(leaf, ast.Subscript):
                        leaf = leaf.value
                    if not isinstance(leaf, ast.Attribute):
                        continue
                    internal = self._internal_chain(leaf)
                    if internal is not None:
                        yield ctx.diagnostic(
                            self.rule_id,
                            node,
                            f"write to store internal '{internal}' outside "
                            "repro/mom/persistence.py; go through the "
                            "persistence API (save()/put_entry()/"
                            "delete_entry()) or recovery will miss the write",
                        )

    def _internal_chain(self, expr: ast.expr) -> Optional[str]:
        """The full chain if ``expr`` is ``<...store...>.<internal>``."""
        if not isinstance(expr, ast.Attribute) or expr.attr not in self._INTERNALS:
            return None
        receiver = expr_chain(expr.value)
        if receiver is None:
            return None
        if self._STORE_SEGMENTS & set(receiver.split(".")):
            return f"{receiver}.{expr.attr}"
        return None


def _flatten(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten(target.value)
    else:
        yield target


class HoldbackLeak(Rule):
    """R012: hold-back inserts must not leak through exception paths."""

    rule_id = "R012"
    title = "hold-back entry leaks on an exception path"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        if not _txn_scope(ctx.module):
            return
        for func in _function_defs(tree):
            graph = build_cfg(func)
            inserts: List[Tuple[int, ast.Call]] = []
            removals: Set[int] = set()
            for node in graph.nodes:
                for expr in _owned_exprs(node):
                    for sub in ast.walk(expr):
                        described = _attr_call(sub)
                        if described is None:
                            continue
                        chain, method = described
                        tail = chain.split(".")[-1]
                        if not any(
                            tail == t or tail.endswith(t) for t in _HOLDBACK_TAILS
                        ):
                            continue
                        if method in _HOLDBACK_INSERTS:
                            inserts.append((node.index, sub))  # type: ignore[arg-type]
                        elif method in _HOLDBACK_REMOVALS:
                            removals.add(node.index)
            for index, call in inserts:
                if graph.reaches_exit_without(
                    index, removals, require_exc_edge=True
                ):
                    yield ctx.diagnostic(
                        self.rule_id,
                        call,
                        "hold-back entry inserted here can survive an "
                        "exception path to the function exit without "
                        ".remove()/.clear(); a swallowed error would leave a "
                        "zombie entry blocking the domain's delivery queue",
                    )


# ----------------------------------------------------------------------
# Concurrency tier (R013–R017) — the fork/pipe happens-before model
# ----------------------------------------------------------------------


class ForkBoundaryLostUpdate(ProjectRule):
    """R013: a worker-side write to parent-read module state vanishes at
    the fork boundary."""

    rule_id = "R013"
    title = "worker-side write to module state the parent reads"

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        model = fork_model(project)
        if not model.worker_entries:
            return
        for write in model.worker_module_writes():
            ctx = contexts.get(write.fn.module)
            if ctx is None:
                continue
            readers = model.parent_readers(write.fn.module, write.name)
            if not readers:
                continue
            names = ", ".join(sorted({f"{fn.name}()" for fn in readers}))
            path = model.worker_path(write.fn.qualname)
            entry = path[0].rsplit(".", 1)[-1] if path else "a worker entry"
            yield ctx.diagnostic(
                self.rule_id,
                write.node,
                f"{write.how} of module-level '{write.name}' runs in "
                f"fork-worker code (reachable from {entry}()), but the "
                f"parent process reads '{write.name}' in {names}; fork is a "
                "one-way snapshot, so this write silently vanishes — ship "
                "the data through the worker pipe instead",
            )


class PipePickleSafety(ProjectRule):
    """R014: everything crossing a worker pipe is statically picklable."""

    rule_id = "R014"
    title = "unpicklable value crosses the worker pipe"

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        model = fork_model(project)
        sends = model.pipe_sends()
        if not sends:
            return
        for send in sends:
            ctx = contexts.get(send.fn.module)
            if ctx is None:
                continue
            for arg in send.node.args:
                why = model.unpicklable_reason(arg, send.fn.cls)
                if why is not None:
                    yield ctx.diagnostic(
                        self.rule_id,
                        arg,
                        f"pipe payload sent through '{send.handle}' contains "
                        f"{why}, which cannot be pickled across the fork "
                        "boundary",
                    )
        for cls in model.shipped_classes():
            ctx = contexts.get(cls.module)
            if ctx is None:
                continue
            for site, field_name, why in model.unpicklable_fields(cls):
                yield ctx.diagnostic(
                    self.rule_id,
                    site,
                    f"field '{cls.name}.{field_name}' holds {why}, but "
                    f"'{cls.name}' instances cross the worker pipe pickled "
                    "(directly or inside a shipped payload); every field of "
                    "a shipped type must be statically picklable",
                )


class EpochDiscipline(Rule):
    """R015: every rebinding of a clock change-log writes its epoch."""

    rule_id = "R015"
    title = "change-log rebound without a _log_epoch write on some path"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        if _package_of(ctx.module) != "clocks":
            return
        for func in _function_defs(tree):
            graph = build_cfg(func)
            rebinds: List[Tuple[int, ast.stmt, str]] = []
            epoch_writes: Dict[str, Set[int]] = {}
            for node in graph.nodes:
                stmt = node.stmt
                if stmt is None or node.kind == "finally":
                    continue
                if isinstance(stmt, ast.Assign):
                    targets: List[ast.expr] = list(stmt.targets)
                    rebinding = True
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                    rebinding = stmt.value is not None
                elif isinstance(stmt, ast.AugAssign):
                    # `log += [...]` mutates in place: identity preserved
                    targets = [stmt.target]
                    rebinding = False
                else:
                    continue
                for target in targets:
                    for leaf in _flatten(target):
                        chain = expr_chain(leaf)
                        if chain is None or "." not in chain:
                            continue
                        prefix, _, attr = chain.rpartition(".")
                        if attr == "_log" and rebinding:
                            rebinds.append((node.index, stmt, prefix))
                        elif attr == "_log_epoch":
                            epoch_writes.setdefault(prefix, set()).add(
                                node.index
                            )
            for index, stmt, prefix in rebinds:
                blockers = epoch_writes.get(prefix, set())
                if index in blockers:
                    continue
                if graph.reaches_exit_without(index, blockers):
                    yield ctx.diagnostic(
                        self.rule_id,
                        stmt,
                        f"'{prefix}._log' is rebound here, but some path to "
                        f"the function exit never writes "
                        f"'{prefix}._log_epoch'; change-log consumers dedupe "
                        "entries by (epoch, index), so a silent swap replays "
                        "or loses clock updates",
                    )


class CoordinatorFlushDiscipline(Rule):
    """R016: pending arrivals are flushed before every LBTS grant."""

    rule_id = "R016"
    title = "LBTS grant sent without flushing pending arrivals first"

    _PENDING = "_pending"

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        if _package_of(ctx.module) != "simulation":
            return
        for func in _function_defs(tree):
            graph = build_cfg(func)
            grants: List[Tuple[int, ast.Call]] = []
            flushes: Set[int] = set()
            kills: Set[int] = set()
            for node in graph.nodes:
                for expr in _owned_exprs(node):
                    for sub in ast.walk(expr):
                        if not isinstance(sub, ast.Call) or not isinstance(
                            sub.func, ast.Attribute
                        ):
                            continue
                        if sub.func.attr == "send" and self._is_grant(sub):
                            grants.append((node.index, sub))
                        elif (
                            sub.func.attr in _MUTATOR_METHODS
                            and self._mentions_pending(sub.func.value)
                        ):
                            kills.add(node.index)
                stmt = node.stmt
                if (
                    isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    and node.kind != "finally"
                ):
                    targets = (
                        list(stmt.targets)
                        if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    rebinds_pending = any(
                        (chain := expr_chain(leaf)) is not None
                        and chain.split(".")[-1] == self._PENDING
                        for target in targets
                        for leaf in _flatten(target)
                    )
                    if rebinds_pending:
                        if stmt.value is not None and self._mentions_pending(
                            stmt.value
                        ):
                            # the swap: grant batch <- pending, pending reset
                            flushes.add(node.index)
                            kills.discard(node.index)
                        else:
                            kills.add(node.index)
            if not grants:
                continue

            def transfer(
                node: CFGNode, fact: FrozenSet[str], label: str
            ) -> FrozenSet[str]:
                if node.index in flushes:
                    return frozenset({"flushed"})
                if node.index in kills:
                    return frozenset()
                return fact

            def join(facts: Sequence[FrozenSet[str]]) -> FrozenSet[str]:
                if not facts:
                    return frozenset()
                out = facts[0]
                for fact in facts[1:]:
                    out = out & fact
                return out

            in_facts = solve_forward(graph, frozenset(), transfer, join)
            for index, call in grants:
                if "flushed" not in in_facts.get(index, frozenset()):
                    yield ctx.diagnostic(
                        self.rule_id,
                        call,
                        "LBTS grant sent on a path where pending cross-shard "
                        "arrivals were not flushed into the grant batch; an "
                        "unflushed arrival is delivered one window late, "
                        "breaking bit-identity with the sequential kernel",
                    )

    @staticmethod
    def _is_grant(call: ast.Call) -> bool:
        if not call.args:
            return False
        payload = call.args[0]
        return (
            isinstance(payload, ast.Tuple)
            and bool(payload.elts)
            and isinstance(payload.elts[0], ast.Constant)
            and payload.elts[0].value == "grant"
        )

    @classmethod
    def _mentions_pending(cls, expr: ast.AST) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Attribute) and sub.attr == cls._PENDING:
                return True
            if isinstance(sub, ast.Name) and sub.id == cls._PENDING:
                return True
        return False


class ShardScopedStreams(ProjectRule):
    """R017: stream names built in worker code embed the shard id."""

    rule_id = "R017"
    title = "RNG stream name in worker-reachable code lacks the shard id"

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        model = fork_model(project)
        if not model.worker_entries:
            return
        guarded_cache: Dict[str, Set[int]] = {}
        for fn, call in stream_call_sites(project):
            if not model.is_worker(fn.qualname) or not call.args:
                continue
            ctx = contexts.get(fn.module)
            if ctx is None:
                continue
            arg = call.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                flaw = f"constant stream name '{arg.value}'"
            elif isinstance(arg, ast.JoinedStr) and not self._embeds_shard(arg):
                flaw = "f-string stream name with no shard-id field"
            else:
                continue  # shard-scoped, or not statically decidable
            guarded = guarded_cache.get(fn.qualname)
            if guarded is None:
                guarded = model.sequential_guarded_calls(fn)
                guarded_cache[fn.qualname] = guarded
            if id(call) in guarded:
                continue  # sequential-only branch: `shard is None`
            path = model.worker_path(fn.qualname)
            entry = path[0].rsplit(".", 1)[-1] if path else "a worker entry"
            yield ctx.diagnostic(
                self.rule_id,
                call,
                f"{flaw} in worker-reachable code (via {entry}()): every "
                "shard worker would draw an identical sequence; embed the "
                "shard id in the stream name (e.g. "
                "f\"network/shard{shard.shard_id}\") so streams stay "
                "decorrelated across workers",
            )

    @staticmethod
    def _embeds_shard(arg: ast.JoinedStr) -> bool:
        for part in arg.values:
            if not isinstance(part, ast.FormattedValue):
                continue
            for sub in ast.walk(part.value):
                if isinstance(sub, ast.Name) and "shard" in sub.id:
                    return True
                if isinstance(sub, ast.Attribute) and "shard" in sub.attr:
                    return True
        return False


# Imported at the bottom on purpose: the contract tier builds on the
# shared bases in repro.analysis.rulebase, and this module appends its
# rules to the catalogue — a top-of-file import would be cyclic.
from repro.analysis.contract import CONTRACT_RULES  # noqa: E402

ALL_RULES: Tuple[Rule, ...] = (
    ClockInternalMutation(),
    AmbientNondeterminism(),
    UnorderedIteration(),
    FloatTimestampEquality(),
    SwallowedProtocolError(),
    LayeredImports(),
    NondeterminismTaint(),
    ObservationPurity(),
    GuardDiscipline(),
    TransactionPairing(),
    PersistenceBypass(),
    HoldbackLeak(),
    ForkBoundaryLostUpdate(),
    PipePickleSafety(),
    EpochDiscipline(),
    CoordinatorFlushDiscipline(),
    ShardScopedStreams(),
) + CONTRACT_RULES

FILE_RULES: Tuple[Rule, ...] = tuple(
    rule for rule in ALL_RULES if not isinstance(rule, ProjectRule)
)

PROJECT_RULES: Tuple[ProjectRule, ...] = tuple(
    rule for rule in ALL_RULES if isinstance(rule, ProjectRule)
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
