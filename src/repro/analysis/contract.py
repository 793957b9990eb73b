"""R018–R023: the :class:`~repro.protocol.core.CausalCore` contract tier.

The PR-10 refactor moved every protocol decision (stamping, the
deliverability test, duplicate detection, merge/commit, the wire codec)
behind a registered ``CausalCore``. That plug-in seam is only safe if
every core honours a contract the interpreter never checks:

- **R018** — core isolation: outside the protocol-owning packages
  (``clocks``, ``protocol``, ``baselines``) nobody reads private core
  state, writes *any* core state, or calls a mutator on it. The channel
  and engine must stay protocol-agnostic: all decisions flow through the
  registered core's public surface.
- **R019** — interface conformance: every registered core implements the
  full abstract ``CausalCore`` surface — no inherited abstract stubs, no
  arity drift, no annotations unrelated to the contract's types.
- **R020** — deliverability-test purity: nothing reachable from a core's
  ``deliverable``/``duplicate`` (or its clock's ``can_deliver``/
  ``is_duplicate``) may mutate core state. The hold-back store probes
  these guards speculatively; an impure guard corrupts state on probes
  that do not commit. A lazy memo fill (``if x is None: ... self._x = x``)
  is the one tolerated write — it caches a pure computation.
- **R021** — stamp picklability: every registered core's stamp type
  crosses the sharded kernel's worker pipe pickled; fields must be
  statically picklable (no lambdas, locks, open files, bound methods).
- **R022** — core nondeterminism taint: a value drawn from an
  ``RngFactory`` stream must never be written into core state, wherever
  the core is defined — plug-in cores outside the classic protocol
  packages get the same determinism guarantee R007 gives the built-ins.
- **R023** — registration completeness: every ``CausalClock`` subclass
  is claimed by a registered core or carries an explicit
  ``protocol_exempt = "<why>"`` marker; every ``repro.baselines``
  variant module either contributes a registered clock or declares
  ``PROTOCOL_EXEMPT = "<why>"``.

All six are :class:`~repro.analysis.rulebase.ProjectRule` instances: the
registry itself is discovered statically, from ``register_core(...)``
call sites resolved through the project's class table — no imports, no
execution.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import ClassInfo, FunctionInfo, Project
from repro.analysis.concurrency import fork_model
from repro.analysis.dataflow import expr_chain
from repro.analysis.lint import Diagnostic, LintContext
from repro.analysis.rulebase import MUTATOR_METHODS, ProjectRule, package_of

#: Class names whose subclass closure *is* core state: a value of one of
#: these types may only be touched by the protocol-owning packages.
STATE_ROOTS = ("CausalClock", "Stamp", "CausalCore")

#: Packages that own protocol state — R018 does not police them.
PROTOCOL_OWNERS = frozenset({"clocks", "protocol", "baselines"})


def _is_abstract(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        if isinstance(decorator, ast.Name) and decorator.id == "abstractmethod":
            return True
        if (
            isinstance(decorator, ast.Attribute)
            and decorator.attr == "abstractmethod"
        ):
            return True
    return False


def _class_body_assign(cls: ClassInfo, attr: str) -> Optional[ast.expr]:
    """The value assigned to a class-level ``attr`` in ``cls``'s own
    body, or ``None``."""
    for stmt in cls.node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == attr:
                    return stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == attr
                and stmt.value is not None
            ):
                return stmt.value
    return None


def _inherited_class_assign(
    project: Project, cls: ClassInfo, attr: str
) -> Optional[ast.expr]:
    """Class-level ``attr`` resolved through the declared bases (BFS)."""
    seen: Set[str] = set()
    queue: List[ClassInfo] = [cls]
    while queue:
        current = queue.pop(0)
        if current.qualname in seen:
            continue
        seen.add(current.qualname)
        value = _class_body_assign(current, attr)
        if value is not None:
            return value
        for base in current.bases:
            parent = project.class_named(base)
            if parent is not None:
                queue.append(parent)
    return None


@dataclass
class RegisteredCore:
    """One statically discovered ``register_core(SomeCore())`` call."""

    cls: ClassInfo
    site: ast.AST
    module: str
    name: Optional[str]
    clock_cls: Optional[ClassInfo]
    stamp_cls: Optional[ClassInfo]
    causal: bool

    @property
    def label(self) -> str:
        return self.name if self.name else self.cls.name


class CoreContract:
    """Registry discovery + the core-state class closure, shared by the
    contract rules (cached per :class:`Project` like the effect engine)."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.cores: List[RegisteredCore] = self._discover()
        names: Set[str] = set()
        qualnames: Set[str] = set()
        for root in STATE_ROOTS:
            base = project.class_named(root)
            if base is not None:
                names.add(base.name)
                qualnames.add(base.qualname)
            for sub in project.subclasses_of(root):
                names.add(sub.name)
                qualnames.add(sub.qualname)
        for core in self.cores:
            for cls in (core.cls, core.clock_cls, core.stamp_cls):
                if cls is not None:
                    names.add(cls.name)
                    qualnames.add(cls.qualname)
        #: Simple class names whose instances are core state (receiver
        #: inference yields simple names).
        self.state_names: FrozenSet[str] = frozenset(names)
        #: Qualnames of the same classes (method-ownership tests).
        self.state_qualnames: FrozenSet[str] = frozenset(qualnames)

    def _discover(self) -> List[RegisteredCore]:
        found: List[RegisteredCore] = []
        seen_sites: Set[Tuple[str, int, int]] = set()
        for module in sorted(self.project.modules):
            info = self.project.modules[module]
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None
                )
                if name != "register_core" or not node.args:
                    continue
                arg = node.args[0]
                if not (
                    isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                ):
                    continue
                cls = self.project.class_named(arg.func.id)
                if cls is None:
                    continue
                key = (module, node.lineno, node.col_offset)
                if key in seen_sites:
                    continue
                seen_sites.add(key)
                found.append(self._describe(cls, node, module))
        return found

    def _describe(
        self, cls: ClassInfo, site: ast.AST, module: str
    ) -> RegisteredCore:
        name_expr = _inherited_class_assign(self.project, cls, "name")
        name = (
            name_expr.value
            if isinstance(name_expr, ast.Constant)
            and isinstance(name_expr.value, str)
            and name_expr.value
            else None
        )
        causal_expr = _inherited_class_assign(self.project, cls, "causal")
        causal = not (
            isinstance(causal_expr, ast.Constant) and causal_expr.value is False
        )
        return RegisteredCore(
            cls=cls,
            site=site,
            module=module,
            name=name,
            clock_cls=self._class_ref(cls, "clock_cls"),
            stamp_cls=self._class_ref(cls, "stamp_cls"),
            causal=causal,
        )

    def _class_ref(self, cls: ClassInfo, attr: str) -> Optional[ClassInfo]:
        expr = _inherited_class_assign(self.project, cls, attr)
        if isinstance(expr, ast.Name):
            return self.project.class_named(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.project.class_named(expr.attr)
        return None

    # -- receiver classification ---------------------------------------

    def state_receiver(
        self,
        expr: ast.expr,
        env: Dict[str, object],
        fn: FunctionInfo,
    ) -> Optional[str]:
        """The core-state class name ``expr`` statically evaluates to,
        or ``None``."""
        inferred = self.project.infer_expr(expr, env, fn)  # type: ignore[arg-type]
        if inferred is not None and inferred[0] == "cls":
            name = str(inferred[1])
            if name in self.state_names:
                return name
        return None


def core_contract(project: Project) -> CoreContract:
    """One :class:`CoreContract` per project, shared across rules."""
    contract = getattr(project, "_core_contract", None)
    if contract is None:
        contract = CoreContract(project)
        project._core_contract = contract  # type: ignore[attr-defined]
    return contract


# ----------------------------------------------------------------------
# R018 — core isolation
# ----------------------------------------------------------------------


class CoreIsolation(ProjectRule):
    """R018: core state is only touched by the protocol-owning packages."""

    rule_id = "R018"
    title = "protocol core state touched outside the core boundary"

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        contract = core_contract(project)
        if not contract.state_names:
            return
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            package = package_of(fn.module)
            if package is None or package in PROTOCOL_OWNERS:
                continue
            if fn.cls is not None and fn.cls.qualname in contract.state_qualnames:
                continue  # a core's own methods manage their own state
            ctx = contexts.get(fn.module)
            if ctx is None:
                continue
            yield from self._check_function(fn, contract, ctx)

    def _check_function(
        self, fn: FunctionInfo, contract: CoreContract, ctx: LintContext
    ) -> Iterator[Diagnostic]:
        env = contract.project.local_env(fn)
        reported: Set[Tuple[int, int]] = set()

        def emit(node: ast.AST, message: str) -> Iterator[Diagnostic]:
            spot = (
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
            )
            if spot not in reported:
                reported.add(spot)
                yield ctx.diagnostic(self.rule_id, node, message)

        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
            ):
                owner = node.func.value
                receivers = [owner]
                if isinstance(owner, ast.Attribute):
                    receivers.append(owner.value)
                for receiver in receivers:
                    name = contract.state_receiver(receiver, env, fn)
                    if name is not None:
                        yield from emit(
                            node,
                            f".{node.func.attr}() mutates state of protocol "
                            f"core class '{name}' from outside the core "
                            "boundary; only the registered CausalCore (and "
                            "the clocks/protocol/baselines packages) may "
                            "change protocol state",
                        )
                        break
            elif isinstance(node, ast.Attribute):
                name = contract.state_receiver(node.value, env, fn)
                if name is None:
                    continue
                attr = node.attr
                private = attr.startswith("_") and not (
                    attr.startswith("__") and attr.endswith("__")
                )
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    yield from emit(
                        node,
                        f"write to '.{attr}' of protocol core class "
                        f"'{name}' from outside the core boundary; protocol "
                        "state changes only through the registered "
                        "CausalCore's methods",
                    )
                elif private:
                    yield from emit(
                        node,
                        f"access to private '.{attr}' of protocol core "
                        f"class '{name}' from outside the core boundary; "
                        "go through the core's public surface so plug-in "
                        "cores stay substitutable",
                    )


# ----------------------------------------------------------------------
# R019 — interface conformance
# ----------------------------------------------------------------------


def _annotation_name(expr: Optional[ast.expr]) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        tail = expr.value.split(".")[-1].strip()
        return tail if tail.isidentifier() else None
    if isinstance(expr, ast.Subscript):
        return _annotation_name(expr.value)
    return None


def _related(project: Project, first: str, second: str) -> bool:
    """Do the two class names coincide or sit on one inheritance chain
    (by declared base names)?"""
    if first == second:
        return True

    def reaches(start: str, goal: str) -> bool:
        seen: Set[str] = set()
        queue = [start]
        while queue:
            current = queue.pop(0)
            if current == goal:
                return True
            if current in seen:
                continue
            seen.add(current)
            cls = project.class_named(current)
            if cls is not None:
                queue.extend(cls.bases)
        return False

    return reaches(first, second) or reaches(second, first)


class InterfaceConformance(ProjectRule):
    """R019: registered cores implement the full abstract surface."""

    rule_id = "R019"
    title = "registered core does not conform to the CausalCore interface"

    _CLASS_ATTRS = ("name", "clock_cls", "stamp_cls")

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        contract = core_contract(project)
        base = project.class_named("CausalCore")
        if base is None or not contract.cores:
            return
        abstract = {
            name: base.methods[name]
            for name in sorted(base.methods)
            if _is_abstract(base.methods[name].node)
        }
        emitted: Set[Tuple[str, int, str]] = set()

        def emit(
            module: str, node: ast.AST, message: str
        ) -> Iterator[Diagnostic]:
            ctx = contexts.get(module)
            if ctx is None:
                return
            key = (module, getattr(node, "lineno", 0), message)
            if key in emitted:
                return
            emitted.add(key)
            yield ctx.diagnostic(self.rule_id, node, message)

        for core in contract.cores:
            for attr in self._CLASS_ATTRS:
                if _inherited_class_assign(project, core.cls, attr) is None:
                    yield from emit(
                        core.cls.module,
                        core.cls.node,
                        f"registered core '{core.label}' declares no "
                        f"'{attr}' class attribute; the registry and the "
                        "bus resolve cores through it",
                    )
            if (
                _inherited_class_assign(project, core.cls, "name") is not None
                and core.name is None
            ):
                yield from emit(
                    core.cls.module,
                    core.cls.node,
                    f"registered core '{core.cls.name}' has a 'name' that "
                    "is not a non-empty string literal; registry lookups "
                    "key on it",
                )
            for method_name in sorted(abstract):
                spec = abstract[method_name]
                impl = project.lookup_method(core.cls, method_name)
                if impl is None or _is_abstract(impl.node):
                    yield from emit(
                        core.cls.module,
                        core.cls.node,
                        f"registered core '{core.label}' does not implement "
                        f"abstract method {method_name}(); instantiating it "
                        "raises TypeError at boot",
                    )
                    continue
                yield from self._check_signature(
                    project, core, spec, impl, emit
                )

    def _check_signature(self, project, core, spec, impl, emit):
        spec_args = spec.node.args
        impl_args = impl.node.args
        if impl_args.vararg is None and len(impl_args.args) != len(
            spec_args.args
        ):
            yield from emit(
                impl.module,
                impl.node,
                f"{core.label}.{impl.name}() takes {len(impl_args.args)} "
                f"positional parameter(s), but the CausalCore contract "
                f"declares {len(spec_args.args)}; the channel calls every "
                "core through the contract signature",
            )
            return
        pairs = list(zip(spec_args.args, impl_args.args))
        pairs.append(
            (  # type: ignore[arg-type]
                _ReturnSlot(spec.node),
                _ReturnSlot(impl.node),
            )
        )
        for spec_slot, impl_slot in pairs:
            spec_ann = _annotation_name(spec_slot.annotation)
            impl_ann = _annotation_name(impl_slot.annotation)
            if spec_ann is None or impl_ann is None:
                continue
            if not _related(project, spec_ann, impl_ann):
                where = getattr(spec_slot, "arg", "return")
                yield from emit(
                    impl.module,
                    impl.node,
                    f"{core.label}.{impl.name}() annotates '{where}' as "
                    f"'{impl_ann}', unrelated to the contract's "
                    f"'{spec_ann}'; core signatures must stay compatible "
                    "with the CausalCore surface",
                )


class _ReturnSlot:
    """Adapter so the return annotation joins the parameter loop."""

    arg = "return"

    def __init__(self, node: ast.AST) -> None:
        self.annotation = getattr(node, "returns", None)


# ----------------------------------------------------------------------
# R020 — deliverability-test purity
# ----------------------------------------------------------------------


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _memo_aliases(fn_node: ast.AST) -> Dict[str, Set[str]]:
    """``attr -> {local names bound from self.attr}`` anywhere in the
    function (flow-insensitive; good enough for the memo idiom)."""
    aliases: Dict[str, Set[str]] = {}
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        value = node.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            aliases.setdefault(value.attr, set()).add(target.id)
    return aliases


def _is_none_test_of(
    test: ast.expr, attr: str, alias_names: Set[str]
) -> bool:
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Is)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return False
    left = test.left
    if isinstance(left, ast.Name):
        return left.id in alias_names
    return (
        isinstance(left, ast.Attribute)
        and isinstance(left.value, ast.Name)
        and left.value.id == "self"
        and left.attr == attr
    )


def _memo_fill_allowed(
    fn_node: ast.AST,
    assign: ast.AST,
    parents: Dict[ast.AST, ast.AST],
    aliases: Dict[str, Set[str]],
) -> bool:
    """Is ``assign`` the write half of the lazy-memo idiom: ``self.X = v``
    guarded by an enclosing ``if <self.X or alias> is None:``?"""
    if not isinstance(assign, ast.Assign) or len(assign.targets) != 1:
        return False
    target = assign.targets[0]
    if not (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return False
    attr = target.attr
    alias_names = aliases.get(attr, set())
    node: ast.AST = assign
    while node in parents:
        node = parents[node]
        if isinstance(node, ast.If) and _is_none_test_of(
            node.test, attr, alias_names
        ):
            return True
        if node is fn_node:
            break
    return False


class DeliverabilityPurity(ProjectRule):
    """R020: deliverability/duplicate guards are mutation-free."""

    rule_id = "R020"
    title = "deliverability test reaches a core-state mutation"

    _CORE_GUARDS = ("deliverable", "duplicate")
    _CLOCK_GUARDS = ("can_deliver", "is_duplicate")

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        contract = core_contract(project)
        roots: Set[str] = set()
        for core in contract.cores:
            for method_name in self._CORE_GUARDS:
                impl = project.lookup_method(core.cls, method_name)
                if impl is not None:
                    roots.add(impl.qualname)
            if core.clock_cls is not None:
                for method_name in self._CLOCK_GUARDS:
                    impl = project.lookup_method(core.clock_cls, method_name)
                    if impl is not None:
                        roots.add(impl.qualname)
        if not roots:
            return
        parent = project.reachable_from(sorted(roots))
        for qualname in sorted(parent):
            fn = project.functions[qualname]
            if fn.cls is None or fn.cls.name not in contract.state_names:
                continue  # purity is about core state, not helpers
            ctx = contexts.get(fn.module)
            if ctx is None:
                continue
            chain = " -> ".join(
                name.rsplit(".", 1)[-1]
                for name in project.path_to(parent, qualname)
            )
            yield from self._check_function(fn, ctx, chain)

    def _check_function(
        self, fn: FunctionInfo, ctx: LintContext, chain: str
    ) -> Iterator[Diagnostic]:
        parents = _parent_map(fn.node)
        aliases = _memo_aliases(fn.node)
        params = {arg.arg for arg in fn.params}
        for node in ast.walk(fn.node):
            described = self._mutation(node, params)
            if described is None:
                continue
            if _memo_fill_allowed(fn.node, node, parents, aliases):
                continue  # lazy memo of a pure computation
            yield ctx.diagnostic(
                self.rule_id,
                node,
                f"{described} inside the deliverability closure (guard "
                f"path: {chain}); the hold-back store probes "
                "deliverable()/duplicate() speculatively, so any state "
                "change here corrupts clocks on probes that do not commit",
            )

    @staticmethod
    def _mutation(node: ast.AST, params: Set[str]) -> Optional[str]:
        """A description if ``node`` mutates reachable state, else None."""
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in MUTATOR_METHODS:
                chain = expr_chain(node.func.value)
                if chain is not None:
                    root = chain.split(".")[0]
                    if root == "self" or root in params:
                        return (
                            f".{node.func.attr}() call mutating '{chain}'"
                        )
            return None
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            chain = expr_chain(target)
            if chain is None or "." not in chain:
                continue  # locals are fair game
            root = chain.split(".")[0]
            if root == "self" or root in params:
                return f"write to '{chain}'"
        return None


# ----------------------------------------------------------------------
# R021 — stamp picklability
# ----------------------------------------------------------------------


class StampPicklability(ProjectRule):
    """R021: registered stamp types survive the worker pipe."""

    rule_id = "R021"
    title = "registered stamp type holds an unpicklable field"

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        contract = core_contract(project)
        model = fork_model(project)
        seen: Set[str] = set()
        for core in contract.cores:
            stamp_cls = core.stamp_cls
            if stamp_cls is None or stamp_cls.qualname in seen:
                continue
            seen.add(stamp_cls.qualname)
            ctx = contexts.get(stamp_cls.module)
            if ctx is None:
                continue
            for site, field_name, why in model.unpicklable_fields(stamp_cls):
                yield ctx.diagnostic(
                    self.rule_id,
                    site,
                    f"field '{stamp_cls.name}.{field_name}' holds {why}, "
                    f"but '{stamp_cls.name}' is the registered stamp type "
                    f"of core '{core.label}' and crosses the sharded "
                    "kernel's worker pipe pickled; stamp fields must be "
                    "statically picklable",
                )


# ----------------------------------------------------------------------
# R022 — core nondeterminism taint
# ----------------------------------------------------------------------


def _contains_stream_call(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "stream"
        ):
            return True
    return False


def _mentions_names(expr: ast.AST, names: Set[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in names:
            return True
    return False


class CoreRngTaint(ProjectRule):
    """R022: rng-derived values never enter core state, wherever the
    core lives."""

    rule_id = "R022"
    title = "rng stream value written into protocol core state"

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        contract = core_contract(project)
        if not contract.state_names:
            return
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            if not fn.module.startswith("repro."):
                continue
            ctx = contexts.get(fn.module)
            if ctx is None:
                continue
            yield from self._check_function(fn, contract, ctx)

    def _check_function(
        self, fn: FunctionInfo, contract: CoreContract, ctx: LintContext
    ) -> Iterator[Diagnostic]:
        tainted = self._tainted_locals(fn.node)
        env = None
        for node in ast.walk(fn.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            value = getattr(node, "value", None)
            if value is None:
                continue
            if not (
                _contains_stream_call(value)
                or _mentions_names(value, tainted)
            ):
                continue
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if not isinstance(target, ast.Attribute):
                    continue
                if env is None:
                    env = contract.project.local_env(fn)
                receiver = contract.state_receiver(target.value, env, fn)
                if receiver is None and isinstance(target.value, ast.Name):
                    if target.value.id == "self" and fn.cls is not None:
                        if fn.cls.name in contract.state_names:
                            receiver = fn.cls.name
                if receiver is not None:
                    yield ctx.diagnostic(
                        self.rule_id,
                        node,
                        f"value derived from an RngFactory stream is "
                        f"written into state of protocol core class "
                        f"'{receiver}'; core state must be a deterministic "
                        "function of message order — randomness belongs to "
                        "the simulation/network layer (R007's guarantee, "
                        "extended to plug-in cores)",
                    )

    @staticmethod
    def _tainted_locals(fn_node: ast.AST) -> Set[str]:
        """Local names (transitively, intra-method) derived from a
        ``.stream(...)`` draw — a small fixpoint, flow-insensitive."""
        tainted: Set[str] = set()
        assigns: List[Tuple[List[str], ast.expr]] = []
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Assign):
                continue
            names = [
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            ]
            if names:
                assigns.append((names, node.value))
        changed = True
        while changed:
            changed = False
            for names, value in assigns:
                if set(names) <= tainted:
                    continue
                if _contains_stream_call(value) or _mentions_names(
                    value, tainted
                ):
                    tainted.update(names)
                    changed = True
        return tainted


# ----------------------------------------------------------------------
# R023 — registration completeness
# ----------------------------------------------------------------------


def _module_exempt(tree: ast.AST) -> bool:
    for stmt in getattr(tree, "body", []):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "PROTOCOL_EXEMPT"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    return True
    return False


class RegistrationCompleteness(ProjectRule):
    """R023: every bootable protocol variant is registered or exempt."""

    rule_id = "R023"
    title = "protocol variant neither registered nor explicitly exempt"

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        contract = core_contract(project)
        registered_clocks = {
            core.clock_cls.qualname
            for core in contract.cores
            if core.clock_cls is not None
        }

        def class_exempt(cls: ClassInfo) -> bool:
            value = _inherited_class_assign(project, cls, "protocol_exempt")
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                return True
            info = project.modules.get(cls.module)
            return info is not None and _module_exempt(info.tree)

        clock_subclasses = project.subclasses_of("CausalClock")
        for sub in clock_subclasses:
            if sub.module == "repro.clocks.base":
                continue
            if sub.qualname in registered_clocks or class_exempt(sub):
                continue
            ctx = contexts.get(sub.module)
            if ctx is None:
                continue
            yield ctx.diagnostic(
                self.rule_id,
                sub.node,
                f"CausalClock subclass '{sub.name}' is not the clock of "
                "any registered core; register a CausalCore for it or "
                "mark it protocol_exempt = \"<why>\" so the contract "
                "rules know it is not a bootable protocol",
            )

        # baselines variant modules declare their registry relationship
        for module in sorted(project.modules):
            if not module.startswith("repro.baselines."):
                continue
            info = project.modules[module]
            if _module_exempt(info.tree):
                continue
            local_clocks = [
                sub for sub in clock_subclasses if sub.module == module
            ]
            if local_clocks:
                continue  # covered (or flagged) by the subclass pass
            ctx = contexts.get(module)
            if ctx is None:
                continue
            anchor = info.tree.body[0] if getattr(info.tree, "body", None) else info.tree
            yield ctx.diagnostic(
                self.rule_id,
                anchor,
                f"baselines variant module '{module}' neither contributes "
                "a registered clock nor declares PROTOCOL_EXEMPT = "
                "\"<why>\"; every protocol variant must state its "
                "relationship to the core registry",
            )


CONTRACT_RULES: Tuple[ProjectRule, ...] = (
    CoreIsolation(),
    InterfaceConformance(),
    DeliverabilityPurity(),
    StampPicklability(),
    CoreRngTaint(),
    RegistrationCompleteness(),
)
