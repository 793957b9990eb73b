"""A small dataflow framework over :mod:`repro.analysis.cfg`.

Three pieces:

- a generic forward worklist solver (:func:`solve_forward`) with
  per-edge transfer functions, so branch outcomes can refine facts;
- reaching definitions (:func:`reaching_definitions`), the classic
  may-analysis, used by tests and available to rules;
- a *must* non-``None`` facts analysis (:func:`non_none_facts`): at each
  node, the set of canonical expressions (``self._obs``,
  ``server.channel._obs``, plain locals) proven non-``None`` on **every** path
  from the function entry — i.e. dominated by an ``is not None`` guard.
  This drives rule R009 (hook-guard discipline).

Canonical expressions are dotted chains of names and attributes
(``a.b.c``); anything containing a call or subscript is not canonical
and cannot carry a fact.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG, ENTRY, FALSE, TRUE, CFGNode

Fact = FrozenSet[str]

# ----------------------------------------------------------------------
# Canonical expression chains
# ----------------------------------------------------------------------


def expr_chain(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for pure Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def assigned_chains(stmt: ast.stmt) -> Iterator[str]:
    """Canonical chains (re)bound by a statement — assignment targets,
    loop variables, ``with ... as`` names, deletions."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [
            item.optional_vars for item in stmt.items if item.optional_vars
        ]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        for leaf in _flatten_target(target):
            chain = expr_chain(leaf)
            if chain is not None:
                yield chain


def _flatten_target(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_target(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten_target(target.value)
    else:
        yield target


# ----------------------------------------------------------------------
# Generic forward solver
# ----------------------------------------------------------------------

#: transfer(node, in_fact, edge_label) -> out_fact along that edge
EdgeTransfer = Callable[[CFGNode, Fact, str], Fact]
Join = Callable[[List[Fact]], Fact]


def solve_forward(
    cfg: CFG,
    entry_fact: Fact,
    transfer: EdgeTransfer,
    join: Join,
) -> Dict[int, Fact]:
    """Iterate edge-wise transfer functions to a fixpoint; returns the
    IN fact of every node. Unreached nodes keep ``None``-like top facts
    out of the result (they simply stay absent)."""
    in_facts: Dict[int, Fact] = {ENTRY: entry_fact}
    order = list(range(len(cfg.nodes)))
    changed = True
    while changed:
        changed = False
        for index in order:
            incoming: List[Fact] = []
            for pred, label in cfg.preds[index]:
                if pred not in in_facts:
                    continue  # predecessor not yet reached
                incoming.append(transfer(cfg.nodes[pred], in_facts[pred], label))
            if index == ENTRY:
                continue
            if not incoming:
                continue
            fact = join(incoming)
            if index not in in_facts or in_facts[index] != fact:
                in_facts[index] = fact
                changed = True
    return in_facts


# ----------------------------------------------------------------------
# Reaching definitions
# ----------------------------------------------------------------------


def reaching_definitions(cfg: CFG) -> Dict[int, Set[Tuple[str, int]]]:
    """``IN[n]`` = set of ``(name, defining-node)`` pairs that may reach
    node ``n``. Definitions are canonical chains bound by a statement."""
    defs_of: Dict[int, FrozenSet[str]] = {}
    for index, stmt in cfg.statements():
        bound = frozenset(assigned_chains(stmt))
        if bound:
            defs_of[index] = bound

    def transfer(node: CFGNode, fact: Fact, label: str) -> Fact:
        bound = defs_of.get(node.index)
        if not bound:
            return fact
        kept = frozenset(
            entry for entry in fact if entry.rsplit("@", 1)[0] not in bound
        )
        fresh = frozenset(f"{name}@{node.index}" for name in bound)
        return kept | fresh

    def join(facts: List[Fact]) -> Fact:
        out: Set[str] = set()
        for fact in facts:
            out |= fact
        return frozenset(out)

    encoded = solve_forward(cfg, frozenset(), transfer, join)
    result: Dict[int, Set[Tuple[str, int]]] = {}
    for index, fact in encoded.items():
        pairs: Set[Tuple[str, int]] = set()
        for entry in fact:
            name, _, where = entry.rpartition("@")
            pairs.add((name, int(where)))
        result[index] = pairs
    return result


# ----------------------------------------------------------------------
# Non-None must-facts (guard discipline)
# ----------------------------------------------------------------------


def guard_facts_from_test(test: ast.expr, branch: bool) -> FrozenSet[str]:
    """Chains proven non-``None`` when ``test`` evaluates to ``branch``.

    Understands ``x is not None`` / ``x is None``, plain truthiness of a
    chain, and ``and`` conjunctions (on the true branch every conjunct's
    facts hold).
    """
    facts: Set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        if branch:
            for value in test.values:
                facts |= guard_facts_from_test(value, True)
        return frozenset(facts)
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        if not branch:  # `or` false => every disjunct false
            for value in test.values:
                facts |= guard_facts_from_test(value, False)
        return frozenset(facts)
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return guard_facts_from_test(test.operand, not branch)
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        is_none_cmp = isinstance(right, ast.Constant) and right.value is None
        if is_none_cmp:
            chain = expr_chain(left)
            if chain is not None:
                if isinstance(op, ast.IsNot) and branch:
                    facts.add(chain)
                elif isinstance(op, ast.Is) and not branch:
                    facts.add(chain)
        return frozenset(facts)
    # plain truthiness: `if self._obs:` — accepted as a guard
    chain = expr_chain(test)
    if chain is not None and branch:
        facts.add(chain)
    return frozenset(facts)


def _assert_facts(stmt: ast.stmt) -> FrozenSet[str]:
    if isinstance(stmt, ast.Assert):
        return guard_facts_from_test(stmt.test, True)
    return frozenset()


def non_none_facts(cfg: CFG) -> Dict[int, FrozenSet[str]]:
    """IN facts per node: chains non-``None`` on every path from entry.

    Facts are generated by branch edges (``TRUE``/``FALSE`` outcomes of
    guard tests), ``assert`` statements, and assignments from obviously
    non-``None`` literal constructors; they are killed by any rebinding
    of the chain or of one of its prefixes.
    """

    def transfer(node: CFGNode, fact: Fact, label: str) -> Fact:
        out: Set[str] = set(fact)
        stmt = node.stmt
        if stmt is not None and node.kind != "finally":
            killed = list(assigned_chains(stmt))
            if killed:
                out = {
                    f
                    for f in out
                    if not any(f == k or f.startswith(k + ".") for k in killed)
                }
            out |= _assert_facts(stmt)
        if node.kind in ("test", "loop") and stmt is not None:
            test = getattr(stmt, "test", None)
            if test is not None and label in (TRUE, FALSE):
                out |= guard_facts_from_test(test, label == TRUE)
        return frozenset(out)

    def join(facts: List[Fact]) -> Fact:
        if not facts:
            return frozenset()
        out = set(facts[0])
        for fact in facts[1:]:
            out &= fact
        return frozenset(out)

    return solve_forward(cfg, frozenset(), transfer, join)
