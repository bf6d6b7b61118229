"""``lock-discipline``: static lock-acquisition analysis of the
store and serving layers.

Objects that cross threads (the feature store under a serving worker,
the serve tier's queue, cache and engine) guard their shared mutable
state with exactly one lock per object (``FeatureStore._lock``).
BGL/GSplit-style systems show how easily I/O-overlap stages grow
unguarded counters and torn aggregates; this pass catches the standard
mistakes before they become once-a-week flaky tests:

1. **Unguarded writes** — for each class owning a ``threading.Lock`` /
   ``RLock`` attribute, any attribute that is ever mutated while
   holding the lock (outside construction) is *lock-protected*; a
   mutation of that attribute anywhere else without the lock is
   flagged.  Construction-phase methods (``__init__`` and private
   helpers reachable only from it) are exempt — objects are published
   to other threads only after construction.
2. **Self-deadlock** — acquiring a non-reentrant lock already held
   (directly nested ``with``, or by calling a method that (transitively)
   re-acquires it).
3. **Lock-order cycles** — a directed acquisition graph is built from
   every nested acquisition (lock B taken while holding A); any cycle
   is a potential ABBA deadlock and is flagged at the class.

The analysis is intra-class and heuristic by design — it encodes this
project's discipline ("one lock per object, take it for every shared
read-modify-write") rather than attempting general escape analysis.
Known-benign writes carry annotated ``# repro: noqa[lock-discipline]``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutils import is_self_attr
from repro.analysis.findings import Finding
from repro.analysis.framework import FileContext, LintRule, register_rule

_LOCK_TYPES = {
    "threading.Lock": False,   # -> reentrant?
    "threading.RLock": True,
}

#: Method calls that mutate their receiver (list/dict/set/deque API).
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


@dataclass
class _Mutation:
    attr: str
    node: ast.AST
    held: frozenset[str]


@dataclass
class _Call:
    callee: str
    node: ast.AST
    held: frozenset[str]


@dataclass
class _MethodInfo:
    name: str
    mutations: list[_Mutation] = field(default_factory=list)
    acquires: set[str] = field(default_factory=set)
    calls: list[_Call] = field(default_factory=list)
    reacquires: list[tuple[str, ast.AST]] = field(default_factory=list)


class _MethodScanner(ast.NodeVisitor):
    """Walks one method tracking the set of self-locks currently held."""

    def __init__(
        self, lock_attrs: dict[str, bool], edges: set[tuple[str, str]]
    ) -> None:
        self.lock_attrs = lock_attrs
        self.edges = edges
        self.held: list[str] = []
        self.info: _MethodInfo | None = None

    def scan(self, node: ast.FunctionDef) -> _MethodInfo:
        self.info = _MethodInfo(name=node.name)
        self.held = []
        for stmt in node.body:
            self.visit(stmt)
        return self.info

    # -- lock acquisition ----------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            attr = is_self_attr(item.context_expr)
            if attr is not None and attr in self.lock_attrs:
                if attr in self.held and not self.lock_attrs[attr]:
                    self.info.reacquires.append((attr, node))
                for outer in self.held:
                    if outer != attr:
                        self.edges.add((outer, attr))
                acquired.append(attr)
                self.info.acquires.add(attr)
            elif item.context_expr is not None:
                self.visit(item.context_expr)
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[len(self.held) - len(acquired):]

    visit_AsyncWith = visit_With

    # -- mutations ------------------------------------------------------
    def _record_target(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, node)
            return
        base = target
        if isinstance(base, ast.Subscript):
            base = base.value
        attr = is_self_attr(base)
        if attr is not None and attr not in self.lock_attrs:
            self.info.mutations.append(
                _Mutation(attr, node, frozenset(self.held))
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, node)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target, node)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target, node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver_attr = is_self_attr(func.value)
            # self.<attr>.append(...) style container mutation
            if (
                receiver_attr is not None
                and func.attr in _MUTATING_METHODS
                and receiver_attr not in self.lock_attrs
            ):
                self.info.mutations.append(
                    _Mutation(receiver_attr, node, frozenset(self.held))
                )
            # self.method(...) intra-class call
            method_name = is_self_attr(func)
            if method_name is not None:
                self.info.calls.append(
                    _Call(method_name, node, frozenset(self.held))
                )
        self.generic_visit(node)


def _find_lock_attrs(
    cls: ast.ClassDef, ctx: FileContext
) -> dict[str, bool]:
    """self attributes assigned a threading lock, -> reentrant flag."""
    locks: dict[str, bool] = {}
    for node in ast.walk(cls):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        resolved = ctx.imports.resolve(node.value.func)
        if resolved not in _LOCK_TYPES:
            continue
        for target in node.targets:
            attr = is_self_attr(target)
            if attr is not None:
                locks[attr] = _LOCK_TYPES[resolved]
    return locks


def _init_only_methods(methods: dict[str, _MethodInfo]) -> set[str]:
    """Private methods reachable only from __init__ (construction phase)."""
    callers: dict[str, set[str]] = {name: set() for name in methods}
    for info in methods.values():
        for call in info.calls:
            if call.callee in callers:
                callers[call.callee].add(info.name)
    init_only = {"__init__"}
    changed = True
    while changed:
        changed = False
        for name, info in methods.items():
            if name in init_only or not name.startswith("_"):
                continue
            if name.startswith("__"):
                continue
            sites = callers[name]
            if sites and sites <= init_only:
                init_only.add(name)
                changed = True
    return init_only


def _transitive_acquires(methods: dict[str, _MethodInfo]) -> dict[str, set[str]]:
    acquired = {name: set(info.acquires) for name, info in methods.items()}
    changed = True
    while changed:
        changed = False
        for name, info in methods.items():
            for call in info.calls:
                if call.callee in acquired:
                    before = len(acquired[name])
                    acquired[name] |= acquired[call.callee]
                    if len(acquired[name]) != before:
                        changed = True
    return acquired


def _find_cycle(edges: set[tuple[str, str]]) -> list[str] | None:
    graph: dict[str, set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
    state: dict[str, int] = {}  # 1=visiting, 2=done

    def dfs(node: str, path: list[str]) -> list[str] | None:
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if state.get(nxt) != 2:
                cycle = dfs(nxt, path)
                if cycle:
                    return cycle
        path.pop()
        state[node] = 2
        return None

    for start in sorted(graph):
        if state.get(start) != 2:
            cycle = dfs(start, [])
            if cycle:
                return cycle
    return None


@register_rule
class LockDisciplineRule(LintRule):
    name = "lock-discipline"
    description = (
        "unguarded writes to lock-protected attributes, self-deadlocks, "
        "and lock-order cycles in threaded classes"
    )
    invariant = (
        "store and serve objects share mutable state across threads "
        "guarded by one lock per object; every shared read-modify-write "
        "must hold it"
    )
    default_scopes = ("src/repro/store/feature_store.py",)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for cls in ast.walk(ctx.tree):
            if isinstance(cls, ast.ClassDef):
                findings.extend(self._check_class(cls, ctx))
        return findings

    def _check_class(
        self, cls: ast.ClassDef, ctx: FileContext
    ) -> list[Finding]:
        lock_attrs = _find_lock_attrs(cls, ctx)
        if not lock_attrs:
            return []
        findings: list[Finding] = []
        edges: set[tuple[str, str]] = set()
        methods: dict[str, _MethodInfo] = {}

        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef):
                scanner = _MethodScanner(lock_attrs, edges)
                methods[stmt.name] = scanner.scan(stmt)

        init_only = _init_only_methods(methods)
        acquires_trans = _transitive_acquires(methods)

        # Interprocedural held-lock propagation: a private helper whose
        # every non-construction call site holds lock L effectively runs
        # under L (FeatureStore._note_resident pattern).
        inherited: dict[str, frozenset[str]] = {}
        for name, info in methods.items():
            if not name.startswith("_") or name.startswith("__"):
                continue
            sites = [
                call.held
                for caller, caller_info in methods.items()
                if caller not in init_only
                for call in caller_info.calls
                if call.callee == name
            ]
            if sites:
                common = frozenset.intersection(*sites)
                if common:
                    inherited[name] = common

        def effective_held(method: str, held: frozenset[str]) -> frozenset[str]:
            return held | inherited.get(method, frozenset())

        # 1. lock-protected attributes and unguarded writes.
        guard_of: dict[str, set[str]] = {}
        for name, info in methods.items():
            if name in init_only:
                continue
            for mutation in info.mutations:
                held = effective_held(name, mutation.held)
                if held:
                    guard_of.setdefault(mutation.attr, set()).update(held)
        for name, info in methods.items():
            if name in init_only:
                continue
            for mutation in info.mutations:
                held = effective_held(name, mutation.held)
                if mutation.attr in guard_of and not held:
                    locks = "/".join(
                        f"self.{lock}" for lock in sorted(guard_of[mutation.attr])
                    )
                    findings.append(
                        self.finding(
                            ctx,
                            mutation.node,
                            f"attribute 'self.{mutation.attr}' is written "
                            f"under {locks} elsewhere but mutated here "
                            f"without holding it "
                            f"({cls.name}.{name})",
                        )
                    )

        # 2a. directly nested re-acquisition of a non-reentrant lock.
        for name, info in methods.items():
            for lock, node in info.reacquires:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"'with self.{lock}:' nested inside a region "
                        f"already holding it deadlocks (threading.Lock "
                        f"is not reentrant) ({cls.name}.{name})",
                    )
                )

        # 2b. calling a method that (transitively) re-acquires a held
        # non-reentrant lock.
        for name, info in methods.items():
            for call in info.calls:
                if call.callee not in methods:
                    continue
                for lock in sorted(call.held):
                    if lock_attrs.get(lock):
                        continue  # reentrant
                    if lock in acquires_trans.get(call.callee, ()):
                        findings.append(
                            self.finding(
                                ctx,
                                call.node,
                                f"calling 'self.{call.callee}()' while "
                                f"holding 'self.{lock}' deadlocks: "
                                f"'{call.callee}' re-acquires it "
                                f"({cls.name}.{name})",
                            )
                        )

        # 3. lock-order cycles across the class's acquisition graph.
        cycle = _find_cycle(edges)
        if cycle:
            pretty = " -> ".join(f"self.{lock}" for lock in cycle)
            findings.append(
                self.finding(
                    ctx,
                    cls,
                    f"lock-order cycle in {cls.name}: {pretty} "
                    f"(potential ABBA deadlock)",
                )
            )
        return findings
