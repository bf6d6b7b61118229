"""Whole-program concurrency analysis over the lint file set.

This module builds a project model (classes, methods, nested closures,
lock attributes, attribute types) from the parsed trees of every
in-scope file, links call sites to callees through a light type
inference (constructor assignments, parameter/attribute annotations,
``list[...]`` element propagation), and then solves these
interprocedural problems:

* **lock-order** — the global lock graph: an edge ``A -> B`` means some
  path acquires ``B`` while (possibly transitively) holding ``A``.
  Cycles are potential deadlocks.  Edges use *may* held-sets (union over
  call paths) so no interleaving is missed.  A non-reentrant
  ``threading.Lock`` acquired while it is already in that held-set is a
  self-deadlock and is reported under the same rule.
* **blocking-under-lock** — queue waits, ``Condition.wait``, file or
  memmap I/O, thread joins, semaphore acquires, and kernel forwards
  executed while a lock is held, directly or via a callee that blocks.
  Uses *must* held-sets (intersection over call sites) so a finding is
  only raised when the lock is guaranteed held.  ``Condition.wait`` on a
  condition wrapping the held lock is legal (the wait releases it) and
  exempt.
* **thread-escape** — classes with a method reachable from a
  ``threading.Thread`` target or executor submission are *shared*; every
  post-construction write to their attributes must either hold one of
  the class's own locks or be covered by a declared guard.  A class that
  owns a mutex but is reached by no thread target is checked by use: an
  attribute it writes under its lock outside construction is protected
  everywhere, so a lock-free write to it is reported too.
* **lock-contract** — a ``# guarded-by: <lock>`` attribute written
  without that lock, or a guard naming a non-existent lock.

Held-sets at a call site include the callee's *must* set (intersection
over its post-construction call sites), so a private helper whose every
caller holds the lock runs under it — no decorator needed.

``# guarded-by: <guard>`` is a trailing comment on the line that first
assigns ``self.attr`` (conventionally in ``__init__``).  When ``<guard>``
names a lock attribute of the same class (``_lock`` or ``self._lock``),
every post-construction write must hold that lock.  Any other text
(e.g. ``event hand-off (_done barrier)``) records a documented non-lock
discipline: the attribute is exempt, but the reasoning is greppable.

Deliberate limits (kept so the pass stays false-positive-free):
return-type inference is skipped (``get_metrics().counter(...)`` stays
unresolved — the obs layer is GIL-tolerant by design), ``.acquire()``
call form records a lock-graph edge but not a held region (use ``with``
for held tracking), and lambdas are opaque.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.astutils import ImportMap, dotted_name, is_self_attr
from repro.analysis.findings import Finding

__all__ = [
    "ProjectModel",
    "build_model",
    "analyze_project",
    "GUARD_RE",
]

# Trailing declaration on the line(s) of an attribute's assignment.
GUARD_RE = re.compile(r"#\s*guarded-by:\s*(?P<guard>[^#]+?)\s*$")

#: Constructors that create synchronization objects, by kind.
_SYNC_CTORS = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "condition",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
    "threading.Event": "event",
}

#: Kinds that provide mutual exclusion (participate in held-sets).
_MUTEX_KINDS = frozenset({"lock", "rlock", "condition"})

#: Directly blocking callables by canonical dotted name.
_BLOCKING_NAME_CALLS = {
    "time.sleep": "time.sleep",
    "open": "file I/O (open)",
    "io.open": "file I/O (open)",
    "numpy.load": "file I/O (numpy.load)",
    "numpy.save": "file I/O (numpy.save)",
    "numpy.memmap": "memmap I/O (numpy.memmap)",
    "numpy.lib.format.open_memmap": "memmap I/O (open_memmap)",
    "socket.create_connection": "network I/O",
    "subprocess.run": "subprocess wait",
    "subprocess.check_call": "subprocess wait",
    "subprocess.check_output": "subprocess wait",
}

#: Blocking methods keyed on (resolved receiver type, method name).
_BLOCKING_TYPED_METHODS = {
    ("queue.Queue", "get"): "queue wait (Queue.get)",
    ("queue.Queue", "put"): "queue wait (Queue.put)",
    ("queue.Queue", "join"): "queue wait (Queue.join)",
    ("queue.SimpleQueue", "get"): "queue wait (SimpleQueue.get)",
    ("queue.SimpleQueue", "put"): "queue wait (SimpleQueue.put)",
    ("threading.Thread", "join"): "thread join",
    ("threading.Event", "wait"): "event wait",
    ("threading.Condition", "wait"): "condition wait",
    ("threading.Condition", "wait_for"): "condition wait",
    ("threading.Semaphore", "acquire"): "semaphore acquire",
    ("threading.BoundedSemaphore", "acquire"): "semaphore acquire",
    ("concurrent.futures.Future", "result"): "future wait",
    ("concurrent.futures.ThreadPoolExecutor", "shutdown"): "executor shutdown",
    ("pathlib.Path", "read_bytes"): "file I/O (Path.read_bytes)",
    ("pathlib.Path", "read_text"): "file I/O (Path.read_text)",
    ("pathlib.Path", "write_bytes"): "file I/O (Path.write_bytes)",
    ("pathlib.Path", "write_text"): "file I/O (Path.write_text)",
}

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "remove",
        "discard",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "add",
        "update",
        "setdefault",
        "move_to_end",
        "sort",
        "reverse",
    }
)

_CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__"})


# --------------------------------------------------------------------------
# Extraction data model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CalleeRef:
    """Unresolved reference to a call target.

    kind: ``self`` (self.m()), ``attr`` (self.base.m()), ``var``
    (local.m()), or ``name`` (bare/dotted callable).
    """

    kind: str
    base: str
    name: str


@dataclass
class CallEvent:
    ref: CalleeRef
    line: int
    col: int
    held: tuple[str, ...]


@dataclass
class AcquireEvent:
    lock: str
    line: int
    col: int
    held: tuple[str, ...]


@dataclass
class BlockEvent:
    what: str
    line: int
    col: int
    held: tuple[str, ...]
    via_cond: str | None = None


@dataclass
class MutEvent:
    obj: str  # "" for self.attr, else the self-attribute holding the object
    attr: str
    line: int
    col: int
    held: tuple[str, ...]


@dataclass
class SpawnEvent:
    ref: CalleeRef
    line: int
    col: int
    kind: str  # "thread" | "executor"


@dataclass
class FunctionModel:
    qualname: str
    module: str
    relpath: str
    cls: str | None
    name: str
    lineno: int
    calls: list[CallEvent] = field(default_factory=list)
    acquires: list[AcquireEvent] = field(default_factory=list)
    blocks: list[BlockEvent] = field(default_factory=list)
    muts: list[MutEvent] = field(default_factory=list)
    spawns: list[SpawnEvent] = field(default_factory=list)
    param_types: dict[str, str] = field(default_factory=dict)
    local_types: dict[str, str] = field(default_factory=dict)
    nested: dict[str, "FunctionModel"] = field(default_factory=dict)
    parent: "FunctionModel | None" = None


@dataclass(frozen=True)
class Guard:
    text: str
    token: str | None  # identifier head, candidate lock-attr name
    line: int


@dataclass
class ClassModel:
    qualname: str
    module: str
    relpath: str
    name: str
    lineno: int
    locks: dict[str, str] = field(default_factory=dict)  # attr -> kind
    cond_wraps: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    guards: dict[str, Guard] = field(default_factory=dict)
    methods: dict[str, FunctionModel] = field(default_factory=dict)

    def mutex_quals(self) -> set[str]:
        return {
            f"{self.qualname}.{attr}"
            for attr, kind in self.locks.items()
            if kind in _MUTEX_KINDS
        }


@dataclass
class ModuleModel:
    module: str
    relpath: str
    classes: dict[str, ClassModel] = field(default_factory=dict)
    functions: dict[str, FunctionModel] = field(default_factory=dict)


# --------------------------------------------------------------------------
# Type expression helpers
# --------------------------------------------------------------------------


def _module_name(relpath: str) -> str:
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _type_name(expr: ast.AST, imports: ImportMap, module: str) -> str | None:
    """Canonical type string for a Name/Attribute chain."""
    resolved = imports.resolve(expr)
    if resolved is not None:
        return resolved
    if isinstance(expr, ast.Name):
        return f"{module}.{expr.id}"  # module-local class
    return None


def _ann_type(expr: ast.AST | None, imports: ImportMap, module: str) -> str | None:
    """Type string for an annotation; Optional/| None stripped,
    ``list[X]`` preserved as ``list:X`` markers, everything else None."""
    if expr is None:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        try:
            expr = ast.parse(expr.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(expr, (ast.Name, ast.Attribute)):
        return _type_name(expr, imports, module)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        left = _ann_type(expr.left, imports, module)
        right = _ann_type(expr.right, imports, module)
        if left and right and left != right:
            return None
        return left or right
    if isinstance(expr, ast.Subscript):
        base = dotted_name(expr.value) or ""
        head = base.rsplit(".", 1)[-1]
        if head == "Optional":
            return _ann_type(expr.slice, imports, module)
        if head in ("list", "List", "Sequence"):
            inner = _ann_type(expr.slice, imports, module)
            return f"list:{inner}" if inner else None
        return None
    if isinstance(expr, ast.Constant) and expr.value is None:
        return None
    return None


def _value_type(expr: ast.AST, imports: ImportMap, module: str) -> str | None:
    """Type string for an assigned value: constructor calls and
    ``X() if c else x`` ternaries; bare reads stay untyped."""
    if isinstance(expr, ast.Call):
        return _type_name(expr.func, imports, module)
    if isinstance(expr, ast.IfExp):
        body = _value_type(expr.body, imports, module)
        orelse = _value_type(expr.orelse, imports, module)
        return body or orelse
    return None


def _guard_token(text: str) -> str | None:
    head = text.split("(")[0].strip()
    if head.startswith("self."):
        head = head[len("self."):]
    return head if head.isidentifier() else None


# --------------------------------------------------------------------------
# Per-function scanner
# --------------------------------------------------------------------------


class _FnScanner(ast.NodeVisitor):
    def __init__(
        self,
        fn: FunctionModel,
        cls: ClassModel | None,
        imports: ImportMap,
    ) -> None:
        self.fn = fn
        self.cls = cls
        self.imports = imports
        self.held: list[str] = []

    # -- helpers ---------------------------------------------------------

    def _snap(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.held))

    def _var_type(self, name: str) -> str | None:
        fn: FunctionModel | None = self.fn
        while fn is not None:
            if name in fn.local_types:
                return fn.local_types[name]
            if name in fn.param_types:
                return fn.param_types[name]
            fn = fn.parent
        return None

    def _sync_kind(self, attr: str) -> str | None:
        return self.cls.locks.get(attr) if self.cls else None

    def _callee_ref(self, func: ast.AST) -> CalleeRef | None:
        if isinstance(func, ast.Name):
            resolved = self.imports.resolve(func)
            return CalleeRef("name", "", resolved or func.id)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == "self":
                return CalleeRef("self", "", func.attr)
            inner = is_self_attr(value)
            if inner is not None:
                return CalleeRef("attr", inner, func.attr)
            if isinstance(value, ast.Name):
                return CalleeRef("var", value.id, func.attr)
            resolved = self.imports.resolve(func)
            if resolved is not None:
                return CalleeRef("name", "", resolved)
        return None

    def _target_ref(self, expr: ast.AST) -> CalleeRef | None:
        """A callable *reference* (thread target / submitted fn)."""
        attr = is_self_attr(expr)
        if attr is not None:
            return CalleeRef("self", "", attr)
        if isinstance(expr, ast.Name):
            return CalleeRef("name", "", expr.id)
        inner = is_self_attr(getattr(expr, "value", None))
        if isinstance(expr, ast.Attribute) and inner is not None:
            return CalleeRef("attr", inner, expr.attr)
        return None

    def _record_mut(self, target: ast.AST, line: int, col: int) -> None:
        attr = is_self_attr(target)
        if attr is not None:
            self.fn.muts.append(MutEvent("", attr, line, col, self._snap()))
            return
        if isinstance(target, ast.Attribute):
            obj = is_self_attr(target.value)
            if obj is not None:
                self.fn.muts.append(
                    MutEvent(obj, target.attr, line, col, self._snap())
                )

    def _record_targets(self, node: ast.AST) -> None:
        line = getattr(node, "lineno", self.fn.lineno)
        col = getattr(node, "col_offset", 0)
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._record_targets(elt)
        elif isinstance(node, ast.Starred):
            self._record_targets(node.value)
        elif isinstance(node, ast.Subscript):
            self._record_mut(node.value, line, col)
        elif isinstance(node, ast.Attribute):
            self._record_mut(node, line, col)

    # -- statements ------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        child = _scan_function(
            node,
            cls=self.cls,
            imports=self.imports,
            module=self.fn.module,
            relpath=self.fn.relpath,
            qualname=f"{self.fn.qualname}.<locals>.{node.name}",
            parent=self.fn,
        )
        self.fn.nested[node.name] = child

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # classes defined inside functions are out of scope

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return  # opaque: runs later, not under the current held-set

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            ctx = item.context_expr
            self.visit(ctx)
            attr = is_self_attr(ctx)
            kind = self._sync_kind(attr) if attr else None
            if attr and kind in _MUTEX_KINDS:
                effective = (
                    self.cls.cond_wraps.get(attr, attr)
                    if kind == "condition" and self.cls
                    else attr
                )
                self.fn.acquires.append(
                    AcquireEvent(
                        effective, ctx.lineno, ctx.col_offset, self._snap()
                    )
                )
                self.held.append(effective)
                pushed += 1
            elif attr and kind == "semaphore":
                self.fn.blocks.append(
                    BlockEvent(
                        "semaphore acquire",
                        ctx.lineno,
                        ctx.col_offset,
                        self._snap(),
                    )
                )
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(pushed):
            self.held.pop()

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_targets(target)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            value_attr = is_self_attr(node.value)
            if value_attr is not None:
                self.fn.local_types.setdefault(name, f"@attr:{value_attr}")
            else:
                t = _value_type(node.value, self.imports, self.fn.module)
                if t is not None:
                    self.fn.local_types.setdefault(name, t)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_targets(node.target)
        if isinstance(node.target, ast.Name):
            t = _ann_type(node.annotation, self.imports, self.fn.module)
            if t is not None:
                self.fn.local_types.setdefault(node.target.id, t)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_targets(node.target)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_targets(target)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name):
            elt: str | None = None
            if isinstance(node.iter, ast.Name):
                t = self._var_type(node.iter.id)
                if t and t.startswith("list:"):
                    elt = t[len("list:"):]
            else:
                attr = is_self_attr(node.iter)
                if attr and self.cls:
                    t = self.cls.attr_types.get(attr)
                    if t and t.startswith("list:"):
                        elt = t[len("list:"):]
            if elt:
                self.fn.local_types.setdefault(node.target.id, elt)
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        held = self._snap()
        line, col = node.lineno, node.col_offset

        # Spawns: threading.Thread(target=...) and executor.submit(fn, ...)
        resolved = self.imports.resolve(func)
        if resolved == "threading.Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    ref = self._target_ref(kw.value)
                    if ref is not None:
                        self.fn.spawns.append(
                            SpawnEvent(ref, line, col, "thread")
                        )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "submit"
            and node.args
        ):
            recv = func.value
            recv_name = (
                is_self_attr(recv)
                or (recv.id if isinstance(recv, ast.Name) else "")
                or ""
            ).lower()
            recv_type = None
            if isinstance(recv, ast.Name):
                recv_type = self._var_type(recv.id)
            elif is_self_attr(recv) and self.cls:
                recv_type = self.cls.attr_types.get(is_self_attr(recv))
            is_executor = recv_type == "concurrent.futures.ThreadPoolExecutor" or any(
                hint in recv_name for hint in ("executor", "pool")
            )
            if is_executor:
                ref = self._target_ref(node.args[0])
                if ref is not None:
                    self.fn.spawns.append(
                        SpawnEvent(ref, line, col, "executor")
                    )

        # Self-attribute synchronization objects used by call form.
        handled = False
        if isinstance(func, ast.Attribute):
            attr = is_self_attr(func.value)
            kind = self._sync_kind(attr) if attr else None
            if attr and kind is not None:
                handled = True
                if kind in ("lock", "rlock") and func.attr == "acquire":
                    self.fn.acquires.append(
                        AcquireEvent(attr, line, col, held)
                    )
                elif kind == "condition" and func.attr in ("wait", "wait_for"):
                    self.fn.blocks.append(
                        BlockEvent(
                            "condition wait", line, col, held, via_cond=attr
                        )
                    )
                elif kind == "event" and func.attr == "wait":
                    self.fn.blocks.append(
                        BlockEvent("event wait", line, col, held)
                    )
                elif kind == "semaphore" and func.attr == "acquire":
                    self.fn.blocks.append(
                        BlockEvent("semaphore acquire", line, col, held)
                    )
                else:
                    handled = False

            # In-place mutation through a container method.
            if func.attr in _MUTATING_METHODS:
                self._record_mut(func.value, line, col)

        if not handled:
            name = resolved or (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in _BLOCKING_NAME_CALLS:
                self.fn.blocks.append(
                    BlockEvent(_BLOCKING_NAME_CALLS[name], line, col, held)
                )
            else:
                ref = self._callee_ref(func)
                if ref is not None:
                    self.fn.calls.append(CallEvent(ref, line, col, held))

        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)
        if isinstance(func, ast.Attribute):
            # Chained receivers can themselves be calls that matter,
            # e.g. ``threading.Thread(target=...).start()``.
            self.visit(func.value)
        elif not isinstance(func, ast.Name):
            self.visit(func)


def _scan_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    cls: ClassModel | None,
    imports: ImportMap,
    module: str,
    relpath: str,
    qualname: str,
    parent: FunctionModel | None = None,
) -> FunctionModel:
    fn = FunctionModel(
        qualname=qualname,
        module=module,
        relpath=relpath,
        cls=cls.qualname if cls else None,
        name=node.name,
        lineno=node.lineno,
        parent=parent,
    )
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        t = _ann_type(arg.annotation, imports, module)
        if t is not None:
            fn.param_types[arg.arg] = t
    scanner = _FnScanner(fn, cls, imports)
    for stmt in node.body:
        scanner.visit(stmt)
    return fn


# --------------------------------------------------------------------------
# Per-class / per-module extraction
# --------------------------------------------------------------------------


def _extract_class(
    node: ast.ClassDef,
    *,
    module: str,
    relpath: str,
    imports: ImportMap,
    lines: list[str],
) -> ClassModel:
    cls = ClassModel(
        qualname=f"{module}.{node.name}",
        module=module,
        relpath=relpath,
        name=node.name,
        lineno=node.lineno,
    )

    def note_guard(attr: str, stmt: ast.stmt) -> None:
        start = stmt.lineno
        end = getattr(stmt, "end_lineno", None) or start
        for lineno in range(start, min(end, len(lines)) + 1):
            match = GUARD_RE.search(lines[lineno - 1])
            if match:
                text = match.group("guard").strip()
                existing = cls.guards.get(attr)
                if existing is None or lineno < existing.line:
                    cls.guards[attr] = Guard(text, _guard_token(text), lineno)
                return

    def note_assignment(
        attr: str,
        value: ast.AST | None,
        stmt: ast.stmt,
        params: dict[str, str],
    ) -> None:
        note_guard(attr, stmt)
        if value is None:
            return
        if isinstance(value, ast.Call):
            ctor = imports.resolve(value.func)
            kind = _SYNC_CTORS.get(ctor or "")
            if kind is not None:
                cls.locks[attr] = kind
                if kind == "condition" and value.args:
                    wrapped = is_self_attr(value.args[0])
                    if wrapped is not None:
                        cls.cond_wraps[attr] = wrapped
                return
        if isinstance(value, ast.Name) and value.id in params:
            # `self.store = store` with `store: FeatureStore` annotated.
            cls.attr_types.setdefault(attr, params[value.id])
            return
        t = _value_type(value, imports, module)
        if t is not None:
            cls.attr_types.setdefault(attr, t)

    # Phase A: attribute types, locks, and guard declarations, from every
    # `self.X = ...` anywhere in the class plus class-level annotations.
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        margs = method.args
        params: dict[str, str] = {}
        for arg in [*margs.posonlyargs, *margs.args, *margs.kwonlyargs]:
            t = _ann_type(arg.annotation, imports, module)
            if t is not None:
                params[arg.arg] = t
        for stmt in ast.walk(method):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    attr = is_self_attr(target)
                    if attr is not None:
                        note_assignment(attr, stmt.value, stmt, params)
            elif isinstance(stmt, ast.AnnAssign):
                attr = is_self_attr(stmt.target)
                if attr is not None:
                    note_guard(attr, stmt)
                    t = _ann_type(stmt.annotation, imports, module)
                    if t is not None:
                        cls.attr_types.setdefault(attr, t)
                    if stmt.value is not None:
                        note_assignment(attr, stmt.value, stmt, params)
            elif isinstance(stmt, ast.AugAssign):
                attr = is_self_attr(stmt.target)
                if attr is not None:
                    note_guard(attr, stmt)
    for stmt in node.body:
        # class-level field annotations (dataclass style)
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            attr = stmt.target.id
            note_guard(attr, stmt)
            t = _ann_type(stmt.annotation, imports, module)
            if t is not None:
                cls.attr_types.setdefault(attr, t)

    # Phase B: scan method bodies with the lock vocabulary in place.
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[stmt.name] = _scan_function(
                stmt,
                cls=cls,
                imports=imports,
                module=module,
                relpath=relpath,
                qualname=f"{cls.qualname}.{stmt.name}",
            )
    return cls


def _extract_module(
    relpath: str, tree: ast.Module, source: str, imports: ImportMap
) -> ModuleModel:
    module = _module_name(relpath)
    model = ModuleModel(module=module, relpath=relpath)
    lines = source.splitlines()
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            cls = _extract_class(
                stmt,
                module=module,
                relpath=relpath,
                imports=imports,
                lines=lines,
            )
            model.classes[cls.name] = cls
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.functions[stmt.name] = _scan_function(
                stmt,
                cls=None,
                imports=imports,
                module=module,
                relpath=relpath,
                qualname=f"{module}.{stmt.name}",
            )
    return model


# --------------------------------------------------------------------------
# Project model + linking
# --------------------------------------------------------------------------


class ProjectModel:
    """Linked whole-program view used by the solver."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleModel] = {}
        self.classes: dict[str, ClassModel] = {}
        self.functions: dict[str, FunctionModel] = {}
        self.class_functions: dict[str, list[FunctionModel]] = defaultdict(list)

    def add_module(self, mod: ModuleModel) -> None:
        self.modules[mod.module] = mod

        def register(fn: FunctionModel) -> None:
            self.functions[fn.qualname] = fn
            if fn.cls:
                self.class_functions[fn.cls].append(fn)
            for child in fn.nested.values():
                register(child)

        for cls in mod.classes.values():
            self.classes[cls.qualname] = cls
            for fn in cls.methods.values():
                register(fn)
        for fn in mod.functions.values():
            register(fn)

    # -- resolution ------------------------------------------------------

    def resolve_class(self, type_str: str | None) -> ClassModel | None:
        if not type_str or type_str.startswith(("list:", "@attr:")):
            return None
        cls = self.classes.get(type_str)
        if cls is not None:
            return cls
        # Re-exports (`from repro.serve import ServeEngine`): fall back to
        # a unique suffix match on the bare class name.
        tail = "." + type_str.rsplit(".", 1)[-1]
        candidates = [q for q in self.classes if q.endswith(tail)]
        if len(candidates) == 1:
            return self.classes[candidates[0]]
        return None

    def type_of(self, fn: FunctionModel, type_str: str | None) -> str | None:
        """Resolve ``@attr:`` markers against the function's class."""
        if type_str and type_str.startswith("@attr:"):
            cls = self.classes.get(fn.cls or "")
            if cls is None:
                return None
            return cls.attr_types.get(type_str[len("@attr:"):])
        return type_str

    def var_type(self, fn: FunctionModel, name: str) -> str | None:
        cursor: FunctionModel | None = fn
        while cursor is not None:
            if name in cursor.local_types:
                return self.type_of(fn, cursor.local_types[name])
            if name in cursor.param_types:
                return self.type_of(fn, cursor.param_types[name])
            cursor = cursor.parent
        return None

    def resolve_callee(
        self, fn: FunctionModel, ref: CalleeRef
    ) -> FunctionModel | tuple[str, str] | None:
        """A project FunctionModel, an ``(external type, method)`` pair,
        or None when the receiver cannot be typed."""
        if ref.kind == "self":
            cls = self.classes.get(fn.cls or "")
            if cls is not None:
                return cls.methods.get(ref.name)
            return None
        if ref.kind in ("attr", "var"):
            if ref.kind == "attr":
                cls = self.classes.get(fn.cls or "")
                t = cls.attr_types.get(ref.base) if cls else None
                t = self.type_of(fn, t)
            else:
                t = self.var_type(fn, ref.base)
            if t is None or t.startswith("list:"):
                return None
            target = self.resolve_class(t)
            if target is not None:
                return target.methods.get(ref.name)
            return (t, ref.name)
        if ref.kind == "name":
            name = ref.name
            if "." not in name:
                cursor: FunctionModel | None = fn
                while cursor is not None:
                    if name in cursor.nested:
                        return cursor.nested[name]
                    cursor = cursor.parent
                mod = self.modules.get(fn.module)
                if mod is not None:
                    if name in mod.functions:
                        return mod.functions[name]
                    if name in mod.classes:
                        return mod.classes[name].methods.get("__init__")
                return None
            # Dotted: longest module prefix, then function / class / method.
            parts = name.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                mod = self.modules.get(prefix)
                if mod is None:
                    continue
                rest = parts[cut:]
                if len(rest) == 1:
                    if rest[0] in mod.functions:
                        return mod.functions[rest[0]]
                    if rest[0] in mod.classes:
                        return mod.classes[rest[0]].methods.get("__init__")
                elif len(rest) == 2 and rest[0] in mod.classes:
                    return mod.classes[rest[0]].methods.get(rest[1])
                return None
            cls = self.resolve_class(".".join(parts[:-1]))
            if cls is not None:
                return cls.methods.get(parts[-1])
        return None


def build_model(files: list[tuple[str, ast.Module, str, ImportMap]]) -> ProjectModel:
    """files: (relpath, tree, source, imports) for every in-scope file."""
    model = ProjectModel()
    for relpath, tree, source, imports in files:
        model.add_module(_extract_module(relpath, tree, source, imports))
    return model


# --------------------------------------------------------------------------
# Solver
# --------------------------------------------------------------------------


def _qual_held(fn: FunctionModel, held: tuple[str, ...]) -> frozenset[str]:
    if fn.cls is None or not held:
        return frozenset()
    return frozenset(f"{fn.cls}.{attr}" for attr in held)


def _display_fn(fn: FunctionModel) -> str:
    return fn.qualname.replace(".<locals>.", "::")


class _Solver:
    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.findings: list[Finding] = []
        self.resolved: dict[int, FunctionModel | tuple[str, str] | None] = {}
        self.call_sites: dict[str, list[tuple[FunctionModel, CallEvent]]] = (
            defaultdict(list)
        )
        self.may: dict[str, set[str]] = defaultdict(set)
        self.must: dict[str, frozenset[str]] = {}
        self.init_only: dict[str, frozenset[str]] = {}
        self.blocking: dict[str, str] = {}
        self.shared: dict[str, str] = {}  # class qualname -> root witness

    # -- setup -----------------------------------------------------------

    def _link_calls(self) -> None:
        for fn in self.model.functions.values():
            for site in fn.calls:
                target = self.model.resolve_callee(fn, site.ref)
                self.resolved[id(site)] = target
                if isinstance(target, FunctionModel):
                    self.call_sites[target.qualname].append((fn, site))

    def _compute_init_only(self) -> None:
        """Methods reachable only from construction, per class.

        Their bodies run before the object is published to other
        threads, so guard/contract checks skip them.
        """
        for qual, cls in self.model.classes.items():
            init_only = set(_CONSTRUCTION_METHODS & set(cls.methods))
            changed = True
            while changed:
                changed = False
                for name, fn in cls.methods.items():
                    if name in init_only or name in _CONSTRUCTION_METHODS:
                        continue
                    sites = self.call_sites.get(fn.qualname, [])
                    if not sites:
                        continue  # public entry point: not construction
                    if all(
                        caller.cls == qual
                        and caller.name in init_only
                        for caller, _ in sites
                    ):
                        init_only.add(name)
                        changed = True
            self.init_only[qual] = frozenset(init_only)

    def _is_construction(self, fn: FunctionModel) -> bool:
        root = fn
        while root.parent is not None:
            root = root.parent
        if root.cls is None:
            return False
        return root.name in self.init_only.get(root.cls, frozenset())

    def _compute_may(self) -> None:
        changed = True
        while changed:
            changed = False
            for fn in self.model.functions.values():
                base = self.may[fn.qualname]
                for site in fn.calls:
                    target = self.resolved.get(id(site))
                    if not isinstance(target, FunctionModel):
                        continue
                    incoming = _qual_held(fn, site.held) | base
                    dest = self.may[target.qualname]
                    if not incoming <= dest:
                        dest |= incoming
                        changed = True

    def _compute_must(self) -> None:
        """Locks held at every call site of a function.  Construction
        call sites are skipped: they run before the object is published,
        so a helper whose every later caller holds the lock runs under it.
        """
        must: dict[str, frozenset[str]] = {
            q: frozenset() for q in self.model.functions
        }
        changed = True
        while changed:
            changed = False
            for qual in self.model.functions:
                value: frozenset[str] | None = None
                for caller, site in self.call_sites.get(qual, []):
                    if self._is_construction(caller):
                        continue
                    contrib = _qual_held(caller, site.held) | must[caller.qualname]
                    value = contrib if value is None else (value & contrib)
                if value and value != must[qual]:
                    must[qual] = frozenset(value)
                    changed = True
        self.must = must

    def _compute_blocking(self) -> None:
        """Transitive 'this function can block' reasons (BFS keeps the
        shortest explanation chain)."""
        frontier: list[str] = []
        for qual, fn in self.model.functions.items():
            reason = None
            if fn.blocks:
                reason = fn.blocks[0].what
            else:
                for site in fn.calls:
                    ext = self._external_blocking(fn, site)
                    if ext is not None:
                        reason = ext
                        break
            if reason is not None:
                self.blocking[qual] = reason
                frontier.append(qual)
        while frontier:
            next_frontier: list[str] = []
            for qual in frontier:
                reason = self.blocking[qual]
                fn = self.model.functions[qual]
                for caller, _site in self.call_sites.get(qual, []):
                    if caller.qualname in self.blocking:
                        continue
                    self.blocking[caller.qualname] = (
                        f"calls {_display_fn(fn)} which blocks ({reason})"
                    )
                    next_frontier.append(caller.qualname)
            frontier = next_frontier

    def _external_blocking(
        self, fn: FunctionModel, site: CallEvent
    ) -> str | None:
        target = self.resolved.get(id(site))
        if isinstance(target, tuple):
            reason = _BLOCKING_TYPED_METHODS.get(target)
            if reason is not None:
                return reason
        if isinstance(target, FunctionModel):
            if target.module.startswith("repro.kernels"):
                if target.name in ("forward", "backward"):
                    return f"kernel {target.name}"
            return None
        if target is None and site.ref.name == "forward":
            return "kernel forward (unresolved receiver)"
        return None

    def _compute_shared(self) -> None:
        roots: list[FunctionModel] = []
        for fn in self.model.functions.values():
            for spawn in fn.spawns:
                target = self.model.resolve_callee(fn, spawn.ref)
                if isinstance(target, FunctionModel):
                    roots.append(target)
        seen: set[str] = set()
        queue: list[tuple[FunctionModel, str]] = [
            (root, _display_fn(root)) for root in roots
        ]
        while queue:
            fn, witness = queue.pop()
            if fn.qualname in seen:
                continue
            seen.add(fn.qualname)
            if fn.cls and fn.cls not in self.shared:
                self.shared[fn.cls] = witness
            for site in fn.calls:
                target = self.resolved.get(id(site))
                if isinstance(target, FunctionModel):
                    queue.append((target, witness))
            for child in fn.nested.values():
                queue.append((child, witness))

    # -- checks ----------------------------------------------------------

    def _eff_held(self, fn: FunctionModel, held: tuple[str, ...]) -> frozenset[str]:
        return _qual_held(fn, held) | self.must.get(fn.qualname, frozenset())

    def _emit(
        self, rule: str, fn: FunctionModel, line: int, col: int, message: str
    ) -> None:
        self.findings.append(Finding(fn.relpath, line, col, rule, message))

    def _check_lock_order(self) -> None:
        edges: dict[tuple[str, str], tuple[FunctionModel, int, int]] = {}
        for fn in self.model.functions.values():
            if fn.cls is None:
                continue
            locks = self.model.classes[fn.cls].locks
            for acq in fn.acquires:
                to = f"{fn.cls}.{acq.lock}"
                before = _qual_held(fn, acq.held) | self.may.get(
                    fn.qualname, set()
                )
                if to in before and locks.get(acq.lock) == "lock":
                    self._emit(
                        "lock-order",
                        fn,
                        acq.line,
                        acq.col,
                        f"{to} is acquired while it may already be held: "
                        f"threading.Lock is not reentrant (self-deadlock)",
                    )
                for frm in sorted(before):
                    if frm != to:
                        edges.setdefault((frm, to), (fn, acq.line, acq.col))

        graph: dict[str, list[str]] = defaultdict(list)
        for frm, to in edges:
            graph[frm].append(to)
        for dests in graph.values():
            dests.sort()

        cycles: dict[tuple[str, ...], tuple[str, ...]] = {}
        state: dict[str, int] = {}
        stack: list[str] = []

        def dfs(node: str) -> None:
            state[node] = 1
            stack.append(node)
            for nxt in graph.get(node, []):
                if state.get(nxt, 0) == 0:
                    dfs(nxt)
                elif state.get(nxt) == 1:
                    cycle = tuple(stack[stack.index(nxt):])
                    pivot = cycle.index(min(cycle))
                    canonical = cycle[pivot:] + cycle[:pivot]
                    cycles.setdefault(canonical, cycle)
            stack.pop()
            state[node] = 2

        for node in sorted(graph):
            if state.get(node, 0) == 0:
                dfs(node)

        for canonical in sorted(cycles):
            path = canonical + (canonical[0],)
            frm, to = canonical[0], canonical[1 % len(canonical)]
            fn, line, col = edges[(frm, to)]
            self._emit(
                "lock-order",
                fn,
                line,
                col,
                f"lock-order cycle {' -> '.join(path)} (potential "
                f"deadlock): {to} is acquired while holding {frm}",
            )

    def _check_blocking(self) -> None:
        for fn in self.model.functions.values():
            for ev in fn.blocks:
                eff = self._eff_held(fn, ev.held)
                if ev.via_cond and fn.cls:
                    cls = self.model.classes.get(fn.cls)
                    allowed = {f"{fn.cls}.{ev.via_cond}"}
                    if cls is not None:
                        wrapped = cls.cond_wraps.get(ev.via_cond)
                        if wrapped:
                            allowed.add(f"{fn.cls}.{wrapped}")
                    extra = eff - allowed
                else:
                    extra = eff
                if extra:
                    self._emit(
                        "blocking-under-lock",
                        fn,
                        ev.line,
                        ev.col,
                        f"blocking operation ({ev.what}) while holding "
                        f"{', '.join(sorted(extra))}",
                    )
            for site in fn.calls:
                eff = self._eff_held(fn, site.held)
                if not eff:
                    continue
                target = self.resolved.get(id(site))
                if isinstance(target, FunctionModel):
                    reason = self.blocking.get(target.qualname)
                    if reason is not None and not reason.startswith("calls "):
                        self._emit(
                            "blocking-under-lock",
                            fn,
                            site.line,
                            site.col,
                            f"call into {_display_fn(target)} blocks "
                            f"({reason}) while holding "
                            f"{', '.join(sorted(eff))}",
                        )
                    elif reason is not None:
                        self._emit(
                            "blocking-under-lock",
                            fn,
                            site.line,
                            site.col,
                            f"call into {_display_fn(target)} {reason} "
                            f"while holding {', '.join(sorted(eff))}",
                        )
                else:
                    ext = self._external_blocking(fn, site)
                    if ext is not None:
                        self._emit(
                            "blocking-under-lock",
                            fn,
                            site.line,
                            site.col,
                            f"blocking operation ({ext}) while holding "
                            f"{', '.join(sorted(eff))}",
                        )

    def _check_escapes_and_guards(self) -> None:
        """Writes of shared classes, and of classes that own a mutex.

        A class no thread target reaches is checked by use: the
        attributes it writes under its own lock after construction are
        protected, and only its own ``self.attr`` writes are checked.
        """
        for cls_qual, cls in self.model.classes.items():
            witness = self.shared.get(cls_qual)
            own_locks = cls.mutex_quals()
            if witness is None and not own_locks:
                continue
            fns = [
                fn
                for fn in self.model.class_functions.get(cls_qual, [])
                if not self._is_construction(fn)
            ]
            protected = {
                mut.attr
                for fn in fns
                for mut in fn.muts
                if mut.obj == "" and self._eff_held(fn, mut.held) & own_locks
            }
            for fn in fns:
                for mut in fn.muts:
                    if witness is not None or mut.obj == "":
                        self._check_mut(fn, cls, mut, witness, protected)

    def _check_mut(
        self,
        fn: FunctionModel,
        cls: ClassModel,
        mut: MutEvent,
        witness: str | None,
        protected: set[str],
    ) -> None:
        if mut.obj == "":
            target_cls = cls
        else:
            t = self.model.type_of(fn, cls.attr_types.get(mut.obj))
            target_cls = self.model.resolve_class(t) if t else None
            if target_cls is None:
                return
            if (
                target_cls.qualname not in self.shared
                and not target_cls.locks
            ):
                return
        attr = mut.attr
        if attr in target_cls.locks:
            return  # synchronization objects manage themselves
        eff = self._eff_held(fn, mut.held)
        own_locks = target_cls.mutex_quals()
        guard = target_cls.guards.get(attr)
        display = (
            f"self.{attr}" if mut.obj == "" else f"self.{mut.obj}.{attr}"
        )
        if guard is not None:
            if guard.token is not None:
                kind = target_cls.locks.get(guard.token)
                if kind not in _MUTEX_KINDS:
                    self._emit(
                        "lock-contract",
                        fn,
                        mut.line,
                        mut.col,
                        f"'# guarded-by: {guard.token}' on "
                        f"{target_cls.name}.{attr} does not name a lock "
                        f"attribute of {target_cls.name}; use a lock attr "
                        f"or a descriptive non-identifier note",
                    )
                elif f"{target_cls.qualname}.{guard.token}" not in eff:
                    self._emit(
                        "lock-contract",
                        fn,
                        mut.line,
                        mut.col,
                        f"{display} is declared '# guarded-by: "
                        f"{guard.token}' but is written without holding "
                        f"{target_cls.qualname}.{guard.token}",
                    )
            # non-identifier guard text: documented discipline, exempt
            return
        if eff & own_locks:
            return
        if witness is not None:
            self._emit(
                "thread-escape",
                fn,
                mut.line,
                mut.col,
                f"{display} of {target_cls.name} is written without a "
                f"lock, but {target_cls.name} is shared across threads "
                f"(reached from thread target {witness}); hold one of "
                f"its locks or declare '# guarded-by: <discipline>' on "
                f"the attribute",
            )
        elif attr in protected:
            self._emit(
                "thread-escape",
                fn,
                mut.line,
                mut.col,
                f"{display} of {target_cls.name} is written under "
                f"{', '.join(sorted(own_locks))} elsewhere but without a "
                f"lock in {_display_fn(fn)}; hold the lock or declare "
                f"'# guarded-by: <discipline>' on the attribute",
            )

    # -- entry point -----------------------------------------------------

    def solve(self) -> list[Finding]:
        self._link_calls()
        self._compute_init_only()
        self._compute_may()
        self._compute_must()
        self._compute_blocking()
        self._compute_shared()
        self._check_lock_order()
        self._check_blocking()
        self._check_escapes_and_guards()
        self.findings.sort()
        return self.findings


def analyze_project(
    files: list[tuple[str, ast.Module, str, ImportMap]]
) -> list[Finding]:
    """Build the model and solve it: every finding of the four rules,
    each tagged with its rule name."""
    return _Solver(build_model(files)).solve()
