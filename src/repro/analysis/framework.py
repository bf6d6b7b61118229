"""Rule base class, rule registry, per-file context, and suppression.

A rule is a class with a ``name``, a ``description``, a default path
``scopes`` tuple, and a ``check(ctx)`` method returning
:class:`~repro.analysis.findings.Finding` objects.  Registration is a
decorator; the CLI and runner discover rules through the registry, so
adding a rule is one module with one decorated class (see
``docs/analysis.md`` § "Adding a rule").

Suppression mirrors flake8's ``noqa`` but is namespaced so it can never
collide with other tools:

* ``# repro: noqa[rule-a,rule-b]`` — suppress those rules on this line;
* ``# repro: noqa`` — suppress every rule on this line;
* ``# repro: noqa-file[rule-a]`` — suppress a rule for the whole file
  (the marker may sit on any line, conventionally near the top).

Suppressions should carry a trailing explanation, e.g.::

    hot_ids = np.asarray(order[:n], dtype=...)  # repro: noqa[memmap-copy] bounded by hot-cache budget
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.analysis.astutils import ImportMap
from repro.analysis.findings import Finding
from repro.errors import ReproError

__all__ = [
    "AnalysisError",
    "FileContext",
    "LintRule",
    "ProjectContext",
    "ProjectRule",
    "all_rules",
    "get_rule",
    "register_rule",
    "rule_names",
    "parse_suppressions",
]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\-\s]+)\])?"
)
_NOQA_FILE_RE = re.compile(
    r"#\s*repro:\s*noqa-file\[(?P<rules>[A-Za-z0-9_,\-\s]+)\]"
)

#: Sentinel meaning "every rule" in a suppression set.
ALL_RULES = "*"


class AnalysisError(ReproError):
    """Invalid analysis usage (unknown rule, unparseable target, ...)."""


@dataclass
class Suppressions:
    """Parsed ``# repro: noqa`` markers of one file."""

    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    whole_file: frozenset[str] = frozenset()

    def suppresses(self, finding: Finding) -> bool:
        if finding.rule in self.whole_file or ALL_RULES in self.whole_file:
            return True
        rules = self.by_line.get(finding.line)
        if rules is None:
            return False
        return finding.rule in rules or ALL_RULES in rules


def parse_suppressions(source: str) -> Suppressions:
    """Scan physical lines for noqa markers (comments only in practice:
    the marker syntax is a comment, so string-literal false hits would
    need to embed a ``#`` mid-string — accepted as vanishingly rare)."""
    by_line: dict[int, frozenset[str]] = {}
    whole_file: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "repro:" not in line:
            continue
        file_match = _NOQA_FILE_RE.search(line)
        if file_match:
            whole_file.update(
                r.strip() for r in file_match.group("rules").split(",")
            )
            continue
        match = _NOQA_RE.search(line)
        if match:
            rules = match.group("rules")
            if rules is None:
                by_line[lineno] = frozenset({ALL_RULES})
            else:
                by_line[lineno] = frozenset(
                    r.strip() for r in rules.split(",") if r.strip()
                )
    return Suppressions(by_line=by_line, whole_file=frozenset(whole_file))


@dataclass
class FileContext:
    """Everything a rule needs about one source file (parsed once)."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module

    @cached_property
    def imports(self) -> ImportMap:
        # repro-relative module package for resolving relative imports.
        parts = Path(self.relpath).with_suffix("").parts
        if parts and parts[0] == "src":
            parts = parts[1:]
        package = ".".join(parts[:-1])
        return ImportMap(self.tree, package=package)

    @cached_property
    def suppressions(self) -> Suppressions:
        return parse_suppressions(self.source)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


class LintRule:
    """Base class for lint rules.

    Subclasses set :attr:`name` (kebab-case, stable — it is the
    suppression/selection key), :attr:`description`, the paper
    :attr:`invariant` the rule protects, and :attr:`default_scopes`
    (repo-relative path prefixes), then implement :meth:`check`.
    """

    name: str = ""
    description: str = ""
    invariant: str = ""
    default_scopes: tuple[str, ...] = ("src/repro",)

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return ctx.finding(self.name, node, message)


@dataclass
class ProjectContext:
    """Shared state for whole-program rules: every in-scope file, parsed
    once, plus a scratch dict rules use to share expensive models (the
    concurrency pass builds its call graph once for all four rules)."""

    files: list[FileContext]
    shared: dict = field(default_factory=dict)


class ProjectRule(LintRule):
    """A rule that needs the whole project, not one file at a time.

    The runner calls :meth:`check_project` once per run with every
    in-scope file; findings are then scoped and suppressed exactly like
    per-file findings.  ``check`` is a no-op so project
    rules compose with the per-file loop without special-casing.
    """

    def check(self, ctx: FileContext) -> list[Finding]:
        return []

    def check_project(self, project: ProjectContext) -> list[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, LintRule] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule (by instance) to the registry."""
    if not cls.name:
        raise AnalysisError(f"rule {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise AnalysisError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls()
    return cls


def _ensure_rules_loaded() -> None:
    # Importing the package registers every built-in rule exactly once.
    import repro.analysis.rules  # noqa: F401  (import-for-side-effect)


def all_rules() -> list[LintRule]:
    """Every registered rule, sorted by name."""
    _ensure_rules_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def rule_names() -> list[str]:
    _ensure_rules_loaded()
    return sorted(_REGISTRY)


def get_rule(name: str) -> LintRule:
    _ensure_rules_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise AnalysisError(f"unknown lint rule {name!r} (known: {known})")
