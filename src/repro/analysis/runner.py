"""Lint orchestration: walk files, run rules, suppress, report.

:func:`run_lint` is the single entry point shared by the CLI and the
tests.  It parses every ``.py`` file under :data:`DEFAULT_PATHS` (or
the paths given) once, runs each per-file rule on the files under its
``default_scopes``, then runs the whole-program rules
(:class:`~repro.analysis.framework.ProjectRule`) once over every parsed
file, and finally applies ``# repro: noqa`` suppressions.  A run's
answer depends only on the tree and the rule selection.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.framework import (
    AnalysisError,
    FileContext,
    ProjectContext,
    ProjectRule,
    all_rules,
    get_rule,
)

__all__ = ["DEFAULT_PATHS", "LintResult", "run_lint", "iter_source_files"]

#: Roots walked when no path is given (repo-relative).
DEFAULT_PATHS = ("src/repro", "tests")


@dataclass
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: post-suppression findings, sorted by location — the
            gate fails on any of them.
        suppressed: count of findings silenced by noqa markers.
        files_checked: number of files walked.
        rules: names of the rules that ran.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    rules: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the gate passes (no findings)."""
        return not self.findings


def in_scope(relpath: str, prefixes: tuple[str, ...]) -> bool:
    """True when ``relpath`` is one of ``prefixes`` or lies under one."""
    return any(
        relpath == p or relpath.startswith(p.rstrip("/") + "/")
        for p in prefixes
    )


def iter_source_files(
    root: Path, paths: tuple[str, ...] | None = None
) -> list[Path]:
    """Every ``.py`` file under ``paths`` (default :data:`DEFAULT_PATHS`).

    A default root the repository lacks is skipped; an explicitly given
    path that does not exist is an error.
    """
    seen: set[Path] = set()
    out: list[Path] = []
    for entry in paths or DEFAULT_PATHS:
        base = root / entry
        if base.is_file():
            candidates = [base]
        elif base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        elif paths:
            raise AnalysisError(f"lint path does not exist: {base}")
        else:
            continue
        for path in candidates:
            if path not in seen:
                seen.add(path)
                out.append(path)
    return out


def _parse_error_finding(relpath: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        rule="parse-error",
        message=f"file does not parse: {exc.msg}",
    )


def run_lint(
    root: str | Path,
    *,
    paths: list[str] | None = None,
    rules: list[str] | None = None,
) -> LintResult:
    """Lint the repository at ``root``; see :class:`LintResult`.

    Args:
        root: repository root the paths and rule scopes are relative to.
        paths: lint roots (repo-relative); default :data:`DEFAULT_PATHS`.
        rules: run only these rule names (default: every registered
            rule).
    """
    root = Path(root)
    active = [get_rule(name) for name in rules] if rules else all_rules()
    active.sort(key=lambda r: r.name)
    file_rules = [r for r in active if not isinstance(r, ProjectRule)]
    project_rules = [r for r in active if isinstance(r, ProjectRule)]
    result = LintResult(rules=tuple(r.name for r in active))

    contexts: dict[str, FileContext] = {}
    raw: list[Finding] = []
    for path in iter_source_files(root, tuple(paths) if paths else None):
        relpath = path.relative_to(root).as_posix()
        result.files_checked += 1
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            result.findings.append(_parse_error_finding(relpath, exc))
            continue
        ctx = FileContext(path=path, relpath=relpath, source=source, tree=tree)
        contexts[relpath] = ctx
        for rule in file_rules:
            if in_scope(relpath, rule.default_scopes):
                raw.extend(rule.check(ctx))

    # Whole-program stage: one model over every parsed file.
    if project_rules:
        project = ProjectContext(files=list(contexts.values()))
        for rule in project_rules:
            raw.extend(
                f
                for f in rule.check_project(project)
                if in_scope(f.path, rule.default_scopes)
            )

    for finding in raw:
        if contexts[finding.path].suppressions.suppresses(finding):
            result.suppressed += 1
        else:
            result.findings.append(finding)
    result.findings.sort()
    return result
