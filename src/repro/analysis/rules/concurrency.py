"""Whole-program concurrency rules (the ``--concurrency`` family).

Four :class:`~repro.analysis.framework.ProjectRule` subclasses share
one interprocedural model built by
:mod:`repro.analysis.concurrency` — the model is constructed once per
lint run (memoized on the :class:`ProjectContext`) and each rule
surfaces one finding family from it:

* ``lock-order`` — cycles in the global lock-acquisition graph;
* ``blocking-under-lock`` — blocking operations under a must-held lock;
* ``thread-escape`` — unguarded writes to attributes of thread-shared
  classes;
* ``lock-contract`` — violated ``@locks_required`` / ``# guarded-by``
  declarations.

The split keeps selection, suppression, and baselining per-family
(``# repro: noqa[thread-escape]`` does not silence a deadlock report)
while paying the analysis cost once.
"""

from __future__ import annotations

from repro.analysis.concurrency import ConcurrencyFinding, analyze_project
from repro.analysis.findings import Finding
from repro.analysis.framework import ProjectContext, ProjectRule, register_rule

__all__ = [
    "CONCURRENCY_RULES",
    "LockOrderRule",
    "BlockingUnderLockRule",
    "ThreadEscapeRule",
    "LockContractRule",
]

#: Rule names selected by ``repro lint --concurrency`` (plus the
#: per-file ``lock-discipline`` rule, which the CLI adds).
CONCURRENCY_RULES = (
    "lock-order",
    "blocking-under-lock",
    "thread-escape",
    "lock-contract",
)

_MODEL_KEY = "concurrency-findings"


def _project_findings(project: ProjectContext) -> list[ConcurrencyFinding]:
    findings = project.shared.get(_MODEL_KEY)
    if findings is None:
        files = [
            (ctx.relpath, ctx.tree, ctx.source, ctx.imports)
            for ctx in project.files
        ]
        findings = analyze_project(files)
        project.shared[_MODEL_KEY] = findings
    return findings


class _ConcurrencyRule(ProjectRule):
    default_scopes = ("src/repro", "tests")

    def check_project(self, project: ProjectContext) -> list[Finding]:
        return [
            Finding(
                path=f.path,
                line=f.line,
                col=f.col,
                rule=self.name,
                message=f.message,
            )
            for f in _project_findings(project)
            if f.rule == self.name
        ]


@register_rule
class LockOrderRule(_ConcurrencyRule):
    name = "lock-order"
    description = (
        "Cross-module lock-acquisition cycles (potential deadlocks) in "
        "the whole-program lock graph."
    )
    invariant = (
        "The union of every lock-acquisition order reachable through "
        "the call graph is acyclic: no two threads can wait on each "
        "other's locks."
    )


@register_rule
class BlockingUnderLockRule(_ConcurrencyRule):
    name = "blocking-under-lock"
    description = (
        "Blocking operations (queue waits, Condition/Event waits, "
        "file/memmap I/O, thread joins, kernel forwards) executed while "
        "a lock is guaranteed held, directly or via a blocking callee."
    )
    invariant = (
        "Critical sections stay O(bookkeeping): gathering and serving "
        "threads never stall each other behind I/O or waits "
        "performed under a shared lock."
    )


@register_rule
class ThreadEscapeRule(_ConcurrencyRule):
    name = "thread-escape"
    description = (
        "Unguarded writes to attributes of classes reachable from "
        "threading.Thread targets or executor submissions."
    )
    invariant = (
        "Every mutable attribute of a thread-shared object is protected "
        "by one of the class's locks or an explicitly declared "
        "'# guarded-by:' discipline."
    )


@register_rule
class LockContractRule(_ConcurrencyRule):
    name = "lock-contract"
    description = (
        "Violations of declared concurrency contracts: @locks_required "
        "callees invoked without the lock, '# guarded-by: <lock>' "
        "attributes written without it, or guards naming unknown locks."
    )
    invariant = (
        "Declared locking contracts are machine-checked: an annotation "
        "that drifts from the code fails the lint gate instead of "
        "documenting a fiction."
    )
