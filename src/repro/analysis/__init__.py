"""``repro.analysis`` — project-aware static analysis for the Buffalo
reproduction.

Two halves:

* **Lint framework** — an AST-based rule engine
  (:mod:`repro.analysis.framework`) with a rule registry, per-line
  ``# repro: noqa[rule]`` suppression and text/JSON/SARIF reporters.
  Every rule's ``default_scopes`` is its scope, and one ``repro lint``
  walks ``src/repro`` and ``tests``.  The domain rules
  (:mod:`repro.analysis.rules`) encode the paper's invariants:
  bit-for-bit determinism in parity-critical modules, no silent
  materialization of memmap-backed store arrays, span hygiene, a closed
  metric-name registry, float32 discipline in hot paths, and
  path-bearing store/dataset errors.
* **Concurrency checks** — one whole-program lock analysis
  (:mod:`repro.analysis.concurrency`) for the code that does cross
  threads: the serve tier's worker and queue, and the feature store's
  lock.  It builds a cross-module call graph, propagates may/must
  held-lock sets, and reports lock-order cycles and self-deadlocks,
  blocking operations under a held lock, unguarded writes to shared or
  lock-protected attributes, and violated ``# guarded-by:``
  declarations; plus the opt-in runtime
  :class:`~repro.analysis.race.RaceSentinel` that threaded tests enable
  to catch unsynchronized cross-thread mutation as it happens.

Entry points: ``repro lint`` (CLI) and :func:`repro.analysis.runner.run_lint`.
"""

from repro.analysis.findings import Finding
from repro.analysis.framework import (
    FileContext,
    LintRule,
    ProjectContext,
    ProjectRule,
    all_rules,
    get_rule,
    register_rule,
    rule_names,
)
from repro.analysis.race import RaceError, RaceSentinel, TrackedLock
from repro.analysis.runner import LintResult, run_lint

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "LintRule",
    "ProjectContext",
    "ProjectRule",
    "RaceError",
    "RaceSentinel",
    "TrackedLock",
    "all_rules",
    "get_rule",
    "register_rule",
    "rule_names",
    "run_lint",
]
