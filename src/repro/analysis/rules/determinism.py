"""``no-nondeterminism``: parity-critical code must be bit-reproducible.

Algorithm 2 parity (``BuffaloTrainer`` == bare recipe == full-batch,
enforced by ``tests/core/test_parity.py``) only holds if every compute
path is a pure function of the seed.  Wall-clock reads, the stdlib
``random`` module (process-global state), numpy's legacy global RNG
(``np.random.rand`` & friends), and unseeded ``default_rng()`` all
smuggle ambient state into the math, so they are banned in the
parity-critical packages (``core/``, ``gnn/``, ``nn/``).
Seeded generators (``rng_from(seed)`` / ``default_rng(seed)``) and
``time.perf_counter`` (telemetry-only durations) remain fine.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.framework import FileContext, LintRule, register_rule

#: Exact dotted names that read ambient, non-seeded state.
_WALL_CLOCK = frozenset({"time.time", "time.time_ns"})

#: numpy.random members that are *not* global-state draws.
_NUMPY_RANDOM_OK = frozenset(
    {
        "numpy.random.Generator",
        "numpy.random.BitGenerator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.default_rng",  # seededness checked at call sites
    }
)


@register_rule
class NoNondeterminismRule(LintRule):
    name = "no-nondeterminism"
    description = (
        "bans wall-clock reads, stdlib random, numpy's global RNG, and "
        "unseeded default_rng() in parity-critical modules"
    )
    invariant = (
        "Algorithm 2 parity: micro-batched training is "
        "bit-for-bit identical to full-batch for the same seed"
    )
    default_scopes = (
        "src/repro/core",
        "src/repro/gnn",
        "src/repro/nn",
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        seen: set[tuple[int, int, str]] = set()

        def add(node: ast.AST, message: str) -> None:
            key = (node.lineno, node.col_offset, message)
            if key not in seen:
                seen.add(key)
                findings.append(self.finding(ctx, node, message))

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and (
                    module == "random" or module.startswith("random.")
                ):
                    add(
                        node,
                        "import from stdlib 'random' (process-global RNG); "
                        "use a seeded numpy Generator (repro.config.rng_from)",
                    )
                continue
            if isinstance(node, ast.Call):
                resolved = ctx.imports.resolve(node.func)
                if resolved == "numpy.random.default_rng" and not (
                    node.args or node.keywords
                ):
                    add(
                        node,
                        "unseeded numpy.random.default_rng() draws OS "
                        "entropy; pass an explicit seed",
                    )
                continue
            if isinstance(node, (ast.Attribute, ast.Name)):
                resolved = ctx.imports.resolve(node)
                if resolved is None:
                    continue
                if resolved in _WALL_CLOCK:
                    add(
                        node,
                        f"wall-clock read '{resolved}' is nondeterministic; "
                        f"use time.perf_counter for durations",
                    )
                elif (
                    resolved.startswith("random.")
                    and resolved.count(".") == 1
                ):
                    add(
                        node,
                        f"stdlib '{resolved}' uses process-global RNG state; "
                        f"use a seeded numpy Generator",
                    )
                elif (
                    resolved.startswith("numpy.random.")
                    and resolved not in _NUMPY_RANDOM_OK
                ):
                    add(
                        node,
                        f"'{resolved}' draws from numpy's global RNG; use a "
                        f"seeded Generator (repro.config.rng_from)",
                    )
        return findings
