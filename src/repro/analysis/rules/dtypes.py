"""``dtype-promotion``: hot paths stay in float32 (and never default
to numpy's float64).

The paper's memory model — the Eq. 1–2 estimator, the device ledger,
and the host-residency accounting — all assume
:data:`repro.config.FLOAT_DTYPE` (float32) elements.  A stray float64
array doubles the real footprint without the estimator noticing, which
is exactly the class of silent memory regression Buffalo exists to
prevent.  Two idioms are flagged in hot-path packages:

* array constructors whose dtype *defaults* to float64
  (``np.zeros/ones/empty/full/linspace`` without ``dtype=``);
* explicit float64 requests (``dtype=np.float64``, ``dtype=float``,
  ``dtype="float64"``, ``.astype(np.float64)``).

``graph/metrics.py`` (graph statistics) and ``baselines/`` (reference
systems) are deliberately outside the default scope — precision there
is a feature, not a footprint bug.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.framework import FileContext, LintRule, register_rule

#: Constructors whose missing-dtype default is float64, with the
#: positional index a dtype argument would occupy.
_DEFAULT_F64 = {
    "numpy.zeros": 1,
    "numpy.ones": 1,
    "numpy.empty": 1,
    "numpy.full": 2,
    "numpy.linspace": 5,
}

_F64_NAMES = frozenset({"numpy.float64", "numpy.double"})


def _is_float64_expr(node: ast.AST, ctx: FileContext) -> bool:
    if isinstance(node, ast.Constant) and node.value in (
        "float64",
        "double",
    ):
        return True
    if isinstance(node, ast.Name) and node.id == "float":
        return True  # builtin float == float64 as a numpy dtype
    resolved = ctx.imports.resolve(node)
    return resolved in _F64_NAMES


@register_rule
class DtypePromotionRule(LintRule):
    name = "dtype-promotion"
    description = (
        "no implicit or explicit float64 in hot paths (FLOAT_DTYPE is "
        "float32)"
    )
    invariant = (
        "the Eq. 1-2 estimator and the device ledger assume float32 "
        "elements; float64 doubles real memory invisibly"
    )
    default_scopes = (
        "src/repro/core",
        "src/repro/gnn",
        "src/repro/nn",
        "src/repro/store",
        "src/repro/tensor",
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.imports.resolve(node.func)
            dtype_kw = next(
                (k.value for k in node.keywords if k.arg == "dtype"), None
            )
            if resolved in _DEFAULT_F64:
                dtype_pos = _DEFAULT_F64[resolved]
                has_dtype = dtype_kw is not None or len(node.args) > dtype_pos
                if not has_dtype:
                    short = resolved.replace("numpy.", "np.")
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{short}(...) without dtype defaults to "
                            f"float64; pass dtype=FLOAT_DTYPE (or an "
                            f"explicit integer dtype)",
                        )
                    )
                    continue
            if dtype_kw is not None and _is_float64_expr(dtype_kw, ctx):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "explicit float64 dtype in a hot path; use "
                        "repro.config.FLOAT_DTYPE (float32)",
                    )
                )
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
                and _is_float64_expr(node.args[0], ctx)
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        ".astype(float64) in a hot path doubles element "
                        "bytes; use repro.config.FLOAT_DTYPE",
                    )
                )
        return findings
