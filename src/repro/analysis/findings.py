"""The unit of lint output: one :class:`Finding` per rule violation.

Findings are plain values so the framework can sort and serialize
them without touching the AST again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Attributes:
        path: repo-relative POSIX path of the offending file.
        line: 1-based line of the violation.
        col: 0-based column of the violation.
        rule: registered rule name (e.g. ``no-nondeterminism``).
        message: human-readable description naming the symbol involved.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``file:line:col: rule: message`` (clickable in editors/CI)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "Finding":
        return cls(
            path=str(raw["path"]),
            line=int(raw["line"]),
            col=int(raw["col"]),
            rule=str(raw["rule"]),
            message=str(raw["message"]),
        )
