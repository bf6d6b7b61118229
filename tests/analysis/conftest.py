"""Fixtures for the repro.analysis test suite.

``lint_project`` builds a throwaway repository skeleton under
``tmp_path`` (so rule scopes like ``src/repro/core`` resolve exactly as
they do on the real tree) and hands back a helper that writes fixture
modules and runs the linter on them.
"""

from pathlib import Path

import pytest

from repro.analysis.runner import run_lint


class LintProject:
    """A temp repo the tests populate with fixture modules."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def write(self, relpath: str, source: str) -> Path:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        return path

    def lint(self, **kwargs):
        return run_lint(self.root, **kwargs)


@pytest.fixture()
def project(tmp_path):
    return LintProject(tmp_path)
