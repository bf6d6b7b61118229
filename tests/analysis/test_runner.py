"""End-to-end runner behavior: file walk, reporters, CLI."""

import json

import pytest

from repro.analysis.framework import AnalysisError
from repro.analysis.reporters import REPORT_VERSION, render_json, render_text
from repro.analysis.runner import run_lint
from repro.cli import main

BAD_DTYPE = (
    "import numpy as np\n"
    "def f():\n"
    "    return np.zeros(10)\n"
)

CLEAN = "X = 1\n"


class TestFileWalk:
    def test_default_paths_are_src_repro_and_tests(self, project):
        project.write("src/repro/core/mod.py", BAD_DTYPE)
        project.write("tests/test_mod.py", CLEAN)
        project.write("docs/conf.py", BAD_DTYPE)
        result = run_lint(project.root)
        assert result.files_checked == 2
        assert [f.path for f in result.findings] == ["src/repro/core/mod.py"]

    def test_missing_default_root_is_skipped(self, project):
        project.write("src/repro/core/mod.py", CLEAN)
        assert run_lint(project.root).files_checked == 1

    def test_missing_explicit_path_is_an_error(self, project):
        with pytest.raises(AnalysisError, match="does not exist"):
            run_lint(project.root, paths=["src/nope"])


class TestReporters:
    def _result(self, project):
        project.write("src/repro/core/mod.py", BAD_DTYPE)
        return project.lint()

    def test_text_lines_are_editor_clickable(self, project):
        text = render_text(self._result(project))
        first = text.splitlines()[0]
        assert first.startswith("src/repro/core/mod.py:3:")
        assert "dtype-promotion" in first
        assert "1 finding(s)" in text

    def test_json_schema(self, project):
        doc = json.loads(render_json(self._result(project)))
        assert doc["version"] == REPORT_VERSION
        assert doc["ok"] is False
        assert set(doc) == {
            "version",
            "ok",
            "rules",
            "files_checked",
            "suppressed",
            "findings",
        }
        (finding,) = doc["findings"]
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["rule"] == "dtype-promotion"

    def test_parse_error_becomes_a_finding(self, project):
        project.write("src/repro/core/broken.py", "def f(:\n")
        result = project.lint()
        assert [f.rule for f in result.findings] == ["parse-error"]


class TestCli:
    def test_exit_zero_on_clean_tree(self, project, capsys):
        project.write("src/repro/core/mod.py", CLEAN)
        code = main(["lint", "--root", str(project.root)])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_new_finding(self, project, capsys):
        project.write("src/repro/core/mod.py", BAD_DTYPE)
        code = main(["lint", "--root", str(project.root)])
        assert code == 1
        out = capsys.readouterr().out
        assert "dtype-promotion" in out

    def test_json_format_round_trips(self, project, capsys):
        project.write("src/repro/core/mod.py", BAD_DTYPE)
        code = main(
            [
                "lint",
                "--root",
                str(project.root),
                "--format",
                "json",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False

    def test_rules_filter_and_unknown_rule(self, project, capsys):
        project.write("src/repro/core/mod.py", BAD_DTYPE)
        code = main(
            [
                "lint",
                "--root",
                str(project.root),
                "--rules",
                "span-leak",
            ]
        )
        assert code == 0
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["lint", "--root", str(project.root), "--rules", "nope"])

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "lock-order" in out
        assert "invariant" in out
