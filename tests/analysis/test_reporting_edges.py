"""SARIF reporter edge cases: exact regions, clean runs, parse errors,
and the ``--format sarif`` / ``--sarif PATH`` CLI outputs."""

import json

from repro.analysis.reporters import SARIF_VERSION, render_sarif
from repro.cli import main

BAD_DTYPE = (
    "import numpy as np\n"
    "def f():\n"
    "    return np.zeros(10)\n"
)


class TestSarifReporter:
    def test_schema_and_exact_region(self, project):
        project.write("src/repro/core/mod.py", BAD_DTYPE)
        result = project.lint()
        doc = json.loads(render_sarif(result))
        assert doc["version"] == SARIF_VERSION
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        (res,) = run["results"]
        assert res["ruleId"] == "dtype-promotion"
        assert rule_ids[res["ruleIndex"]] == "dtype-promotion"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/core/mod.py"
        assert loc["artifactLocation"]["uriBaseId"] == "SRCROOT"
        assert loc["region"]["startLine"] == 3
        assert loc["region"]["startColumn"] == 12  # 1-based column

    def test_clean_run_has_empty_results_but_rule_metadata(self, project):
        project.write("src/repro/core/mod.py", "X = 1\n")
        doc = json.loads(render_sarif(project.lint()))
        (run,) = doc["runs"]
        assert run["results"] == []
        assert run["tool"]["driver"]["rules"]  # registry still described

    def test_parse_error_finding_renders_without_registry_entry(
        self, project
    ):
        project.write("src/repro/core/broken.py", "def f(:\n")
        doc = json.loads(render_sarif(project.lint()))
        (res,) = doc["runs"][0]["results"]
        assert res["ruleId"] == "parse-error"


class TestSarifCli:
    def test_format_sarif_round_trips(self, project, capsys):
        project.write("src/repro/core/mod.py", BAD_DTYPE)
        code = main(
            [
                "lint",
                "--root",
                str(project.root),
                "--format",
                "sarif",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"]

    def test_sarif_side_output_written_even_on_failure(
        self, project, capsys, tmp_path
    ):
        project.write("src/repro/core/mod.py", BAD_DTYPE)
        sarif_path = tmp_path / "out" / "lint.sarif"
        sarif_path.parent.mkdir()
        code = main(
            [
                "lint",
                "--root",
                str(project.root),
                "--sarif",
                str(sarif_path),
            ]
        )
        assert code == 1
        doc = json.loads(sarif_path.read_text(encoding="utf-8"))
        assert doc["runs"][0]["results"]
        # The text report still goes to stdout alongside the file.
        assert "dtype-promotion" in capsys.readouterr().out
