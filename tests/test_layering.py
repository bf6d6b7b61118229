"""Layering: the runtime packages never import the linter.

``repro.analysis`` is a development tool.  Training, storage and
serving must not pay for importing it, so nothing below the CLI may
import from it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_runtime_packages_do_not_import_the_linter():
    code = (
        "import sys\n"
        "import repro.core, repro.store, repro.serve, repro.training\n"
        "print('\\n'.join(m for m in sys.modules "
        "if m == 'repro.analysis' or m.startswith('repro.analysis.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert proc.stdout.split() == []
