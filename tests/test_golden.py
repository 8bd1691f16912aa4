"""Golden CLI outputs: stdout and exit code are byte-identical to the
recorded files in ``tests/golden/``.

Each case in ``tests/golden/cases.json`` names its arguments (paths are
relative to the repository root), its exit code and its stdout file.  To
re-record after an intended output change, run each case through
``python -m isoprod`` from the repository root and write stdout to
``tests/golden/<name>.out``.  The ``help_*`` cases pin the ``--help`` text
of the group and of every subcommand as click's test runner prints it:
the program is named ``isoprod``, and the runner wraps at 80 columns,
where a terminal wraps at 78, so record them with
``CliRunner().invoke(main, args, prog_name="isoprod")``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from isoprod.__main__ import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    result = CliRunner().invoke(main, case["args"], prog_name="isoprod")
    assert result.exit_code == case["exit_code"]
    expected = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    assert result.stdout == expected
