"""Each narrative script in ``demos/`` runs to completion and prints.

The scripts run in a fresh interpreter in a temporary directory, so any
data file one writes by default lands there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert [path.name for path in DEMOS] == [
        "deterministic_fidelity_curves.py",
        "information_vs_damping.py",
        "protocol_walkthrough.py",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
