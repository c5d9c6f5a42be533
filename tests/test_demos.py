"""Smoke test: every script under demos/ runs to completion.

The demos iterate event schedules, pass ``schedule=`` to ``build_reeb`` and
write their outputs under ./out/, so each runs in its own temporary working
directory.
"""

import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), MPLBACKEND="Agg")
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
