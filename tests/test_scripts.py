"""Smoke test of the survey scripts under ``scripts/``: each runs to the end."""

import os
import subprocess
import sys

import pytest

import hog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(
    name for name in os.listdir(os.path.join(ROOT, "scripts")) if name.endswith(".py")
)


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_runs_without_a_traceback(name):
    src = os.path.dirname(os.path.dirname(hog.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
