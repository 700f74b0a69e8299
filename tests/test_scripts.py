"""Every experiment script must still import and parse its arguments.

The scripts import public names from ``treegate``; deleting or renaming one
of them breaks the script without failing any library test.  Each script
runs with ``--help`` in a fresh interpreter, which imports everything it
uses and exits before any study starts.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))


@pytest.mark.parametrize("script", SCRIPTS, ids=os.path.basename)
def test_script_help_runs(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, script, "--help"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
