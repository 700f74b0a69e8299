"""The benchmark tracer must still find every name it wraps.

``perfbench/tracer.py`` replaces functions by name at the modules that look
them up, so a refactor that renames or deletes one of them makes a
``perfbench/run.py --trace 1`` run stop with an ``AttributeError``.  pytest
collects only ``tests/``, so this test runs the tracer's install step in a
fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_the_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
