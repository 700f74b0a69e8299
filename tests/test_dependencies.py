"""The package must import without ``scipy.stats``.

treegate's runtime needs only numpy and a few ``scipy.special`` ufuncs.
``scipy.stats`` pulls in several hundred modules, which made up most of
the package's import time and memory, so an import of it anywhere under
``src/`` must not come back.  A fresh interpreter is used because the test
suite itself imports ``scipy.stats`` for its oracles.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

IMPORT_CHECK = """
import sys
import treegate, treegate.cli
print(sorted(name for name in sys.modules if name.startswith("scipy.stats")))
"""


def test_package_import_leaves_out_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
