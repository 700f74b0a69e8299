"""README's library sketch must run against the package as it is.

The sketch names public functions, variants and arguments; a rename or an
API change that leaves it stale fails no library test.  This test runs the
sketch's ``python`` block in a fresh interpreter, with the ``p_source`` the
text around it describes: any callable from a node id to a p-value.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _library_sketch() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    match = re.search(r"^## Library sketch\n+```python\n(.*?)^```$", readme, re.M | re.S)
    assert match, "README has no python block under '## Library sketch'"
    return match.group(1)


def test_library_sketch_runs():
    code = "p_source = lambda nid: 0.01\n" + _library_sketch()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
