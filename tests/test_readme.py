"""README's library sketch and migration list must match the package as it is.

The sketch names public functions, variants and arguments; a rename or an
API change that leaves it stale fails no library test.  This test runs the
sketch's ``python`` block in a fresh interpreter, with the ``p_source`` the
text around it describes: any callable from a node id to a p-value.  The
"Removed names" list must name only what the package no longer has.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import treegate

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


def _removed_names() -> list[str]:
    """Every backticked name before a bullet's colon under "Removed names",
    without call forms and without a leading ``treegate.``."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    heading = "Removed names, each with what replaces it:"
    match = re.search(rf"^{heading}\n\n(.*?)\n\n", readme, re.M | re.S)
    assert match, "README has no 'Removed names' list"
    names = []
    for bullet in re.split(r"^- ", match.group(1), flags=re.M)[1:]:
        head = bullet.split(":", 1)[0]
        names += [
            name.removeprefix("treegate.")
            for name in re.findall(r"`([^`]+)`", head)
            if "(" not in name
        ]
    return names


def _resolves(root, dotted: str) -> bool:
    obj = root
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_removed_names_are_gone():
    names = _removed_names()
    assert {"HypothesisTree.node", "DppDesign"} <= set(names)
    modules = [treegate] + [
        importlib.import_module(f"treegate.{info.name}")
        for info in pkgutil.iter_modules(treegate.__path__)
    ]
    still_there = [
        f"{module.__name__}.{name}"
        for name in names
        for module in modules
        if _resolves(module, name)
    ]
    assert still_there == []
