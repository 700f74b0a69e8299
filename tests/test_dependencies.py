"""What importing the package loads, and what loads later.

treegate's runtime needs numpy, and three ``scipy.special`` ufuncs
(``ndtr`` and ``ndtri`` for the power model, ``chdtrc`` for the energy
statistic's ``chi2_approx``).  ``scipy.stats`` pulls in several hundred
modules, which made up most of the package's import time and memory, so an
import of it anywhere under ``src/`` must not come back.  ``scipy.special``
is most of what was left, so it is imported by the calls that evaluate it,
on first use; ``concurrent.futures``' process pool likewise only when a
study runs more than one worker.  ``numpy.random`` (about 9 ms of import)
is left to the first study or test that draws.  A fresh interpreter is
used because the test suite itself imports ``scipy.stats`` and
``scipy.special`` for its oracles.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

IMPORT_CHECK = """
import sys
import treegate, treegate.cli
for prefix in ("scipy.stats", "numpy.random"):
    print(sorted(name for name in sys.modules if name.startswith(prefix)))
"""

DEFERRED_CHECK = """
import io, sys
from contextlib import redirect_stdout

def loaded():
    return sorted(
        name for name in ("scipy.special", "concurrent.futures.process")
        if name in sys.modules
    )

import treegate, treegate.cli
print(loaded())

from treegate import sim
sim.simulate_weak(2, 3, replicates=100, seed=0)
with redirect_stdout(io.StringIO()):
    status = treegate.cli.main([
        "test", "tests/golden/trial.csv", "--variant", "unadjusted",
        "--statistic", "mean_diff", "--n-perms", "200", "--seed", "7",
    ])
assert status == 0, status
print(loaded())

from treegate.errorload import PowerModel, power_normal_approx
power_normal_approx(PowerModel(d_hat=0.3), 100.0)
print(loaded())
"""


def _run_fresh(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_package_import_leaves_out_scipy_stats():
    assert _run_fresh(IMPORT_CHECK)[0] == "[]"


def test_package_import_leaves_out_numpy_random():
    assert _run_fresh(IMPORT_CHECK)[1] == "[]"


def test_scipy_special_and_process_pool_load_on_first_use():
    after_import, after_untimed_runs, after_power = _run_fresh(DEFERRED_CHECK)
    assert after_import == "[]"
    # a weak study and an unadjusted test evaluate no scipy.special ufunc
    assert after_untimed_runs == "[]"
    # the power model still uses scipy's ufuncs: the import is deferred, not removed
    assert after_power == "['scipy.special']"
