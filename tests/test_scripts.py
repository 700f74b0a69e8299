"""Every experiment script must still import and parse its arguments.

The scripts import public names from ``treegate``; deleting or renaming one
of them breaks the script without failing any library test.  Each script
runs with ``--help`` in a fresh interpreter, which imports everything it
uses and exits before any study starts; the dpp sweep also runs once on a
tiny config.  Bad input to a study, a bad TREEGATE_THREADS or an output
path that cannot be written ends in a one-line argparse error, not a
traceback.
"""

from __future__ import annotations

import csv
import glob
import os
import subprocess
import sys

import pytest

from treegate import DppConfig, simulate_dpp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))


def run_script(script, *args, env=None):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **(env or {}))
    return subprocess.run(
        [sys.executable, script, *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=os.path.basename)
def test_script_help_runs(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


NO_DIR = "/nonexistent/x.csv"


@pytest.mark.parametrize(
    "script, args, env, message",
    [("run_weak_table.py", ["--replicates", "10"], {}, "replicates must be at least 100"),
     ("run_weak_table.py", ["--alpha", "2"], {}, "alpha must lie in [0, 1]"),
     ("run_weak_table.py", ["--out", NO_DIR], {}, f"{NO_DIR}: no such directory"),
     # a directory passes the up-front check; the write after the study fails
     ("run_weak_table.py", ["--replicates", "100", "--out", ROOT], {},
      f"{ROOT}: Is a directory"),
     ("run_strong_grid.py", ["--replicates", "10"], {}, "replicates must be at least 100"),
     ("run_strong_grid.py", ["--out", NO_DIR], {}, f"{NO_DIR}: no such directory"),
     ("run_dpp_sweep.py", ["--replicates", "10"], {}, "replicates must be at least 100"),
     ("run_dpp_sweep.py", ["--n-perms", "99"], {}, "n_perms must be at least 100"),
     ("run_dpp_sweep.py", ["--d", "0.2,inf"], {}, "d must be finite: inf"),
     ("run_dpp_sweep.py", ["--d", "0.2,x"], {},
      "argument --d: not a comma-separated list of numbers: '0.2,x'"),
     ("run_dpp_sweep.py", [], {"TREEGATE_THREADS": "abc"},
      "TREEGATE_THREADS is not an integer: 'abc'"),
     ("run_dpp_sweep.py", [], {"TREEGATE_THREADS": "0"},
      "TREEGATE_THREADS must be at least 1: '0'"),
     ("run_dpp_sweep.py", ["--out", NO_DIR], {}, f"{NO_DIR}: no such directory")],
    ids=["weak_replicates", "weak_alpha", "weak_no_out_dir", "weak_out_is_a_directory",
         "strong_replicates",
         "strong_no_out_dir", "dpp_replicates", "dpp_n_perms", "dpp_infinite_d",
         "dpp_d_not_a_number", "dpp_threads_not_a_number", "dpp_zero_threads",
         "dpp_no_out_dir"],
)
def test_bad_study_input_is_a_one_line_error(tmp_path, script, args, env, message):
    out = tmp_path / "table.csv"
    proc = run_script(os.path.join(ROOT, "scripts", script), "--out", str(out), *args, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error" in line]
    assert errors == [f"{script}: error: {message}"]
    assert not out.exists()


def test_dpp_sweep_writes_a_row_per_effect_and_method(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script(
        os.path.join(ROOT, "scripts", "run_dpp_sweep.py"),
        "--d", "0.3,0.9", "--replicates", "100", "--n-perms", "100", "--seed", "2",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    methods = ["td", "td_hommel", "td_bh", "td_adapt", "td_adapt_pruned", "bu_hommel"]
    assert [(r["d"], r["method"]) for r in rows] == [
        (d, m) for d in ("0.3", "0.9") for m in methods
    ]
    for r in rows:
        values = [float(v) for k, v in r.items() if k not in ("d", "method")]
        assert all(0.0 <= v <= 1.0 for v in values), r
    td = {r["d"]: float(r["leaf_detection"]) for r in rows if r["method"] == "td"}
    assert 0.0 < td["0.3"] < td["0.9"]
    for config in (DppConfig(d=d, replicates=100, n_perms=100, seed=2) for d in (0.3, 0.9)):
        summary = simulate_dpp(config)
        assert {
            r["method"]: float(r["leaf_detection"]) for r in rows if float(r["d"]) == config.d
        } == {m: round(ms.true_rejections_leaf / 9, 4) for m, ms in summary.methods.items()}
