"""The benchmark tracer must still find every name it wraps.

``perfbench/tracer.py`` replaces functions by name at the modules that look
them up, so a refactor that renames or deletes one of them makes a
``perfbench/run.py --trace 1`` run stop with an ``AttributeError``, and a
call that skips the patched name silently drops out of the per-layer counts.
pytest collects only ``tests/``, so these tests run the tracer in a fresh
interpreter: once only installing it, once through small studies and
``treegate test`` runs that must reach every traced name and count what
the runs wrote.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_with_tracer(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    )
    env["TREEGATE_THREADS"] = "1"  # replicate workers would run untraced
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_tracer_installs_on_the_package():
    proc = _run_with_tracer("import tracer; tracer.install(tracer.Tracer())")
    assert proc.returncode == 0, proc.stderr


# Every traced name a study or ``treegate test`` run must pass through.  A
# call site that bypasses the module global the tracer patched leaves its
# count at zero.  The studies walk and score through ``gate.walk`` and
# ``gate.score_batch``, which the tracer does not wrap, so its
# ``gate.run_bottom_up``, ``gate.score``, ``errorload.recompute`` and
# ``adjust.bottom_up`` names have no call site left.
TRACED_CALLS = (
    "permtest.permutation_pvalue",
    "gate.run_topdown",
    "tree.label_truth",
    "tree.build",
    "errorload.schedule",
    "adjust.local",
    "sim.datagen",
    "cli.read_dataset",
    "cli.result_to_json",
)

TRACED_RUN = """
import json, os, tempfile
import tracer
from treegate import cli, sim

tr = tracer.Tracer()
tracer.install(tr)
sim.simulate_strong(sim.ScenarioConfig(
    k=2, L=3, units_per_leaf=64, null_proportion=0.5, d=0.3, replicates=100))
sim.simulate_dpp(sim.DppConfig(
    d=0.4, replicates=100, n_perms=100,
    methods=("td", "td_hommel", "td_adapt_pruned", "bu_hommel")))
tested = 0  # nodes the CLI runs' JSON marks tested
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "result.json")
    for flags in (["--variant", "adaptive_pruned", "--d-hat", "0.4"],
                  ["--variant", "local_bh", "--statistic", "mean_diff", "--seed", "7"]):
        status = cli.main([
            "test", os.path.join("tests", "golden", "trial.csv"), *flags, "--n-perms", "200",
            "--format", "json", "--out", out,
        ])
        assert status == 0
        with open(out) as fh:
            tested += sum(node["tested"] for node in json.load(fh)["nodes"])
print(json.dumps({"calls": dict(tr.calls), "counts": dict(tr.counts), "tested": tested}))
"""


@pytest.fixture(scope="module")
def traced():
    proc = _run_with_tracer(TRACED_RUN)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_runs_reach_every_call_site(traced):
    calls = traced["calls"]
    missing = [name for name in TRACED_CALLS if not calls.get(name)]
    assert not missing, calls


def test_traced_nodes_tested_is_what_the_cli_wrote(traced):
    # the studies walk through ``gate.walk``, so only the CLI runs count here
    assert traced["tested"] > 2  # the local_bh run goes below the root
    assert traced["counts"]["gate.nodes_tested"] == traced["tested"]
