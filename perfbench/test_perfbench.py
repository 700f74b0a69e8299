"""Self-test of the benchmark (about three minutes on two cores).

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

Runs every workload once untraced and once traced at a one-second budget
(each still makes its minimum number of calls), then checks that

* both runs pass their correctness checks and record the same output digest
  beside their metrics, so the tracer's wrappers do not change any result;
* every per-layer counter is non-zero on the workload meant to exercise it,
  and ``permtest.calls`` is zero where no permutation test runs;
* two traced runs at one seed give identical counts.
"""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))
SEED = 7

# per-layer metrics that must be non-zero on each workload
EXERCISED = {
    "dpp_rank": (
        "permtest.calls", "permtest.s", "permtest.call_ms_p50", "permtest.call_ms_ptail",
        "permtest.block_draws_per_block", "permtest.mc_draws", "permtest.draws_per_s",
        "tree.build_s", "tree.nodes_built", "tree.init_calls", "tree.label_s",
        "errorload.schedule_calls", "errorload.recompute_calls",
        "adjust.local_calls", "adjust.bu_calls", "adjust.bu_s", "adjust.mean_m",
        "gate.runs", "gate.self_s", "gate.nodes_tested", "gate.psource_calls",
        "gate.pcache_hit_ratio", "gate.bottomup_s", "gate.score_s",
        "sim.self_s", "sim.datagen_s", "setup.import_s",
    ),
    "strong_k4": (
        "tree.build_s", "tree.nodes_built", "tree.init_calls", "tree.prune_calls",
        "tree.prune_s", "tree.label_s", "errorload.schedule_calls", "errorload.schedule_s",
        "errorload.recompute_calls", "errorload.recompute_s", "adjust.local_calls",
        "adjust.local_s", "adjust.bu_calls", "adjust.bu_s", "adjust.mean_m", "gate.runs",
        "gate.self_s", "gate.nodes_tested", "gate.psource_calls", "gate.pcache_hit_ratio",
        "gate.bottomup_s", "gate.score_s", "sim.self_s", "setup.import_s",
    ),
    "weak_deep": (
        "tree.build_s", "tree.nodes_built", "tree.init_calls", "gate.runs", "gate.self_s",
        "gate.nodes_tested", "gate.psource_calls", "sim.self_s", "setup.import_s",
    ),
    "cli_energy": (
        "permtest.calls", "permtest.s", "permtest.exact_frac", "permtest.mc_draws",
        "permtest.block_draws_per_block", "permtest.draws_per_s",
        "tree.build_s", "tree.nodes_built", "tree.init_calls", "tree.prune_calls",
        "errorload.schedule_calls", "errorload.recompute_calls", "gate.runs",
        "gate.nodes_tested", "gate.psource_calls", "cli.read_s", "cli.rows", "cli.write_s",
        "setup.import_s",
    ),
}
COUNTS = (
    "permtest.calls", "permtest.block_draws_per_block", "permtest.exact_frac",
    "tree.nodes_built", "tree.init_calls", "gate.nodes_tested", "gate.psource_calls",
)


def bench(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    record = os.path.join(ROOT, "perfbench", "_out", f"result-{workload}-seed{SEED}-trace{trace}.json")
    with open(record, encoding="utf-8") as fh:
        kept = json.load(fh)
    assert kept["metrics"] == result["metrics"]
    return {k: v["value"] for k, v in result["metrics"].items()}, kept["digest"]


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in EXERCISED}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_gives_untraced_digest(workload, traced):
    _, digest = bench(workload, 0)
    assert traced[workload][1] == digest


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_counters_exercised(workload, traced):
    layers = traced[workload][0]
    idle = [name for name in EXERCISED[workload] if not layers[name] > 0]
    assert not idle, f"{workload}: zero counters {idle}"
    if workload in ("strong_k4", "weak_deep"):
        assert layers["permtest.calls"] == 0
    assert (layers["permtest.exact_frac"] > 0) == (workload == "cli_energy")


def test_every_layer_metric_is_exercised_somewhere():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    covered = set().union(*EXERCISED.values())
    unchecked = {"permtest.call_ms_ptail_pct", "permtest.call_samples", "trace.overhead_frac"}
    assert names - covered == unchecked


def test_counts_repeat_at_one_seed(traced):
    again, _ = bench("cli_energy", 1)
    first = traced["cli_energy"][0]
    assert {k: again[k] for k in COUNTS} == {k: first[k] for k in COUNTS}


def test_host_speed_correction_subtracts_and_scales():
    sys.path.insert(0, os.path.dirname(RUN))
    from hostspeed import REFERENCE_S, Sampler

    sampler = Sampler()
    sampler.samples = [REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    wall, cpu = sampler.correct(2, 1.0, 0.5)
    spent = 4 * REFERENCE_S
    assert wall == pytest.approx((1.0 - spent) / 2)
    assert cpu == pytest.approx((0.5 - spent) / 2)
    # a span without samples is scaled by the latest ones and loses nothing
    assert sampler.correct(4, 1.0) == pytest.approx([1.0 / 2])
