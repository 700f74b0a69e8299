"""The four benchmark workloads: inputs from a seed, one call, and its check.

Each workload owns a tuple of input ``keys``.  ``call(key)`` runs one
workload call and returns its output as canonical text; ``check(key, text)``
returns the list of problems found in that output (empty when correct).
``strong_k4`` splits its replicates into chunks, one key and one study seed
per chunk, so that a run holds many calls; ``dpp_rank`` (whose studies need
at least 100 replicates) and ``weak_deep`` have one key; ``cli_energy``
cycles over several CLI ``--seed`` values on one generated CSV.

The package is looked up through its modules at call time
(``sim.simulate_dpp``) so that the tracer's wrappers, installed on those
module attributes, see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from treegate import cli, sim

DPP = dict(d=0.2, replicates=100, n_perms=500, statistic="rank")
# strong_k4: 2000 replicates per pass, as 10 calls of 200 with their own
# seeds; criterion 3 is checked on the pool.
STRONG = dict(
    k=4, L=4, units_per_leaf=32, d=0.15, null_proportion=0.8,
    placement="scattered", replicates=200,
)
STRONG_CHUNKS = 10
WEAK = dict(k=2, L=19, replicates=2000)

# cli_energy input: 8 sites x 5 cohorts x 6 blocks, block sizes cycling
# through CLI_SIZES (about 15k rows).  Site 1 carries an effect in every
# cohort, site 2 in its first two cohorts; every other block is null.
CLI_SITES, CLI_COHORTS, CLI_BLOCKS = 8, 5, 6
CLI_SIZES = (6, 8, 40, 60, 200)
CLI_MEAN, CLI_SD = 10.0, 3.0
CLI_EFFECT_SD = 1.0  # large enough that most seeds test the same 61 nodes
CLI_SEEDS_PER_RUN = 3
CLI_ARGS = (
    "--variant", "adaptive_pruned", "--statistic", "energy",
    "--n-perms", "1000", "--d-hat", "0.3", "--format", "json",
)

# acceptance criterion 3(b)/(c), the binding strong-control cell
STRONG_TD_MIN = 0.09
STRONG_ADAPT_MAX = 0.03
STRONG_PRUNED_MAX = 0.065
STRONG_RATIO_MIN = 20.0


def _canonical(summary) -> str:
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


def _nonfinite(prefix: str, fields: dict) -> list[str]:
    return [
        f"{prefix}{name}={value!r} is not finite"
        for name, value in fields.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]


def _check_study(text: str) -> list[str]:
    doc = json.loads(text)
    methods = doc.get("methods")
    if methods is None:  # WeakSummary
        problems = _nonfinite("", doc)
        if not 0.0 <= doc["fwer"] <= 1.0:
            problems.append(f"fwer={doc['fwer']} outside [0, 1]")
        return problems
    problems = []
    for name, ms in methods.items():
        problems += _nonfinite(f"{name}.", ms)
        for field in ("fwer_node", "fwer_leaf", "power_node", "power_leaf"):
            if not 0.0 <= ms[field] <= 1.0:
                problems.append(f"{name}.{field}={ms[field]} outside [0, 1]")
    problems += _nonfinite("params.", doc["params"])
    return problems


def _check_strong_pool(texts: list[str]) -> list[str]:
    """Criterion 3(b)/(c) on the mean over equal-sized study calls."""
    methods = [json.loads(t)["methods"] for t in texts]

    def pooled(method: str, field: str) -> float:
        return sum(m[method][field] for m in methods) / len(methods)

    problems = []
    td = pooled("td", "fwer_node")
    adapt = pooled("td_adapt", "fwer_node")
    pruned = pooled("td_adapt_pruned", "fwer_node")
    disc = pooled("td_adapt_pruned", "true_rejections_node")
    disc_bu = pooled("bu_hommel", "true_rejections_leaf")
    if td < STRONG_TD_MIN:
        problems.append(f"td fwer {td} < {STRONG_TD_MIN}")
    if adapt > STRONG_ADAPT_MAX:
        problems.append(f"td_adapt fwer {adapt} > {STRONG_ADAPT_MAX}")
    if pruned > STRONG_PRUNED_MAX:
        problems.append(f"td_adapt_pruned fwer {pruned} > {STRONG_PRUNED_MAX}")
    if disc < STRONG_RATIO_MIN * disc_bu:
        problems.append(f"discovery ratio {disc}/{disc_bu} < {STRONG_RATIO_MIN}")
    return problems


def _check_cli_json(text: str) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc.get("schema_version") != 1:
        problems.append(f"schema_version {doc.get('schema_version')!r} != 1")
    nodes = {n["id"]: n for n in doc["nodes"]}
    for n in doc["nodes"]:
        if not n["tested"]:
            continue
        if n["p"] is None or not 0.0 <= n["p"] <= 1.0:
            problems.append(f"node {n['id']}: p={n['p']!r} outside [0, 1]")
        parent = n["parent"]
        if parent is not None and not nodes[parent]["rejected"]:
            problems.append(f"node {n['id']} tested under non-rejected {parent}")
    if not any(n["tested"] for n in doc["nodes"]):
        problems.append("no node tested")
    return problems


def write_cli_csv(path: str, seed: int) -> int:
    """Write the cli_energy dataset and return its number of data rows."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC11]))
    lines = ["unit_id,block_id,treatment,outcome,site,cohort"]
    unit = 0
    block = 0
    for s in range(1, CLI_SITES + 1):
        for c in range(1, CLI_COHORTS + 1):
            effect = s == 1 or (s == 2 and c <= 2)
            for _ in range(CLI_BLOCKS):
                n = CLI_SIZES[block % len(CLI_SIZES)]
                block += 1
                treated = np.zeros(n, dtype=np.int8)
                treated[rng.permutation(n)[: n // 2]] = 1
                tau = CLI_EFFECT_SD * CLI_SD if effect else 0.0
                y = rng.normal(CLI_MEAN, CLI_SD, n) + tau * treated
                for t, v in zip(treated.tolist(), y.tolist()):
                    unit += 1
                    lines.append(f"u{unit},b{block:03d},{t},{v!r},S{s},Y{c}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return unit


class Workload:
    """One workload bound to its seed-derived inputs."""

    keys: tuple = (0,)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.notes: dict = {}

    def call(self, key) -> str:
        raise NotImplementedError

    def check(self, key, text: str) -> list[str]:
        return _check_study(text)


class DppRank(Workload):
    def call(self, key) -> str:
        return _canonical(sim.simulate_dpp(sim.DppConfig(seed=self.seed, **DPP)))


class StrongK4(Workload):
    keys = tuple(range(STRONG_CHUNKS))

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.outputs: dict = {}

    def call(self, key) -> str:
        chunk_seed = self.seed * STRONG_CHUNKS + key
        return _canonical(sim.simulate_strong(sim.ScenarioConfig(seed=chunk_seed, **STRONG)))

    def check(self, key, text: str) -> list[str]:
        """Each call's own summary, and criterion 3 on the pool once every
        chunk has an output."""
        problems = _check_study(text)
        pool_done = len(self.outputs) == len(self.keys)
        self.outputs.setdefault(key, text)
        if not pool_done and len(self.outputs) == len(self.keys):
            problems += _check_strong_pool([self.outputs[k] for k in self.keys])
        return problems


class WeakDeep(Workload):
    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        k, L = WEAK["k"], WEAK["L"]
        self.notes["tree_nodes"] = (k**L - 1) // (k - 1)

    def call(self, key) -> str:
        return _canonical(sim.simulate_weak(seed=self.seed, **WEAK))


class CliEnergy(Workload):
    keys = tuple(range(CLI_SEEDS_PER_RUN))

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.csv_path = os.path.join(workdir, "cli_energy.csv")
        self.out_path = os.path.join(workdir, "cli_energy.json")
        self.notes["csv_rows"] = write_cli_csv(self.csv_path, seed)

    def call(self, key) -> str:
        cli_seed = str(self.seed * CLI_SEEDS_PER_RUN + key)
        argv = ["test", self.csv_path, *CLI_ARGS, "--seed", cli_seed, "--out", self.out_path]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"treegate test exited with {code}")
        with open(self.out_path, encoding="utf-8") as fh:
            return fh.read()

    def check(self, key, text: str) -> list[str]:
        return _check_cli_json(text)


WORKLOADS = {
    "dpp_rank": DppRank,
    "strong_k4": StrongK4,
    "weak_deep": WeakDeep,
    "cli_energy": CliEnergy,
}
