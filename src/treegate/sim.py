"""Monte Carlo studies of the gated procedure's operating characteristics.

Three study designs are provided:

* a weak-control study on all-null regular trees with lazily drawn uniform
  p-values, recording the family-wise error rate and testing effort;
* a strong-control study that draws per-node p-values directly (uniform at
  null nodes, Beta(a, 1) at non-null nodes with the shape calibrated to a
  planning power model) and compares gated variants against bottom-up
  baselines on the same draws; and
* a block-data study shaped like a 44-block five-site education trial,
  running real permutation tests on freshly generated outcomes each
  replicate.

Replicate ``r`` of a study seeds its generator from ``(seed, r)``, so runs
are reproducible and independent of any parallel scheduling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import gate, streams
from .errorload import PowerModel, ScheduleError, adaptive_schedule, power_normal_approx
from .gate import GateVariant, run_bottom_up_batch, run_topdown_batch, score_batch, walk
# unused here; the benchmark tracer binds these names on this module until its next change
from .gate import run_bottom_up, run_topdown, score_rejections, score_result  # noqa: F401
from .permtest import (
    Block,
    DegenerateBlockError,
    PermTestError,
    TestSpec,
    block_entropy,
    chunk_draws,
    is_exact,
    permutation_pvalue,
)
from .tree import HypothesisTree, build_from_paths, build_regular, check_regular_shape


class SimError(ValueError):
    """Invalid simulation configuration."""


TD_METHODS: dict[str, GateVariant] = {
    "td": gate.UNADJUSTED,
    "td_hommel": gate.LOCAL_HOMMEL,
    "td_bh": gate.LOCAL_BH,
    "td_adapt": gate.ADAPTIVE,
    "td_adapt_hommel": gate.ADAPTIVE_HOMMEL,
    "td_adapt_pruned": gate.ADAPTIVE_PRUNED,
}
BU_METHODS = ("bu_hommel", "bu_bh")

STRONG_DEFAULT_METHODS = (
    "td",
    "td_hommel",
    "td_adapt",
    "td_adapt_hommel",
    "td_adapt_pruned",
    "bu_hommel",
    "bu_bh",
)
DPP_DEFAULT_METHODS = (
    "td",
    "td_hommel",
    "td_bh",
    "td_adapt",
    "td_adapt_pruned",
    "bu_hommel",
)


def worker_count(n_tasks: int | None = None) -> int:
    """Worker cap from the TREEGATE_THREADS environment variable (an integer ≥ 1, default 1)."""
    raw = os.environ.get("TREEGATE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise SimError(f"TREEGATE_THREADS is not an integer: {raw!r}")
    if n < 1:
        raise SimError(f"TREEGATE_THREADS must be at least 1: {raw!r}")
    if n_tasks is not None:
        n = min(n, n_tasks)
    return n


def _indicator_se(p_hat: float, replicates: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / replicates)


def _check_methods(methods: Sequence[str]) -> None:
    unknown = [m for m in methods if m not in TD_METHODS and m not in BU_METHODS]
    if unknown:
        raise SimError(f"unknown methods: {unknown}")
    if not methods:
        raise SimError("empty method set")
    repeated = sorted({m for m in methods if methods.count(m) > 1}, key=methods.index)
    if repeated:
        raise SimError(f"repeated methods: {repeated}")


def _planning_model(config: ScenarioConfig | DppConfig) -> PowerModel:
    """The power model a study's adaptive schedule plans with: the
    config's ``d_hat`` if it gives one, else its true effect ``d``, whose
    error then names ``d``."""
    if config.d_hat is None and config.d is not None and config.d < 0:
        raise ScheduleError(f"d must be non-negative when no d_hat is given: {config.d}")
    d_plan = config.d_hat if config.d_hat is not None else (config.d or 0.0)
    return PowerModel(d_hat=d_plan, alpha=config.alpha)


def _params(config: ScenarioConfig | DppConfig, model: PowerModel, **derived) -> dict:
    """A study summary's params: every config field but ``methods``, with
    ``d_hat`` as the schedule plans with it, then the study's derived values."""
    params = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "methods"}
    return {**params, "d_hat": model.d_hat, **derived}


# ---------------------------------------------------------------------------
# weak control
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WeakSummary:
    """All-null operating characteristics of the unadjusted gate.

    ``mean_tests`` counts, per replicate, the root test plus one for each
    rejection below the root (each such rejection is what authorizes the
    next round of testing); ``mean_nodes_tested`` is the plain count of
    nodes whose p-value was drawn.
    """

    k: int
    L: int
    alpha: float
    replicates: int
    seed: int
    fwer: float
    fwer_se: float
    mean_tests: float
    mean_nodes_tested: float


def simulate_weak(
    k: int, L: int, alpha: float = 0.05, replicates: int = 10_000, seed: int = 0
) -> WeakSummary:
    """All-null study on a regular k-ary tree with L levels (root depth 1).

    P-values are independent uniforms drawn lazily, only for nodes whose
    ancestors were all rejected, so enormous trees cost almost nothing per
    replicate.  All replicates are walked at once.
    """
    if replicates < 100:
        raise SimError("replicates must be at least 100")
    if seed < 0:
        raise SimError("seed must be non-negative")
    check_regular_shape(k, L)
    gate.check_alpha(alpha)
    tree = build_regular(k, L)
    draws = _uniform_draws((seed, k, L), replicates)
    result = walk(tree, draws, replicates, gate.UNADJUSTED, alpha=alpha)
    rejections = np.bincount(result.row[result.rejected], minlength=replicates)
    root_rejections = int(np.count_nonzero(result.rejected & (result.node == tree.root_index)))
    fwer = int(np.count_nonzero(rejections)) / replicates
    return WeakSummary(
        k=k,
        L=L,
        alpha=alpha,
        replicates=replicates,
        seed=seed,
        fwer=fwer,
        fwer_se=_indicator_se(fwer, replicates),
        mean_tests=(replicates + int(rejections.sum()) - root_rejections) / replicates,
        mean_nodes_tested=result.nodes_tested / replicates,
    )


def _uniform_draws(key: tuple[int, ...], rows: int):
    """A source of independent uniform p-values for ``gate.walk`` on
    ``rows`` rows: row r draws from its own stream, seeded ``(*key, r)``,
    and a row's pairs take the stream's next uniforms in the order they are
    listed, as ``random()`` calls on ``np.random.default_rng(
    np.random.SeedSequence([*key, r]))`` would give them.

    Every row's PCG64 state is seeded once, in one batch (``streams``), and
    held in arrays indexed by row number.  ``gate.walk`` lists each depth's
    pairs in ascending row order, so a row's pairs are adjacent, and in one
    pass each pair's state is its row's jumped ahead by the pair's rank
    among them.  Pairs out of row order raise SimError."""
    # per row: state high, state low, inc high, inc low
    state = streams.pcg64_arrays([(*key, r) for r in range(rows)])

    def draw(row: np.ndarray, node: np.ndarray) -> np.ndarray:
        row = np.asarray(row, dtype=np.intp)
        if (row[1:] < row[:-1]).any():
            raise SimError("uniform draws need each call's pairs in ascending row order")
        first = np.flatnonzero(np.concatenate([[True], row[1:] != row[:-1]]))
        counts = np.diff(first, append=row.size)
        reps = row[first]
        steps = np.arange(1, row.size + 1) - np.repeat(first, counts)
        stream = np.repeat(np.arange(reps.size), counts)  # each pair's row among reps
        hi, lo = streams.advance(*state[:, reps], steps, row=stream)
        last = first + counts - 1  # each row's last pair leaves the row's state
        state[:2, reps] = hi[last], lo[last]
        return streams.uniforms(hi, lo)

    return draw


# ---------------------------------------------------------------------------
# strong control (p-value draws)
# ---------------------------------------------------------------------------


def calibrate_beta_shape(target_power: float, alpha: float) -> float:
    """Shape ``a`` such that a Beta(a, 1) p-value rejects at rate
    ``target_power`` when compared to ``alpha``: ``a = ln(power)/ln(alpha)``."""
    if not 0.0 < target_power < 1.0:
        raise SimError("target_power must lie strictly inside (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise SimError("alpha must lie strictly inside (0, 1)")
    return math.log(target_power) / math.log(alpha)


@dataclass(frozen=True, slots=True)
class MethodSummary:
    """Operating characteristics of one method across replicates."""

    method: str
    replicates: int
    fwer_node: float
    fwer_node_se: float
    fwer_leaf: float
    fwer_leaf_se: float
    power_node: float
    power_leaf: float
    true_rejections_node: float
    true_rejections_leaf: float
    false_rejection_prop_node: float
    false_rejection_prop_leaf: float
    mean_nodes_tested: float
    mean_leaves_tested: float


@dataclass(frozen=True)
class SimSummary:
    kind: str
    params: dict
    methods: dict[str, MethodSummary]


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One strong-control scenario on a regular tree.

    ``d`` drives both the Beta calibration of non-null p-values and, unless
    ``d_hat`` is given, the planning power model behind the adaptive
    schedule.  ``placement`` spreads the non-null leaves evenly across the
    tree ("scattered") or packs them under shared ancestors ("contiguous").
    ``internal_power`` selects how non-null internal nodes are calibrated:
    from the power model at the node's aggregate size ("model") or with the
    effect attenuated by the node's non-null leaf fraction ("diluted").
    """

    k: int
    L: int
    units_per_leaf: int
    null_proportion: float
    d: float | None = None
    alpha: float = 0.05
    replicates: int = 2000
    methods: tuple[str, ...] = STRONG_DEFAULT_METHODS
    seed: int = 0
    placement: str = "contiguous"
    internal_power: str = "model"
    d_hat: float | None = None

    def __post_init__(self):
        check_regular_shape(self.k, self.L, self.units_per_leaf)
        if self.units_per_leaf < 2:
            raise SimError(f"units_per_leaf must be at least 2: {self.units_per_leaf}")
        if not 0.0 <= self.null_proportion <= 1.0:
            raise SimError("null_proportion must lie in [0, 1]")
        if self.replicates < 100:
            raise SimError("replicates must be at least 100")
        if self.d is None and self.null_proportion < 1.0:
            raise SimError("an effect size d is required when non-null leaves exist")
        if self.d is not None and not math.isfinite(self.d):
            raise SimError(f"d must be finite: {self.d}")
        if self.d is not None and self.d < 0:
            raise SimError(f"d must be non-negative: {self.d}")
        if self.seed < 0:
            raise SimError("seed must be non-negative")
        if self.placement not in ("contiguous", "scattered"):
            raise SimError(f"unknown placement: {self.placement!r}")
        if self.internal_power not in ("model", "diluted"):
            raise SimError(f"unknown internal_power: {self.internal_power!r}")
        _check_methods(self.methods)
        _planning_model(self)


def _non_null_leaves(leaf_ids: Sequence[str], null_proportion: float, placement: str):
    n = len(leaf_ids)
    m = round((1.0 - null_proportion) * n)
    if m == 0:
        return []
    if placement == "contiguous":
        return list(leaf_ids[:m])
    return [leaf_ids[(i * n) // m] for i in range(m)]


def _beta_inverse_exponents(
    tree: HypothesisTree, config: ScenarioConfig, model: PowerModel
) -> np.ndarray:
    """Per-node exponent 1/a so that U**(1/a) draws the node's p-value.

    Null nodes keep exponent 1 (uniform).  Non-null nodes get the Beta
    shape calibrated at the nominal alpha to the power model evaluated at
    the node's aggregate unit count.
    """
    exponents = np.ones(len(tree))
    diluted = config.internal_power == "diluted"
    if diluted:
        leaves = tree.subtree_sum(tree.is_leaf).tolist()
        non_null_leaves = tree.subtree_sum(tree.is_leaf & ~tree.is_null).tolist()
    n_units = tree.n_units.tolist()
    for i in np.flatnonzero(~tree.is_null).tolist():
        d_gen = model.d_hat
        if diluted and not tree.is_leaf[i]:
            d_gen = model.d_hat * (non_null_leaves[i] / leaves[i])
        power = power_normal_approx(replace(model, d_hat=d_gen), n_units[i])
        a = calibrate_beta_shape(power, config.alpha) if power < 1.0 else 1e-12
        exponents[i] = 1.0 / a
    return exponents


# MethodSummary field -> the RunScore attribute whose per-replicate mean it is
_SCORE_FIELDS = {
    "fwer_node": "any_false_rejection_node",
    "fwer_leaf": "any_false_rejection_leaf",
    "power_node": "power_node",
    "power_leaf": "power_leaf",
    "true_rejections_node": "true_rejections_node",
    "true_rejections_leaf": "true_rejections_leaf",
    "false_rejection_prop_node": "false_rejection_prop_node",
    "false_rejection_prop_leaf": "false_rejection_prop_leaf",
    "mean_nodes_tested": "nodes_tested",
    "mean_leaves_tested": "leaves_tested",
}
_SCORE_KEYS = tuple(_SCORE_FIELDS)


def _add_scores(sums: dict, tree, P: np.ndarray, alpha: float, schedule) -> None:
    """Run every method of ``sums`` on the rows of the (replicates, nodes)
    p-value matrix ``P`` over the truth-labeled ``tree`` and add each row's
    scores to the method's sums, left to right in row order."""
    for method in sums:
        if method in TD_METHODS:
            result = run_topdown_batch(tree, P, TD_METHODS[method], alpha=alpha, schedule=schedule)
        else:
            result = run_bottom_up_batch(tree, P, method, alpha)
        scores = score_batch(result, tree)
        block = np.column_stack([scores[attr] for attr in _SCORE_FIELDS.values()])
        sums[method] = np.add.accumulate(np.vstack([sums[method], block]))[-1]


def _summaries(sums: dict, replicates: int) -> dict[str, MethodSummary]:
    """Per-method summaries from score sums, given per method in the order
    of ``_SCORE_FIELDS``."""
    out = {}
    for method, values in sums.items():
        means = {key: value / replicates for key, value in zip(_SCORE_KEYS, values.tolist())}
        out[method] = MethodSummary(
            method=method,
            replicates=replicates,
            fwer_node_se=_indicator_se(means["fwer_node"], replicates),
            fwer_leaf_se=_indicator_se(means["fwer_leaf"], replicates),
            **means,
        )
    return out


# Replicates per block of ``simulate_strong`` hold about this many node
# p-values, and per chunk of ``simulate_dpp`` about this many block draws,
# so a study's memory does not grow with its replicate count.
_BLOCK_ELEMENTS = 1 << 18


def simulate_strong(config: ScenarioConfig) -> SimSummary:
    """Run one p-value-draw scenario for every configured method.

    All top-down variants and the bottom-up baselines see the same p-value
    draws within a replicate, so method comparisons are paired.  Replicates
    run in blocks: a block's (replicates, nodes) p-value matrix is walked
    once per method, and score sums are added in replicate order.
    """
    tree = build_regular(config.k, config.L, config.units_per_leaf)
    non_null = _non_null_leaves(tree.leaves, config.null_proportion, config.placement)
    tree = tree.label_truth(non_null)
    model = _planning_model(config)
    schedule = adaptive_schedule(tree, model)
    # the data follow the true effect d; only the schedule plans with d_hat
    exponents = _beta_inverse_exponents(tree, config, replace(model, d_hat=config.d or 0.0))

    sums = {m: np.zeros(len(_SCORE_KEYS)) for m in config.methods}
    per_block = max(1, _BLOCK_ELEMENTS // len(tree))
    for start in range(0, config.replicates, per_block):
        reps = range(start, min(start + per_block, config.replicates))
        P = np.empty((len(reps), len(tree)))
        for row, rng in zip(P, streams.generators([(config.seed, rep) for rep in reps])):
            row[:] = rng.random(len(tree))
        P **= exponents
        _add_scores(sums, tree, P, config.alpha, schedule)

    params = _params(
        config, model, sum_error_load=schedule.total_error_load, n_non_null_leaves=len(non_null)
    )
    return SimSummary("strong", params, _summaries(sums, config.replicates))


# ---------------------------------------------------------------------------
# block-data study (44-block five-site layout)
# ---------------------------------------------------------------------------

# Cohort block counts per college: 44 blocks over five colleges.  The real
# study's exact cohort composition is not public, so this is a documented
# surrogate: each college runs three cohorts of at most four blocks, with
# block totals (9, 9, 9, 9, 8).  The first college's nine blocks are the
# non-null ones.
DPP_LAYOUT = ((4, 4, 1), (4, 4, 1), (4, 4, 1), (4, 4, 1), (4, 3, 1))
_CONTROL_MEAN, _CONTROL_SD = 10.0, 3.0


def dpp_design(students_per_block: int = 50) -> HypothesisTree:
    """The tree of ``DPP_LAYOUT`` with ``students_per_block`` students in
    every block: colleges ``C1``..``C5``, their cohorts ``C<c>/Y<y>``, and
    blocks ``B01``..``B44`` as the leaves, truth-labeled with the first
    college's blocks as the non-null ones."""
    rows = []
    for c, cohorts in enumerate(DPP_LAYOUT, start=1):
        for y, n_blocks in enumerate(cohorts, start=1):
            for _ in range(n_blocks):
                block_id = f"B{len(rows) + 1:02d}"
                rows.append((block_id, (f"C{c}", f"Y{y}", block_id), students_per_block))
    return build_from_paths(rows).label_truth(bid for bid, path, _ in rows if path[0] == "C1")


def generate_dpp_data(
    tree: HypothesisTree, d: float, seed: int, *, rep: int = 0
) -> tuple[HypothesisTree, list[Block], set[str]]:
    """Draw one dataset on a truth-labeled block tree such as ``dpp_design()``.

    Control potential outcomes are Normal(10, 3**2); each non-null leaf's
    block receives an additive treatment effect of ``3 * d``, each leaf's
    block has the leaf's ``n_units`` students, and treatment is assigned
    to exactly half of each block.  Returns the tree, the block data, and
    the set of truly non-null block ids.
    """
    if tree.is_null is None:
        raise SimError("generate_dpp_data needs a truth-labeled tree (see tree.label_truth)")
    rng = np.random.default_rng(np.random.SeedSequence([seed, rep, 0xDA7A]))
    tau = d * _CONTROL_SD
    sizes, nulls = tree.n_units[tree.is_leaf].tolist(), tree.is_null[tree.is_leaf].tolist()
    blocks = []
    for bid, n, null in zip(tree.leaves, sizes, nulls):
        y0 = rng.normal(_CONTROL_MEAN, _CONTROL_SD, n)
        y1 = y0 + (0.0 if null else tau)
        treatment = np.zeros(n, dtype=np.int8)
        treatment[rng.permutation(n)[: n // 2]] = 1
        blocks.append(Block(bid, treatment, np.where(treatment == 1, y1, y0)))
    return tree, blocks, {bid for bid, null in zip(tree.leaves, nulls) if not null}


def _test_spec(config: DppConfig) -> TestSpec:
    """The randomization test a dpp study runs at every node."""
    return TestSpec(
        statistic=config.statistic, sides=config.sides, n_perms=config.n_perms, seed=config.seed
    )


@dataclass(frozen=True, slots=True)
class DppConfig:
    """Replication settings for the 44-block study."""

    d: float
    replicates: int = 500
    alpha: float = 0.05
    seed: int = 0
    n_perms: int = 500
    statistic: str = "rank"
    sides: str = "two"
    methods: tuple[str, ...] = DPP_DEFAULT_METHODS
    d_hat: float | None = None
    students_per_block: int = 50

    def __post_init__(self):
        if self.replicates < 100:
            raise SimError("replicates must be at least 100")
        if not math.isfinite(self.d):
            raise SimError(f"d must be finite: {self.d}")
        if self.students_per_block < 2:
            raise SimError(f"students_per_block must be at least 2: {self.students_per_block}")
        _check_methods(self.methods)
        _planning_model(self)
        _test_spec(self)


def node_pvalues(
    tree: HypothesisTree, blocks: Sequence[Block], spec: TestSpec, prefix: str = ""
) -> np.ndarray:
    """Randomization p-value of every node of one dataset, in node-index
    order: the one-dataset row of ``_pvalue_matrix``.  Entry ``i`` equals
    ``permutation_pvalue(node_blocks, spec, prefix)`` for node ``i``.

    Every leaf takes exactly one block, the one with its id; any other
    block, a second block with one id, or a leaf without a block is a
    PermTestError that names it.
    """
    return _pvalue_matrix(tree, [blocks], spec, [prefix])[0]


def _block_leaves(leaf_index: dict[str, int], blocks: Sequence[Block]) -> list[int]:
    """The leaf of each block, in dataset order, each leaf taken once."""
    leaves, seen = [], set()
    for b in blocks:
        i = leaf_index.get(b.block_id)
        if i is None:
            raise PermTestError(f"block {b.block_id!r} is not a leaf of the tree")
        if i in seen:
            raise PermTestError(f"two blocks have the id {b.block_id!r}")
        seen.add(i)
        leaves.append(i)
    empty = [nid for nid, i in leaf_index.items() if i not in seen]
    if empty:
        raise PermTestError(f"no block for leaf {empty[0]!r}")
    return leaves


def _pvalue_matrix(
    tree: HypothesisTree, datasets: Sequence[Sequence[Block]], spec: TestSpec,
    prefixes: Sequence[str],
) -> np.ndarray:
    """Every node's randomization p-value in each of a chunk of datasets on
    ``tree``: a (datasets, nodes) matrix.  Dataset d's blocks draw from the
    streams keyed ``(spec.seed, prefixes[d], block_id)``, and its row equals
    ``node_pvalues(tree, datasets[d], spec, prefixes[d])``.

    Every dataset lists the blocks of the first, by id, in its order and
    with its shapes (a one-line PermTestError otherwise), so each node's
    mode is decided once, by ``is_exact``, which depends only on the
    shapes.  Nodes within ``spec.exact_cap`` are enumerated exactly,
    dataset by dataset.  The others are tested by Monte Carlo, a mode that
    is upward-closed (an ancestor holds a node's blocks, so at least its
    assignments), so every block position draws or none does.  One pass
    runs over the block positions, in dataset order.  Each position draws
    its rows once for the whole chunk (``chunk_draws``) and adds them into
    a running sum held by each Monte Carlo node on its path; a node's
    p-values are counted, and its sum dropped, when its last block position
    is in.  The blocks' streams are all seeded in one batch (``streams``).
    """
    leaf_index = dict(zip(tree.leaves, np.flatnonzero(tree.is_leaf).tolist()))
    leaves = _block_leaves(leaf_index, datasets[0])
    layout = [(b.block_id, b.n, b.n_treated) for b in datasets[0]]
    for d, blocks in enumerate(datasets[1:], start=1):
        if [(b.block_id, b.n, b.n_treated) for b in blocks] != layout:
            raise PermTestError(f"dataset {d} does not list dataset 0's blocks and shapes")
    parent = tree.parent.tolist()
    under: list[list[int]] = [[] for _ in range(len(tree))]  # each node's block positions
    paths = []  # per block position: its leaf, then the leaf's ancestors
    for j, i in enumerate(leaves):
        path = []
        while i >= 0:
            under[i].append(j)
            path.append(i)
            i = parent[i]
        paths.append(path)

    P = np.empty((len(datasets), len(tree)))
    sums: dict[int, np.ndarray | None] = {}  # Monte Carlo node -> its blocks' rows summed so far
    for i, positions in enumerate(under):
        try:
            exact = is_exact([datasets[0][j] for j in positions], spec)
        except DegenerateBlockError as exc:
            raise PermTestError(
                f"degenerate blocks under node {tree.ids[i]!r}: {exc.block_ids}"
            ) from None
        if exact:
            for d, (blocks, prefix) in enumerate(zip(datasets, prefixes)):
                node_blocks = [blocks[j] for j in positions]
                P[d, i] = permutation_pvalue(node_blocks, spec, prefix, exact=True)
        else:
            sums[i] = None
    if not sums:
        return P

    rngs = streams.generators([
        block_entropy(spec, prefix, blocks[j].block_id)
        for j in range(len(leaves)) for blocks, prefix in zip(datasets, prefixes)
    ])
    drawn = chunk_draws(list(zip(*datasets)), spec, (rng.bit_generator for rng in rngs))
    for j, (path, draws) in enumerate(zip(paths, drawn)):
        for i in path:
            if i in sums:
                sums[i] = draws if sums[i] is None else sums[i] + draws
                if under[i][-1] == j:  # the node's last block is in
                    node_blocks = [datasets[0][k] for k in under[i]]
                    P[:, i] = permutation_pvalue(node_blocks, spec, exact=False, draws=sums.pop(i))
    return P


def _dpp_pvalues(config: DppConfig, tree: HypothesisTree, rep_range) -> np.ndarray:
    """Every node's p-value in each of the given replicates, one row each,
    computed for chunks of replicates at once (``_pvalue_matrix``)."""
    spec = _test_spec(config)
    reps = list(rep_range)
    per_chunk = max(1, _BLOCK_ELEMENTS // (len(tree.leaves) * (spec.n_perms + 1)))
    P = np.empty((len(reps), len(tree)))
    for start in range(0, len(reps), per_chunk):
        chunk = reps[start : start + per_chunk]
        datasets = [generate_dpp_data(tree, config.d, config.seed, rep=rep)[1] for rep in chunk]
        P[start : start + len(chunk)] = _pvalue_matrix(
            tree, datasets, spec, [f"{rep}/" for rep in chunk]
        )
    return P


def simulate_dpp(config: DppConfig) -> SimSummary:
    """Run the 44-block study; honors TREEGATE_THREADS for replicate workers.

    The design's truth-labeled tree is built once and drives the data,
    the schedule, the walks and the scoring.  Workers compute the
    replicates' node p-values a chunk of replicates at a time
    (``_dpp_pvalues``), and the replicates are walked together once the
    rows are in.  Every method
    within a replicate shares one dataset and its p-values, so method
    comparisons are paired; results are identical for any chunk size and
    worker count.
    """
    tree = dpp_design(config.students_per_block)
    workers = worker_count(config.replicates)
    if workers <= 1:
        P = _dpp_pvalues(config, tree, range(config.replicates))
    else:
        # Imported here: it loads multiprocessing, which one-worker runs never use.
        from concurrent.futures import ProcessPoolExecutor

        chunks = np.array_split(np.arange(config.replicates), workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            P = np.vstack(list(
                pool.map(partial(_dpp_pvalues, config, tree), [c.tolist() for c in chunks])
            ))

    model = _planning_model(config)
    sums = {m: np.zeros(len(_SCORE_KEYS)) for m in config.methods}
    _add_scores(sums, tree, P, config.alpha, adaptive_schedule(tree, model))
    params = _params(config, model, blocks=len(tree.leaves))
    return SimSummary("dpp", params, _summaries(sums, config.replicates))
