"""Top-down gated testing over a hypothesis tree, plus bottom-up baselines.

The engine walks the tree breadth-first: the root is tested first and a
node's children are tested only when the node is rejected, so every
non-rejection prunes its whole branch.  Thresholds come either from a fixed
nominal alpha or from an adaptive per-depth schedule, optionally recomputed
over the surviving nodes after each completed depth; p-values within a
sibling group can additionally be adjusted before comparison.

Two engines run the same procedure.  ``run_topdown`` walks one replicate
and asks a p-value source only for the nodes it reaches, so lazy sources
(fresh draws on huge trees, permutation tests) cost only what is tested.
``run_topdown_batch`` walks a whole (replicates, nodes) matrix of p-values
depth by depth with boolean masks, and gives the same decisions row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import adjust
from .errorload import AlphaSchedule, depth_threshold, recompute_after_pruning, theta_and_reach
from .tree import HypothesisTree


class GateError(ValueError):
    """Invalid inputs to the testing engine."""


PSource = Callable[[str], float]


@dataclass(frozen=True, slots=True)
class GateVariant:
    """How thresholds are chosen and whether sibling groups are adjusted."""

    name: str
    thresholds: str = "fixed"          # "fixed" | "adaptive"
    prune: bool = False
    local_adjust: str | None = None    # None | "hommel" | "bh"


UNADJUSTED = GateVariant("unadjusted")
LOCAL_HOMMEL = GateVariant("local_hommel", local_adjust="hommel")
LOCAL_BH = GateVariant("local_bh", local_adjust="bh")
ADAPTIVE = GateVariant("adaptive", thresholds="adaptive")
ADAPTIVE_HOMMEL = GateVariant("adaptive_hommel", thresholds="adaptive", local_adjust="hommel")
ADAPTIVE_PRUNED = GateVariant("adaptive_pruned", thresholds="adaptive", prune=True)

VARIANTS: dict[str, GateVariant] = {
    v.name: v
    for v in (UNADJUSTED, LOCAL_HOMMEL, LOCAL_BH, ADAPTIVE, ADAPTIVE_HOMMEL, ADAPTIVE_PRUNED)
}

_LOCAL_ADJUSTERS = {"hommel": adjust.adjust_hommel, "bh": adjust.adjust_bh}
# the same adjustments on each row of a stack of equal-size groups
_ROW_ADJUSTERS = {"hommel": adjust.hommel_rows, "bh": adjust.bh_rows}
_BOTTOM_UP_ROWS = {"bu_hommel": adjust.hommel_rows, "bu_bh": adjust.bh_rows}


@dataclass(frozen=True, slots=True)
class NodeOutcome:
    node_id: str
    tested: bool
    p_value: float | None = None
    p_adjusted: float | None = None
    alpha_applied: float | None = None
    rejected: bool = False


@dataclass(frozen=True)
class ResultTree:
    """Outcomes of one gated run; only tested nodes carry entries."""

    variant: str
    alpha: float
    outcomes: dict[str, NodeOutcome]

    @property
    def nodes_tested(self) -> int:
        return len(self.outcomes)

    @property
    def total_rejections(self) -> int:
        return sum(o.rejected for o in self.outcomes.values())

    def outcome(self, node_id: str) -> NodeOutcome:
        return self.outcomes.get(node_id, NodeOutcome(node_id, tested=False))

    def rejected_ids(self) -> list[str]:
        return [nid for nid, o in self.outcomes.items() if o.rejected]


def _check_thresholds(
    tree: HypothesisTree, variant: GateVariant, alpha: float, schedule: AlphaSchedule | None
) -> bool:
    """Check the threshold arguments of a walk; return whether it is adaptive."""
    if not 0.0 <= alpha <= 1.0:
        raise GateError("alpha must lie in [0, 1]")
    adaptive = variant.thresholds == "adaptive"
    if adaptive:
        if schedule is None:
            raise GateError(f"variant {variant.name!r} requires an alpha schedule")
        if schedule.max_depth() < tree.max_depth:
            raise GateError("schedule is shorter than the tree is deep")
    return adaptive


def _validated_p(p_source: PSource, node_id: str) -> float:
    try:
        p = float(p_source(node_id))
    except KeyError:
        raise GateError(f"p-value source has no value for reachable node {node_id!r}")
    if not 0.0 <= p <= 1.0:  # NaN fails the comparison too
        raise GateError(f"p-value for node {node_id!r} outside [0, 1]: {p}")
    return p


def run_topdown(
    tree: HypothesisTree,
    p_source: PSource,
    variant: GateVariant = UNADJUSTED,
    *,
    alpha: float = 0.05,
    schedule: AlphaSchedule | None = None,
) -> ResultTree:
    """Run the gated procedure and return per-node outcomes.

    ``p_source`` maps a node id to its p-value and is consulted lazily, only
    for nodes whose every ancestor was rejected.  Adaptive variants require
    a schedule covering the tree's depth; the pruning variant recomputes it
    over the surviving nodes after each completed depth, marking the
    non-rejected internal nodes in a cut mask on the same tree.
    """
    adaptive = _check_thresholds(tree, variant, alpha, schedule)
    outcomes: dict[str, NodeOutcome] = {}
    tested: list[int] = []
    ids, offsets, children = tree.ids, tree.child_offsets, tree.children
    sched = schedule
    # non-rejected internal nodes, whose subtrees go untested
    cut = np.zeros(len(tree), dtype=bool) if variant.prune else None
    groups = [[tree.root_index]]  # sibling groups of node indices at this depth
    depth = 1
    while groups:
        threshold = sched.alpha_at(depth) if adaptive else alpha
        next_groups: list[list[int]] = []
        for group in groups:
            tested.extend(group)
            raw = [_validated_p(p_source, ids[i]) for i in group]
            if variant.local_adjust is None or len(group) == 1:
                adjusted = raw
            else:
                adjusted = [float(pa) for pa in _LOCAL_ADJUSTERS[variant.local_adjust](raw)]
            for i, p, pa in zip(group, raw, adjusted):
                nid = ids[i]
                rejected = bool(pa <= threshold)
                outcomes[nid] = NodeOutcome(nid, True, p, pa, threshold, rejected)
                lo, hi = offsets[i], offsets[i + 1]
                if lo == hi:
                    continue
                if rejected:
                    next_groups.append(children[lo:hi].tolist())
                elif cut is not None:
                    cut[i] = True
        if cut is not None and next_groups:
            sched = recompute_after_pruning(sched, tree, cut, depth)
        depth += 1
        groups = next_groups

    result = ResultTree(variant=variant.name, alpha=alpha, outcomes=outcomes)
    _check_gating(result, tree, tested)
    return result


def run_topdown_batch(
    tree: HypothesisTree,
    P: np.ndarray,
    variant: GateVariant = UNADJUSTED,
    *,
    alpha: float = 0.05,
    schedule: AlphaSchedule | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the gated procedure on every row of a p-value matrix at once.

    ``P[r, i]`` is replicate r's p-value at node index i; every entry must
    lie in [0, 1].  Returns ``(tested, rejected)``, bool arrays shaped like
    ``P``: row r holds the nodes ``run_topdown`` tests and rejects on the
    source ``lambda nid: P[r, tree.index_of(nid)]``, with the same
    thresholds.  The walk goes depth by depth; a depth's sibling groups of
    equal size are adjusted as one stacked call, and the pruning variant
    keeps one threshold per replicate, recomputed after each depth over the
    nodes that replicate can still reach.
    """
    adaptive = _check_thresholds(tree, variant, alpha, schedule)
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != len(tree):
        raise GateError(f"p-value matrix of shape {P.shape} does not match {len(tree)} nodes")
    if not ((P >= 0.0) & (P <= 1.0)).all():  # NaN fails the comparison too
        raise GateError("p-value matrix has entries outside [0, 1]")
    if variant.prune:
        if schedule.model is None:
            raise GateError("the pruning variant needs a schedule with a power model")
        theta, reach = theta_and_reach(tree, schedule.model)
        load = reach * theta
    adjuster = _ROW_ADJUSTERS[variant.local_adjust] if variant.local_adjust else None
    tested = np.zeros(P.shape, dtype=bool)
    rejected = np.zeros(P.shape, dtype=bool)
    levels, parent = tree.levels, tree.parent
    threshold = schedule.alpha_at(1) if adaptive else alpha
    tested[:, tree.root_index] = True
    for depth, level in enumerate(levels, start=1):
        if depth > 1:
            tested[:, level] = rejected[:, parent[level]]
            if not tested[:, level].any():
                break
            if variant.prune:  # one threshold per replicate
                threshold = _pruned_threshold(
                    tree, tested, depth, reach, load, schedule.model.alpha
                )[:, None]
            elif adaptive:
                threshold = schedule.alpha_at(depth)
        rejected[:, level] = tested[:, level] & (P[:, level] <= threshold)
        if adjuster is None or depth == 1:
            continue
        for parents, kids in _sibling_groups(tree, levels[depth - 2]):
            rows, group = np.nonzero(rejected[:, parents])
            kids = kids[group]
            limit = threshold if np.ndim(threshold) == 0 else threshold[rows]
            rejected[rows[:, None], kids] = adjuster(P[rows[:, None], kids]) <= limit

    below = np.flatnonzero(parent >= 0)
    if (tested[:, below] & ~rejected[:, parent[below]]).any():
        raise AssertionError("gating violated: a node was tested under a non-rejected parent")
    return tested, rejected


def _sibling_groups(tree: HypothesisTree, level: np.ndarray):
    """The child groups of the nodes in ``level`` with two or more children,
    one ``(parents, kids)`` pair per group size: ``kids[g]`` lists the
    children of ``parents[g]`` in index order."""
    lo = tree.child_offsets[level]
    size = tree.child_offsets[level + 1] - lo
    for s in np.unique(size[size > 1]).tolist():
        pick = size == s
        yield level[pick], tree.children[lo[pick][:, None] + np.arange(s)]


def _pruned_threshold(
    tree: HypothesisTree,
    tested: np.ndarray,
    depth: int,
    reach: np.ndarray,
    load: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Per replicate, the threshold at ``depth`` recomputed over the nodes
    it can still reach, as ``recompute_after_pruning`` gives it.

    Down to ``depth`` a node is reachable when it was tested; below, when
    its ancestor at ``depth`` was.  Sums run left to right over masked
    values, in the node order of ``errorload``'s Python sums, so every
    threshold is bitwise the scalar walk's.
    """
    levels, parent = tree.levels, tree.parent
    alive = tested.copy()
    total = 0.0
    for e, level in enumerate(levels, start=1):
        if e > depth:
            alive[:, level] = alive[:, parent[level]]
        total = total + _row_sums(alive[:, level], load[level])
    exposure = _row_sums(alive[:, levels[depth - 1]], reach[levels[depth - 1]])
    return depth_threshold(alpha, total <= 1.0, depth, exposure)


def _row_sums(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    # np.sum adds pairwise; accumulate adds left to right, and masked-out
    # zeros leave a positive partial sum unchanged
    return np.add.accumulate(np.where(mask, values, 0.0), axis=1)[:, -1]


def _check_gating(result: ResultTree, tree: HypothesisTree, tested: list[int]) -> None:
    # every tested non-root node must sit under a rejected parent
    rejected = set(result.rejected_ids())
    for i, parent in zip(tested, tree.parent[tested].tolist()):
        if parent >= 0 and tree.ids[parent] not in rejected:
            raise AssertionError(
                f"gating violated: {tree.ids[i]!r} tested under non-rejected parent"
            )


def run_bottom_up(
    leaf_pvalues: Mapping[str, float], method: str, alpha: float = 0.05
) -> set[str]:
    """Test all leaves at once with a global adjustment; return rejections."""
    if method not in ("bu_hommel", "bu_bh"):
        raise GateError(f"unknown bottom-up method: {method!r}")
    ids = list(leaf_pvalues)
    raw = np.array([leaf_pvalues[i] for i in ids], dtype=float)
    adjusted = (
        adjust.adjust_hommel(raw) if method == "bu_hommel" else adjust.adjust_bh(raw)
    )
    return {nid for nid, pa in zip(ids, adjusted) if pa <= alpha}


def run_bottom_up_batch(leaf_P: np.ndarray, method: str, alpha: float = 0.05) -> np.ndarray:
    """``run_bottom_up`` on each row of a (replicates, leaves) p-value
    matrix; returns the bool rejection matrix."""
    if method not in _BOTTOM_UP_ROWS:
        raise GateError(f"unknown bottom-up method: {method!r}")
    return _BOTTOM_UP_ROWS[method](leaf_P) <= alpha


@dataclass(frozen=True, slots=True)
class RunScore:
    """Error and discovery metrics of one run against a truth-labeled tree."""

    any_false_rejection_node: bool
    any_false_rejection_leaf: bool
    true_rejections_node: int
    true_rejections_leaf: int
    false_rejections_node: int
    false_rejections_leaf: int
    n_null_nodes: int
    n_non_null_nodes: int
    n_null_leaves: int
    n_non_null_leaves: int
    nodes_tested: int
    leaves_tested: int

    @property
    def power_node(self) -> float:
        return (
            self.true_rejections_node / self.n_non_null_nodes
            if self.n_non_null_nodes
            else 0.0
        )

    @property
    def power_leaf(self) -> float:
        return (
            self.true_rejections_leaf / self.n_non_null_leaves
            if self.n_non_null_leaves
            else 0.0
        )

    @property
    def false_rejection_prop_node(self) -> float:
        return (
            self.false_rejections_node / self.n_null_nodes if self.n_null_nodes else 0.0
        )

    @property
    def false_rejection_prop_leaf(self) -> float:
        return (
            self.false_rejections_leaf / self.n_null_leaves
            if self.n_null_leaves
            else 0.0
        )


def score_result(result: ResultTree, tree: HypothesisTree) -> RunScore:
    """Score one run; the tree must carry is_null labels."""
    tested = [tree.index_of(nid) for nid in result.outcomes]
    leaves_tested = int(np.count_nonzero(tree.is_leaf[tested]))
    return score_rejections(result.rejected_ids(), tree, result.nodes_tested, leaves_tested)


def score_rejections(
    rejected: Iterable[str],
    tree: HypothesisTree,
    nodes_tested: int = 0,
    leaves_tested: int = 0,
) -> RunScore:
    """Score an arbitrary rejection set (gate output or bottom-up baseline)."""
    null = tree.is_null
    if null is None:
        raise GateError("tree is not truth-labeled")
    hit = np.zeros(len(tree), dtype=bool)
    hit[[tree.index_of(nid) for nid in rejected]] = True
    # node count per (rejected, null, leaf) combination, indexed by its bits
    c = np.bincount(4 * hit + 2 * null + tree.is_leaf, minlength=8).tolist()
    fn, fl = c[6] + c[7], c[7]
    return RunScore(
        any_false_rejection_node=fn > 0,
        any_false_rejection_leaf=fl > 0,
        true_rejections_node=c[4] + c[5],
        true_rejections_leaf=c[5],
        false_rejections_node=fn,
        false_rejections_leaf=fl,
        n_null_nodes=c[2] + c[3] + c[6] + c[7],
        n_non_null_nodes=c[0] + c[1] + c[4] + c[5],
        n_null_leaves=c[3] + c[7],
        n_non_null_leaves=c[1] + c[5],
        nodes_tested=nodes_tested,
        leaves_tested=leaves_tested,
    )


def score_batch(
    rejected: np.ndarray, tree: HypothesisTree, tested: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """``score_rejections`` on each row of a (replicates, nodes) rejection
    matrix, as one float array per ``RunScore`` attribute and property.

    ``tested`` gives each row's tested nodes; None scores a bottom-up run,
    which tests every leaf.
    """
    null = tree.is_null
    if null is None:
        raise GateError("tree is not truth-labeled")
    leaf = tree.is_leaf

    def count(mask, of):
        return np.count_nonzero(mask & of, axis=1)

    fn, fl = count(rejected, null), count(rejected, null & leaf)
    tn, tl = count(rejected, ~null), count(rejected, ~null & leaf)
    n_null, n_null_leaves = int(null.sum()), int((null & leaf).sum())
    n_non_null, n_non_null_leaves = len(tree) - n_null, int(leaf.sum()) - n_null_leaves
    if tested is None:
        nodes_tested = leaves_tested = np.full(len(rejected), int(leaf.sum()))
    else:
        nodes_tested, leaves_tested = tested.sum(axis=1), count(tested, leaf)

    def share(hits, of):
        return hits / of if of else np.zeros(len(hits))

    return {
        name: np.asarray(value, dtype=float)
        for name, value in (
            ("any_false_rejection_node", fn > 0),
            ("any_false_rejection_leaf", fl > 0),
            ("true_rejections_node", tn),
            ("true_rejections_leaf", tl),
            ("false_rejections_node", fn),
            ("false_rejections_leaf", fl),
            ("power_node", share(tn, n_non_null)),
            ("power_leaf", share(tl, n_non_null_leaves)),
            ("false_rejection_prop_node", share(fn, n_null)),
            ("false_rejection_prop_leaf", share(fl, n_null_leaves)),
            ("nodes_tested", nodes_tested),
            ("leaves_tested", leaves_tested),
        )
    }
