"""Top-down gated testing over a hypothesis tree, plus bottom-up baselines.

The engine walks the tree breadth-first: the root is tested first and a
node's children are tested only when the node is rejected, so every
non-rejection prunes its whole branch.  Thresholds come either from a fixed
nominal alpha or from an adaptive per-depth schedule, optionally recomputed
over the surviving nodes after each completed depth; p-values within a
sibling group can additionally be adjusted before comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import adjust
from .errorload import AlphaSchedule, recompute_after_pruning
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
    if not 0.0 <= alpha <= 1.0:
        raise GateError("alpha must lie in [0, 1]")
    adaptive = variant.thresholds == "adaptive"
    if adaptive:
        if schedule is None:
            raise GateError(f"variant {variant.name!r} requires an alpha schedule")
        if schedule.max_depth() < tree.max_depth:
            raise GateError("schedule is shorter than the tree is deep")

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
