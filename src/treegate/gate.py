"""Top-down gated testing over a hypothesis tree, plus bottom-up baselines.

The gate walks the tree breadth-first: the root is tested first and a
node's children are tested only when the node is rejected, so every
non-rejection prunes its whole branch.  Thresholds are a fixed alpha, an
adaptive per-depth schedule, or that schedule recomputed after each depth
over the nodes still reachable (pruned); p-values within a sibling group can
additionally be adjusted before comparison.

One engine, ``walk``, runs the procedure on any number of rows (replicates)
at once.  Its frontier is the sparse list of (row, node) pairs tested at
the current depth, and it asks a p-value source and a threshold source for
exactly those pairs, so a lazy source costs only what is tested.
``run_topdown`` is its one-row form over a per-node source, and
``run_topdown_batch`` its form over a dense (rows, nodes) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import adjust
from .errorload import AlphaSchedule, pruned_thresholds
# unused here; the benchmark tracer binds it on this module until its next change
from .errorload import recompute_after_pruning  # noqa: F401
from .tree import HypothesisTree, child_lists


class GateError(ValueError):
    """Invalid inputs to the testing engine."""


PSource = Callable[[str], float]
# (row indices, node indices) of the pairs tested at one depth -> their
# p-values, or their thresholds for a threshold source
PairSource = Callable[[np.ndarray, np.ndarray], "np.ndarray | Sequence[float]"]


# each adjusts every row of a stack of equal-size sibling groups
_LOCAL_ADJUSTERS = {"hommel": adjust.hommel_rows, "bh": adjust.bh_rows}
_THRESHOLDS = ("fixed", "adaptive", "pruned")


@dataclass(frozen=True, slots=True)
class GateVariant:
    """How thresholds are chosen and whether sibling groups are adjusted."""

    name: str
    thresholds: str = "fixed"          # "fixed" | "adaptive" | "pruned"
    local_adjust: str | None = None    # None | "hommel" | "bh"

    def __post_init__(self):
        if self.thresholds not in _THRESHOLDS:
            raise GateError(
                f"unknown thresholds {self.thresholds!r}; expected one of {_THRESHOLDS}"
            )
        if self.local_adjust not in (None, *_LOCAL_ADJUSTERS):
            raise GateError(
                f"unknown local_adjust {self.local_adjust!r}; expected None, 'hommel' or 'bh'"
            )


UNADJUSTED = GateVariant("unadjusted")
LOCAL_HOMMEL = GateVariant("local_hommel", local_adjust="hommel")
LOCAL_BH = GateVariant("local_bh", local_adjust="bh")
ADAPTIVE = GateVariant("adaptive", thresholds="adaptive")
ADAPTIVE_HOMMEL = GateVariant("adaptive_hommel", thresholds="adaptive", local_adjust="hommel")
ADAPTIVE_PRUNED = GateVariant("adaptive_pruned", thresholds="pruned")

VARIANTS: dict[str, GateVariant] = {
    v.name: v
    for v in (UNADJUSTED, LOCAL_HOMMEL, LOCAL_BH, ADAPTIVE, ADAPTIVE_HOMMEL, ADAPTIVE_PRUNED)
}

# each decides every row of a (rows, leaves) matrix at level alpha at once
_BOTTOM_UP_DECISIONS = {
    "bu_hommel": adjust.hommel_rejections,
    "bu_bh": adjust.bh_rejections,
}


@dataclass(frozen=True)
class Walk:
    """Every (row, node) pair a run over ``rows`` rows tested.

    Pair j is row ``row[j]``'s test of node index ``node[j]``, with its
    p-value ``p[j]``, its value after sibling-group adjustment
    ``p_adjusted[j]``, the threshold ``alpha_applied[j]`` and the decision
    ``rejected[j]``.  A gated walk lists its pairs depth by depth; a
    depth's pairs come in ascending row order, and each row's pairs in the
    order a one-row walk tests them.  A bottom-up walk records decisions
    only: its ``p_adjusted`` is NaN.
    """

    rows: int
    row: np.ndarray
    node: np.ndarray
    p: np.ndarray
    p_adjusted: np.ndarray
    alpha_applied: np.ndarray
    rejected: np.ndarray

    @property
    def nodes_tested(self) -> int:
        """The pairs tested, over all rows."""
        return self.row.size


def check_alpha(alpha: float) -> None:
    """Raise GateError unless ``alpha`` lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise GateError("alpha must lie in [0, 1]")


def _threshold_source(
    tree: HypothesisTree,
    variant: GateVariant,
    alpha: float,
    schedule: AlphaSchedule | None,
    rows: int,
) -> PairSource:
    """Check a walk's threshold arguments and return its threshold source,
    which maps the (row, node) pairs of one depth to their thresholds."""
    check_alpha(alpha)
    if variant.thresholds == "fixed":
        return lambda row, node: np.full(row.size, alpha)
    if schedule is None:
        raise GateError(f"variant {variant.name!r} requires an alpha schedule")
    if schedule.alpha != alpha:
        raise GateError(f"schedule is built at alpha {schedule.alpha}, the walk runs at {alpha}")
    if schedule.max_depth() < tree.max_depth:
        raise GateError("schedule is shorter than the tree is deep")
    by_depth = np.array([schedule.alpha_at(d) for d in range(1, tree.max_depth + 1)])
    if variant.thresholds == "adaptive":
        return lambda row, node: by_depth[tree.depth[node] - 1]
    # the tested nodes not rejected, a walk's one dense (rows, nodes) array;
    # a depth's pairs are the children of the previous depth's rejections
    cut = np.zeros((rows, len(tree)), dtype=bool)
    above = None  # the previous depth's pairs

    def pruned(row, node):
        nonlocal above
        if above is None:  # the root
            above = row, node
            return by_depth[tree.depth[node] - 1]
        cut[above] = True
        cut[row, tree.parent[node]] = False  # the rejections above
        above = row, node
        return pruned_thresholds(tree, schedule.model, cut, int(tree.depth[node[0]]))[row]

    return pruned


def walk(
    tree: HypothesisTree,
    source: PairSource,
    rows: int,
    variant: GateVariant = UNADJUSTED,
    *,
    alpha: float = 0.05,
    schedule: AlphaSchedule | None = None,
) -> Walk:
    """Run the gated procedure on ``rows`` rows at once.

    At each depth ``source(row, node)`` gets two equal-length index arrays,
    the pairs tested there, and returns their p-values, each in [0, 1].
    Within a row, a depth's pairs come in sibling groups, each group's
    children in index order, following their parents' order.  The sibling
    groups of one size are adjusted by one call to the row kernel.  The
    pairs' thresholds come from one source: adaptive and pruned variants
    require a schedule built at ``alpha`` and covering the tree's depth.
    """
    threshold_of = _threshold_source(tree, variant, alpha, schedule, rows)
    row = np.arange(rows)
    node = np.full(rows, tree.root_index)
    size = np.ones(rows, dtype=np.int64)  # sibling group sizes, in frontier order
    columns = []
    while True:  # once even on zero rows, so every column has an array
        p = np.asarray(source(row, node), dtype=float)
        outside = ~((p >= 0.0) & (p <= 1.0))  # NaN fails the comparison too
        if outside.any():
            j = int(outside.argmax())
            raise GateError(f"p-value for node {tree.ids[node[j]]!r} outside [0, 1]: {p[j]}")
        threshold = threshold_of(row, node)
        adjusted = p.copy()
        if variant.local_adjust is not None:
            start = np.cumsum(size) - size
            for s in np.unique(size[size > 1]).tolist():
                # the groups of s siblings, stacked as the rows of one call
                at = start[size == s][:, None] + np.arange(s)
                adjusted[at] = _LOCAL_ADJUSTERS[variant.local_adjust](p[at])
        rejected = adjusted <= threshold
        columns.append((row, node, p, adjusted, threshold, rejected))

        node, size = child_lists(tree.child_offsets, tree.children, node[rejected])
        row = np.repeat(row[rejected], size)
        size = size[size > 0]
        if not row.size:
            return Walk(rows, *map(np.concatenate, zip(*columns)))


def run_topdown(
    tree: HypothesisTree,
    p_source: PSource,
    variant: GateVariant = UNADJUSTED,
    *,
    alpha: float = 0.05,
    schedule: AlphaSchedule | None = None,
) -> Walk:
    """Run the gated procedure on one replicate and return its one-row walk.

    ``p_source`` maps a node id to its p-value and is consulted lazily, only
    for nodes whose every ancestor was rejected.  This is ``walk`` on one
    row.
    """
    ids = tree.ids

    def one_row(_, node):
        out = []
        for i in node.tolist():
            try:
                out.append(float(p_source(ids[i])))
            except KeyError:
                raise GateError(
                    f"p-value source has no value for reachable node {ids[i]!r}"
                ) from None
        return out

    return walk(tree, one_row, 1, variant, alpha=alpha, schedule=schedule)


def _dense(tree: HypothesisTree, P) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != len(tree):
        raise GateError(f"p-value matrix of shape {P.shape} does not match {len(tree)} nodes")
    if not ((P >= 0.0) & (P <= 1.0)).all():  # NaN fails the comparison too
        raise GateError("p-value matrix has entries outside [0, 1]")
    return P


def run_topdown_batch(
    tree: HypothesisTree,
    P: np.ndarray,
    variant: GateVariant = UNADJUSTED,
    *,
    alpha: float = 0.05,
    schedule: AlphaSchedule | None = None,
) -> Walk:
    """``walk`` on every row of a p-value matrix: ``P[r, i]`` is row r's
    p-value at node index i, and every entry must lie in [0, 1]."""
    P = _dense(tree, P)
    return walk(
        tree, lambda row, node: P[row, node], len(P), variant, alpha=alpha, schedule=schedule
    )


def run_bottom_up(
    leaf_pvalues: Mapping[str, float], method: str, alpha: float = 0.05
) -> set[str]:
    """Test all leaves at once with a global adjustment; return rejections."""
    if method not in _BOTTOM_UP_DECISIONS:
        raise GateError(f"unknown bottom-up method: {method!r}")
    check_alpha(alpha)
    ids = list(leaf_pvalues)
    raw = np.array([leaf_pvalues[i] for i in ids], dtype=float)
    adjusted = (
        adjust.adjust_hommel(raw) if method == "bu_hommel" else adjust.adjust_bh(raw)
    )
    return {nid for nid, pa in zip(ids, adjusted) if pa <= alpha}


def run_bottom_up_batch(
    tree: HypothesisTree, P: np.ndarray, method: str, alpha: float = 0.05
) -> Walk:
    """``run_bottom_up`` on the leaves of each row of a (rows, nodes)
    p-value matrix, as a walk that tests every leaf of every row.  Each
    method's decisions come from one kernel at level ``alpha``, so the
    walk's ``p_adjusted`` is NaN."""
    if method not in _BOTTOM_UP_DECISIONS:
        raise GateError(f"unknown bottom-up method: {method!r}")
    check_alpha(alpha)
    leaves = np.flatnonzero(tree.is_leaf)
    p = _dense(tree, P)[:, leaves]
    rejected = _BOTTOM_UP_DECISIONS[method](p, alpha)
    row, column = np.indices(p.shape).reshape(2, -1)
    return Walk(
        len(p), row, leaves[column], p.ravel(), np.full(p.size, np.nan),
        np.full(p.size, float(alpha)), rejected.ravel(),
    )


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


def score_result(result: Walk, tree: HypothesisTree) -> RunScore:
    """Score a one-row walk; the tree must carry is_null labels."""
    if result.rows != 1:
        raise GateError(f"score_result scores one row, not {result.rows}")
    rejected = [tree.ids[i] for i in result.node[result.rejected].tolist()]
    leaves_tested = int(np.count_nonzero(tree.is_leaf[result.node]))
    return score_rejections(rejected, tree, result.nodes_tested, leaves_tested)


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


def score_batch(walk: Walk, tree: HypothesisTree) -> dict[str, np.ndarray]:
    """``score_rejections`` on each row of a walk, as one float array per
    ``RunScore`` attribute and property; a row's tested nodes are its
    pairs."""
    null = tree.is_null
    if null is None:
        raise GateError("tree is not truth-labeled")
    leaf = tree.is_leaf
    hit, at_null, at_leaf = walk.rejected, null[walk.node], leaf[walk.node]

    def count(mask):
        return np.bincount(walk.row[mask], minlength=walk.rows)

    fn, fl = count(hit & at_null), count(hit & at_null & at_leaf)
    tn, tl = count(hit & ~at_null), count(hit & ~at_null & at_leaf)
    n_null, n_null_leaves = int(null.sum()), int((null & leaf).sum())
    n_non_null, n_non_null_leaves = len(tree) - n_null, int(leaf.sum()) - n_null_leaves

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
            ("nodes_tested", np.bincount(walk.row, minlength=walk.rows)),
            ("leaves_tested", count(at_leaf)),
        )
    }
