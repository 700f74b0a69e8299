"""Power model, error-load calculus, and adaptive alpha schedules.

The testing procedure only reaches a node after rejecting every ancestor,
so the chance of falsely rejecting at depth ``l`` is governed by two
quantities computed from estimated per-node rejection probabilities:

* exposure at depth ``l``: sum over the depth's nodes of the product of
  theta over strict ancestors (how many tests the gate is expected to run
  there), which is the denominator of the adjusted threshold; and
* error load ``G_l``: the same sum with each node's own theta included
  (how many rejections are expected there).  When the total error load is
  at most 1, testing everything at the nominal alpha already controls the
  family-wise error rate and no adjustment is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .tree import HypothesisTree


class ScheduleError(ValueError):
    """Inconsistent inputs to schedule computations."""


@dataclass(frozen=True, slots=True)
class PowerModel:
    """Planning power model for a two-arm equal-allocation comparison.

    ``d_hat`` is the standardized effect size assumed when estimating the
    chance that a node's test rejects.
    """

    d_hat: float
    alpha: float = 0.05

    def __post_init__(self):
        if not (np.isfinite(self.d_hat) and self.d_hat >= 0):
            raise ScheduleError(f"d_hat must be finite and non-negative: {self.d_hat}")
        if not 0.0 < self.alpha < 0.5:
            raise ScheduleError("alpha must lie in (0, 0.5)")


def power_normal_approx(model: PowerModel, n_total: float | np.ndarray) -> float | np.ndarray:
    """Normal-approximation power of a two-sided level-alpha test.

    With ``n_total`` units split equally between the two arms the test
    statistic has drift ``d_hat * sqrt(n_total / 4)``.  The result is
    floored at alpha so a null node never contributes less than its test
    size.  Takes one size (returns a float) or an array of sizes.
    """
    # scipy.special is most of the package's import cost; load it on first use.
    from scipy.special import ndtr, ndtri

    n = np.asarray(n_total, dtype=float)
    if (n < 2).any():
        raise ScheduleError("n_total must be at least 2")
    z = ndtri(1.0 - model.alpha / 2.0)
    theta = np.maximum(ndtr(model.d_hat * np.sqrt(n / 4.0) - z), model.alpha)
    return float(theta) if theta.ndim == 0 else theta


@dataclass(frozen=True, slots=True)
class DepthSchedule:
    depth: int
    n_nodes: int
    theta_hat: float      # mean estimated rejection probability at this depth
    exposure: float       # sum over nodes of prod(theta) over strict ancestors
    error_load: float     # exposure with each node's own theta included
    alpha_adj: float


@dataclass(frozen=True, slots=True)
class AlphaSchedule:
    """Per-depth thresholds for the gated procedure, and the power model
    they were computed from, whose alpha is the schedule's."""

    model: PowerModel
    depths: tuple[DepthSchedule, ...]

    @property
    def alpha(self) -> float:
        return self.model.alpha

    @property
    def total_error_load(self) -> float:
        return sum(row.error_load for row in self.depths)

    @property
    def gating_sufficient(self) -> bool:
        return self.total_error_load <= 1.0

    def alpha_at(self, depth: int) -> float:
        for row in self.depths:
            if row.depth == depth:
                return row.alpha_adj
        raise ScheduleError(f"schedule has no row for depth {depth}")

    def max_depth(self) -> int:
        return max(row.depth for row in self.depths)


def error_load_regular(
    k: int, L: int, thetas: Sequence[float]
) -> tuple[list[float], float]:
    """Per-level error loads for a regular k-ary tree.

    ``thetas[l-1]`` is the common rejection probability at depth ``l``
    (depth 1 is the root).  ``G_1`` equals the root theta and successive
    levels satisfy ``G_{l+1} = k * theta_{l+1} * G_l``.
    """
    if len(thetas) < L:
        raise ScheduleError("need one theta per level")
    for t in thetas[:L]:
        if not 0.0 < t <= 1.0:
            raise ScheduleError("thetas must lie in (0, 1]")
    loads = [float(thetas[0])]
    for depth in range(2, L + 1):
        loads.append(loads[-1] * k * float(thetas[depth - 1]))
    return loads, sum(loads)


def adaptive_schedule(tree: HypothesisTree, model: PowerModel) -> AlphaSchedule:
    """Adaptive per-depth thresholds for a hypothesis tree.

    Each node's theta comes from the power model at the node's unit count,
    and its reach is the product of theta over its strict ancestors.  When
    the total error load is at most 1 every depth keeps the nominal alpha;
    otherwise depth ``l`` is tested at ``alpha / exposure_l``, capped at
    alpha, with the root always at alpha.
    """
    return _schedule(tree, model, np.zeros(len(tree), dtype=bool))


def pruned_thresholds(
    tree: HypothesisTree, model: PowerModel, cut: np.ndarray, depth: int
) -> np.ndarray:
    """Per row of the bool (rows, nodes) mask ``cut``, the threshold at
    ``depth`` over the nodes with no strict ancestor cut.

    On a row that still reaches a node at ``depth``, this is bitwise
    ``recompute_after_pruning(schedule, tree, row, depth - 1).alpha_at(depth)``.
    """
    theta, reach = _theta_and_reach(tree, model)
    alive = tree.reachable(cut)
    total = sum(_level_sums(reach * theta, alive, tree.levels))  # in depth order, as _schedule adds
    (exposure,) = _level_sums(reach, alive, tree.levels[depth - 1 : depth])
    return _depth_threshold(model.alpha, total <= 1.0, depth, exposure)


def _theta_and_reach(tree: HypothesisTree, model: PowerModel) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the power model's theta at its unit count, and its reach:
    the product of theta over its strict ancestors, multiplied from the
    root down.  A node with fewer than 2 units is a ScheduleError that
    names the first one."""
    small = np.flatnonzero(tree.n_units < 2)
    if small.size:
        i = int(small[0])
        raise ScheduleError(
            f"node {tree.ids[i]!r} n_units {tree.n_units[i]} is below 2, the power model's minimum"
        )
    theta = power_normal_approx(model, tree.n_units)
    reach = np.ones(len(tree))
    for level in tree.levels[1:]:
        up = tree.parent[level]
        reach[level] = reach[up] * theta[up]
    return theta, reach


def _depth_threshold(alpha: float, gating, depth: int, exposure):
    """The adjusted threshold of one depth: ``alpha`` when the total error
    load is at most 1 (``gating``), at the root, or when nothing is exposed;
    otherwise ``alpha / exposure``, capped at alpha.

    Takes scalars, or arrays of ``gating`` and ``exposure`` with one entry
    per row, and returns an array of their shape.
    """
    keep = gating | (depth == 1) | (exposure <= 0)
    return np.where(keep, alpha, np.minimum(alpha, alpha / np.where(keep, 1.0, exposure)))


def _level_sums(values: np.ndarray, alive: np.ndarray, levels) -> list[np.ndarray]:
    """Per level, the sum of ``values`` over the level's alive nodes, for
    one bool mask ``alive`` over the nodes or for each row of a (rows,
    nodes) stack of them.

    Each sum adds the level's values left to right in index order, and a
    masked-out zero leaves a positive partial sum unchanged, so every sum is
    bitwise Python's ``sum`` over the alive values; numpy's pairwise
    ``np.sum`` rounds differently beyond eight terms.
    """
    return [
        np.add.accumulate(np.where(alive[..., level], values[level], 0.0), axis=-1)[..., -1]
        for level in levels
    ]


def _schedule(tree: HypothesisTree, model: PowerModel, cut: np.ndarray) -> AlphaSchedule:
    # Sums over the nodes with no cut strict ancestor; depths with none of
    # them get no row.
    theta, reach = _theta_and_reach(tree, model)
    alive = tree.reachable(cut)
    theta_sum, exposure, load = (
        [row_sum.item() for row_sum in _level_sums(values, alive, tree.levels)]
        for values in (theta, reach, reach * theta)
    )
    counts = [int(alive[level].sum()) for level in tree.levels]
    alpha = model.alpha
    gating = sum(load) <= 1.0
    rows = tuple(
        DepthSchedule(depth, n, t / n, e, g, float(_depth_threshold(alpha, gating, depth, e)))
        for depth, (n, t, e, g) in enumerate(zip(counts, theta_sum, exposure, load), start=1)
        if n
    )
    return AlphaSchedule(model, rows)


def recompute_after_pruning(
    schedule: AlphaSchedule,
    tree: HypothesisTree,
    cut: np.ndarray,
    depth_completed: int,
) -> AlphaSchedule:
    """Recompute the schedule over the nodes that survived a testing round.

    ``cut`` is a bool mask over the tree's node indices that marks the
    non-rejected nodes whose subtrees go untested; a node survives when no
    strict ancestor is cut.  The tree itself is not rebuilt.  Thresholds
    for depths at or above ``depth_completed`` are preserved (those tests
    already ran); deeper depths are recomputed on the surviving nodes, so
    their thresholds can only rise toward the alpha cap.
    """
    if depth_completed < 1:
        raise ScheduleError("depth_completed must be at least 1")
    cut = np.asarray(cut, dtype=bool)
    if cut.shape != (len(tree),):
        raise ScheduleError(f"cut mask of shape {cut.shape} does not match {len(tree)} nodes")
    fresh = _schedule(tree, schedule.model, cut)
    rows = tuple(
        replace(row, alpha_adj=schedule.alpha_at(row.depth))
        if row.depth <= depth_completed
        else row
        for row in fresh.depths
    )
    return replace(fresh, depths=rows)
