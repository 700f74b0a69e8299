"""Brute-force reference implementations, and the random inputs they are
compared on, used only by the test suite."""

from itertools import chain, combinations

import numpy as np
from hypothesis import strategies as st
from scipy.stats import rankdata

from treegate.permtest import DegenerateBlockError, energy_scores


def simes_pvalue(pvals) -> float:
    """Simes combination of a set of p-values: min over ranks of (m*p)/rank.

    Written with the multiplication first so values agree float-for-float
    with implementations computing the identical expression.
    """
    ps = sorted(pvals)
    m = len(ps)
    return min((m * p) / rank for rank, p in enumerate(ps, start=1))


def closed_testing_hommel(pvals) -> np.ndarray:
    """Exhaustive closed-testing adjusted p-values with Simes local tests.

    The adjusted p-value of hypothesis i is the largest Simes p-value over
    every non-empty subset containing i.  Exponential in len(pvals); keep
    inputs small.
    """
    pvals = list(map(float, pvals))
    m = len(pvals)
    idx = range(m)
    adjusted = [0.0] * m
    subsets = chain.from_iterable(combinations(idx, r) for r in range(1, m + 1))
    for subset in subsets:
        simes = simes_pvalue([pvals[i] for i in subset])
        for i in subset:
            if simes > adjusted[i]:
                adjusted[i] = simes
    return np.array(adjusted)


def bh_stepup_reject(pvals, alpha) -> set[int]:
    """Classic step-up rule: largest k with p_(k) <= alpha*k/m, reject 1..k."""
    order = np.argsort(pvals, kind="stable")
    m = len(pvals)
    k_star = 0
    for rank, i in enumerate(order, start=1):
        if pvals[i] <= alpha * rank / m:
            k_star = rank
    return {int(order[r]) for r in range(k_star)}


def block_statistic(blocks, spec, assignment=None):
    """Observed node statistic, written from its definition.

    In each block, the treated-minus-control difference of mean unit scores
    (the outcome, its within-block mid-ranks, or the six energy scores) is
    weighted by the block's share of the node's units.  ``assignment`` maps
    block ids to 0/1 vectors that replace the recorded treatment.  Returns
    a float for mean_diff and rank and a length-6 vector for energy.
    """
    n_total = sum(b.n for b in blocks)
    stat = 0.0
    for b in blocks:
        t = b.treatment if assignment is None else np.asarray(assignment[b.block_id])
        if not 0 < t.sum() < b.n:
            raise DegenerateBlockError([b.block_id])
        if spec.statistic == "mean_diff":
            scores = b.outcome
        elif spec.statistic == "rank":
            scores = rankdata(b.outcome)
        else:
            scores = energy_scores(b.outcome)
        diff = scores[t == 1].mean(axis=0) - scores[t == 0].mean(axis=0)
        stat = stat + (b.n / n_total) * diff
    return stat if spec.statistic == "energy" else float(stat)


class ReferenceTree:
    """A hypothesis tree as a dict of parent links, every quantity computed
    from its definition by walking the links.

    ``parent`` maps each node id to its parent id (None at the root), in
    node order; ``units`` gives each leaf's unit count.  ``is_null`` maps
    node ids to truth labels, or is None when unlabeled.
    """

    def __init__(self, parent, units, is_null=None):
        self.parent = dict(parent)
        self.units = dict(units)
        self.is_null = is_null
        self.root = next(nid for nid, p in self.parent.items() if p is None)

    def children(self, nid):
        return tuple(c for c, p in self.parent.items() if p == nid)

    def ancestors(self, nid):
        """Strict ancestors, root first."""
        out = []
        while self.parent[nid] is not None:
            nid = self.parent[nid]
            out.append(nid)
        return out[::-1]

    def depth(self, nid):
        return 1 + len(self.ancestors(nid))

    def n_units(self, nid):
        kids = self.children(nid)
        return self.units[nid] if not kids else sum(self.n_units(c) for c in kids)

    def leaves(self):
        return [nid for nid in self.parent if not self.children(nid)]

    def leaves_under(self, nid):
        kids = self.children(nid)
        return [nid] if not kids else [leaf for c in kids for leaf in self.leaves_under(c)]

    def label_truth(self, non_null_leaves):
        """A node is null iff no leaf under it is in ``non_null_leaves``."""
        wanted = set(non_null_leaves)
        labels = {nid: not wanted.intersection(self.leaves_under(nid)) for nid in self.parent}
        return ReferenceTree(self.parent, self.units, labels)

    def prune_below(self, stop_nodes):
        """Drop every node with a stop node among its strict ancestors; a
        surviving stop node keeps its unit total."""
        stops = set(stop_nodes)
        kept = [nid for nid in self.parent if not stops.intersection(self.ancestors(nid))]
        return ReferenceTree(
            {nid: self.parent[nid] for nid in kept},
            {nid: self.n_units(nid) for nid in kept},
            None if self.is_null is None else {nid: self.is_null[nid] for nid in kept},
        )

    def schedule_rows(self, model, power):
        """Per depth: (depth, n_nodes, theta_hat, exposure, error_load, alpha_adj).

        A node's reach is the product of theta over its strict ancestors,
        multiplied from the root down; depth sums add the depth's nodes in
        node order.
        """
        theta = {nid: power(model, self.n_units(nid)) for nid in self.parent}
        reach = {}
        for nid in self.parent:
            r = 1.0
            for a in self.ancestors(nid):
                r *= theta[a]
            reach[nid] = r

        sums = []
        for depth in range(1, max(map(self.depth, self.parent)) + 1):
            ids = [nid for nid in self.parent if self.depth(nid) == depth]
            sums.append((
                depth,
                len(ids),
                sum(theta[nid] for nid in ids) / len(ids),
                sum(reach[nid] for nid in ids),
                sum(reach[nid] * theta[nid] for nid in ids),
            ))
        alpha = model.alpha
        gating = sum(row[4] for row in sums) <= 1.0
        return [
            (*row, alpha if gating or row[0] == 1 or row[3] <= 0 else min(alpha, alpha / row[3]))
            for row in sums
        ]


def shuffled_trees(max_nodes=40, min_units=1):
    """Strategy for ``from_parents`` arguments of a random tree.

    Node i > 0 hangs under an earlier node, so the links form a tree; a
    permutation then lists the nodes, "n0" ... , in a shuffled order.
    """

    def arguments(drawn):
        links, order, units = drawn
        position = {node: pos for pos, node in enumerate(order)}
        groups = set(links)
        return (
            [f"n{node}" for node in order],
            [-1 if node == 0 else position[links[node - 1]] for node in order],
            [None if node in groups else units[node] for node in order],
        )

    return st.integers(1, max_nodes).flatmap(lambda n: st.tuples(
        st.tuples(*(st.integers(0, i - 1) for i in range(1, n))),
        st.permutations(range(n)),
        st.lists(st.integers(min_units, 9), min_size=n, max_size=n),
    )).map(arguments)
