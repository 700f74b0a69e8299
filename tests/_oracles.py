"""Brute-force reference implementations, and the random inputs they are
compared on, used only by the test suite."""

from itertools import chain, combinations

import numpy as np
from hypothesis import strategies as st
from scipy.stats import rankdata

from treegate import sim
from treegate.adjust import adjust_bh, adjust_hommel
from treegate.errorload import PowerModel, adaptive_schedule, recompute_after_pruning
from treegate.gate import Walk, run_bottom_up, score_rejections, score_result
from treegate.permtest import (
    DegenerateBlockError,
    TestSpec,
    _key_int,
    _score_matrix,
    _uint32_keys,
    _weighted_diff,
    energy_scores,
)
from treegate.tree import build_regular


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


def hommel_loop(pvals) -> np.ndarray:
    """Hommel adjusted p-values, one pass per subset size from m down to 2.

    For each size, the Simes minimum of the largest ``size`` sorted values
    raises those values to at least it, and every smaller value to at least
    ``min(size * p, Simes minimum)``.
    """
    arr = np.asarray(pvals, dtype=float)
    m = arr.size
    if m == 1:
        return arr.copy()
    order = np.argsort(arr, kind="stable")
    ps = arr[order]
    adjusted = ps.copy()
    for size in range(m, 1, -1):
        tail = ps[m - size :]
        cim = np.min((size * tail) / np.arange(1, size + 1))
        adjusted[m - size :] = np.maximum(adjusted[m - size :], cim)
        head = ps[: m - size]
        if head.size:
            adjusted[: m - size] = np.maximum(adjusted[: m - size], np.minimum(size * head, cim))
    out = np.empty(m)
    out[order] = np.minimum(adjusted, 1.0)
    return out


def topdown_loop(tree, p_source, variant, *, alpha=0.05, schedule=None) -> Walk:
    """The gated walk on one replicate, one node at a time, as a one-row
    walk whose pairs are in visit order.

    Sibling groups go in a list per depth, each group's children in index
    order.  A group of two or more is adjusted on its own; the pruning
    variant marks each non-rejected internal node in a cut mask and, after
    each depth, recomputes the schedule with ``recompute_after_pruning``.
    """
    local = {"hommel": adjust_hommel, "bh": adjust_bh, None: None}[variant.local_adjust]
    adaptive = variant.thresholds != "fixed"
    visits = []  # (node, p, p_adjusted, alpha_applied, rejected) per tested node
    ids, offsets, children = tree.ids, tree.child_offsets, tree.children
    sched = schedule
    cut = np.zeros(len(tree), dtype=bool)
    groups = [[tree.root_index]]
    depth = 1
    while groups:
        threshold = sched.alpha_at(depth) if adaptive else alpha
        next_groups = []
        for group in groups:
            raw = [float(p_source(ids[i])) for i in group]
            adjusted = raw if local is None or len(group) == 1 else local(raw).tolist()
            for i, p, pa in zip(group, raw, adjusted):
                rejected = pa <= threshold
                visits.append((i, p, pa, threshold, rejected))
                lo, hi = offsets[i], offsets[i + 1]
                if rejected and lo < hi:
                    next_groups.append(children[lo:hi].tolist())
                elif not rejected:
                    cut[i] = lo < hi
        if variant.thresholds == "pruned" and next_groups:
            sched = recompute_after_pruning(sched, tree, cut, depth)
        depth += 1
        groups = next_groups
    node, p, p_adjusted, alpha_applied, rejected = zip(*visits)
    return Walk(
        1, np.zeros(len(visits), dtype=np.int64), np.array(node), np.array(p),
        np.array(p_adjusted), np.array(alpha_applied), np.array(rejected),
    )


def outcomes(walk, tree) -> dict:
    """A one-row walk's ``(p, p_adjusted, alpha_applied, rejected)`` per
    tested node id, in the walk's order."""
    columns = (walk.p, walk.p_adjusted, walk.alpha_applied, walk.rejected)
    values = zip(*(c.tolist() for c in columns))
    return {tree.ids[i]: v for i, v in zip(walk.node.tolist(), values)}


def rejected_ids(walk, tree) -> list:
    """The ids of a one-row walk's rejected nodes, in the walk's order."""
    return [tree.ids[i] for i in walk.node[walk.rejected].tolist()]


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


def block_draws_unchunked(block, spec, stream_key=""):
    """``permtest.block_draws`` with every key drawn and sorted at once.

    Each tied row is drawn again from the same stream after all first keys,
    rows in order, as the chunked sampler does, so the two agree bitwise.
    """
    seq = np.random.SeedSequence([spec.seed, _key_int(stream_key), _key_int(block.block_id)])
    bitgen = np.random.PCG64(seq)
    scores = _score_matrix(spec.statistic, block.outcome)
    n, m = block.n, block.n_treated
    ind = np.empty((spec.n_perms + 1, n))
    keys = _uint32_keys(bitgen, spec.n_perms, n)
    bounds = np.sort(keys, axis=1)[:, m - 1 : m + 1]
    tied = np.flatnonzero(bounds[:, 0] == bounds[:, 1])
    while tied.size:
        keys[tied] = _uint32_keys(bitgen, tied.size, n)
        bounds[tied] = np.sort(keys[tied], axis=1)[:, m - 1 : m + 1]
        tied = tied[bounds[tied, 0] == bounds[tied, 1]]
    np.less_equal(keys, bounds[:, :1], out=ind[:-1])
    ind[-1] = block.treatment
    sums = ind @ scores
    return _weighted_diff(spec.statistic, n, m, sums, scores.sum(axis=0) - sums)


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


def _score_methods(methods, tree, labeled, p_of, alpha, schedule):
    """Per method, the score fields of one replicate: top-down methods walk
    ``topdown_loop`` on ``p_of``, and the bottom-up baselines run
    ``run_bottom_up`` on its leaves."""
    leaf_p = {nid: p_of(nid) for nid in tree.leaves}
    out = {}
    for method in methods:
        if method in sim.TD_METHODS:
            result = topdown_loop(
                tree, p_of, sim.TD_METHODS[method], alpha=alpha, schedule=schedule
            )
            score = score_result(result, labeled)
        else:
            rejected = run_bottom_up(leaf_p, method, alpha)
            score = score_rejections(rejected, labeled, len(leaf_p), len(leaf_p))
        out[method] = [float(getattr(score, attr)) for attr in sim._SCORE_FIELDS.values()]
    return out


def _pooled(methods, per_replicate, replicates):
    """Method summaries from per-replicate score fields, each added to its
    method's sums in replicate order."""
    sums = {m: [0.0] * len(sim._SCORE_FIELDS) for m in methods}
    for scores in per_replicate:
        for method, values in scores.items():
            sums[method] = [total + v for total, v in zip(sums[method], values)]
    return sim._summaries({m: np.array(s) for m, s in sums.items()}, replicates)


def simulate_weak_per_replicate(k, L, alpha, replicates, seed) -> "sim.WeakSummary":
    """``simulate_weak`` as one ``topdown_loop`` walk per replicate, each
    drawing ``rng.random()`` for a node when the walk reaches it."""
    tree = build_regular(k, L)
    hits, tests, tested = 0, 0, 0
    for rep in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k, L, rep]))
        result = topdown_loop(tree, lambda nid: rng.random(), sim.gate.UNADJUSTED, alpha=alpha)
        rejections = int(result.rejected.sum())
        hits += rejections > 0
        tests += 1 + rejections - bool(result.rejected[0])  # the root is pair 0
        tested += result.nodes_tested
    fwer = hits / replicates
    return sim.WeakSummary(
        k=k, L=L, alpha=alpha, replicates=replicates, seed=seed, fwer=fwer,
        fwer_se=sim._indicator_se(fwer, replicates), mean_tests=tests / replicates,
        mean_nodes_tested=tested / replicates,
    )


def simulate_strong_per_replicate(config) -> "sim.SimSummary":
    """``simulate_strong`` written as one scalar walk per replicate and
    method: each replicate draws its node p-values into a dict, which every
    method of ``_score_methods`` reads."""
    tree = build_regular(config.k, config.L, config.units_per_leaf)
    non_null = sim._non_null_leaves(tree.leaves, config.null_proportion, config.placement)
    labeled = tree.label_truth(non_null)
    d_plan = config.d_hat if config.d_hat is not None else (config.d or 0.0)
    model = PowerModel(d_hat=d_plan, alpha=config.alpha)
    schedule = adaptive_schedule(tree, model)
    truth = PowerModel(d_hat=config.d or 0.0, alpha=config.alpha)
    exponents = sim._beta_inverse_exponents(labeled, config, truth)

    per_replicate = []
    for rep in range(config.replicates):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, rep]))
        p_by_node = dict(zip(tree.ids, rng.random(len(tree)) ** exponents))
        per_replicate.append(_score_methods(
            config.methods, tree, labeled, p_by_node.__getitem__, config.alpha, schedule
        ))

    params = {
        "k": config.k,
        "L": config.L,
        "units_per_leaf": config.units_per_leaf,
        "d": config.d,
        "d_hat": d_plan,
        "null_proportion": config.null_proportion,
        "placement": config.placement,
        "internal_power": config.internal_power,
        "alpha": config.alpha,
        "replicates": config.replicates,
        "seed": config.seed,
        "sum_error_load": schedule.total_error_load,
        "n_non_null_leaves": len(non_null),
    }
    methods = _pooled(config.methods, per_replicate, config.replicates)
    return sim.SimSummary(kind="strong", params=params, methods=methods)


def simulate_dpp_per_replicate(config) -> "sim.SimSummary":
    """``simulate_dpp`` as one scalar walk per replicate and method: each
    replicate's dataset gets its own row of ``node_pvalues``, which every
    method of ``_score_methods`` reads by node id as it goes."""
    design = sim.dpp_design(config.students_per_block)
    spec = TestSpec(
        statistic=config.statistic, sides=config.sides, n_perms=config.n_perms, seed=config.seed
    )
    d_plan = config.d_hat if config.d_hat is not None else config.d
    per_replicate = []
    for rep in range(config.replicates):
        tree, blocks, non_null = sim.generate_dpp_data(design, config.d, config.seed, rep=rep)
        schedule = adaptive_schedule(tree, PowerModel(d_hat=d_plan, alpha=config.alpha))
        p_row = sim.node_pvalues(tree, blocks, spec, prefix=f"{rep}/")
        p_of = dict(zip(tree.ids, p_row.tolist())).__getitem__
        per_replicate.append(_score_methods(
            config.methods, tree, tree.label_truth(non_null), p_of, config.alpha, schedule
        ))
    params = {
        "d": config.d,
        "d_hat": d_plan,
        "alpha": config.alpha,
        "replicates": config.replicates,
        "seed": config.seed,
        "n_perms": config.n_perms,
        "statistic": config.statistic,
        "sides": config.sides,
        "blocks": len(blocks),
        "students_per_block": config.students_per_block,
    }
    methods = _pooled(config.methods, per_replicate, config.replicates)
    return sim.SimSummary(kind="dpp", params=params, methods=methods)
