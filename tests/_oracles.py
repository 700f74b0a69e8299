"""Brute-force reference implementations used only by the test suite."""

from itertools import chain, combinations

import numpy as np
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
