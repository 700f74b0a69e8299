"""Randomization tests for block-randomized data.

Treatment labels are re-drawn within blocks, which is exactly the null
randomization distribution, so the resulting p-values have guaranteed size
control without distributional assumptions.  Three statistic families are
supported: block-aligned mean difference, the same aggregation on
within-block ranks, and a six-score omnibus ("energy") statistic combined
through a quadratic form against its permutation covariance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator, Sequence

import numpy as np

STATISTICS = ("mean_diff", "rank", "energy")

# Keys drawn and sorted at once by ``block_draws``: a block's Monte Carlo
# draws take a few temporaries of this many keys, never n_perms * n.
_KEY_CHUNK = 1 << 15

# Guide-table buckets per treated rank sum (``_rank_sum_null``): about one
# uniform in this many falls in a bucket that needs a binary search.
_GUIDE = 16


class PermTestError(ValueError):
    """Invalid permutation-test inputs."""


class DegenerateBlockError(PermTestError):
    """A block has no treated or no control units."""

    def __init__(self, block_ids):
        self.block_ids = list(block_ids)
        super().__init__(f"blocks without both arms: {self.block_ids}")


@dataclass(frozen=True)
class Block:
    """One experimental block: binary treatment plus a real outcome.

    ``n_treated``, the number of treated units, is set when the block is built.
    """

    block_id: str
    treatment: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.treatment)
        y = np.asarray(self.outcome, dtype=float)
        if t.shape != y.shape or t.ndim != 1:
            raise PermTestError(f"block {self.block_id!r}: shape mismatch")
        # checked before the int8 cast, which truncates 1.9 and wraps 257
        if not ((t == 0) | (t == 1)).all():
            raise PermTestError(f"block {self.block_id!r}: treatment must be 0/1")
        t = t.astype(np.int8, copy=False)
        if not np.isfinite(y).all():
            raise PermTestError(f"block {self.block_id!r}: non-finite outcome")
        object.__setattr__(self, "treatment", t)
        object.__setattr__(self, "outcome", y)
        # counted once: mode decisions ask for it on every node above the block
        object.__setattr__(self, "n_treated", int(t.sum()))

    @property
    def n(self) -> int:
        return self.outcome.size


@dataclass(frozen=True)
class TestSpec:
    """Statistic family, sidedness, and resampling plan for one node test."""

    __test__ = False  # keep pytest from collecting this as a test class

    statistic: str = "rank"
    sides: str = "two"             # "one" (upper tail) or "two"
    n_perms: int = 1000
    exact: bool | None = None      # None: exact iff the assignment count fits the cap
    exact_cap: int = 10_000
    seed: int = 0
    chi2_approx: bool = False      # energy only: chi-square tail instead of resampled

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise PermTestError(f"unknown statistic: {self.statistic!r}")
        if self.sides not in ("one", "two"):
            raise PermTestError("sides must be 'one' or 'two'")
        if self.statistic == "energy" and self.sides == "one":
            raise PermTestError("the energy statistic has no one-sided test; use sides='two'")
        if self.chi2_approx and self.statistic != "energy":
            raise PermTestError("chi2_approx applies to the energy statistic only")
        if self.n_perms < 100:
            raise PermTestError("n_perms must be at least 100")
        if self.exact_cap < 1:
            raise PermTestError("exact_cap must be positive")
        if self.seed < 0:
            raise PermTestError("seed must be non-negative")


def _ranks(y: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values given their mean rank (``rankdata``'s
    default), without scipy's per-call overhead."""
    order = np.argsort(y, kind="stable")
    ordered = y[order]
    bounds = np.append(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1, y.size)
    lows = np.concatenate(([0], bounds[:-1]))  # each run of ties: positions [low, bound)
    ranks = np.empty(y.size)
    ranks[order] = np.repeat((lows + bounds + 1) / 2, bounds - lows)
    return ranks


def energy_scores(outcomes) -> np.ndarray:
    """Six per-unit outcome representations, returned as an (n, 6) array.

    Columns: raw outcome; rank (mean rank on ties); mean absolute distance
    to the other units; the same on ranks; maximum absolute distance; and
    tanh of the outcome.  Distances average over the n-1 *other* units.
    """
    y = np.asarray(outcomes, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise PermTestError("need at least 2 outcomes for distance scores")
    n = y.size
    ranks = _ranks(y)
    dist = np.abs(y[:, None] - y[None, :])
    rdist = np.abs(ranks[:, None] - ranks[None, :])
    return np.column_stack(
        [
            y,
            ranks,
            dist.sum(axis=1) / (n - 1),
            rdist.sum(axis=1) / (n - 1),
            dist.max(axis=1),
            np.tanh(y),
        ]
    )


def _score_matrix(statistic: str, outcome: np.ndarray) -> np.ndarray:
    if statistic == "mean_diff":
        return np.asarray(outcome, dtype=float)[:, None]
    if statistic == "rank":
        return _ranks(outcome)[:, None]
    return energy_scores(outcome)


def _check_blocks(blocks: Sequence[Block]) -> None:
    if not blocks:
        raise PermTestError("no blocks given")
    bad = [b.block_id for b in blocks if not 1 <= b.n_treated <= b.n - 1]
    if bad:
        raise DegenerateBlockError(bad)


def _weighted_diff(statistic: str, n: int, m: int, sum_treated, sum_control) -> np.ndarray:
    """``n`` times (treated mean - control mean), from the arms' score sums.

    The sums have shape (..., q) and the result keeps it.  A node's
    statistic is the sum of its blocks' weighted differences divided by the
    node's unit count, so a node is formed from its blocks' rows by
    addition alone.  Rank rows are formed over one common denominator: on a
    balanced block that is an exact integer, so assignments with equal rank
    totals give equal rows and count as ties.
    """
    if statistic == "rank":
        return n * ((n - m) * sum_treated - m * sum_control) / (m * (n - m))
    return n * (sum_treated / m - sum_control / (n - m))


def _key_int(key) -> int:
    # injective: the leading byte keeps a key's leading zero bytes
    return int.from_bytes(b"\x01" + str(key).encode("utf-8"), "big")


def block_entropy(spec: TestSpec, stream_key, block_id: str) -> tuple[int, int, int]:
    """The SeedSequence entropy of one block's Monte Carlo stream:
    ``(spec.seed, stream_key, block_id)``, each key as an integer."""
    return spec.seed, _key_int(stream_key), _key_int(block_id)


def _uint32_keys(bitgen, rows: int, n: int) -> np.ndarray:
    """``rows`` x ``n`` independent uniform 32-bit keys, two from each
    64-bit word of ``bitgen``."""
    size = rows * n
    return bitgen.random_raw(-(-size // 2)).view(np.uint32)[:size].reshape(rows, n)


def _rank_sum_counts(n: int, m: int) -> np.ndarray:
    """Counts of the m-subsets of ranks 1..n by their sum W: entry ``u``
    counts the subsets with ``W = m(m+1)/2 + u``, and the entries add up to
    ``C(n, m)``.

    They are the coefficients of the Gaussian binomial ``prod_{i<=k} (1 -
    q^(n-k+i)) / (1 - q^i)`` with ``k = min(m, n - m)`` (the same for m and
    n - m), built one factor pair at a time, as scipy's Mann-Whitney
    ``build_u_freqs_array`` does.  After pair ``i`` they count the i-subsets
    of n - k + i ranks, at most ``C(n, m)``, so no step overflows int64
    while ``C(n, m) < 2^63``.
    """
    k = min(m, n - m)
    size = k * (n - k) + 1
    counts = np.zeros(size, dtype=np.int64)
    counts[0] = 1
    for i in range(1, k + 1):
        a = n - k + i
        counts[a:] -= counts[:-a].copy()  # times (1 - q^a)
        padded = np.zeros(-(-size // i) * i, dtype=np.int64)
        padded[:size] = counts
        counts = padded.reshape(-1, i).cumsum(axis=0).ravel()[:size]  # over (1 - q^i)
    return counts


@dataclass(frozen=True)
class _RankSumNull:
    """Lookup tables of one block shape's treated rank sum W, by ``u = W -
    m(m+1)/2``: the cumulative ``_rank_sum_counts``, whose last entry is
    ``C(n, m)``; a guide table over ``[0, C(n, m))`` in buckets of
    ``width``, holding the index of the bucket's uniforms where they all
    share one, else -1; and the block row (``_weighted_diff``) of each W."""

    cdf: np.ndarray
    guide: np.ndarray
    width: int
    rows: np.ndarray

    def index(self, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self.cdf, u, side="right")``, from the guide
        table, with a search only for uniforms in a bucket that holds a step
        of the cdf."""
        at = self.guide[u // self.width]
        open_ = np.flatnonzero(at < 0)
        at[open_] = np.searchsorted(self.cdf, u[open_], side="right")
        return at


@lru_cache(maxsize=256)  # one entry per block shape in use
def _rank_sum_null(n: int, m: int) -> _RankSumNull:
    """The ``_RankSumNull`` of a block of n units, m of them treated, with
    about ``_GUIDE`` guide buckets per rank sum."""
    cdf = np.cumsum(_rank_sum_counts(n, m))
    total = int(cdf[-1])
    width = -(-total // (_GUIDE * cdf.size))
    starts = np.arange(0, total, width)
    ends = starts + np.minimum(width - 1, total - 1 - starts)  # no int64 overflow
    first, last = (np.searchsorted(cdf, u, side="right") for u in (starts, ends))
    guide = np.where(first == last, first, -1)
    w = np.arange(cdf.size) + m * (m + 1) / 2
    rows = _weighted_diff("rank", n, m, w, n * (n + 1) / 2 - w)
    for table in (cdf, guide, rows):
        table.flags.writeable = False
    return _RankSumNull(cdf, guide, width, rows)


def _untied_rank_sums(blocks: Sequence[Block]) -> list[int]:
    """Each block's treated rank sum, or -1 where its outcomes have ties.
    The blocks of each size are sorted in one argsort of their stacked
    outcomes."""
    out = [-1] * len(blocks)
    by_size: dict[int, list[int]] = {}
    for i, b in enumerate(blocks):
        by_size.setdefault(b.n, []).append(i)
    for n, members in by_size.items():
        y = np.array([blocks[i].outcome for i in members])
        order = np.argsort(y, axis=1)
        treated = np.array([blocks[i].treatment for i in members])
        w = treated[np.arange(len(members))[:, None], order] @ np.arange(1, n + 1)
        y.sort(axis=1)
        tied = (y[:, 1:] == y[:, :-1]).any(axis=1)
        for i, w_i in zip(members, np.where(tied, -1, w).tolist()):
            out[i] = w_i
    return out


def block_draws(block: Block, spec: TestSpec, stream_key="", bitgen=None) -> np.ndarray:
    """One block's Monte Carlo rows, shape ``(spec.n_perms + 1, q)``.

    Rows are the block's weighted differences (``_weighted_diff``) for
    ``spec.n_perms`` random within-block assignments, followed by the
    observed assignment as the last row.  The draws come from a stream keyed
    by ``(spec.seed, stream_key, block.block_id)`` (``block_entropy``), so
    every node evaluated with one ``stream_key`` sums the same draws of a
    block.  A caller that seeds many blocks at once passes ``bitgen``, a
    PCG64 at the start of that stream; otherwise the stream is seeded here.
    It is the one-block call of ``chunk_draws``.

    A rank block without ties and with fewer than 2^63 assignments has a
    row that depends on the assignment only through the treated rank sum
    W.  It draws each W directly: one uniform integer in ``[0, C(n, m))``
    from the stream, looked up in the cumulative counts of the m-subsets of
    1..n by sum (``_rank_sum_null``).  W then has exactly the distribution
    a uniform treated set gives it, and the rows are ``_weighted_diff``'s
    rows of those sums, bit for bit.  Whether a block draws W depends only
    on its outcomes' ties, n and m.

    Every other block draws treated sets.  Each assignment gives every unit
    an independent uniform 32-bit key and treats the units whose keys are
    among the m smallest.  A row whose m-th and (m+1)-th smallest keys are
    equal has all its keys drawn again from the same stream, rows in order,
    until no row has such a tie.  Whether a row ties does not depend on
    which unit holds which key, so the kept keys stay exchangeable and each
    treated set is exactly uniform over the m-sets of units.

    Keys are drawn and sorted in chunks of an even number of rows, at most
    ``_KEY_CHUNK`` keys unless two rows are longer, so each chunk starts on
    a 64-bit word and the stream is read as if all keys came at once.  Tied
    rows are drawn again only after the last chunk.
    """
    if bitgen is None:
        entropy = block_entropy(spec, stream_key, block.block_id)
        bitgen = np.random.PCG64(np.random.SeedSequence(entropy))
    return next(chunk_draws([[block]], spec, [bitgen]))[0]


def chunk_draws(
    positions: Sequence[Sequence[Block]], spec: TestSpec, bitgens
) -> Iterator[np.ndarray]:
    """``block_draws``' rows of a chunk of datasets, block position by
    block position: for each position in turn, the rows of its blocks, one
    of each dataset and all of one shape, as a ``(datasets, spec.n_perms +
    1, q)`` array.

    Block d of a position draws from the next PCG64 of ``bitgens``,
    positions in order and datasets in order within each, which must be at
    the start of the block's stream.  Each is done with before the next is
    taken, so ``bitgens`` may be one bit generator set to each stream in
    turn (``streams.generators``).  The blocks that draw their treated rank
    sum share the per-block work.  Their ties and observed sums are found
    for a batch of positions at once, by one stacked argsort per block
    size; a batch holds about as many outcomes as one position holds rows.
    Each position looks up all its drawn sums in one ``_RankSumNull.index``
    call.  Every other block draws its treated sets on its own.
    """
    shapes = []
    for blocks in positions:
        n, m = blocks[0].n, blocks[0].n_treated
        if any(b.n != n or b.n_treated != m for b in blocks):
            raise PermTestError("the blocks of a position must have one shape")
        shapes.append((n, m))
    by_sum = [spec.statistic == "rank" and math.comb(n, m) < 2**63 for n, m in shapes]
    bitgens = iter(bitgens)
    w_obs: dict[int, list[int]] = {}  # position -> its observed rank sums, found a batch at a time
    for p, blocks in enumerate(positions):
        if by_sum[p] and p not in w_obs:
            batch, held = [p], shapes[p][0]  # held: the batch's outcomes per dataset
            for q in range(p + 1, len(positions)):
                if held + shapes[q][0] > spec.n_perms + 1:
                    break
                held += shapes[q][0]
                batch += [q] if by_sum[q] else []
            sums = iter(_untied_rank_sums([b for q in batch for b in positions[q]]))
            w_obs.update((q, [next(sums) for _ in positions[q]]) for q in batch)
        yield _position_draws(blocks, *shapes[p], spec, bitgens, w_obs.get(p, [-1] * len(blocks)))


def _position_draws(blocks: Sequence[Block], n: int, m: int, spec: TestSpec, bitgens, w_obs):
    """One position's rows for ``chunk_draws``: block j draws its treated
    rank sum where its observed sum ``w_obs[j]`` is known, else treated
    sets."""
    try:
        out = np.empty((len(blocks), spec.n_perms + 1, 6 if spec.statistic == "energy" else 1))
    except ValueError:  # past numpy's index range, which is not a MemoryError
        raise MemoryError(
            f"{spec.n_perms} draws of a {n}-unit block exceed the address space"
        ) from None
    by_sum = [j for j, w in enumerate(w_obs) if w >= 0]
    if not by_sum and len(blocks) == 1:  # a lone block of treated sets: no copy into a stack
        return _treated_set_draws(blocks[0], spec, next(bitgens))[None]
    if by_sum:
        null = _rank_sum_null(n, m)
    u = []  # per block that draws its sum: uniform integers in [0, C(n, m))
    for j, (b, w) in enumerate(zip(blocks, w_obs)):
        bitgen = next(bitgens)
        if w >= 0:
            rng = np.random.Generator(bitgen)
            u.append(rng.integers(0, null.cdf[-1], spec.n_perms, dtype=np.int64))
        else:
            out[j] = _treated_set_draws(b, spec, bitgen)
    if by_sum:
        if len(by_sum) == len(blocks):
            by_sum = slice(None)  # every block drew its sum: write through a slice
        u = u[0] if len(u) == 1 else np.concatenate(u)
        out[by_sum, :-1, 0] = null.rows[null.index(u)].reshape(-1, spec.n_perms)
        out[by_sum, -1, 0] = null.rows[np.array(w_obs)[by_sum] - m * (m + 1) // 2]
    return out


def _treated_set_draws(block: Block, spec: TestSpec, bitgen) -> np.ndarray:
    """``block_draws``' rows from uniformly drawn treated sets, the stream
    read from ``bitgen``."""
    n, m = block.n, block.n_treated
    # scored before the rows exist, so their temporaries are freed first
    scores = _score_matrix(spec.statistic, block.outcome)
    try:
        ind = np.empty((spec.n_perms + 1, n))
    except ValueError:
        raise MemoryError(
            f"{spec.n_perms} draws of a {n}-unit block exceed the address space"
        ) from None
    chunk = max(2, _KEY_CHUNK // n // 2 * 2)  # rows
    tied = np.empty(spec.n_perms, dtype=bool)
    for lo in range(0, spec.n_perms, chunk):
        hi = min(lo + chunk, spec.n_perms)
        keys = _uint32_keys(bitgen, hi - lo, n)
        bounds = np.sort(keys, axis=1)[:, m - 1 : m + 1]  # m-th and (m+1)-th smallest
        np.less_equal(keys, bounds[:, :1], out=ind[lo:hi])
        np.equal(bounds[:, 0], bounds[:, 1], out=tied[lo:hi])
    tied = np.flatnonzero(tied)
    while tied.size:
        keys = _uint32_keys(bitgen, tied.size, n)
        bounds = np.sort(keys, axis=1)[:, m - 1 : m + 1]
        ind[tied] = keys <= bounds[:, :1]
        tied = tied[bounds[:, 0] == bounds[:, 1]]
    ind[-1] = block.treatment
    sums = ind @ scores
    return _weighted_diff(spec.statistic, n, m, sums, scores.sum(axis=0) - sums)


def _exact_rows(blocks: Sequence[Block], spec: TestSpec) -> tuple[np.ndarray, int]:
    """Every assignment combination of every block, blocks combined by
    Cartesian sum of their weighted differences, and the observed row's index.

    Each combination's control arm is summed over its own units, not taken
    as total minus treated, so in a balanced block the complement of an
    assignment gives exactly the negated row and two-sided ties count.
    """
    acc = obs_row = None
    for b in blocks:
        scores = _score_matrix(spec.statistic, b.outcome)
        m = b.n_treated
        combos = np.array(list(itertools.combinations(range(b.n), m)), dtype=np.intp)
        control = np.ones((len(combos), b.n), dtype=bool)
        control[np.arange(len(combos))[:, None], combos] = False
        rest = np.nonzero(control)[1].reshape(len(combos), b.n - m)
        contrib = _weighted_diff(
            spec.statistic, b.n, m, scores[combos].sum(axis=1), scores[rest].sum(axis=1)
        )
        row = int(np.flatnonzero((combos == np.flatnonzero(b.treatment == 1)).all(axis=1))[0])
        if acc is None:
            acc, obs_row = contrib, row
        else:
            acc = (acc[:, None, :] + contrib[None, :, :]).reshape(-1, contrib.shape[1])
            obs_row = obs_row * len(contrib) + row
    return acc, obs_row


def _energy_quadratic(stats: np.ndarray):
    """Quadratic forms of assignment vectors against their own covariance.

    ``stats`` is a node's whole null distribution, which includes the
    observed row by construction, so all rows are exchangeable under the
    null and the tail count stays valid.  The covariance is inverted
    through its eigendecomposition, dropping eigenvalues below 1e-10 times
    the largest; the six scores are collinear by construction so the
    matrix is always rank deficient.
    """
    mu = stats.mean(axis=0)
    centered = stats - mu
    cov = centered.T @ centered / stats.shape[0]
    eigval, eigvec = np.linalg.eigh(cov)
    keep = eigval > 1e-10 * max(eigval.max(), 0.0)
    rank = int(keep.sum())
    if rank == 0:
        return np.zeros(stats.shape[0]), 0
    basis = eigvec[:, keep] / np.sqrt(eigval[keep])
    quad = np.square(centered @ basis).sum(axis=1)
    return quad, rank


def total_assignments(blocks: Sequence[Block]) -> int:
    return math.prod(math.comb(b.n, b.n_treated) for b in blocks)


def is_exact(blocks: Sequence[Block], spec: TestSpec) -> bool:
    """Whether a node on ``blocks`` is tested by exact enumeration.

    Checks the blocks first (``DegenerateBlockError`` names the blocks
    without both arms), and raises when ``spec.exact`` forces enumeration
    past ``spec.exact_cap``.
    """
    _check_blocks(blocks)
    M = total_assignments(blocks)
    if spec.exact is None:
        return M <= spec.exact_cap
    if spec.exact and M > spec.exact_cap:
        raise PermTestError(
            f"{M} assignments exceed the exact-enumeration cap {spec.exact_cap}"
        )
    return spec.exact


def permutation_pvalue(
    blocks: Sequence[Block], spec: TestSpec, stream_key="", *, exact=None, draws=None
) -> float:
    """Randomization p-value for the null of no effect in any unit.

    The p-value is the share of rows of the node's null distribution that
    are at least as extreme as the observed row, which is one of them.
    Exact mode enumerates every within-block assignment combination (used
    automatically when the count fits ``spec.exact_cap``), so the share is
    the exact tail proportion.  Otherwise the rows are ``spec.n_perms``
    Monte Carlo draws plus the observed row, so the share is the add-one
    estimator ``(1 + #{draws >= obs}) / (1 + n_perms)``, which is valid at
    any finite number of draws.

    Each block draws from its own stream, keyed by ``(spec.seed,
    stream_key, block_id)`` (see ``block_draws``), and a node's rows are
    its blocks' rows summed in the given order and divided by the node's
    unit count.  Nodes evaluated with one ``stream_key`` therefore share
    each block's draws: each node's rows still follow its own
    randomization distribution, only the p-values of different nodes
    become dependent.  A caller that already holds that sum of
    ``block_draws`` rows may pass it as ``draws``; it is ignored in exact
    mode.  Such sums of several datasets on the same block shapes may come
    stacked, shape ``(datasets, n_perms + 1, q)``, and then the p-values
    come back as an array, one per dataset; ``blocks`` are any one
    dataset's.  A caller that has already decided the node's mode with
    ``is_exact`` passes it as ``exact``, and the blocks are not checked
    again.
    """
    n_total = sum(b.n for b in blocks)
    if exact is None:
        exact = is_exact(blocks, spec)
    if exact:
        rows, obs_row = _exact_rows(blocks, spec)
    else:
        if draws is None:
            draws = reduce(np.add, (block_draws(b, spec, stream_key) for b in blocks))
        rows, obs_row = draws, spec.n_perms
    rows = rows / n_total
    if rows.ndim == 3 and spec.statistic == "energy":  # one quadratic form per dataset
        return np.array([_tail_share(r, obs_row, spec) for r in rows])
    return _tail_share(rows, obs_row, spec)


def _tail_share(rows: np.ndarray, obs_row: int, spec: TestSpec):
    """The share of a node's null rows at least as extreme as row
    ``obs_row``, over the rows' second-to-last axis: a float for one
    dataset's (rows, q), an array for a stack of datasets' rank or
    mean-difference rows."""
    if spec.statistic == "energy":
        vals, rank = _energy_quadratic(rows)
        if spec.chi2_approx:
            # scipy.special is most of the package's import cost; load it on first use.
            from scipy.special import chdtrc

            return 1.0 if rank == 0 else float(chdtrc(rank, vals[obs_row]))
    else:
        vals = rows[..., 0]
        if spec.sides == "two":
            vals = np.abs(vals)
    counts = (vals >= vals[..., obs_row, None]).sum(axis=-1)
    return counts / vals.shape[-1] if counts.ndim else int(counts) / vals.shape[-1]
