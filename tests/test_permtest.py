import itertools
import math
import os
import re
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from scipy.stats import chi2, permutation_test, rankdata

from treegate import permtest
from treegate.permtest import (
    Block,
    DegenerateBlockError,
    PermTestError,
    TestSpec,
    _energy_quadratic,
    block_draws,
    energy_scores,
    permutation_pvalue,
    total_assignments,
)

from _oracles import block_draws_unchunked, block_statistic


def make_block(outcome, treated_idx, block_id="b"):
    outcome = np.asarray(outcome, dtype=float)
    treatment = np.zeros(outcome.size, dtype=np.int8)
    treatment[list(treated_idx)] = 1
    return Block(block_id, treatment, outcome)


def null_blocks(rng, n_blocks=3, n=8, m=4):
    blocks = []
    for i in range(n_blocks):
        outcome = rng.normal(size=n)
        treated = rng.permutation(n)[:m]
        blocks.append(make_block(outcome, treated, f"b{i}"))
    return blocks


def treated_sets(rows, n, m):
    """Each ``mean_diff`` row of a block with outcomes 2**i, decoded into the
    bit mask of its treated units."""
    total = 2.0**n - 1
    treated_sums = (rows[:, 0] / n + total / (n - m)) / (1 / m + 1 / (n - m))
    sets = np.rint(treated_sums).astype(int)
    assert np.allclose(treated_sums, sets)
    return sets


def as_words(keys):
    """32-bit keys packed, in order, into the 64-bit words that yield them."""
    keys = np.asarray(keys, dtype=np.uint32).ravel()
    return np.append(keys, np.zeros(keys.size % 2, dtype=np.uint32)).view(np.uint64)


class ScriptedBitGenerator:
    """Stands in for ``PCG64``: ``random_raw`` reads the scripted words in
    order, then real words, and records each requested size."""

    def __init__(self, script):
        self.words = np.concatenate(script)
        self.sizes = []
        self.rest = np.random.PCG64(0)

    def random_raw(self, size):
        self.sizes.append(size)
        words, self.words = self.words[:size], self.words[size:]
        return np.append(words, self.rest.random_raw(size - words.size))


class TestEnergyScores:
    def test_reference_values(self):
        scores = energy_scores([1.0, 2.0, 3.0])
        unit1 = scores[0]
        assert unit1[1] == 1.0                      # rank
        assert unit1[2] == pytest.approx(1.5)       # mean |y_i - y_j|, j != i
        assert unit1[4] == pytest.approx(2.0)       # max distance
        assert unit1[5] == pytest.approx(0.76159, abs=1e-5)

    def test_constant_outcomes(self):
        scores = energy_scores([5.0, 5.0, 5.0])
        assert np.all(scores[:, 2] == 0.0)
        assert np.all(scores[:, 4] == 0.0)
        assert np.all(scores[:, 1] == 2.0)          # mean rank on ties

    def test_two_point_case(self):
        scores = energy_scores([0.0, 10.0])
        assert np.all(scores[:, 2] == 10.0)
        assert np.all(scores[:, 4] == 10.0)

    def test_too_small_rejected(self):
        with pytest.raises(PermTestError):
            energy_scores([1.0])

    def test_rank_column_matches_scipy_rankdata_with_ties(self):
        rng = np.random.default_rng(8)
        for n in range(2, 40):
            y = np.round(rng.normal(size=n) * rng.choice([0.5, 4.0]))
            np.testing.assert_array_equal(energy_scores(y)[:, 1], rankdata(y))

    def test_rank_columns_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=9)
        warped = np.exp(y)
        base, stretched = energy_scores(y), energy_scores(warped)
        np.testing.assert_array_equal(base[:, 1], stretched[:, 1])
        np.testing.assert_allclose(base[:, 3], stretched[:, 3])


class TestBlockStatistic:
    def test_mean_diff_example(self):
        block = make_block([1.0, 2.0, 3.0, 4.0], [2, 3])
        spec = TestSpec(statistic="mean_diff")
        assert block_statistic([block], spec) == pytest.approx(2.0)

    def test_swapping_groups_negates(self):
        spec = TestSpec(statistic="mean_diff")
        block = make_block([1.0, 5.0, 2.0, 7.0], [0, 1])
        flipped = make_block([1.0, 5.0, 2.0, 7.0], [2, 3])
        assert block_statistic([block], spec) == pytest.approx(
            -block_statistic([flipped], spec)
        )

    def test_constant_outcomes_give_zero(self):
        spec = TestSpec(statistic="rank")
        block = make_block([3.0] * 6, [0, 1, 2])
        assert block_statistic([block], spec) == pytest.approx(0.0)

    def test_block_weighting(self):
        spec = TestSpec(statistic="mean_diff")
        big = make_block([0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 2.0, 2.0], [2, 3, 6, 7], "big")
        small = make_block([0.0, 4.0], [1], "small")
        # weights 8/10 and 2/10 on within-block differences 2 and 4
        assert block_statistic([big, small], spec) == pytest.approx(
            0.8 * 2.0 + 0.2 * 4.0
        )

    def test_degenerate_block_rejected(self):
        block = Block("b", np.ones(4, dtype=np.int8), np.arange(4.0))
        with pytest.raises(DegenerateBlockError) as err:
            block_statistic([block], TestSpec(statistic="mean_diff"))
        assert err.value.block_ids == ["b"]

    def test_explicit_assignment_overrides_recorded_one(self):
        block = make_block([1.0, 2.0, 3.0, 4.0], [2, 3])
        spec = TestSpec(statistic="mean_diff")
        swapped = {"b": np.array([1, 1, 0, 0], dtype=np.int8)}
        assert block_statistic([block], spec, assignment=swapped) == pytest.approx(-2.0)

    def test_energy_statistic_is_six_vector(self):
        block = make_block([0.4, 1.2, -0.3, 2.0, 0.9, -1.1], [0, 2, 4])
        stat = block_statistic([block], TestSpec(statistic="energy"))
        assert stat.shape == (6,)

    @pytest.mark.parametrize("statistic", ["mean_diff", "rank", "energy"])
    def test_observed_rows_of_block_draws_match(self, statistic):
        rng = np.random.default_rng(12)
        blocks = []
        for i, (n, m) in enumerate([(7, 3), (12, 6), (5, 1), (20, 9)]):
            treated = rng.choice(n, m, replace=False)
            # one decimal, so blocks have tied outcomes
            y = np.round(rng.normal(size=n), 1)
            y[treated] += 0.8
            blocks.append(make_block(y, treated, f"b{i}"))
        spec = TestSpec(statistic=statistic, n_perms=100)
        n_total = sum(b.n for b in blocks)
        observed = sum(block_draws(b, spec)[-1] for b in blocks) / n_total
        np.testing.assert_allclose(
            observed, np.atleast_1d(block_statistic(blocks, spec)), rtol=1e-12, atol=0
        )


class TestExactMode:
    def test_strict_maximum_has_smallest_grid_pvalue(self):
        block = make_block([1.0, 2.0, 3.0, 4.0], [2, 3])
        spec = TestSpec(statistic="mean_diff", sides="one")
        assert permutation_pvalue([block], spec) == pytest.approx(1 / 6)

    def test_constant_outcomes_give_one(self):
        block = make_block([2.0] * 4, [0, 1])
        for stat in ("mean_diff", "rank", "energy"):
            spec = TestSpec(statistic=stat)
            assert permutation_pvalue([block], spec) == 1.0

    @pytest.mark.parametrize("stat", ["mean_diff", "rank", "energy"])
    def test_pvalues_on_exact_grid(self, stat):
        rng = np.random.default_rng(7)
        blocks = [
            make_block(rng.normal(size=6), [0, 1, 2], "b0"),
            make_block(rng.normal(size=4), [0, 1], "b1"),
        ]
        M = total_assignments(blocks)
        assert M == math.comb(6, 3) * math.comb(4, 2)
        spec = TestSpec(statistic=stat)
        p = permutation_pvalue(blocks, spec)
        j = p * M
        assert j == pytest.approx(round(j), abs=1e-9)
        assert 1 <= round(j) <= M

    def test_exact_matches_brute_force(self):
        block = make_block([0.3, 1.9, -0.4, 2.2, 0.1], [1, 3])
        spec = TestSpec(statistic="mean_diff", sides="two")
        outcome = block.outcome
        obs = outcome[[1, 3]].mean() - outcome[[0, 2, 4]].mean()
        stats = []
        for combo in itertools.combinations(range(5), 2):
            rest = [i for i in range(5) if i not in combo]
            stats.append(outcome[list(combo)].mean() - outcome[rest].mean())
        expected = np.mean(np.abs(stats) >= abs(obs) - 1e-12)
        assert permutation_pvalue([block], spec) == pytest.approx(expected)

    @pytest.mark.parametrize("stat", ["mean_diff", "rank"])
    def test_single_block_matches_scipy_permutation_test(self, stat):
        # one-sided only: for two sides scipy doubles the smaller tail,
        # while treegate counts |T| >= |t_obs|
        spec = TestSpec(statistic=stat, sides="one", exact=True)
        rng = np.random.default_rng(11)
        for n in range(4, 11):
            for m in range(2, n - 1):
                for _ in range(2):
                    outcome = rng.normal(size=n)
                    treated = rng.permutation(n)[:m]
                    outcome[treated] += rng.uniform(-1.0, 2.0)
                    data = rankdata(outcome) if stat == "rank" else outcome
                    is_treated = np.isin(np.arange(n), treated)
                    expected = permutation_test(
                        (data[is_treated], data[~is_treated]),
                        lambda x, y, axis: x.mean(axis=axis) - y.mean(axis=axis),
                        permutation_type="independent",
                        alternative="greater",
                        n_resamples=np.inf,
                        vectorized=True,
                    ).pvalue
                    block = make_block(outcome, treated)
                    assert permutation_pvalue([block], spec) == pytest.approx(
                        expected, rel=0, abs=1e-12
                    ), (n, m)

    def test_forced_exact_above_cap_rejected(self):
        rng = np.random.default_rng(0)
        blocks = [make_block(rng.normal(size=20), range(10), f"b{i}") for i in range(3)]
        spec = TestSpec(statistic="mean_diff", exact=True, exact_cap=1000)
        with pytest.raises(PermTestError, match="cap"):
            permutation_pvalue(blocks, spec)

    def test_rank_pvalue_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(3)
        outcome = rng.normal(size=7)
        block = make_block(outcome, [0, 2, 5])
        warped = make_block(np.exp(outcome) + outcome ** 3, [0, 2, 5])
        spec = TestSpec(statistic="rank")
        assert permutation_pvalue([block], spec) == permutation_pvalue([warped], spec)


class TestMonteCarloMode:
    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(11)
        blocks = null_blocks(rng, n_blocks=4, n=12, m=6)
        spec = TestSpec(statistic="rank", n_perms=250, exact=False, seed=42)
        p1 = permutation_pvalue(blocks, spec, stream_key="nodeX")
        p2 = permutation_pvalue(blocks, spec, stream_key="nodeX")
        assert p1 == p2
        p3 = permutation_pvalue(blocks, spec, stream_key="nodeY")
        assert p3 != p1  # different stream, almost surely different draw

    @pytest.mark.parametrize(
        "n, treated, n_perms",
        [(6, [1, 4], 15_000), (5, [0, 2, 3], 15_001)],
        ids=["even_keys", "odd_keys_m_above_half"],
    )
    def test_block_draws_are_uniform_treated_sets_then_the_observed_one(self, n, treated, n_perms):
        m = len(treated)
        block = make_block(2.0 ** np.arange(n), treated)
        rows = block_draws(block, TestSpec(statistic="mean_diff", n_perms=n_perms), "k")
        sets = treated_sets(rows, n, m)
        assert sets[-1] == sum(2**i for i in treated)
        assert all(bin(s).count("1") == m for s in sets)
        valid = [s for s in range(2**n) if bin(s).count("1") == m]
        counts = np.bincount(sets[:-1], minlength=2**n)[valid]
        expected = n_perms / math.comb(n, m)
        assert np.abs(counts - expected).max() <= 5 * math.sqrt(expected)

    @pytest.mark.parametrize("statistic", ["mean_diff", "rank", "energy"])
    @pytest.mark.parametrize(
        "key_chunk, n, m, n_perms",
        [
            (None, 201, 67, 501),  # three full chunks of 162 rows, then 15 rows
            (None, 50, 25, 500),   # one chunk
            (64, 7, 3, 100),       # twelve full chunks of 8 rows, then 4 rows
            (64, 33, 16, 101),     # rows longer than half a chunk: two at a time
        ],
        ids=["odd_n_partial_chunk", "one_chunk", "small_chunks", "two_row_chunks"],
    )
    def test_block_draws_equal_the_unchunked_sampler(
        self, monkeypatch, statistic, key_chunk, n, m, n_perms
    ):
        if key_chunk is not None:
            monkeypatch.setattr(permtest, "_KEY_CHUNK", key_chunk)
        rng = np.random.default_rng(n)
        outcome = np.round(rng.normal(size=n), 1)  # with ties
        if statistic == "rank":
            outcome[1] = outcome[0]  # untied rank blocks draw rank sums, not keys
        block = make_block(outcome, rng.permutation(n)[:m], "b7")
        spec = TestSpec(statistic=statistic, n_perms=n_perms, seed=9)
        got = block_draws(block, spec, "node")
        want = block_draws_unchunked(block, spec, "node")
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "key_chunk, sizes",
        [(permtest._KEY_CHUNK, [253, 5, 3]), (40, [20] * 12 + [13, 5, 3])],
        ids=["one_chunk", "eight_row_chunks"],
    )
    def test_rows_tied_at_the_boundary_are_drawn_again(self, monkeypatch, key_chunk, sizes):
        # scripted keys: row 3 ties at the m-th smallest, row 10 ties again
        # on its first redraw, row 20 ties only inside its treated set; with
        # eight-row chunks rows 3 and 10 tie in different chunks
        monkeypatch.setattr(permtest, "_KEY_CHUNK", key_chunk)
        n, m, n_perms = 5, 2, 101
        keys = np.random.default_rng(3).permutation(2**20)[: n_perms * n].reshape(n_perms, n)
        keys[3] = [5, 9, 5, 1, 20]
        keys[10] = [8, 8, 8, 8, 8]
        keys[20] = [4, 4, 10, 20, 30]
        first_redraw = [[1, 2, 3, 4, 5], [6, 1, 6, 9, 9]]  # rows 3 and 10, in order
        second_redraw = [[30, 20, 10, 40, 50]]             # row 10
        script = [as_words(keys), as_words(first_redraw), as_words(second_redraw)]
        block = make_block(2.0 ** np.arange(n), [0, 4])
        spec = TestSpec(statistic="mean_diff", n_perms=n_perms)

        outputs = []
        for _ in range(2):
            stub = ScriptedBitGenerator(script)
            monkeypatch.setattr(np.random, "PCG64", lambda seq: stub)
            outputs.append(block_draws(block, spec, "k"))
            assert stub.sizes == sizes  # only the tied rows are drawn again
        assert np.array_equal(outputs[0], outputs[1])
        stub = ScriptedBitGenerator(script)
        monkeypatch.setattr(np.random, "PCG64", lambda seq: stub)
        assert np.array_equal(outputs[0], block_draws_unchunked(block, spec, "k"))
        assert stub.sizes == [253, 5, 3]

        sets = treated_sets(outputs[0], n, m)
        kth = np.sort(keys, axis=1)[:, m - 1 : m]
        expected = ((keys <= kth) * 2 ** np.arange(n)).sum(axis=1)
        expected[3], expected[10] = 0b00011, 0b00110
        assert expected[20] == 0b00011
        assert list(sets[:-1]) == list(expected)
        assert sets[-1] == 0b10001
        assert all(bin(s).count("1") == m for s in sets)

    def test_addone_estimator_range(self):
        rng = np.random.default_rng(5)
        blocks = null_blocks(rng)
        spec = TestSpec(statistic="mean_diff", n_perms=199, exact=False, seed=1)
        p = permutation_pvalue(blocks, spec)
        assert 1 / 200 <= p <= 1.0

    def test_min_perms_enforced(self):
        with pytest.raises(PermTestError):
            TestSpec(statistic="rank", n_perms=50)

    @pytest.mark.parametrize("stat", ["mean_diff", "rank", "energy"])
    def test_subuniform_under_sham_treatment(self, stat):
        # quick version of the validity check; the acceptance suite runs the
        # full 2000-replicate version
        replicates = 400
        hits = {0.01: 0, 0.05: 0, 0.1: 0}
        spec = TestSpec(statistic=stat, n_perms=199, exact=False, seed=0)
        for rep in range(replicates):
            rng = np.random.default_rng(np.random.SeedSequence([101, rep]))
            blocks = null_blocks(rng, n_blocks=2, n=8, m=3)
            p = permutation_pvalue(blocks, spec, stream_key=f"rep{rep}")
            for a in hits:
                hits[a] += p <= a
        for a, count in hits.items():
            se = math.sqrt(a * (1 - a) / replicates)
            assert count / replicates <= a + 3 * se


class TestExactAgainstMonteCarlo:
    """Differential oracle: Monte Carlo p-values estimate the exact ones."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "stat, sides",  # energy is two-sided only
        [("mean_diff", "one"), ("mean_diff", "two"), ("rank", "one"), ("rank", "two"),
         ("energy", "two")],
    )
    def test_monte_carlo_within_four_standard_errors(self, stat, sides, seed):
        rng = np.random.default_rng(np.random.SeedSequence([31, seed]))
        blocks = []
        for i, (n, m) in enumerate([(6, 3), (5, 2), (4, 2)]):
            outcome = rng.normal(size=n)
            treated = rng.permutation(n)[:m]
            outcome[treated] += 0.6
            blocks.append(make_block(outcome, treated, f"b{i}"))
        assert total_assignments(blocks) == 1200
        exact = permutation_pvalue(blocks, TestSpec(statistic=stat, sides=sides, exact=True))
        n_perms = 20_000

        def monte_carlo(mc_seed):
            spec = TestSpec(statistic=stat, sides=sides, exact=False, n_perms=n_perms, seed=mc_seed)
            return permutation_pvalue(blocks, spec, stream_key="root")

        if stat == "energy":
            # the quadratic form's covariance is estimated from the draws too,
            # which spreads these p-values about three times wider than the
            # binomial error: take the standard error from ten independent runs
            runs = np.array([monte_carlo(10 * seed + r) for r in range(10)])
            estimate, se = runs.mean(), runs.std(ddof=1) / math.sqrt(runs.size)
        else:
            estimate, se = monte_carlo(seed), math.sqrt(exact * (1 - exact) / n_perms)
        assert abs(estimate - exact) <= 4 * se, (exact, estimate, se)


def test_exact_two_sided_counts_the_mirrored_assignment():
    # the complement assignment {2, 3} has exactly -T, so two rows of six
    # are at least as extreme as |T|
    block = make_block([7.9, 6.2, 8.1, 10.1], [0, 1])
    spec = TestSpec(statistic="mean_diff", sides="two", exact=True)
    assert permutation_pvalue([block], spec) == 2 / 6


def test_exact_two_sided_tail_counts_are_even_in_balanced_blocks():
    # every assignment of a balanced block has a complement with exactly -T,
    # so a two-sided mean_diff tail count must be even
    rng = np.random.default_rng(404)
    spec = TestSpec(statistic="mean_diff", sides="two", exact=True)
    odd = []
    for trial in range(1000):
        n = int(rng.choice([4, 6, 8, 10]))
        block = make_block(rng.normal(10, 3, n), rng.permutation(n)[: n // 2])
        count = round(permutation_pvalue([block], spec) * total_assignments([block]))
        if count % 2:
            odd.append((trial, n, count))
    assert not odd, odd[:5]


class TestEnergyPvalue:
    def test_energy_detects_scale_shift_two_sided(self):
        rng = np.random.default_rng(21)
        n = 40
        outcome = np.concatenate([rng.normal(0, 0.3, n // 2), rng.normal(0, 3.0, n // 2)])
        treated = range(n // 2, n)
        block = make_block(outcome, treated)
        spec = TestSpec(statistic="energy", n_perms=400, exact=False, seed=9)
        assert permutation_pvalue([block], spec) < 0.05

    def test_chi2_approximation_close_to_resampled(self):
        rng = np.random.default_rng(13)
        blocks = null_blocks(rng, n_blocks=3, n=20, m=10)
        mc = TestSpec(statistic="energy", n_perms=2000, exact=False, seed=4)
        approx = TestSpec(
            statistic="energy", n_perms=2000, exact=False, seed=4, chi2_approx=True
        )
        p_mc = permutation_pvalue(blocks, mc, stream_key="n")
        p_chi = permutation_pvalue(blocks, approx, stream_key="n")
        assert abs(p_mc - p_chi) < 0.12

    @pytest.mark.parametrize("seed", range(6))
    def test_chi2_approximation_is_scipy_stats_chi2_sf(self, seed):
        # differential oracle: the chi-square tail of the observed row's
        # quadratic form, through scipy.stats.chi2 at the form's rank
        rng = np.random.default_rng(900 + seed)
        if seed % 2:  # two outcome values make several scores collinear
            blocks = [
                make_block(rng.integers(0, 2, 12).astype(float), rng.permutation(12)[:6], f"b{i}")
                for i in range(2)
            ]
        else:
            blocks = null_blocks(rng, n_blocks=3, n=10, m=5)
        spec = TestSpec(statistic="energy", n_perms=300, exact=False, seed=seed, chi2_approx=True)
        draws = reduce(np.add, (block_draws(b, spec, "k") for b in blocks))
        quad, rank = _energy_quadratic(draws / sum(b.n for b in blocks))
        assert rank > 0
        expected = float(chi2.sf(quad[spec.n_perms], df=rank))
        assert permutation_pvalue(blocks, spec, stream_key="k") == expected

    def test_rank_deficiency_handled(self):
        # two outcome values make several scores perfectly collinear
        block = make_block([0.0, 0.0, 1.0, 1.0, 0.0, 1.0], [0, 2, 4])
        spec = TestSpec(statistic="energy")
        p = permutation_pvalue([block], spec)
        assert 0.0 < p <= 1.0


@pytest.mark.parametrize(
    "treatment",
    [np.array([0.7, 1.2, 0.0, 1.9]), np.array([256, 1, 0, 257], dtype=np.int64)],
    ids=["fractional", "wraps_in_int8"],
)
def test_block_rejects_treatment_that_casts_to_0_1(treatment):
    # both inputs read [0, 1, 0, 1] after an int8 cast
    with pytest.raises(PermTestError, match="treatment must be 0/1"):
        Block("b", treatment, np.arange(4.0))


def test_block_accepts_0_1_of_any_dtype():
    for treatment in ([0, 1, 1, 0], [0.0, 1.0, 1.0, 0.0], [False, True, True, False]):
        block = Block("b", np.array(treatment), np.arange(4.0))
        assert block.treatment.dtype == np.int8
        assert block.treatment.tolist() == [0, 1, 1, 0]


def test_spec_validation():
    with pytest.raises(PermTestError):
        TestSpec(statistic="median")
    with pytest.raises(PermTestError):
        TestSpec(sides="three")


@pytest.mark.parametrize(
    "kw, message",
    [({"statistic": "energy", "sides": "one"},
      "the energy statistic has no one-sided test; use sides='two'"),
     ({"statistic": "mean_diff", "chi2_approx": True},
      "chi2_approx applies to the energy statistic only"),
     ({"statistic": "rank", "chi2_approx": True},
      "chi2_approx applies to the energy statistic only")],
    ids=["one_sided_energy", "chi2_mean_diff", "chi2_rank"],
)
def test_spec_refuses_settings_its_test_ignores(kw, message):
    # the energy quadratic form has no direction, and only it reads chi2_approx
    with pytest.raises(PermTestError, match=f"^{re.escape(message)}$"):
        TestSpec(**kw)


def test_power_at_reference_design_point():
    # mean-shift detection rate near the classical two-sample t benchmark
    replicates = 300
    hits = 0
    spec = TestSpec(statistic="mean_diff", n_perms=199, exact=False, seed=0)
    for rep in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([77, rep]))
        outcome = rng.normal(size=50)
        treated = rng.permutation(50)[:25]
        outcome[treated] += 0.8
        block = make_block(outcome, treated)
        hits += permutation_pvalue([block], spec, stream_key=str(rep)) <= 0.05
    assert hits / replicates == pytest.approx(0.79, abs=0.08)


class TestRankSumDraws:
    """Rank blocks without ties draw their treated rank sum W from its
    exact null: one uniform integer per draw, looked up in the counts of the
    m-subsets of 1..n by sum."""

    def test_counts_equal_brute_force(self):
        for n in range(2, 15):
            for m in range(1, n):
                sums = Counter(map(sum, itertools.combinations(range(1, n + 1), m)))
                low = m * (m + 1) // 2
                want = [sums[low + u] for u in range(m * (n - m) + 1)]
                assert permtest._rank_sum_counts(n, m).tolist() == want, (n, m)

    def test_counts_add_up_to_the_assignments_and_are_symmetric(self):
        for n in range(2, 67):  # C(66, 33) < 2^63 < C(67, 33)
            for m in range(1, n):
                counts = permtest._rank_sum_counts(n, m)
                assert sum(counts.tolist()) == math.comb(n, m), (n, m)
                assert counts.min() >= 1 and np.array_equal(counts, counts[::-1]), (n, m)

    @pytest.mark.parametrize("n, m", [(7, 3), (12, 5), (50, 25), (66, 33), (300, 4)])
    def test_guide_lookup_is_the_inverse_cdf(self, n, m):
        null = permtest._rank_sum_null(n, m)
        total = math.comb(n, m)
        assert int(null.cdf[-1]) == total
        steps = null.cdf[:-1]
        u = np.concatenate([
            [0, total - 1], steps - 1, steps, steps + 1,
            np.random.default_rng(n).integers(0, total, 20_000, dtype=np.int64),
        ])
        u = u[(u >= 0) & (u < total)]
        assert np.array_equal(null.index(u), np.searchsorted(null.cdf, u, side="right"))

    def test_drawn_rank_sums_follow_the_counts(self):
        n, m, draws = 12, 5, 200_000
        block = make_block(np.random.default_rng(2).normal(size=n), [0, 3, 4, 8, 11])
        rows = block_draws(block, TestSpec(statistic="rank", n_perms=draws, seed=3), "k")
        assert rows.shape == (draws + 1, 1)
        table = permtest._rank_sum_null(n, m).rows
        u = np.searchsorted(table, rows[:-1, 0])
        assert np.array_equal(table[u], rows[:-1, 0])  # every row is the row of a rank sum
        observed = np.bincount(u, minlength=table.size)
        expected = draws * permtest._rank_sum_counts(n, m) / math.comb(n, m)
        assert expected.min() >= 5
        statistic = ((observed - expected) ** 2 / expected).sum()
        assert chi2.sf(statistic, table.size - 1) > 1e-3

    def test_rows_are_the_weighted_differences_of_the_drawn_sums(self):
        n, m = 9, 4
        block = make_block(np.random.default_rng(4).normal(size=n), [1, 2, 6, 7])
        rows = block_draws(block, TestSpec(statistic="rank", n_perms=500, seed=1), "k")
        ranks = rankdata(block.outcome)
        sums = np.arange(m * (m + 1) // 2, m * (2 * n - m + 1) // 2 + 1)
        w = np.append(sums, ranks[[1, 2, 6, 7]].sum())
        want = permtest._weighted_diff("rank", n, m, w, n * (n + 1) / 2 - w)
        assert set(rows[:-1, 0].tolist()) <= set(want[:-1].tolist())
        assert rows[-1, 0] == want[-1]

    def test_draws_depend_on_neither_the_cache_nor_the_draw_count(self):
        block = make_block(np.random.default_rng(6).normal(size=10), [0, 2, 5, 9], "b3")
        spec = TestSpec(statistic="rank", n_perms=1000, seed=5)
        permtest._rank_sum_null.cache_clear()
        cold = block_draws(block, spec, "k")
        warm = block_draws(block, spec, "k")
        assert cold.tobytes() == warm.tobytes()
        fewer = block_draws(block, TestSpec(statistic="rank", n_perms=100, seed=5), "k")
        assert np.array_equal(fewer[:-1], cold[:100]) and fewer[-1] == cold[-1]

    @pytest.mark.parametrize(
        "n, m, tie", [(9, 4, True), (70, 35, False)], ids=["tied", "past_2_63_assignments"]
    )
    def test_other_rank_blocks_draw_keys_as_the_unchunked_sampler(self, n, m, tie):
        rng = np.random.default_rng(n)
        outcome = rng.normal(size=n)
        if tie:
            outcome[5] = outcome[2]
        else:
            assert math.comb(n, m) >= 2**63
        block = make_block(outcome, rng.permutation(n)[:m], "b8")
        spec = TestSpec(statistic="rank", n_perms=300, seed=4)
        got = block_draws(block, spec, "node")
        want = block_draws_unchunked(block, spec, "node")
        assert got.shape == (301, 1) and got.tobytes() == want.tobytes()

    def test_a_chunk_draws_each_block_as_alone(self):
        # two block positions of five datasets, the blocks of a position of
        # one shape; blocks with tied outcomes draw keys, the others rank sums
        spec = TestSpec(statistic="rank", n_perms=400, seed=2)
        rng = np.random.default_rng(11)
        positions, tied = [], []
        for bid, n, m, ties in [("b1", 10, 5, (1, 4)), ("b2", 7, 3, (0,))]:
            blocks = []
            for d in range(5):
                outcome = rng.normal(size=n)
                if d in ties:
                    outcome[3] = outcome[5]
                blocks.append(make_block(outcome, rng.permutation(n)[:m], bid))
                tied.append(d in ties)
            positions.append(blocks)

        def stream(block, d):
            entropy = permtest.block_entropy(spec, f"{d}/", block.block_id)
            return np.random.PCG64(np.random.SeedSequence(entropy))

        bitgens = (stream(b, d) for blocks in positions for d, b in enumerate(blocks))
        got = list(permtest.chunk_draws(positions, spec, bitgens))
        assert [g.shape for g in got] == [(5, spec.n_perms + 1, 1)] * 2
        blocks = [(b, d) for ps in positions for d, b in enumerate(ps)]
        for (block, d), drawn, ties in zip(blocks, (row for g in got for row in g), tied):
            if ties:
                want = block_draws_unchunked(block, spec, f"{d}/")
            else:
                n, m = block.n, block.n_treated
                null = permtest._rank_sum_null(n, m)
                u = np.random.Generator(stream(block, d)).integers(0, math.comb(n, m), spec.n_perms)
                w = int(rankdata(block.outcome)[block.treatment == 1].sum())
                rows = null.rows[np.searchsorted(null.cdf, u, side="right")]
                want = np.append(rows, null.rows[w - m * (m + 1) // 2])[:, None]
            assert drawn.tobytes() == want.tobytes(), (block.block_id, d)

    def test_the_blocks_of_a_position_must_have_one_shape(self):
        blocks = [make_block(np.arange(6.0), [0, 1, 2]), make_block(np.arange(6.0), [0, 1])]
        draws = permtest.chunk_draws([blocks], TestSpec(statistic="rank"), [None, None])
        with pytest.raises(PermTestError, match="^the blocks of a position must have one shape$"):
            next(draws)


def doubled_rank_tail(blocks, sides):
    """Exact tail count of a node of balanced blocks, by integer brute force
    over every joint assignment.  With doubled mid-ranks every score is an
    integer, and a balanced block's weighted difference is its treated sum
    minus its control sum of them."""
    per_block, observed = [], 0
    for b in blocks:
        r2 = (2 * rankdata(b.outcome)).astype(int).tolist()
        total = sum(r2)
        per_block.append([
            2 * sum(r2[i] for i in combo) - total
            for combo in itertools.combinations(range(b.n), b.n_treated)
        ])
        observed += 2 * sum(r for r, t in zip(r2, b.treatment) if t) - total
    count = 0
    for values in itertools.product(*per_block):
        t = sum(values)
        count += abs(t) >= abs(observed) if sides == "two" else t >= observed
    return count


class TestExactRankTies:
    """Exact rank p-values count every assignment whose rank total ties the
    observed one."""

    def test_golden_trial_node_s2a(self):
        from treegate.cli import read_dataset

        dataset = read_dataset(os.path.join(os.path.dirname(__file__), "golden", "trial.csv"))
        blocks = [b for b in dataset.blocks if b.block_id in ("b04", "b05")]
        spec = TestSpec(statistic="rank")
        assert total_assignments(blocks) == 5040
        assert doubled_rank_tail(blocks, "two") == 558
        assert permutation_pvalue(blocks, spec) == 558 / 5040

    @pytest.mark.parametrize("ties", [False, True], ids=["no_ties", "ties"])
    def test_balanced_nodes_match_integer_brute_force(self, ties):
        rng = np.random.default_rng(27 + ties)
        checked = 0
        while checked < 40:
            sizes = rng.choice([4, 6, 8], size=rng.integers(1, 4))
            if math.prod(math.comb(int(n), int(n) // 2) for n in sizes) > 5000:
                continue
            blocks = []
            for i, n in enumerate(sizes):
                y = rng.integers(0, 4, n).astype(float) if ties else rng.normal(size=n)
                blocks.append(make_block(y, rng.permutation(n)[: n // 2], f"b{i}"))
            M = total_assignments(blocks)
            for sides in ("one", "two"):
                p = permutation_pvalue(blocks, TestSpec(statistic="rank", sides=sides))
                assert p == doubled_rank_tail(blocks, sides) / M, (sizes, sides)
            checked += 1
