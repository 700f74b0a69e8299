import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from _oracles import ReferenceTree, shuffled_trees
from treegate.errorload import (
    PowerModel,
    ScheduleError,
    adaptive_schedule,
    error_load_regular,
    power_normal_approx,
    pruned_thresholds,
    recompute_after_pruning,
)
from treegate.tree import build_from_paths, build_regular, from_parents

thetas_strategy = st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=2, max_size=6)


class TestPowerModel:
    def test_reference_power_values(self):
        model = PowerModel(d_hat=0.8, alpha=0.05)
        assert power_normal_approx(model, 50) == pytest.approx(0.807, abs=0.001)
        strict = PowerModel(d_hat=0.8, alpha=0.005)
        assert power_normal_approx(strict, 50) == pytest.approx(0.508, abs=0.001)

    def test_null_effect_floors_at_alpha(self):
        model = PowerModel(d_hat=0.0, alpha=0.05)
        assert power_normal_approx(model, 1000) == 0.05

    def test_tiny_sample_rejected(self):
        with pytest.raises(ScheduleError):
            power_normal_approx(PowerModel(d_hat=0.5), 1)

    def test_invalid_model_rejected(self):
        with pytest.raises(ScheduleError):
            PowerModel(d_hat=-0.1)
        with pytest.raises(ScheduleError):
            PowerModel(d_hat=0.2, alpha=0.6)
        for d_hat in (math.nan, math.inf):
            with pytest.raises(ScheduleError, match="finite"):
                PowerModel(d_hat=d_hat)


class TestPowerAgainstScipyStats:
    # differential oracle: the scipy.special expression against the
    # textbook formula through scipy.stats.norm, element by element
    SIZES = np.concatenate([np.arange(2, 600), [1000, 4096, 10**5, 10**7]])

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.25, 0.49])
    @pytest.mark.parametrize("d_hat", [0.0, 0.01, 0.13, 0.2, 0.5, 0.8, 1.7, 4.0])
    def test_array_power_matches_norm_bitwise(self, d_hat, alpha):
        model = PowerModel(d_hat=d_hat, alpha=alpha)
        theta = power_normal_approx(model, self.SIZES)
        assert isinstance(theta, np.ndarray) and theta.shape == self.SIZES.shape
        z = norm.ppf(1.0 - alpha / 2.0)
        expected = [
            max(float(norm.cdf(d_hat * math.sqrt(n / 4.0) - z)), alpha)
            for n in self.SIZES.tolist()
        ]
        assert theta.tolist() == expected

    def test_scalar_call_is_the_matching_float(self):
        model = PowerModel(d_hat=0.3, alpha=0.05)
        theta = power_normal_approx(model, self.SIZES)
        for i in (0, 7, 300, len(self.SIZES) - 1):
            for n in (int(self.SIZES[i]), float(self.SIZES[i]), self.SIZES[i]):
                value = power_normal_approx(model, n)
                assert type(value) is float
                assert value == theta[i]

    def test_array_with_a_tiny_size_rejected(self):
        with pytest.raises(ScheduleError):
            power_normal_approx(PowerModel(d_hat=0.5), np.array([40, 1, 40]))


class TestErrorLoadRegular:
    def test_level_one_is_root_theta(self):
        loads, _ = error_load_regular(3, 3, [0.42, 0.5, 0.5])
        assert loads[0] == 0.42

    def test_reference_loads(self):
        loads, total = error_load_regular(2, 3, [1.0, 0.6, 0.3])
        assert loads == pytest.approx([1.0, 1.2, 0.72])
        assert total == pytest.approx(2.92)

    @given(st.integers(2, 6), thetas_strategy)
    @settings(max_examples=200, deadline=None)
    def test_ratio_identity(self, k, thetas):
        L = len(thetas)
        loads, _ = error_load_regular(k, L, thetas)
        for lvl in range(L - 1):
            assert loads[lvl + 1] / loads[lvl] == pytest.approx(
                k * thetas[lvl + 1], abs=1e-12
            )

    def test_rejects_bad_thetas(self):
        with pytest.raises(ScheduleError):
            error_load_regular(2, 3, [1.0, 0.0, 0.5])
        with pytest.raises(ScheduleError):
            error_load_regular(2, 3, [1.0, 0.5])


class TestAdaptiveSchedule:
    @given(st.integers(2, 4), st.integers(2, 5), st.integers(2, 200), st.floats(0.0, 1.0))
    @example(2, 3, 50, 0.0)  # total error load below 1: nominal alpha everywhere
    @example(3, 3, 100, 0.8)  # load above 1: adjusted below the root
    @settings(max_examples=150, deadline=None)
    def test_regular_tree_matches_regular_error_loads(self, k, L, units, d_hat):
        tree = build_regular(k, L, units_per_leaf=units)
        model = PowerModel(d_hat=d_hat)
        sched = adaptive_schedule(tree, model)
        # every depth-l node holds units * k**(L-l) units, so shares one theta
        thetas = [power_normal_approx(model, units * k ** (L - d)) for d in range(1, L + 1)]
        loads, total = error_load_regular(k, L, thetas)
        assert sched.total_error_load == pytest.approx(total, rel=1e-12)
        assert sched.gating_sufficient == (sched.total_error_load <= 1.0)
        assert sched.depths[0].alpha_adj == model.alpha
        for row, theta, load in zip(sched.depths, thetas, loads):
            assert row.n_nodes == k ** (row.depth - 1)
            assert row.theta_hat == pytest.approx(theta, rel=1e-12)
            assert row.error_load == pytest.approx(load, rel=1e-12)
            assert row.exposure * theta == pytest.approx(load, rel=1e-12)
            if sched.gating_sufficient:
                assert row.alpha_adj == model.alpha
            else:
                assert row.exposure * row.alpha_adj <= model.alpha * (1 + 1e-12)

    def test_irregular_tree_sums_reach_products(self):
        # root -> (g -> a, b), c: depth 3 is reached through root and g
        tree = build_from_paths(
            [("a", ("g", "a"), 30), ("b", ("g", "b"), 50), ("c", ("c",), 40)]
        )
        model = PowerModel(d_hat=0.5)
        theta = {nid: power_normal_approx(model, tree.node(nid).n_units) for nid in tree.ids}
        sched = adaptive_schedule(tree, model)
        assert [row.n_nodes for row in sched.depths] == [1, 2, 2]
        assert [row.exposure for row in sched.depths] == pytest.approx(
            [1.0, 2 * theta["root"], 2 * theta["root"] * theta["g"]]
        )
        assert sched.depths[2].error_load == pytest.approx(
            theta["root"] * theta["g"] * (theta["a"] + theta["b"])
        )

    def test_monotone_in_planning_effect(self):
        tree = build_regular(3, 3, units_per_leaf=40)
        previous = None
        for d in (0.3, 0.5, 0.8):
            sched = adaptive_schedule(tree, PowerModel(d_hat=d))
            if previous is not None and not sched.gating_sufficient:
                for row, row_prev in zip(sched.depths[1:], previous.depths[1:]):
                    assert row.alpha_adj <= row_prev.alpha_adj + 1e-12
            previous = sched

    def test_schedule_reports_theta_means(self):
        tree = build_regular(2, 3, units_per_leaf=50)
        sched = adaptive_schedule(tree, PowerModel(d_hat=0.4))
        assert len(sched.depths) == 3
        assert all(0.05 <= row.theta_hat <= 1.0 for row in sched.depths)

    def test_alpha_at_missing_depth_rejected(self):
        tree = build_regular(2, 2, units_per_leaf=10)
        sched = adaptive_schedule(tree, PowerModel(d_hat=0.4))
        with pytest.raises(ScheduleError):
            sched.alpha_at(5)


def cut_at(tree, stops):
    """The cut mask marking the given node ids."""
    cut = np.zeros(len(tree), dtype=bool)
    cut[[tree.index_of(nid) for nid in stops]] = True
    return cut


class TestRecomputeAfterPruning:
    def make(self, branches=5, leaf_units=400):
        rows = []
        for b in range(branches):
            for j in range(2):
                bid = f"b{b}{j}"
                rows.append((bid, (f"g{b}", bid), leaf_units))
        return build_from_paths(rows)

    def test_noop_pruning_is_identity(self):
        tree = self.make()
        model = PowerModel(d_hat=0.2)
        sched = adaptive_schedule(tree, model)
        again = recompute_after_pruning(sched, tree, cut_at(tree, []), depth_completed=1)
        assert again == sched

    def test_surviving_branch_relaxes_downstream(self):
        tree = self.make(branches=5)
        model = PowerModel(d_hat=0.12)
        sched = adaptive_schedule(tree, model)
        assert not sched.gating_sufficient
        cut = cut_at(tree, [f"g{b}" for b in range(1, 5)])
        after = recompute_after_pruning(sched, tree, cut, depth_completed=2)
        before_leaf = sched.alpha_at(3)
        after_leaf = after.alpha_at(3)
        assert after_leaf >= before_leaf
        # four of five branches died, so exposure drops about fivefold
        assert after_leaf == pytest.approx(min(0.05, before_leaf * 5), rel=0.01)
        # completed depths keep their original thresholds
        assert after.alpha_at(1) == sched.alpha_at(1)
        assert after.alpha_at(2) == sched.alpha_at(2)

    def test_all_branches_pruned_drops_deeper_rows(self):
        tree = self.make(branches=3)
        model = PowerModel(d_hat=0.2)
        sched = adaptive_schedule(tree, model)
        cut = cut_at(tree, ["g0", "g1", "g2"])
        after = recompute_after_pruning(sched, tree, cut, depth_completed=2)
        assert after.max_depth() == 2

    def test_thresholds_never_decrease(self):
        tree = self.make(branches=4)
        model = PowerModel(d_hat=0.15)
        sched = adaptive_schedule(tree, model)
        after = recompute_after_pruning(sched, tree, cut_at(tree, ["g0"]), depth_completed=2)
        for row in after.depths:
            assert row.alpha_adj >= sched.alpha_at(row.depth) - 1e-15
            assert row.alpha_adj <= sched.alpha + 1e-15

    @pytest.mark.parametrize("shape", [(0,), (20,), (22,), (1, 21), (21, 1), ()])
    def test_cut_of_another_shape_rejected(self, shape):
        tree = self.make(branches=5)  # 21 nodes
        sched = adaptive_schedule(tree, PowerModel(d_hat=0.12))
        with pytest.raises(ScheduleError, match="cut mask") as err:
            recompute_after_pruning(sched, tree, np.zeros(shape, dtype=bool), depth_completed=1)
        assert "\n" not in str(err.value)


def random_cut(tree, data, rows, below=None):
    """A drawn bool (rows, nodes) cut mask, with cut nodes only at depths
    above ``below`` when it is given."""
    bits = data.draw(
        st.lists(st.booleans(), min_size=rows * len(tree), max_size=rows * len(tree)),
        label="cut",
    )
    cut = np.array(bits, dtype=bool).reshape(rows, len(tree))
    return cut if below is None else cut & (tree.depth < below)


class TestPrunedThresholds:
    """The per-row thresholds the pruning gate applies, against the one-row
    schedule recomputed after pruning."""

    @given(
        shuffled_trees(max_nodes=30, min_units=2),
        st.integers(1, 300),
        st.floats(0.05, 1.0),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_the_recomputed_schedule_bitwise(self, args, scale, d_hat, rows, data):
        ids, parent, units = args
        tree = from_parents(ids, parent, [None if u is None else u * scale for u in units])
        assume(tree.max_depth >= 2)
        depth = data.draw(st.integers(2, tree.max_depth), label="depth")
        cut = random_cut(tree, data, rows, below=depth)
        model = PowerModel(d_hat=d_hat)
        schedule = adaptive_schedule(tree, model)
        got = pruned_thresholds(tree, model, cut, depth)
        assert got.shape == (rows,)
        for r in range(rows):
            recomputed = recompute_after_pruning(schedule, tree, cut[r], depth - 1)
            if recomputed.max_depth() >= depth:  # the row still reaches depth
                assert got[r].hex() == recomputed.alpha_at(depth).hex()


class TestReachable:
    @given(shuffled_trees(max_nodes=30), st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_and_pruned_trees_agree(self, args, rows, data):
        ids, parent, units = args
        tree = from_parents(ids, parent, units)
        ref = ReferenceTree(
            {nid: ids[p] if p >= 0 else None for nid, p in zip(ids, parent)},
            {nid: u for nid, u in zip(ids, units) if u is not None},
        )
        cut = random_cut(tree, data, rows)
        alive = tree.reachable(cut)
        assert alive.dtype == bool and alive.shape == cut.shape
        for r in range(rows):
            assert tree.reachable(cut[r]).tolist() == alive[r].tolist()
            stops = [tree.ids[i] for i in np.flatnonzero(cut[r]).tolist()]
            survivors = [nid for nid, keep in zip(tree.ids, alive[r].tolist()) if keep]
            assert tree.prune_below(stops).ids == survivors
            assert list(ref.prune_below(stops).parent) == survivors
