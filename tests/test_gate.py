import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import outcomes, rejected_ids, shuffled_trees, topdown_loop
from treegate.errorload import AlphaSchedule, DepthSchedule, PowerModel, adaptive_schedule
from treegate.gate import (
    ADAPTIVE,
    ADAPTIVE_PRUNED,
    VARIANTS,
    GateError,
    GateVariant,
    LOCAL_BH,
    LOCAL_HOMMEL,
    UNADJUSTED,
    run_bottom_up,
    run_bottom_up_batch,
    run_topdown,
    run_topdown_batch,
    score_batch,
    score_rejections,
    score_result,
)
from treegate.tree import build_regular, from_parents

FIG_PVALUES = {
    "1": 0.001,
    "2": 0.01,
    "3": 0.2,
    "4": 0.9,
    "5": 0.03,
    "6": 0.5,
    "7": 0.7,
}


def fixed_schedule(counts, thresholds, alpha=0.05):
    """Schedule with the given per-depth node counts and thresholds; each
    depth's exposure is ``alpha / threshold`` and every theta is 1."""
    rows = tuple(
        DepthSchedule(depth, n, 1.0, alpha / a, alpha / a, a)
        for depth, (n, a) in enumerate(zip(counts, thresholds), start=1)
    )
    return AlphaSchedule(PowerModel(d_hat=0.0, alpha=alpha), rows)


@pytest.fixture
def k3l3():
    return build_regular(3, 3)


class TestRunTopdown:
    def test_root_non_rejection_stops_everything(self, k3l3):
        result = run_topdown(k3l3, {"1": 0.6}.__getitem__, UNADJUSTED)
        assert result.nodes_tested == 1
        assert len(rejected_ids(result, k3l3)) == 0

    def test_reference_trace(self, k3l3):
        result = run_topdown(k3l3, FIG_PVALUES.__getitem__, UNADJUSTED, alpha=0.05)
        assert set(outcomes(result, k3l3)) == {"1", "2", "3", "4", "5", "6", "7"}
        assert set(rejected_ids(result, k3l3)) == {"1", "2", "5"}
        assert score_result(result, k3l3.label_truth(set())).leaves_tested == 3

    def test_rejected_set_upward_closed(self, k3l3):
        result = run_topdown(k3l3, FIG_PVALUES.__getitem__, UNADJUSTED)
        for nid in rejected_ids(result, k3l3):
            parent = k3l3.node(nid).parent
            if parent is not None:
                assert outcomes(result, k3l3)[parent][3]

    def test_alpha_zero_and_one(self, k3l3):
        rng = np.random.default_rng(0)
        pvals = {nid: rng.random() for nid in k3l3.ids}
        none = run_topdown(k3l3, pvals.__getitem__, UNADJUSTED, alpha=0.0)
        assert len(rejected_ids(none, k3l3)) == 0
        # p-values can equal 1, so alpha=1 rejects every node in the tree
        pvals["1"] = 1.0
        everything = run_topdown(k3l3, pvals.__getitem__, UNADJUSTED, alpha=1.0)
        assert everything.nodes_tested == len(k3l3)
        assert len(rejected_ids(everything, k3l3)) == len(k3l3)

    @given(st.floats(0.005, 0.2), st.floats(0.005, 0.2), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_alpha(self, a1, a2, seed):
        tree = build_regular(3, 3)
        rng = np.random.default_rng(seed)
        pvals = {nid: rng.random() for nid in tree.ids}
        low, high = sorted([a1, a2])
        r_low = run_topdown(tree, pvals.__getitem__, UNADJUSTED, alpha=low)
        r_high = run_topdown(tree, pvals.__getitem__, UNADJUSTED, alpha=high)
        assert set(rejected_ids(r_low, tree)) <= set(rejected_ids(r_high, tree))

    def test_deterministic(self, k3l3):
        a = run_topdown(k3l3, FIG_PVALUES.__getitem__, UNADJUSTED)
        b = run_topdown(k3l3, FIG_PVALUES.__getitem__, UNADJUSTED)
        assert outcomes(a, k3l3) == outcomes(b, k3l3)

    def test_missing_pvalue_raises(self, k3l3):
        message = r"^p-value source has no value for reachable node '2'$"
        with pytest.raises(GateError, match=message):
            run_topdown(k3l3, {"1": 0.001}.__getitem__, UNADJUSTED)

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
    def test_out_of_range_pvalue_raises(self, k3l3, p):
        for nid in ("1", "3"):  # the root, and a node reached at depth 2
            pvals = dict.fromkeys(k3l3.ids, 0.01)
            pvals[nid] = p
            message = rf"^p-value for node '{nid}' outside \[0, 1\]: {p}$"
            with pytest.raises(GateError, match=message):
                run_topdown(k3l3, pvals.__getitem__, UNADJUSTED)


class TestLocalAdjustment:
    def test_local_hommel_blocks_borderline_sibling(self, k3l3):
        # children of the root: (0.03, 0.04, 0.9); unadjusted rejects two,
        # Hommel within the sibling group rejects none at alpha=0.05
        pvals = {"1": 0.001, "2": 0.03, "3": 0.04, "4": 0.9}
        pvals.update({str(i): 0.9 for i in range(5, 14)})
        plain = run_topdown(k3l3, pvals.__getitem__, UNADJUSTED)
        assert set(rejected_ids(plain, k3l3)) >= {"1", "2", "3"}
        local = run_topdown(k3l3, pvals.__getitem__, LOCAL_HOMMEL)
        assert set(rejected_ids(local, k3l3)) == {"1"}

    def test_local_bh_adjusts_within_group(self, k3l3):
        pvals = {"1": 0.001, "2": 0.01, "3": 0.02, "4": 0.03}
        pvals.update({str(i): 0.9 for i in range(5, 14)})
        result = run_topdown(k3l3, pvals.__getitem__, LOCAL_BH)
        # BH over (0.01, 0.02, 0.03): adjusted (0.03, 0.03, 0.03) -> all pass
        assert set(rejected_ids(result, k3l3)) == {"1", "2", "3", "4"}

    def test_root_group_of_one_is_unchanged(self, k3l3):
        pvals = {nid: 0.9 for nid in k3l3.ids}
        pvals["1"] = 0.04
        result = run_topdown(k3l3, pvals.__getitem__, LOCAL_HOMMEL, alpha=0.05)
        _, p_adjusted, _, rejected = outcomes(result, k3l3)["1"]
        assert rejected
        assert p_adjusted == 0.04


class TestAdaptiveVariants:
    def test_adaptive_uses_schedule_thresholds(self, k3l3):
        sched = fixed_schedule([1, 3, 9], [0.05, 0.05 / 3, 0.05 / 4.5])
        # alpha_2 = 0.05 / 3, so p = 0.02 passes unadjusted but not adaptive
        pvals = {"1": 0.001, "2": 0.02, "3": 0.5, "4": 0.5}
        pvals.update({str(i): 0.9 for i in range(5, 14)})
        plain = run_topdown(k3l3, pvals.__getitem__, UNADJUSTED)
        assert "2" in rejected_ids(plain, k3l3)
        adaptive = run_topdown(k3l3, pvals.__getitem__, ADAPTIVE, schedule=sched)
        assert outcomes(adaptive, k3l3)["2"][2] == pytest.approx(0.05 / 3)
        assert "2" not in rejected_ids(adaptive, k3l3)

    def test_adaptive_requires_schedule(self, k3l3):
        with pytest.raises(GateError, match="schedule"):
            run_topdown(k3l3, FIG_PVALUES.__getitem__, ADAPTIVE)

    def test_short_schedule_rejected(self, k3l3):
        sched = fixed_schedule([1, 3], [0.05, 0.05 / 3])
        with pytest.raises(GateError, match="shorter"):
            run_topdown(k3l3, FIG_PVALUES.__getitem__, ADAPTIVE, schedule=sched)

    @pytest.mark.parametrize("variant", [ADAPTIVE, ADAPTIVE_PRUNED], ids=lambda v: v.name)
    def test_schedule_at_another_alpha_rejected(self, variant):
        tree = build_regular(3, 3, units_per_leaf=50)
        sched = adaptive_schedule(tree, PowerModel(d_hat=0.2, alpha=0.01))
        with pytest.raises(GateError, match=r"alpha 0\.01.* 0\.05"):
            run_topdown(tree, FIG_PVALUES.get, variant, alpha=0.05, schedule=sched)
        # a fixed variant reads no schedule, so it ignores one at any alpha
        fixed = run_topdown(tree, FIG_PVALUES.get, UNADJUSTED, alpha=0.05, schedule=sched)
        assert outcomes(fixed, tree)["1"][2] == 0.05

    def test_pruned_relaxes_after_dead_branches(self):
        tree = build_regular(3, 3, units_per_leaf=300)
        model = PowerModel(d_hat=0.105)
        sched = adaptive_schedule(tree, model)
        assert not sched.gating_sufficient
        # root and one branch reject; the other two die at depth 2
        pvals = {"1": 0.0001, "2": 0.001, "3": 0.9, "4": 0.9}
        pvals.update({str(i): 0.021 for i in range(5, 14)})
        plain = run_topdown(tree, pvals.__getitem__, ADAPTIVE, schedule=sched)
        pruned = run_topdown(tree, pvals.__getitem__, ADAPTIVE_PRUNED, schedule=sched)
        assert set(rejected_ids(plain, tree)) <= set(rejected_ids(pruned, tree))
        leaf_plain = outcomes(plain, tree)["5"][2]
        leaf_pruned = outcomes(pruned, tree)["5"][2]
        assert leaf_pruned == pytest.approx(min(0.05, leaf_plain * 3), rel=1e-6)

    def test_pruned_equals_adaptive_when_nothing_pruned(self, k3l3):
        tree = build_regular(3, 3, units_per_leaf=300)
        sched = adaptive_schedule(tree, PowerModel(d_hat=0.2))
        pvals = {nid: 0.0001 for nid in tree.ids}
        a = run_topdown(tree, pvals.__getitem__, ADAPTIVE, schedule=sched)
        b = run_topdown(tree, pvals.__getitem__, ADAPTIVE_PRUNED, schedule=sched)
        assert set(rejected_ids(a, tree)) == set(rejected_ids(b, tree))


def rebuilt_pruned_walk(tree, pvals, schedule):
    """The adaptive_pruned walk that rebuilds the surviving tree after each
    depth: ``prune_below`` drops the subtrees of the non-rejected nodes, and
    ``adaptive_schedule`` of the rebuilt tree gives the deeper thresholds.

    Returns the rejected ids and each tested node's threshold.
    """
    thresholds = {row.depth: row.alpha_adj for row in schedule.depths}
    surviving = tree
    applied, rejected = {}, set()
    level, depth = [tree.root], 1
    while level:
        below, stops = [], []
        for nid in level:
            applied[nid] = thresholds[depth]
            children = tree.node(nid).children
            if pvals[nid] <= thresholds[depth]:
                rejected.add(nid)
                below.extend(children)
            elif children:
                stops.append(nid)
        if below:
            surviving = surviving.prune_below(stops)
            fresh = adaptive_schedule(surviving, schedule.model)
            thresholds = {
                row.depth: thresholds[row.depth] if row.depth <= depth else row.alpha_adj
                for row in fresh.depths
            }
        level, depth = below, depth + 1
    return rejected, applied


class TestPrunedAgainstRebuiltTree:
    @given(
        shuffled_trees(max_nodes=30, min_units=2),
        st.integers(1, 300),
        st.floats(0.05, 1.0),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_cut_mask_walk_equals_rebuilding_walk(self, args, scale, d_hat, data):
        ids, parent, units = args
        tree = from_parents(ids, parent, [None if u is None else u * scale for u in units])
        schedule = adaptive_schedule(tree, PowerModel(d_hat=d_hat))
        # p-values around the thresholds as well as anywhere in [0, 1]
        p = st.one_of(st.floats(0.0, 0.06), st.floats(0.0, 1.0))
        pvals = data.draw(st.fixed_dictionaries({nid: p for nid in ids}), label="pvals")
        result = run_topdown(tree, pvals.__getitem__, ADAPTIVE_PRUNED, schedule=schedule)
        rejected, applied = rebuilt_pruned_walk(tree, pvals, schedule)
        assert set(rejected_ids(result, tree)) == rejected
        assert {nid: o[2] for nid, o in outcomes(result, tree).items()} == applied


def scalar_rows(tree, P, variant, schedule):
    """The scalar oracle walk on each row of ``P``: per row, the tested ids,
    the rejected ids and the ``(p, p_adjusted, alpha_applied, rejected)``
    outcomes by id, in the order the walk tests them."""
    out = []
    for row in P:
        p_of = dict(zip(tree.ids, row.tolist())).__getitem__
        result = outcomes(topdown_loop(tree, p_of, variant, schedule=schedule), tree)
        out.append((set(result), {nid for nid, o in result.items() if o[3]}, result))
    return out


def walk_rows(tree, walk):
    """Per row of a walk: its tested ids, its rejected ids and its outcomes
    by id, in the walk's order."""
    out = [(set(), set(), {}) for _ in range(walk.rows)]
    columns = (walk.row, walk.node, walk.p, walk.p_adjusted, walk.alpha_applied, walk.rejected)
    for r, i, p, pa, a, rejected in zip(*(c.tolist() for c in columns)):
        nid = tree.ids[i]
        out[r][0].add(nid)
        if rejected:
            out[r][1].add(nid)
        out[r][2][nid] = (p, pa, a, rejected)
    return out


def pin_thresholds(tree, P, schedule):
    """Set each p-value the pruning variant rejects to the threshold it was
    compared with, in place; the scalar walks keep their decisions."""
    for r, (_, rejected, result) in enumerate(scalar_rows(tree, P, ADAPTIVE_PRUNED, schedule)):
        for nid in rejected:
            P[r, tree.index_of(nid)] = result[nid][2]


def wide_tree(fanouts, units):
    """``from_parents`` arguments of a three-level tree: group g under the
    root holds ``fanouts[g]`` leaves, and node i's unit count is
    ``units[i]``.  Twelve groups of twelve leaves make a depth's sums run
    past the eight-term blocks of numpy's pairwise sum."""
    parent = [-1] + [0] * len(fanouts)
    parent += [1 + g for g, fanout in enumerate(fanouts) for _ in range(fanout)]
    groups = set(parent)
    return (
        [f"n{i}" for i in range(len(parent))],
        parent,
        [None if i in groups else u for i, u in enumerate(units)],
    )


def wide_trees():
    """Strategy for ``wide_tree`` arguments with up to 12 groups of up to
    12 leaves."""
    return st.lists(st.integers(0, 12), min_size=2, max_size=12).flatmap(
        lambda fanouts: st.lists(
            st.integers(2, 9), min_size=1 + len(fanouts) + sum(fanouts),
            max_size=1 + len(fanouts) + sum(fanouts),
        ).map(lambda units: wide_tree(fanouts, units))
    )


class TestBatchAgainstScalar:
    @given(
        st.one_of(shuffled_trees(max_nodes=40, min_units=2), wide_trees()),
        st.integers(1, 300),
        st.floats(0.05, 1.0),
        st.integers(1, 6),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_variant_and_baseline_matches_row_by_row(self, args, scale, d_hat, rows, data):
        ids, parent, units = args
        tree = from_parents(ids, parent, [None if u is None else u * scale for u in units])
        schedule = adaptive_schedule(tree, PowerModel(d_hat=d_hat))
        # ties from a coarse grid, values that pass deep thresholds, values
        # near the nominal alpha, and anything
        p = st.one_of(
            st.integers(0, 20).map(lambda i: i / 20.0),
            st.floats(0.0, 1e-3),
            st.floats(0.0, 0.06),
            st.floats(0.0, 1.0),
        )
        P = np.array(data.draw(
            st.lists(st.lists(p, min_size=len(tree), max_size=len(tree)), min_size=rows, max_size=rows),
            label="P",
        ))
        # Put p-values exactly on thresholds the scalar walks apply.  Each
        # node the pruning variant rejects gets its own recomputed threshold,
        # which leaves that walk as it was; a threshold one ulp lower would
        # then flip a decision.
        pin_thresholds(tree, P, schedule)
        applied = sorted({
            o[2]
            for variant in VARIANTS.values()
            for *_, result in scalar_rows(tree, P, variant, schedule)
            for o in result.values()
        })
        on_threshold = data.draw(
            st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, len(tree) - 1),
                               st.sampled_from(applied)), max_size=len(tree)),
            label="on_threshold",
        )
        for r, i, a in on_threshold:
            P[r, i] = a

        for variant in VARIANTS.values():
            got = walk_rows(tree, run_topdown_batch(tree, P, variant, schedule=schedule))
            for r, (_, _, want) in enumerate(scalar_rows(tree, P, variant, schedule)):
                # every tested node's p, adjusted p, threshold and decision,
                # in the order the scalar walk tests them
                assert list(got[r][2].items()) == list(want.items()), (variant.name, r)

        leaves = np.flatnonzero(tree.is_leaf)
        for method in ("bu_hommel", "bu_bh"):
            got = walk_rows(tree, run_bottom_up_batch(tree, P, method))
            for r, row in enumerate(P):
                leaf_p = {tree.ids[i]: row[i] for i in leaves.tolist()}
                assert got[r][0] == set(tree.leaves)
                assert got[r][1] == run_bottom_up(leaf_p, method)

    def test_pruned_variant_on_seeded_wide_trees(self):
        # mid-range thetas make reach vary along a depth, so a sum that is
        # not left to right moves some recomputed threshold by an ulp
        rng = np.random.default_rng(2)
        for _ in range(100):
            fanouts = rng.integers(0, 13, rng.integers(2, 13)).tolist()
            units = rng.integers(2, 10, 1 + len(fanouts) + sum(fanouts)) * rng.integers(1, 50)
            tree = from_parents(*wide_tree(fanouts, units.tolist()))
            schedule = adaptive_schedule(tree, PowerModel(d_hat=float(rng.uniform(0.05, 0.5))))
            P = rng.random((6, len(tree))) ** 4
            pin_thresholds(tree, P, schedule)
            got = walk_rows(tree, run_topdown_batch(tree, P, ADAPTIVE_PRUNED, schedule=schedule))
            for r, (_, want, _) in enumerate(scalar_rows(tree, P, ADAPTIVE_PRUNED, schedule)):
                assert got[r][1] == want

    @given(shuffled_trees(max_nodes=30), st.integers(0, 2**31), st.data())
    @settings(max_examples=100, deadline=None)
    def test_scores_match_score_rejections(self, args, seed, data):
        tree = from_parents(*args)
        non_null = data.draw(st.sets(st.sampled_from(tree.leaves)), label="non_null")
        labeled = tree.label_truth(non_null)
        P = np.random.default_rng(seed).random((4, len(tree))) ** 3
        top_down = run_topdown_batch(tree, P, UNADJUSTED, alpha=0.2)
        rows = walk_rows(tree, top_down)
        batch = score_batch(top_down, labeled)
        bottom_up_walk = run_bottom_up_batch(tree, P, "bu_bh", alpha=0.2)
        bottom_up = score_batch(bottom_up_walk, labeled)
        n_leaves = len(tree.leaves)
        for r, (tested, rejected, _) in enumerate(rows):
            want = score_rejections(
                rejected, labeled, len(tested), len(set(tree.leaves) & tested)
            )
            want_bu = score_rejections(
                walk_rows(tree, bottom_up_walk)[r][1], labeled, n_leaves, n_leaves
            )
            for name in batch:
                assert batch[name][r] == float(getattr(want, name)), name
                assert bottom_up[name][r] == float(getattr(want_bu, name)), name


class TestVariantChecks:
    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"thresholds": "adaptiv"}, "unknown thresholds 'adaptiv'"),
            ({"local_adjust": "holm"}, "unknown local_adjust 'holm'"),
        ],
        ids=["thresholds", "local_adjust"],
    )
    def test_unknown_field_value_raises_when_built(self, fields, match):
        with pytest.raises(GateError, match=match):
            GateVariant("bad", **fields)

    def test_prune_field_is_gone(self):
        with pytest.raises(TypeError):
            GateVariant("x", prune=True)


class TestBatchChecks:
    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_out_of_range_pvalue_raises(self, k3l3, bad):
        P = np.full((3, len(k3l3)), 0.5)
        P[2, 7] = bad
        with pytest.raises(GateError, match="outside"):
            run_topdown_batch(k3l3, P)

    @pytest.mark.parametrize("shape", [(13,), (2, 12), (2, 14)])
    def test_matrix_of_another_shape_raises(self, k3l3, shape):
        with pytest.raises(GateError, match="shape"):
            run_topdown_batch(k3l3, np.full(shape, 0.5))

    def test_adaptive_requires_schedule(self, k3l3):
        with pytest.raises(GateError, match="schedule"):
            run_topdown_batch(k3l3, np.full((1, 13), 0.5), ADAPTIVE)

    def test_matrix_without_rows_tests_nothing(self, k3l3):
        walk = run_topdown_batch(k3l3, np.empty((0, 13)), LOCAL_HOMMEL)
        assert walk.rows == 0 and walk.node.size == walk.rejected.size == 0

    @pytest.mark.parametrize("variant", list(VARIANTS.values()), ids=list(VARIANTS))
    def test_zero_rows_test_nothing_in_every_variant(self, variant):
        tree = build_regular(3, 3, units_per_leaf=50)
        sched = adaptive_schedule(tree, PowerModel(d_hat=0.2))
        walk = run_topdown_batch(tree, np.empty((0, len(tree))), variant, schedule=sched)
        assert walk.rows == 0
        for column in (walk.row, walk.node, walk.p, walk.p_adjusted, walk.alpha_applied):
            assert column.shape == (0,)
        assert walk.rejected.shape == (0,) and walk.rejected.dtype == bool

    def test_unknown_bottom_up_method(self, k3l3):
        with pytest.raises(GateError):
            run_bottom_up_batch(k3l3, np.full((1, 13), 0.5), "holm")

    @pytest.mark.parametrize("alpha", [2.0, -1.0, float("nan")])
    @pytest.mark.parametrize("method", ["bu_hommel", "bu_bh"])
    def test_bottom_up_alpha_outside_unit_interval_raises(self, k3l3, method, alpha):
        with pytest.raises(GateError, match="alpha"):
            run_bottom_up_batch(k3l3, np.full((1, 13), 0.5), method, alpha=alpha)
        with pytest.raises(GateError, match="alpha"):
            run_bottom_up({"a": 0.5}, method, alpha)

    @pytest.mark.parametrize("method", ["bu_hommel", "bu_bh"])
    def test_bottom_up_walk_records_decisions_only(self, k3l3, method):
        P = np.random.default_rng(4).random((3, 13)) ** 4
        walk = run_bottom_up_batch(k3l3, P, method, alpha=0.2)
        assert walk.p_adjusted.shape == walk.rejected.shape == (3 * 9,)
        assert np.isnan(walk.p_adjusted).all()
        np.testing.assert_array_equal(walk.alpha_applied, 0.2)

    def test_reference_trace(self, k3l3):
        P = np.array([[FIG_PVALUES.get(nid, 0.9) for nid in k3l3.ids]] * 2)
        for tested, rejected, _ in walk_rows(k3l3, run_topdown_batch(k3l3, P)):
            assert tested == {"1", "2", "3", "4", "5", "6", "7"}
            assert rejected == {"1", "2", "5"}


class TestWeakControlProperty:
    @pytest.mark.parametrize("k,L", [(2, 4), (5, 2), (3, 3)])
    def test_all_null_fwer_within_mc_error(self, k, L):
        tree = build_regular(k, L)
        replicates = 2000
        hits = 0
        for rep in range(replicates):
            rng = np.random.default_rng(np.random.SeedSequence([k, L, rep]))
            result = run_topdown(tree, lambda nid: rng.random(), UNADJUSTED)
            hits += len(rejected_ids(result, tree)) > 0
        se = np.sqrt(0.05 * 0.95 / replicates)
        assert hits / replicates <= 0.05 + 2 * se


class TestBottomUp:
    def test_single_leaf(self):
        assert run_bottom_up({"a": 0.04}, "bu_hommel") == {"a"}

    def test_hommel_example(self):
        assert run_bottom_up({"a": 0.4, "b": 0.9}, "bu_hommel") == set()

    def test_bh_example(self):
        rejected = run_bottom_up(
            {"a": 0.01, "b": 0.03, "c": 0.04, "d": 0.05}, "bu_bh"
        )
        assert rejected == {"a", "b", "c", "d"}

    def test_unknown_method(self):
        with pytest.raises(GateError):
            run_bottom_up({"a": 0.01}, "holm")


class TestScoring:
    def test_zero_rejections(self, k3l3):
        labeled = k3l3.label_truth({"5"})
        result = run_topdown(labeled, {"1": 0.9}.__getitem__, UNADJUSTED)
        score = score_result(result, labeled)
        assert not score.any_false_rejection_node
        assert score.power_node == 0.0
        assert score.nodes_tested == 1

    def test_reference_trace_scoring(self, k3l3):
        labeled = k3l3.label_truth({"5"})
        result = run_topdown(labeled, FIG_PVALUES.__getitem__, UNADJUSTED)
        score = score_result(result, labeled)
        assert not score.any_false_rejection_node
        assert score.true_rejections_node == 3
        assert score.power_node == 1.0
        assert score.true_rejections_leaf == 1

    def test_everything_rejected_on_global_null(self, k3l3):
        labeled = k3l3.label_truth(set())
        score = score_rejections(set(labeled.ids), labeled)
        assert score.any_false_rejection_node
        assert score.false_rejection_prop_node == 1.0
        assert score.power_node == 0.0

    def test_walk_of_several_rows_rejected(self, k3l3):
        labeled = k3l3.label_truth({"5"})
        walk = run_topdown_batch(labeled, np.full((2, len(labeled)), 0.9))
        with pytest.raises(GateError, match="one row, not 2"):
            score_result(walk, labeled)

    def test_unlabeled_tree_rejected(self, k3l3):
        result = run_topdown(k3l3, {"1": 0.9}.__getitem__, UNADJUSTED)
        with pytest.raises(GateError, match="truth-labeled"):
            score_result(result, k3l3)
