import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import ReferenceTree, child_ids, parent_id, shuffled_trees
from treegate import gate, tree as tree_module
from treegate.errorload import (
    PowerModel,
    adaptive_schedule,
    power_normal_approx,
    recompute_after_pruning,
)
from treegate.tree import TreeError, build_from_paths, build_regular, from_parents


def dpp_style_rows():
    rows = []
    blocks_per_college = [(4, 4, 1), (4, 4, 1), (4, 4, 1), (4, 4, 1), (4, 3, 1)]
    n = 0
    for c, cohorts in enumerate(blocks_per_college, start=1):
        for y, count in enumerate(cohorts, start=1):
            for _ in range(count):
                n += 1
                rows.append((f"B{n:02d}", (f"C{c}", f"Y{y}", f"B{n:02d}"), 50))
    return rows


class TestBuildRegular:
    def test_k3_l3_counts(self):
        tree = build_regular(3, 3)
        assert len(tree) == 13
        assert len(tree.leaves) == 9

    def test_smallest_tree(self):
        tree = build_regular(2, 2)
        assert len(tree) == 3
        assert len(tree.leaves) == 2

    def test_largest_reference_tree(self):
        # binary tree with 18 levels below the root: its five int64 arrays
        # hold 20 MiB, and building them takes at most 8 MiB more
        tracemalloc.start()
        try:
            tree = build_regular(2, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tree) == 524_287
        assert len(tree.leaves) == 262_144
        names = ("parent", "depth", "n_units", "child_offsets", "children")
        held = sum(getattr(tree, name).nbytes for name in names)
        assert held == 20 * 2**20 - 40
        assert peak - held <= 8 * 2**20

    def test_unit_counts_scale_with_level(self):
        tree = build_regular(3, 3, units_per_leaf=10)
        assert tree.n_units[[0, 1, 4]].tolist() == [90, 30, 10]  # nodes "1", "2" and "5"

    @pytest.mark.parametrize("k,L", [(1, 3), (2, 1), (0, 2)])
    def test_rejects_degenerate_shapes(self, k, L):
        with pytest.raises(TreeError):
            build_regular(k, L)

    @pytest.mark.parametrize(
        "units, message",
        [(2**62, "n_units total 18446744073709551616 under '1' is beyond the int64 range"),
         (2**63, "node '4' n_units 9223372036854775808 is not an integer in the int64 range"),
         (2.5, "node '4' n_units 2.5 is not an integer in the int64 range"),
         (np.int64(2**62), "n_units total 18446744073709551616 under '1' is beyond the int64 range"),
         (True, "node '4' n_units True is not an integer in the int64 range")],
        ids=["total_beyond_int64", "leaf_beyond_int64", "leaf_not_integer", "numpy_total_beyond_int64",
             "leaf_bool"],
    )
    def test_bad_unit_counts_are_one_line_errors(self, units, message):
        with pytest.raises(TreeError, match=f"^{re.escape(message)}$"):
            build_regular(2, 3, units_per_leaf=units)

    @pytest.mark.parametrize(
        "k, L, units", [(2, 2, 1), (3, 3, 10), (2, 7, 3), (5, 3, 1), (4, 4, 32), (2, 3, 2**60)]
    )
    def test_equals_tree_from_explicit_ids(self, k, L, units):
        tree = build_regular(k, L, units_per_leaf=units)
        n, n_leaves = len(tree), k ** (L - 1)
        want = from_parents(
            [str(i) for i in range(1, n + 1)],
            [(i - 1) // k for i in range(n)],
            [None] * (n - n_leaves) + [units] * n_leaves,
        )
        for name in ("parent", "depth", "n_units", "child_offsets", "children"):
            got, ref = getattr(tree, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        assert tree.is_null is None
        assert "ids" not in vars(tree)
        assert tree.ids == [str(i) for i in range(1, n + 1)]

    def test_children_in_order(self):
        tree = build_regular(3, 3)
        assert child_ids(tree, "1") == ("2", "3", "4")
        assert child_ids(tree, "2") == ("5", "6", "7")

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_children_units_sum_to_parent(self, k, L, units):
        tree = build_regular(k, L, units_per_leaf=units)
        for i, nid in enumerate(tree.ids):
            children = child_ids(tree, nid)
            if children:
                assert tree.n_units[i] == sum(tree.n_units[tree.index_of(c)] for c in children)
                child_blocks = [b for c in children for b in tree.leaves_under(c)]
                assert child_blocks == tree.leaves_under(nid)


class TestBuildFromPaths:
    def test_dpp_layout_shape(self):
        tree = build_from_paths(dpp_style_rows())
        assert len(tree.levels[1]) == 5
        assert len(tree.leaves) == 44
        assert len(tree) == 1 + 5 + 15 + 44
        assert tree.n_units[tree.root_index] == 2200

    def test_single_block_empty_path(self):
        tree = build_from_paths([("b1", (), 10)])
        assert len(tree) == 2
        assert parent_id(tree, "b1") == tree.root

    def test_two_blocks_under_one_parent(self):
        tree = build_from_paths(
            [("b1", ("G", "b1"), 5), ("b2", ("G", "b2"), 5)]
        )
        assert len(tree) == 4
        assert child_ids(tree, "G") == ("b1", "b2")
        assert tree.n_units[tree.index_of("G")] == 10

    def test_duplicate_block_rejected(self):
        with pytest.raises(TreeError, match="duplicate"):
            build_from_paths([("b1", ("G", "b1"), 5), ("b1", ("G", "b1x"), 5)])

    def test_group_id_colliding_with_block_rejected(self):
        with pytest.raises(TreeError, match="duplicate node id: 'G'"):
            build_from_paths([("G", ("X", "G"), 5), ("b2", ("G", "b2"), 5)])

    @pytest.mark.parametrize(
        "rows, message",
        [([("a", ("a", "a"), 5)], "'a' is both group ('a',) and block 'a'"),
         ([("root", ("root",), 5)], "'root' is both the root and block 'root'"),
         ([("x", ("a/b", "x"), 5), ("y", ("a", "b", "y"), 5)],
          "'a/b' is both group ('a/b',) and group ('a', 'b')")],
        ids=["block_named_as_group", "block_named_root", "slash_in_group_label"],
    )
    def test_id_clash_names_both_nodes(self, rows, message):
        with pytest.raises(TreeError) as err:
            build_from_paths(rows)
        assert str(err.value) == f"duplicate node id: {message}"

    def test_block_that_is_also_a_group_rejected(self):
        rows = [("bA", ("X",), 5), ("bB", ("X", "Y", "bB"), 5)]
        with pytest.raises(TreeError, match="group"):
            build_from_paths(rows)

    def test_nonpositive_units_rejected(self):
        with pytest.raises(TreeError):
            build_from_paths([("b1", ("b1",), 0)])


class TestFromParents:
    def test_any_order_kept_and_derived(self):
        tree = from_parents(
            ["a1", "root", "a", "b", "a2"], [2, -1, 1, 1, 2], [3, None, None, 4, 5]
        )
        assert tree.ids == ["a1", "root", "a", "b", "a2"]
        assert tree.root == "root"
        assert child_ids(tree, "root") == ("a", "b")
        assert child_ids(tree, "a") == ("a1", "a2")
        assert tree.depth[tree.index_of("a2")] == 3
        assert tree.leaves_under("a") == ["a1", "a2"]
        assert tree.leaves_under("root") == ["a1", "a2", "b"]
        assert tree.n_units[tree.index_of("root")] == 12
        assert parent_id(tree, "a1") == "a"

    def test_group_total_checked_when_given(self):
        assert from_parents(["r", "x", "y"], [-1, 0, 0], [5, 2, 3]).n_units[0] == 5
        with pytest.raises(TreeError, match="children sum"):
            from_parents(["r", "x", "y"], [-1, 0, 0], [6, 2, 3])

    def test_deep_chain(self):
        n = 5000
        tree = from_parents(
            [f"n{i}" for i in range(n)], [i - 1 for i in range(n)], [None] * (n - 1) + [2]
        )
        assert tree.max_depth == n
        assert tree.n_units[0] == 2  # node "n0"

    @pytest.mark.parametrize(
        "ids, parent, units, message",
        [
            (["r", "x", "x"], [-1, 0, 0], [None, 1, 1], "duplicate node id"),
            (["r", "x"], [-1, 7], [None, 1], "unknown parent"),
            (["r", "x"], [0, 0], [None, 1], "exactly one root, found 0"),
            (["r", "s"], [-1, -1], [1, 1], "exactly one root, found 2"),
            (["r", "x", "y", "z"], [-1, 0, 3, 2], [None, 1, 1, 1], "unreachable"),
            (["r", "x"], [-1, 0], [None, None], "leaf 'x' needs n_units"),
            (["r", "x"], [-1, 0], [None, 0], "leaf 'x' needs n_units"),
            ([], [], [], "no nodes"),
            (["r", "x"], [-1, 0], [None, 2**63], "'x' n_units 9223372036854775808 is not an integer"),
            (["r", "g", "x", "y"], [-1, 0, 1, 1], [None, None, 2**62, 2**62],
             "n_units total 9223372036854775808 under 'r' is beyond the int64 range"),
            (["r", "x", "y"], [-1, 0, 0], [None, 1.5, 2], "'x' n_units 1.5 is not an integer"),
        ],
        ids=["duplicate", "unknown_parent", "no_root", "two_roots", "cycle",
             "leaf_without_units", "leaf_zero_units", "empty", "leaf_beyond_int64",
             "total_beyond_int64", "leaf_not_integer"],
    )
    def test_malformed_input_rejected(self, ids, parent, units, message):
        with pytest.raises(TreeError, match=message) as err:
            from_parents(ids, parent, units)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize(
        "parent, units, message",
        [([-1, 0, 7], [None, 1, 1], "node '3' references unknown parent index 7"),
         ([-1, 0, 3, 2], [None, 1, 1, 1], "nodes unreachable from the root: ['3', '4']"),
         ([-1, 0], [None, 0], "leaf '2' needs n_units of at least 1"),
         ([-1, 0, 0], [None, 2**62, 2**62],
          "n_units total 9223372036854775808 under '1' is beyond the int64 range"),
         ([-1, 0, 0], [4, 1, 2], "node '1' n_units 4 != children sum 3"),
         ([-1, 0], [None, 2**63],
          "node '2' n_units 9223372036854775808 is not an integer in the int64 range")],
        ids=["unknown_parent", "cycle", "leaf_zero_units", "total_beyond_int64",
             "group_total", "leaf_beyond_int64"],
    )
    def test_numbered_errors_name_the_numbered_ids(self, parent, units, message):
        # ids "1".."n" are the ones build_regular gives; each message names them whole
        with pytest.raises(TreeError) as err:
            from_parents([str(i) for i in range(1, len(parent) + 1)], parent, units)
        assert str(err.value) == message

    def test_integer_array_units_equal_list_units(self):
        ids, parent = ["a1", "root", "a", "b", "a2"], [2, -1, 1, 1, 2]
        want = from_parents(ids, parent, [3, None, None, 4, 5])
        for units in (np.array([3, 12, 8, 4, 5]), np.array([3, 12, 8, 4, 5], dtype=np.uint64)):
            got = from_parents(ids, parent, units)
            assert got.n_units.dtype == np.int64
            assert np.array_equal(got.n_units, want.n_units)
            assert np.array_equal(got.parent, want.parent)

    @pytest.mark.parametrize(
        "units, message",
        [(np.array([3.0, 1.0, 2.0]),
          "node 'r' n_units np.float64(3.0) is not an integer in the int64 range"),
         (np.array([3, 2**63, 2], dtype=np.uint64),
          "node 'x' n_units np.uint64(9223372036854775808) is not an integer in the int64 range"),
         (np.array([4, 1, 2]), "node 'r' n_units 4 != children sum 3"),
         (np.array([0, 2**62, 2**62]),
          "n_units total 9223372036854775808 under 'r' is beyond the int64 range")],
        ids=["float", "uint64_beyond_int64", "group_total", "total_beyond_int64"],
    )
    def test_malformed_array_units_rejected(self, units, message):
        with pytest.raises(TreeError, match=f"^{re.escape(message)}$"):
            from_parents(["r", "x", "y"], [-1, 0, 0], units)

    @given(shuffled_trees())
    @settings(max_examples=200, deadline=None)
    def test_invariants_of_random_trees(self, args):
        tree = from_parents(*args)

        roots = [nid for nid in tree.ids if parent_id(tree, nid) is None]
        assert roots == [tree.root] == ["n0"]
        assert tree.depth[tree.root_index] == 1
        for i, nid in enumerate(tree.ids):
            children = child_ids(tree, nid)
            if parent_id(tree, nid) is not None:
                assert nid in child_ids(tree, parent_id(tree, nid))
            for c in children:
                assert parent_id(tree, c) == nid
                assert tree.depth[tree.index_of(c)] == tree.depth[i] + 1
            if children:
                assert tree.n_units[i] == sum(tree.n_units[tree.index_of(c)] for c in children)
                assert tree.leaves_under(nid) == [
                    leaf for c in children for leaf in tree.leaves_under(c)
                ]
            else:
                assert tree.leaves_under(nid) == [nid]


def _built_trees():
    """One tree made by each of from_parents, build_regular, label_truth and prune_below."""
    listed = from_parents(["r", "a", "b", "a1", "a2"], [-1, 0, 0, 1, 1], [None, None, 3, 1, 2])
    regular = build_regular(3, 3, units_per_leaf=4)
    return {
        "from_parents": listed,
        "build_regular": regular,
        "label_truth": regular.label_truth({"5"}),
        "prune_below": listed.label_truth({"a1"}).prune_below(["a"]),
    }


class TestArrayContract:
    # the arrays a tree stores, then those it derives on first read
    READ_ONLY = ("n_units", "child_offsets", "children", "is_null", "parent", "depth", "is_leaf")

    @pytest.mark.parametrize("made_by", ["from_parents", "build_regular", "label_truth", "prune_below"])
    def test_every_array_refuses_writes(self, made_by):
        tree = _built_trees()[made_by]
        assert (tree.is_null is None) == (made_by in ("from_parents", "build_regular"))
        for array in [getattr(tree, name) for name in self.READ_ONLY] + tree.levels:
            if array is not None:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]


class TestLabelTruth:
    def test_reference_13_node_case(self):
        tree = build_regular(3, 3).label_truth({"5"})
        non_null = {nid for nid, null in zip(tree.ids, tree.is_null.tolist()) if not null}
        assert non_null == {"1", "2", "5"}
        assert tree.is_null.sum() == 10

    def test_empty_set_is_global_null(self):
        tree = build_regular(3, 3).label_truth(set())
        assert tree.is_null.all()

    def test_unknown_block_rejected(self):
        with pytest.raises(TreeError, match="unknown"):
            build_regular(3, 3).label_truth({"99"})

    def test_labeled_tree_derives_its_levels_once(self, monkeypatch):
        calls = []
        breadth_first = tree_module._breadth_first
        monkeypatch.setattr(
            tree_module, "_breadth_first", lambda *args: calls.append(1) or breadth_first(*args)
        )
        tree = build_regular(4, 4, units_per_leaf=10).label_truth({"22", "85"})
        schedule = adaptive_schedule(tree, PowerModel(d_hat=0.3))
        P = np.full((1, len(tree)), 0.001)  # every node rejects, so the walk reaches the leaves
        walk = gate.run_topdown_batch(tree, P, gate.ADAPTIVE_PRUNED, schedule=schedule)
        assert walk.nodes_tested == len(tree)
        assert len(calls) == 1

    def test_numbered_labels_equal_listed_labels(self):
        tree = build_regular(2, 12)
        labeled = tree.label_truth({"2048", "4095"})
        listed = from_parents(list(tree.ids), tree.parent, tree.n_units)
        assert np.array_equal(labeled.is_null, listed.label_truth({"2048", "4095"}).is_null)
        assert not labeled.is_null[2047] and labeled.is_null[2048]  # nodes "2048" and "2049"

    @pytest.mark.parametrize(
        "node_id",
        ["1", "13", "5", "0", "14", "01", "+1", " 1", "1.0", "", "\u0661", "99999999999999999999", 1],
    )
    def test_numbered_lookup_matches_listed_ids(self, node_id):
        numbered = build_regular(3, 3)
        listed = from_parents([str(i) for i in range(1, 14)], numbered.parent, numbered.n_units)
        try:
            want = listed.index_of(node_id)
        except TreeError as exc:
            with pytest.raises(TreeError, match=f"^{re.escape(str(exc))}$"):
                numbered.index_of(node_id)
        else:
            assert numbered.index_of(node_id) == want

    def test_original_tree_unchanged(self):
        tree = build_regular(3, 3)
        tree.label_truth({"5"})
        assert tree.is_null is None

    @given(
        st.sets(st.sampled_from([str(i) for i in range(5, 14)]), max_size=9),
        st.sampled_from([str(i) for i in range(5, 14)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_non_null_set(self, base, extra):
        tree = build_regular(3, 3)
        before = tree.label_truth(base)
        after = tree.label_truth(base | {extra})
        assert not (after.is_null & ~before.is_null).any()

    @given(
        st.integers(2, 3),
        st.integers(2, 4),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_non_null_plus_exposed_identity(self, k, L, data):
        # at every level: non-null + exposed nulls = k * non-null at the level above
        tree = build_regular(k, L)
        leaves = list(tree.leaves)
        chosen = data.draw(st.sets(st.sampled_from(leaves), min_size=1))
        labeled = tree.label_truth(chosen)
        null, depth, parent = labeled.is_null, labeled.depth, labeled.parent

        def non_null(d):
            return int(np.count_nonzero((depth == d) & ~null))

        for d in range(2, L + 1):
            # a null whose parent is non-null is exposed to testing
            exposed = int(np.count_nonzero((depth == d) & null & ~null[parent]))
            assert non_null(d) + exposed == k * non_null(d - 1)


class TestPruneBelow:
    def test_prune_removes_descendants_only(self):
        tree = build_regular(3, 3)
        pruned = tree.prune_below(["2"])
        assert "2" in pruned.ids
        assert "5" not in pruned.ids
        assert len(pruned) == 13 - 3
        assert child_ids(pruned, "2") == ()
        # original untouched
        assert child_ids(tree, "2") == ("5", "6", "7")

    def test_prune_nothing_is_identity_shape(self):
        tree = build_regular(3, 3)
        pruned = tree.prune_below([])
        assert set(pruned.ids) == set(tree.ids)


def _schedule_rows(schedule):
    return [
        (row.depth, row.n_nodes, row.theta_hat, row.exposure, row.error_load, row.alpha_adj)
        for row in schedule.depths
    ]


class TestAgainstReferenceTree:
    """The array tree against a dict of parent links walked by definition."""

    @staticmethod
    def assert_same(tree, ref):
        assert tree.ids == list(ref.parent)
        assert tree.root == ref.root
        assert list(tree.leaves) == ref.leaves()
        assert (tree.is_null is None) == (ref.is_null is None)
        for i, nid in enumerate(tree.ids):
            assert parent_id(tree, nid) == ref.parent[nid]
            assert child_ids(tree, nid) == ref.children(nid)
            assert tree.depth[i] == ref.depth(nid)
            assert tree.n_units[i] == ref.n_units(nid)
            if ref.is_null is not None:
                assert tree.is_null[i] == ref.is_null[nid]
            assert tree.leaves_under(nid) == ref.leaves_under(nid)
        # one level per depth down to the deepest node, none beyond it
        assert [[tree.ids[i] for i in level.tolist()] for level in tree.levels] == [
            [nid for nid in ref.parent if ref.depth(nid) == depth]
            for depth in range(1, max(map(ref.depth, ref.parent)) + 1)
        ]

    @given(shuffled_trees(max_nodes=30, min_units=2), st.floats(0.01, 1.0), st.data())
    @settings(max_examples=150, deadline=None)
    def test_structure_labels_pruning_and_schedules_match(self, args, d_hat, data):
        ids, parent, units = args
        tree = from_parents(ids, parent, units)
        ref = ReferenceTree(
            {nid: ids[p] if p >= 0 else None for nid, p in zip(ids, parent)},
            {nid: u for nid, u in zip(ids, units) if u is not None},
        )
        self.assert_same(tree, ref)

        non_null = data.draw(st.sets(st.sampled_from(ref.leaves())), label="non_null")
        tree, ref = tree.label_truth(non_null), ref.label_truth(non_null)
        self.assert_same(tree, ref)

        model = PowerModel(d_hat=d_hat)
        schedule = adaptive_schedule(tree, model)
        expected = ref.schedule_rows(model, power_normal_approx)
        assert _schedule_rows(schedule) == expected
        # the gate prunes with a cut mask on the unpruned tree; the reference
        # rebuilds the tree without the cut subtrees and schedules that
        pruned = tree
        cut = np.zeros(len(tree), dtype=bool)
        for depth_completed in range(1, tree.max_depth):
            stops = data.draw(st.sets(st.sampled_from(pruned.ids)), label="stops")
            pruned, ref = pruned.prune_below(stops), ref.prune_below(stops)
            self.assert_same(pruned, ref)
            cut[[tree.index_of(nid) for nid in stops]] = True
            schedule = recompute_after_pruning(schedule, tree, cut, depth_completed)
            kept = {row[0]: row[5] for row in expected}
            expected = [
                (*row[:5], kept[row[0]]) if row[0] <= depth_completed else row
                for row in ref.schedule_rows(model, power_normal_approx)
            ]
            assert _schedule_rows(schedule) == expected
