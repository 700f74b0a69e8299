import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # binary tree with 18 levels below the root
        tree = build_regular(2, 19)
        assert len(tree) == 524_287
        assert len(tree.leaves) == 262_144

    def test_unit_counts_scale_with_level(self):
        tree = build_regular(3, 3, units_per_leaf=10)
        assert tree.nodes["1"].n_units == 90
        assert tree.nodes["2"].n_units == 30
        assert tree.nodes["5"].n_units == 10

    @pytest.mark.parametrize("k,L", [(1, 3), (2, 1), (0, 2)])
    def test_rejects_degenerate_shapes(self, k, L):
        with pytest.raises(TreeError):
            build_regular(k, L)

    def test_children_in_order(self):
        tree = build_regular(3, 3)
        assert tree.nodes["1"].children == ("2", "3", "4")
        assert tree.nodes["2"].children == ("5", "6", "7")

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_children_units_sum_to_parent(self, k, L, units):
        tree = build_regular(k, L, units_per_leaf=units)
        for node in tree.nodes.values():
            if node.children:
                assert node.n_units == sum(
                    tree.nodes[c].n_units for c in node.children
                )
                child_blocks = [b for c in node.children for b in tree.leaves_under(c)]
                assert child_blocks == tree.leaves_under(node.id)


class TestBuildFromPaths:
    def test_dpp_layout_shape(self):
        tree = build_from_paths(dpp_style_rows())
        assert len(tree.nodes_at_depth(2)) == 5
        assert len(tree.leaves) == 44
        assert len(tree) == 1 + 5 + 15 + 44
        assert tree.nodes[tree.root].n_units == 2200

    def test_single_block_empty_path(self):
        tree = build_from_paths([("b1", (), 10)])
        assert len(tree) == 2
        assert tree.nodes["b1"].parent == tree.root

    def test_two_blocks_under_one_parent(self):
        tree = build_from_paths(
            [("b1", ("G", "b1"), 5), ("b2", ("G", "b2"), 5)]
        )
        assert len(tree) == 4
        assert tree.nodes["G"].children == ("b1", "b2")
        assert tree.nodes["G"].n_units == 10

    def test_duplicate_block_rejected(self):
        with pytest.raises(TreeError, match="duplicate"):
            build_from_paths([("b1", ("G", "b1"), 5), ("b1", ("G", "b1x"), 5)])

    def test_group_id_colliding_with_block_rejected(self):
        with pytest.raises(TreeError, match="duplicate node id: 'G'"):
            build_from_paths([("G", ("X", "G"), 5), ("b2", ("G", "b2"), 5)])

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
        assert list(tree.nodes) == ["a1", "root", "a", "b", "a2"]
        assert tree.root == "root"
        assert tree.nodes["root"].children == ("a", "b")
        assert tree.nodes["a"].children == ("a1", "a2")
        assert tree.nodes["a2"].depth == 3
        assert tree.leaves_under("a") == ["a1", "a2"]
        assert tree.leaves_under("root") == ["a1", "a2", "b"]
        assert tree.nodes["root"].n_units == 12
        assert tree.nodes["a1"].parent == "a"

    def test_group_total_checked_when_given(self):
        assert from_parents(["r", "x", "y"], [-1, 0, 0], [5, 2, 3]).nodes["r"].n_units == 5
        with pytest.raises(TreeError, match="children sum"):
            from_parents(["r", "x", "y"], [-1, 0, 0], [6, 2, 3])

    def test_deep_chain(self):
        n = 5000
        tree = from_parents(
            [f"n{i}" for i in range(n)], [i - 1 for i in range(n)], [None] * (n - 1) + [2]
        )
        assert tree.max_depth == n
        assert tree.nodes["n0"].n_units == 2

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
        ],
        ids=["duplicate", "unknown_parent", "no_root", "two_roots", "cycle",
             "leaf_without_units", "leaf_zero_units", "empty"],
    )
    def test_malformed_input_rejected(self, ids, parent, units, message):
        with pytest.raises(TreeError, match=message):
            from_parents(ids, parent, units)

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.tuples(*(st.integers(0, i - 1) for i in range(1, n))),
        st.permutations(range(n)),
        st.lists(st.integers(1, 9), min_size=n, max_size=n),
    )))
    @settings(max_examples=200, deadline=None)
    def test_invariants_of_random_trees(self, drawn):
        # node i > 0 hangs under an earlier node, so the links form a tree;
        # the permutation then lists the nodes in a shuffled order
        links, order, units = drawn
        position = {node: pos for pos, node in enumerate(order)}
        groups = set(links)
        tree = from_parents(
            [f"n{node}" for node in order],
            [-1 if node == 0 else position[links[node - 1]] for node in order],
            [None if node in groups else units[node] for node in order],
        )

        roots = [nid for nid, node in tree.nodes.items() if node.parent is None]
        assert roots == [tree.root] == ["n0"]
        assert tree.nodes[tree.root].depth == 1
        for nid, node in tree.nodes.items():
            if node.parent is not None:
                assert nid in tree.nodes[node.parent].children
            for c in node.children:
                assert tree.nodes[c].parent == nid
                assert tree.nodes[c].depth == node.depth + 1
            if node.children:
                assert node.n_units == sum(tree.nodes[c].n_units for c in node.children)
                assert tree.leaves_under(nid) == [
                    leaf for c in node.children for leaf in tree.leaves_under(c)
                ]
            else:
                assert tree.leaves_under(nid) == [nid]


class TestLabelTruth:
    def test_reference_13_node_case(self):
        tree = build_regular(3, 3).label_truth({"5"})
        non_null = {nid for nid, n in tree.nodes.items() if n.is_null is False}
        assert non_null == {"1", "2", "5"}
        assert sum(n.is_null for n in tree.nodes.values()) == 10

    def test_empty_set_is_global_null(self):
        tree = build_regular(3, 3).label_truth(set())
        assert all(n.is_null for n in tree.nodes.values())

    def test_unknown_block_rejected(self):
        with pytest.raises(TreeError, match="unknown"):
            build_regular(3, 3).label_truth({"99"})

    def test_original_tree_unchanged(self):
        tree = build_regular(3, 3)
        tree.label_truth({"5"})
        assert all(n.is_null is None for n in tree.nodes.values())

    @given(
        st.sets(st.sampled_from([str(i) for i in range(5, 14)]), max_size=9),
        st.sampled_from([str(i) for i in range(5, 14)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_non_null_set(self, base, extra):
        tree = build_regular(3, 3)
        before = tree.label_truth(base)
        after = tree.label_truth(base | {extra})
        for nid in tree.nodes:
            if before.nodes[nid].is_null is False:
                assert after.nodes[nid].is_null is False

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
        nodes = tree.label_truth(chosen).nodes

        def non_null(depth):
            return sum(1 for n in nodes.values() if n.depth == depth and n.is_null is False)

        for depth in range(2, L + 1):
            # a null whose parent is non-null is exposed to testing
            exposed = sum(
                1
                for n in nodes.values()
                if n.depth == depth and n.is_null and nodes[n.parent].is_null is False
            )
            assert non_null(depth) + exposed == k * non_null(depth - 1)


class TestPruneBelow:
    def test_prune_removes_descendants_only(self):
        tree = build_regular(3, 3)
        pruned = tree.prune_below(["2"])
        assert "2" in pruned.nodes
        assert "5" not in pruned.nodes
        assert len(pruned) == 13 - 3
        assert pruned.nodes["2"].children == ()
        # original untouched
        assert tree.nodes["2"].children == ("5", "6", "7")

    def test_prune_nothing_is_identity_shape(self):
        tree = build_regular(3, 3)
        pruned = tree.prune_below([])
        assert set(pruned.nodes) == set(tree.nodes)
