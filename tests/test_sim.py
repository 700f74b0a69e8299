import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegate import gate, permtest, sim
from treegate.cli import read_dataset
from treegate.errorload import ScheduleError
from treegate.gate import UNADJUSTED, GateError
from treegate.permtest import Block, PermTestError, TestSpec, is_exact, permutation_pvalue
from treegate.sim import (
    DPP_LAYOUT,
    DppConfig,
    ScenarioConfig,
    SimError,
    calibrate_beta_shape,
    dpp_design,
    generate_dpp_data,
    node_pvalues,
    simulate_dpp,
    simulate_strong,
    simulate_weak,
    worker_count,
)
from treegate.tree import TreeError, build_from_paths, build_regular, from_parents

from _oracles import (
    outcomes,
    shuffled_trees,
    simulate_dpp_per_replicate,
    simulate_strong_per_replicate,
    simulate_weak_per_replicate,
    topdown_loop,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class TestCalibrateBetaShape:
    def test_power_equal_to_alpha_is_uniform(self):
        assert calibrate_beta_shape(0.05, 0.05) == pytest.approx(1.0)

    def test_reference_shapes(self):
        assert calibrate_beta_shape(0.61, 0.05) == pytest.approx(0.16500, abs=1e-5)
        assert calibrate_beta_shape(0.92, 0.05) == pytest.approx(0.02784, abs=1e-5)

    @pytest.mark.parametrize("power", [0.0, 1.0])
    def test_boundary_powers_rejected(self, power):
        with pytest.raises(SimError):
            calibrate_beta_shape(power, 0.05)

    @pytest.mark.parametrize("target", [0.15, 0.61, 0.92])
    def test_calibration_holds_empirically(self, target):
        a = calibrate_beta_shape(target, 0.05)
        rng = np.random.default_rng(0)
        draws = rng.random(10_000) ** (1.0 / a)
        rate = float(np.mean(draws <= 0.05))
        se = math.sqrt(target * (1 - target) / 10_000)
        assert abs(rate - target) <= 2 * se


class TestSimulateWeak:
    def test_alpha_zero_never_descends(self):
        summary = simulate_weak(2, 3, alpha=0.0, replicates=200, seed=0)
        assert summary.fwer == 0.0
        assert summary.mean_tests == 1.0
        assert summary.mean_nodes_tested == 1.0

    def test_fwer_controlled(self):
        summary = simulate_weak(3, 4, replicates=2000, seed=2)
        assert summary.fwer <= 0.05 + 2 * summary.fwer_se

    def test_deterministic(self):
        a = simulate_weak(2, 4, replicates=300, seed=9)
        b = simulate_weak(2, 4, replicates=300, seed=9)
        assert a == b

    def test_replicate_floor(self):
        with pytest.raises(SimError):
            simulate_weak(2, 3, replicates=10)

    @pytest.mark.parametrize(
        "kw, error, message",
        [({"k": 1}, TreeError, "branching factor k must be at least 2"),
         ({"L": 1}, TreeError, "tree must have at least 2 levels"),
         ({"alpha": 1.5}, GateError, r"alpha must lie in \[0, 1\]"),
         ({"alpha": -0.1}, GateError, r"alpha must lie in \[0, 1\]")],
        ids=["k_one", "one_level", "alpha_above_one", "negative_alpha"],
    )
    def test_inputs_checked_before_the_tree_is_built(self, monkeypatch, kw, error, message):
        monkeypatch.setattr(sim, "build_regular", lambda *a: pytest.fail("tree built"))
        with pytest.raises(error, match=f"^{message}$"):
            simulate_weak(**{"k": 2, "L": 19, "replicates": 100, **kw})

    def test_walk_derives_no_node_ids(self, monkeypatch):
        built = []
        build = sim.build_regular
        monkeypatch.setattr(sim, "build_regular", lambda *a: built.append(build(*a)) or built[-1])
        summary = simulate_weak(2, 12, alpha=0.5, replicates=100, seed=3)
        assert summary.mean_nodes_tested > 3  # walks reach below the root's children
        assert "ids" not in vars(built[0])

    def test_walk_derives_no_parent_depth_or_levels(self):
        # the weak study's walk reads the child lists alone
        tree = build_regular(2, 12)
        result = gate.walk(tree, sim._uniform_draws((3, 2, 12), 100), 100, alpha=0.5)
        assert result.node.size > 300  # walks reach below the root's children
        assert not {"parent", "depth", "levels", "ids"} & set(vars(tree))

    @pytest.mark.parametrize(
        "k, L, alpha, replicates, seed",
        [(2, 4, 0.05, 300, 9), (3, 5, 0.5, 200, 1), (4, 3, 0.2, 150, 0)],
    )
    def test_equals_per_replicate_walks(self, k, L, alpha, replicates, seed):
        got = simulate_weak(k, L, alpha=alpha, replicates=replicates, seed=seed)
        want = simulate_weak_per_replicate(k, L, alpha, replicates, seed)
        assert json.dumps(asdict(got)) == json.dumps(asdict(want))
        if alpha == 0.5:
            # beyond the root and one sibling group: some walks draw at depth 3
            assert got.mean_nodes_tested > 1 + k

    def test_each_node_draws_what_a_scalar_walk_draws(self):
        # the summary cannot tell siblings apart; the walk's p-values can
        tree = build_regular(3, 5)
        result = sim.walk(tree, sim._uniform_draws((1, 3, 5), 60), 60, alpha=0.5)
        for rep in range(60):
            rng = np.random.default_rng(np.random.SeedSequence([1, 3, 5, rep]))
            want = topdown_loop(tree, lambda nid: rng.random(), UNADJUSTED, alpha=0.5)
            mine = result.row == rep
            got = dict(zip([tree.ids[i] for i in result.node[mine].tolist()], result.p[mine].tolist()))
            assert got == {nid: o[0] for nid, o in outcomes(want, tree).items()}, rep

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 20, 50, 100])
    def test_fwer_across_branching_sweep(self, k):
        summary = simulate_weak(k, 3, replicates=1000, seed=13)
        assert summary.fwer <= 0.05 + 2 * summary.fwer_se


class TestScenarioConfig:
    def test_requires_effect_when_non_null(self):
        with pytest.raises(SimError, match="effect size"):
            ScenarioConfig(k=2, L=3, units_per_leaf=10, null_proportion=0.5)

    def test_all_null_needs_no_effect(self):
        cfg = ScenarioConfig(
            k=2, L=3, units_per_leaf=10, null_proportion=1.0, d=0.1, replicates=100
        )
        assert cfg.null_proportion == 1.0

    def test_unknown_method_rejected(self):
        with pytest.raises(SimError, match="unknown methods"):
            ScenarioConfig(
                k=2, L=3, units_per_leaf=10, null_proportion=1.0, d=0.1,
                methods=("td", "holm"), replicates=100,
            )

    def test_repeated_method_rejected(self):
        with pytest.raises(SimError, match=r"^repeated methods: \['td'\]$"):
            ScenarioConfig(
                k=2, L=3, units_per_leaf=10, null_proportion=1.0, d=0.1,
                methods=("td", "bu_bh", "td"), replicates=100,
            )

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_effect_rejected(self, d):
        with pytest.raises(SimError, match="d must be finite"):
            ScenarioConfig(k=2, L=3, units_per_leaf=10, null_proportion=0.5, d=d)

    @pytest.mark.parametrize("d_hat", [None, 0.15])
    def test_negative_effect_rejected_by_name(self, d_hat):
        with pytest.raises(SimError, match=r"^d must be non-negative: -0\.15$"):
            ScenarioConfig(
                k=2, L=3, units_per_leaf=10, null_proportion=0.5, d=-0.15, d_hat=d_hat
            )

    @pytest.mark.parametrize(
        "kw, message",
        [({"d_hat": -1.0}, "d_hat must be finite and non-negative"),
         ({"alpha": 0.6}, r"alpha must lie in \(0, 0\.5\)")],
        ids=["negative_d_hat", "alpha_above_half"],
    )
    def test_planning_model_checked_at_construction(self, kw, message):
        with pytest.raises(ScheduleError, match=message):
            ScenarioConfig(k=2, L=3, units_per_leaf=10, null_proportion=0.5, d=0.2, **kw)

    @pytest.mark.parametrize(
        "kw, message",
        [({"k": 0}, "branching factor k must be at least 2"),
         ({"L": 1}, "tree must have at least 2 levels"),
         ({"units_per_leaf": 0}, "units_per_leaf must be at least 1"),
         ({"units_per_leaf": 2.5}, "node '4' n_units 2.5 is not an integer in the int64 range")],
        ids=["k_zero", "one_level", "empty_leaves", "fractional_units"],
    )
    def test_tree_shape_checked_at_construction(self, monkeypatch, kw, message):
        monkeypatch.setattr(sim, "build_regular", lambda *a: pytest.fail("tree built"))
        base = dict(k=2, L=3, units_per_leaf=10, null_proportion=0.5, d=0.2)
        with pytest.raises(TreeError, match=f"^{message}$"):
            ScenarioConfig(**{**base, **kw})

    def test_leaf_below_two_units_refused_at_construction(self, monkeypatch):
        # the power model needs 2 units at every node, whatever the methods
        monkeypatch.setattr(sim, "build_regular", lambda *a: pytest.fail("tree built"))
        with pytest.raises(SimError, match="^units_per_leaf must be at least 2: 1$"):
            ScenarioConfig(k=2, L=3, units_per_leaf=1, null_proportion=1.0)

    def test_bad_placement_rejected(self):
        with pytest.raises(SimError):
            ScenarioConfig(
                k=2, L=3, units_per_leaf=10, null_proportion=0.5, d=0.1,
                placement="random", replicates=100,
            )


class TestSimulateStrong:
    def small(self, **kw):
        base = dict(
            k=2, L=3, units_per_leaf=128, null_proportion=0.5, d=0.15,
            replicates=200, seed=4, placement="scattered",
        )
        base.update(kw)
        return ScenarioConfig(**base)

    def test_bitwise_deterministic(self):
        a = simulate_strong(self.small())
        b = simulate_strong(self.small())
        assert a == b

    def test_all_null_fwer_near_alpha(self):
        cfg = self.small(null_proportion=1.0, d=0.1, replicates=1000, seed=6)
        summary = simulate_strong(cfg)
        for ms in summary.methods.values():
            assert ms.fwer_node <= 0.05 + 3 * ms.fwer_node_se

    def test_paired_draws_make_hommel_subset_of_unadjusted(self):
        summary = simulate_strong(self.small(methods=("td", "td_hommel")))
        td = summary.methods["td"]
        hom = summary.methods["td_hommel"]
        assert hom.true_rejections_node <= td.true_rejections_node
        assert hom.fwer_node <= td.fwer_node

    def test_contiguous_and_scattered_choose_leaves_differently(self):
        sc = simulate_strong(self.small(seed=8))
        co = simulate_strong(self.small(seed=8, placement="contiguous"))
        assert sc.params["n_non_null_leaves"] == co.params["n_non_null_leaves"]
        assert sc.methods["td"] != co.methods["td"]

    def test_diluted_mode_weakens_internal_nodes(self):
        strong = simulate_strong(self.small(seed=10))
        weak = simulate_strong(self.small(seed=10, internal_power="diluted"))
        # diluted internal calibration lowers descent, so fewer nodes tested
        assert (
            weak.methods["td"].mean_nodes_tested
            < strong.methods["td"].mean_nodes_tested
        )

    def test_summary_params_include_error_load(self):
        summary = simulate_strong(self.small())
        assert summary.params["sum_error_load"] > 0

    def test_true_effect_drives_the_draws(self):
        # with the planning effect fixed, a larger true effect rejects more
        methods = ("td", "bu_hommel")
        small = simulate_strong(self.small(d=0.05, d_hat=0.2, methods=methods))
        large = simulate_strong(self.small(d=0.4, d_hat=0.2, methods=methods))
        for m in methods:
            assert small.methods[m].true_rejections_leaf < large.methods[m].true_rejections_leaf

    def test_planning_effect_moves_only_the_schedule(self):
        methods = ALL_METHODS
        low = simulate_strong(self.small(d=0.15, d_hat=0.05, methods=methods))
        high = simulate_strong(self.small(d=0.15, d_hat=0.4, methods=methods))
        adaptive = {"td_adapt", "td_adapt_hommel", "td_adapt_pruned"}
        for m in methods:
            same = low.methods[m] == high.methods[m]
            assert same == (m not in adaptive), m


ALL_METHODS = tuple(sim.TD_METHODS) + sim.BU_METHODS


class TestStrongAgainstPerReplicateWalks:
    """The batch study equals one scalar walk per replicate and method,
    byte for byte, across replicate blocks."""

    @pytest.mark.parametrize(
        "config, block_rows",
        [
            (dict(k=4, L=4, units_per_leaf=32, d=0.15, null_proportion=0.8,
                  placement="scattered", replicates=150), 40),
            (dict(k=2, L=5, units_per_leaf=64, d=0.2, null_proportion=0.5,
                  placement="contiguous", replicates=130, internal_power="diluted"), 64),
            (dict(k=3, L=4, units_per_leaf=20, d=0.3, null_proportion=0.6,
                  placement="scattered", replicates=120, d_hat=0.6), 50),
            (dict(k=5, L=3, units_per_leaf=50, d=0.1, null_proportion=1.0,
                  replicates=110, seed=7), 1),
        ],
        ids=["binding_cell", "contiguous_diluted", "d_hat", "all_null_one_row_blocks"],
    )
    def test_summary_equals_scalar_walks(self, monkeypatch, config, block_rows):
        config = ScenarioConfig(methods=ALL_METHODS, **config)
        tree_nodes = len(build_regular(config.k, config.L))
        # blocks of ``block_rows`` replicates, so every study spans several
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", block_rows * tree_nodes)
        got = json.dumps(asdict(simulate_strong(config)), sort_keys=True)
        want = json.dumps(asdict(simulate_strong_per_replicate(config)), sort_keys=True)
        assert got == want


class TestDppAgainstPerReplicateWalks:
    """The dpp study equals one scalar walk per replicate and method, byte
    for byte."""

    @pytest.mark.parametrize(
        "config",
        [
            dict(d=0.4, replicates=100, n_perms=100, seed=2),
            dict(d=0.8, replicates=100, n_perms=100, statistic="mean_diff", d_hat=0.3),
        ],
        ids=["rank", "mean_diff_d_hat"],
    )
    def test_summary_equals_scalar_walks(self, config):
        config = DppConfig(methods=ALL_METHODS, **config)
        got = json.dumps(asdict(simulate_dpp(config)), sort_keys=True)
        want = json.dumps(asdict(simulate_dpp_per_replicate(config)), sort_keys=True)
        assert got == want

    # 103 replicates: no chunk size below takes them in whole chunks
    CHUNKED = DppConfig(d=0.5, replicates=103, n_perms=100, seed=3, methods=ALL_METHODS)

    @pytest.fixture(scope="class")
    def per_replicate(self):
        return json.dumps(asdict(simulate_dpp_per_replicate(self.CHUNKED)), sort_keys=True)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("chunk", [1, 10, 103], ids=["one", "ten", "all"])
    def test_summary_does_not_depend_on_chunks_or_workers(
        self, monkeypatch, per_replicate, chunk, threads
    ):
        config = self.CHUNKED
        draws_per_replicate = len(dpp_design().leaves) * (config.n_perms + 1)
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", chunk * draws_per_replicate)
        monkeypatch.setenv("TREEGATE_THREADS", threads)
        assert json.dumps(asdict(simulate_dpp(config)), sort_keys=True) == per_replicate


class TestGenerateDppData:
    def test_shape_and_balance(self):
        tree, blocks, non_null = generate_dpp_data(dpp_design(), 0.2, seed=0)
        assert len(blocks) == 44
        assert sum(b.n for b in blocks) == 2200
        assert all(b.n_treated == 25 for b in blocks)
        assert len(non_null) == 9
        assert tree.n_units[tree.root_index] == 2200

    def test_design_labels_the_first_college_non_null(self):
        tree = dpp_design()
        non_null = {nid for nid, null in zip(tree.ids, tree.is_null.tolist()) if not null}
        assert non_null == {f"B{i:02d}" for i in range(1, 10)} | {
            "C1", "C1/Y1", "C1/Y2", "C1/Y3", tree.root
        }

    @pytest.mark.parametrize(
        "tree, shifted",
        [(dpp_design(), {f"B{i:02d}" for i in range(1, 10)}),
         (dpp_design().label_truth({"B01", "B05", "B09"}), {"B01", "B05", "B09"})],
        ids=["first_college", "one_block_per_cohort"],
    )
    def test_effect_is_additive_shift_on_the_labeled_blocks(self, tree, shifted):
        _, blocks, non_null = generate_dpp_data(tree, 0.2, seed=3)
        assert non_null == shifted
        # tau = d * sd = 0.6; reconstructable because the same draw with d=0
        _, blocks0, _ = generate_dpp_data(tree, 0.0, seed=3)
        for b, b0 in zip(blocks, blocks0):
            np.testing.assert_array_equal(b.treatment, b0.treatment)
            treated = b.treatment == 1
            if b.block_id in shifted:
                np.testing.assert_allclose(b.outcome[treated] - b0.outcome[treated], 0.6)
                np.testing.assert_array_equal(b.outcome[~treated], b0.outcome[~treated])
            else:
                np.testing.assert_array_equal(b.outcome, b0.outcome)

    def test_unlabeled_tree_is_a_one_line_error(self):
        with pytest.raises(SimError, match="^[^\n]*truth-labeled[^\n]*$"):
            generate_dpp_data(build_regular(2, 3, 4), 0.2, seed=0)

    def test_null_blocks_have_identical_potentials(self):
        _, blocks, non_null = generate_dpp_data(dpp_design(), 0.5, seed=1)
        null_block = next(b for b in blocks if b.block_id not in non_null)
        assert np.isfinite(null_block.outcome).all()

    def test_default_layout_totals(self):
        assert sum(sum(c) for c in DPP_LAYOUT) == 44
        assert sum(DPP_LAYOUT[0]) == 9
        assert all(size <= 4 for college in DPP_LAYOUT for size in college)


class TestSimulateDpp:
    def config(self, **kw):
        base = dict(d=0.8, replicates=100, n_perms=100, seed=1)
        base.update(kw)
        return DppConfig(**base)

    @pytest.mark.parametrize("d", [math.nan, math.inf])
    def test_non_finite_effect_rejected(self, d):
        with pytest.raises(SimError, match="d must be finite"):
            self.config(d=d)

    @pytest.mark.parametrize(
        "kw, message",
        [({"d": 0.2, "d_hat": -1.0}, r"d_hat must be finite and non-negative: -1\.0"),
         ({"d": 0.2, "alpha": 0.6}, r"alpha must lie in \(0, 0\.5\)"),
         ({"d": -0.2}, r"^d must be non-negative when no d_hat is given: -0\.2$")],
        ids=["negative_d_hat", "alpha_above_half", "negative_d_without_d_hat"],
    )
    def test_planning_model_checked_at_construction(self, kw, message):
        with pytest.raises(ScheduleError, match=message):
            DppConfig(**kw)

    @pytest.mark.parametrize(
        "kw, message",
        [({"statistic": "median"}, "unknown statistic: 'median'"),
         ({"sides": "left"}, "sides must be 'one' or 'two'"),
         ({"n_perms": 99}, "n_perms must be at least 100"),
         ({"statistic": "energy", "sides": "one"},
          "the energy statistic has no one-sided test; use sides='two'")],
        ids=["statistic", "sides", "n_perms", "one_sided_energy"],
    )
    def test_test_spec_checked_at_construction(self, kw, message):
        with pytest.raises(PermTestError, match=f"^{message}$"):
            self.config(**kw)

    def test_builds_the_design_once(self, monkeypatch):
        built = []
        build = sim.build_from_paths
        monkeypatch.setattr(sim, "build_from_paths", lambda rows: built.append(1) or build(rows))
        simulate_dpp(self.config(students_per_block=4))
        assert built == [1]

    def test_negative_effect_planned_with_d_hat_accepted(self):
        assert self.config(d=-0.2, d_hat=0.2).d == -0.2

    def test_runs_and_detects_large_effect(self):
        summary = simulate_dpp(self.config())
        td = summary.methods["td"]
        assert td.true_rejections_leaf > 0.5
        assert td.fwer_leaf <= 0.2

    def test_deterministic(self):
        a = simulate_dpp(self.config(replicates=100))
        b = simulate_dpp(self.config(replicates=100))
        assert a == b

    def test_pruned_rejections_contain_adaptive(self):
        summary = simulate_dpp(
            self.config(d=0.4, methods=("td_adapt", "td_adapt_pruned"))
        )
        assert (
            summary.methods["td_adapt_pruned"].true_rejections_leaf
            >= summary.methods["td_adapt"].true_rejections_leaf
        )

    def test_worker_pool_matches_serial(self):
        cfg = self.config(replicates=100)
        serial = simulate_dpp(cfg)
        os.environ["TREEGATE_THREADS"] = "2"
        try:
            parallel = simulate_dpp(cfg)
        finally:
            del os.environ["TREEGATE_THREADS"]
        assert serial == parallel


class TestNodePValues:
    """The one-pass row of node p-values against per-node evaluation."""

    @staticmethod
    def node_blocks(tree, blocks, nid):
        wanted = set(tree.leaves_under(nid))
        return [b for b in blocks if b.block_id in wanted]

    @staticmethod
    def datasets():
        # trial.csv: exact leaves and cohorts, Monte Carlo sites and root;
        # the dpp replicate: Monte Carlo everywhere
        dataset = read_dataset(os.path.join(GOLDEN, "trial.csv"))
        tree, blocks, _ = generate_dpp_data(dpp_design(), 0.3, seed=5, rep=2)
        return [(dataset.tree, dataset.blocks, ""), (tree, blocks, "2/")]

    @pytest.mark.parametrize("stat", ["rank", "mean_diff", "energy"])
    def test_equals_permutation_pvalue_on_every_node(self, stat):
        spec = TestSpec(statistic=stat, n_perms=200, seed=7)
        modes = set()
        for tree, blocks, prefix in self.datasets():
            row = node_pvalues(tree, blocks, spec, prefix)
            assert row.shape == (len(tree),)
            for i, nid in enumerate(tree.ids):
                node_blocks = self.node_blocks(tree, blocks, nid)
                modes.add(is_exact(node_blocks, spec))
                assert row[i] == permutation_pvalue(node_blocks, spec, stream_key=prefix), nid
        assert modes == {True, False}

    def test_decides_each_node_mode_once(self, monkeypatch):
        counts = []
        total = permtest.total_assignments
        monkeypatch.setattr(
            permtest, "total_assignments", lambda blocks: counts.append(1) or total(blocks)
        )
        spec = TestSpec(statistic="mean_diff", n_perms=100, seed=7)
        for tree, blocks, prefix in self.datasets():
            counts.clear()
            node_pvalues(tree, blocks, spec, prefix)
            assert len(counts) == len(tree)

    def test_per_node_null_validity_under_shared_draws(self):
        # sham treatment on 2 sites x 2 cohorts x 2 blocks of 8: every node's
        # rejection rate at 0.05 stays within criterion 5's bound
        rows = [
            (f"b{s}{c}{k}", (f"S{s}", f"S{s}C{c}", f"b{s}{c}{k}"), 8)
            for s in range(2) for c in range(2) for k in range(2)
        ]
        tree = build_from_paths(rows)
        spec = TestSpec(statistic="mean_diff", n_perms=199, exact=False, seed=3)
        replicates, alpha = 1000, 0.05
        hits = np.zeros(len(tree), dtype=int)
        for rep in range(replicates):
            rng = np.random.default_rng(np.random.SeedSequence([55, rep]))
            blocks = []
            for bid, _, n in rows:
                t = np.zeros(n, dtype=np.int8)
                t[rng.permutation(n)[: n // 2]] = 1
                blocks.append(Block(bid, t, rng.normal(size=n)))
            hits += node_pvalues(tree, blocks, spec, prefix=f"{rep}/") <= alpha
        bound = alpha + 2 * math.sqrt(alpha * (1 - alpha) / replicates)
        rates = dict(zip(tree.ids, (hits / replicates).tolist()))
        assert len(rates) == 15
        assert max(rates.values()) <= bound, rates

    @staticmethod
    def two_groups():
        rows = [(f"b{i}", (f"G{i // 2}", f"b{i}"), 4) for i in range(4)]
        blocks = [Block(f"b{i}", [1, 1, 0, 0], np.arange(4.0) + i) for i in range(4)]
        return build_from_paths(rows), blocks

    @pytest.mark.parametrize(
        "change, message",
        [(lambda blocks: blocks + [Block("G0", [1, 0], [1.0, 2.0])],
          "block 'G0' is not a leaf of the tree"),
         (lambda blocks: blocks + [Block("b9", [1, 0], [1.0, 2.0])],
          "block 'b9' is not a leaf of the tree"),
         (lambda blocks: blocks + [Block("b1", [1, 0], [1.0, 2.0])],
          "two blocks have the id 'b1'"),
         (lambda blocks: blocks[:2] + blocks[3:], "no block for leaf 'b2'"),
         (lambda blocks: [], "no block for leaf 'b0'")],
        ids=["group_id", "unknown_id", "duplicate_id", "missing_leaf", "no_blocks"],
    )
    def test_blocks_must_match_the_leaves_one_to_one(self, change, message):
        tree, blocks = self.two_groups()
        with pytest.raises(PermTestError, match=f"^{message}$"):
            node_pvalues(tree, change(blocks), TestSpec(statistic="mean_diff"))

    def test_degenerate_block_is_one_line_error(self):
        rows = [(f"b{i}", (f"G{i // 2}", f"b{i}"), 4) for i in range(4)]
        tree = build_from_paths(rows)
        arms = [[1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1], [0, 0, 1, 1]]
        blocks = [Block(f"b{i}", t, np.arange(4.0) + i) for i, t in enumerate(arms)]
        with pytest.raises(PermTestError, match=r"^degenerate blocks under node 'root': \['b2'\]$"):
            node_pvalues(tree, blocks, TestSpec(statistic="mean_diff"))


class TestPValueMatrix:
    """A chunk of datasets' node p-values at once against per-node evaluation."""

    ROWS = [("b0", ("G0", "b0"), 4), ("b1", ("G0", "b1"), 4),
            ("b2", ("G1", "b2"), 20), ("b3", ("G1", "b3"), 20)]

    def chunk(self):
        # G0 and its 4-unit blocks are exact, G1, its 20-unit blocks and the
        # root Monte Carlo; b2 has tied outcomes in replicates 1 and 3
        tree = build_from_paths(self.ROWS)
        datasets = []
        for rep in range(5):
            rng = np.random.default_rng(np.random.SeedSequence([9, rep]))
            blocks = []
            for bid, _, n in self.ROWS:
                t = np.zeros(n, dtype=np.int8)
                t[rng.permutation(n)[: n // 2]] = 1
                y = rng.normal(10.0, 3.0, n) + t
                tied = (rep, bid) in {(1, "b2"), (3, "b2")}
                blocks.append(Block(bid, t, np.round(y) if tied else y))
            datasets.append(blocks)
        return tree, datasets, [f"{rep}/" for rep in range(len(datasets))]

    @pytest.mark.parametrize("stat", ["rank", "mean_diff", "energy"])
    def test_every_entry_equals_permutation_pvalue(self, stat):
        tree, datasets, prefixes = self.chunk()
        tied = [len(np.unique(b.outcome)) < b.n for blocks in datasets for b in blocks]
        assert [i for i, t in enumerate(tied) if t] == [6, 14]  # replicates 1 and 3's b2
        spec = TestSpec(statistic=stat, n_perms=200, seed=7)
        P = sim._pvalue_matrix(tree, datasets, spec, prefixes)
        assert P.shape == (len(datasets), len(tree))
        modes = set()
        for row, blocks, prefix in zip(P, datasets, prefixes):
            for i, nid in enumerate(tree.ids):
                node_blocks = TestNodePValues.node_blocks(tree, blocks, nid)
                modes.add(is_exact(node_blocks, spec))
                assert row[i] == permutation_pvalue(node_blocks, spec, stream_key=prefix), (
                    prefix, nid
                )
        assert modes == {True, False}

    def test_decides_each_node_mode_once_per_chunk(self, monkeypatch):
        counts = []
        total = permtest.total_assignments
        monkeypatch.setattr(
            permtest, "total_assignments", lambda blocks: counts.append(1) or total(blocks)
        )
        tree, datasets, prefixes = self.chunk()
        sim._pvalue_matrix(tree, datasets, TestSpec(n_perms=100), prefixes)
        assert len(counts) == len(tree)

    @given(shuffled_trees(max_nodes=12, min_units=2), st.integers(1, 3000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monte_carlo_mode_is_upward_closed(self, args, exact_cap, data):
        # a node's ancestors are tested by Monte Carlo whenever it is, so
        # the p-values draw at every block position or at none
        tree = from_parents(*args)
        spec = TestSpec(statistic="mean_diff", n_perms=100, exact_cap=exact_cap)
        blocks = []
        for nid, n in zip(tree.leaves, tree.n_units[tree.is_leaf].tolist()):
            m = data.draw(st.integers(1, n - 1), label=f"treated in {nid}")
            blocks.append(Block(nid, np.arange(n) < m, np.arange(n, dtype=float)))
        exact = [is_exact(TestNodePValues.node_blocks(tree, blocks, nid), spec) for nid in tree.ids]
        for i, p in enumerate(tree.parent.tolist()):
            assert p < 0 or exact[i] or not exact[p], (tree.ids[i], tree.ids[p])

        drawn = []
        draws = sim.chunk_draws
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "chunk_draws", lambda positions, *a: drawn.append(len(positions))
                       or draws(positions, *a))
            node_pvalues(tree, blocks, spec)
        assert drawn == ([] if all(exact) else [len(blocks)])

    @pytest.mark.parametrize("change", ["blocks_reordered", "block_resized"])
    def test_dataset_of_another_layout_is_one_line_error(self, change):
        tree, datasets, prefixes = self.chunk()
        blocks = datasets[3]
        if change == "blocks_reordered":
            datasets[3] = blocks[::-1]
        else:  # b1 loses its last unit
            b1 = blocks[1]
            datasets[3] = [blocks[0], Block("b1", b1.treatment[:-1], b1.outcome[:-1]), *blocks[2:]]
        with pytest.raises(
            PermTestError, match=r"^dataset 3 does not list dataset 0's blocks and shapes$"
        ):
            sim._pvalue_matrix(tree, datasets, TestSpec(n_perms=100), prefixes)


def test_dpp_empty_method_set_rejected():
    with pytest.raises(SimError, match="empty method set"):
        DppConfig(d=0.2, methods=())


def test_dpp_repeated_methods_rejected():
    with pytest.raises(SimError, match=r"^repeated methods: \['td_bh', 'td'\]$"):
        DppConfig(d=0.2, methods=("td_bh", "td", "bu_hommel", "td", "td_bh"))


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("TREEGATE_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("TREEGATE_THREADS", "4")
    assert worker_count() == 4
    assert worker_count(n_tasks=2) == 2
    monkeypatch.setenv("TREEGATE_THREADS", "zebra")
    with pytest.raises(SimError):
        worker_count()
    for raw in ("0", "-2"):
        monkeypatch.setenv("TREEGATE_THREADS", raw)
        with pytest.raises(SimError, match=f"^TREEGATE_THREADS must be at least 1: '{raw}'$"):
            worker_count()


def scalar_draws(key, calls):
    """Each call's uniforms from one numpy generator per row, pair by pair."""
    rngs = {}
    return [
        [rngs.setdefault(r, np.random.default_rng(np.random.SeedSequence([*key, r]))).random() for r in rows]
        for rows in calls
    ]


@pytest.mark.parametrize(
    "rows, calls",
    [
        (5, [[0, 1, 2, 3, 4], [1, 3, 3], [0, 4, 4, 4]]),
        (3, [[0, 1, 2], [1, 1, 2], [2, 2, 2]]),
        (7, [[2, 2, 5], [0, 5, 5, 5, 6]]),
        (2, [[0] * 150 + [1] * 70, [0] * 33 + [1] * 33]),
    ],
    ids=["row_skips_a_call", "rows_drop_out", "rows_never_drawn", "long_runs"],
)
def test_uniform_draws_match_one_generator_per_row(rows, calls):
    key = (4, 2, 9)
    draw = sim._uniform_draws(key, rows)
    got = [draw(np.array(r, dtype=int), np.zeros(len(r), dtype=int)).tolist() for r in calls]
    assert got == scalar_draws(key, calls)


def test_uniform_draws_refuse_pairs_out_of_row_order():
    draw = sim._uniform_draws((4, 2, 9), 4)
    message = "^uniform draws need each call's pairs in ascending row order$"
    with pytest.raises(SimError, match=message):
        draw(np.array([0, 2, 1]), np.zeros(3, dtype=int))
