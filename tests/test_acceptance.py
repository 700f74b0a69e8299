"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success).  Monte Carlo criteria use the frozen seed below; the
tolerances are the contract, the seed just makes the runs reproducible.
"""

import math
import time

import numpy as np
from scipy.stats import norm

import treegate as tg
from treegate.cli import main as cli_main
from treegate.gate import UNADJUSTED, run_topdown
from treegate.permtest import Block, TestSpec, permutation_pvalue, total_assignments
from treegate.tree import build_from_paths

from _oracles import closed_testing_hommel

SEED = 16


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"{criterion}: {detail}"


# -- 1. weak control across tree shapes -------------------------------------


def test_criterion_1_weak_control():
    # rows use the operating-characteristic table's convention of counting
    # levels below the root, hence L+1 when building the tree
    rows = [(2, 6, 1.008), (4, 4, 1.015), (10, 3, 1.044), (100, 2, 2.498)]
    t0 = time.time()
    failures = []
    details = []
    for k, levels_below, target_tests in rows:
        summary = tg.simulate_weak(k, levels_below + 1, replicates=5000, seed=SEED)
        details.append(
            f"k={k}: fwer={summary.fwer:.4f}, tests={summary.mean_tests:.3f}"
        )
        if summary.fwer > 0.05 + 0.012:
            failures.append(f"k={k} fwer {summary.fwer:.4f} > 0.062")
        if abs(summary.mean_tests - target_tests) > 0.05:
            failures.append(
                f"k={k} mean tests {summary.mean_tests:.3f} vs {target_tests}"
            )
    elapsed = time.time() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    report(
        "1 (weak control)",
        not failures,
        "; ".join(details + [f"runtime={elapsed:.1f}s"] + failures),
    )


# -- 2. closed-form inflation with a forced root ------------------------------


def test_criterion_2_star_tree_inflation():
    star = build_from_paths([(f"L{i}", (f"L{i}",), 10) for i in range(1, 10)])
    replicates = 5000
    hits = 0
    for rep in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([SEED, rep]))
        p_source = lambda nid: 0.0 if nid == star.root else rng.random()
        result = run_topdown(star, p_source, UNADJUSTED, alpha=0.05)
        hits += bool(star.is_leaf[result.node[result.rejected]].any())
    fwer = hits / replicates
    target = 1 - 0.95 ** 9
    report(
        "2 (star-tree inflation)",
        abs(fwer - target) <= 0.015,
        f"fwer={fwer:.4f}, closed form={target:.4f}, tolerance 0.015",
    )


# -- 3. strong-control grid ----------------------------------------------------


def test_criterion_3_strong_grid():
    t0 = time.time()

    def scenario(k, d, null_prop):
        return tg.ScenarioConfig(
            k=k,
            L=4,
            units_per_leaf=256 if k == 2 else 32,
            null_proportion=null_prop,
            d=d,
            replicates=2000,
            seed=SEED,
            placement="scattered",
        )

    failures = []
    details = []

    # (a) two all-null scenarios: every method near alpha
    for k in (2, 4):
        summary = tg.simulate_strong(scenario(k, 0.10, 1.0))
        worst = max(ms.fwer_node for ms in summary.methods.values())
        best = min(ms.fwer_node for ms in summary.methods.values())
        details.append(f"all-null k={k}: fwer in [{best:.3f}, {worst:.3f}]")
        for m, ms in summary.methods.items():
            if abs(ms.fwer_node - 0.05) > 0.012:
                failures.append(f"all-null k={k} {m} fwer={ms.fwer_node:.4f}")

    # low-effect scenarios: total error load under 1, everything controlled
    for k in (2, 4):
        summary = tg.simulate_strong(scenario(k, 0.04, 0.8))
        assert summary.params["sum_error_load"] <= 1.0
        for m, ms in summary.methods.items():
            bound = 0.05 + 2 * max(ms.fwer_node_se, 0.005)
            if ms.fwer_node > bound:
                failures.append(f"k={k} d=0.04 {m} fwer={ms.fwer_node:.4f}")

    # k=2 high-effect scenario runs as part of the grid
    tg.simulate_strong(scenario(2, 0.15, 0.8))

    # (b) the binding cell: k=4, d=0.15, 80% null
    summary = tg.simulate_strong(scenario(4, 0.15, 0.8))
    td = summary.methods["td"].fwer_node
    adapt = summary.methods["td_adapt"].fwer_node
    pruned = summary.methods["td_adapt_pruned"].fwer_node
    details.append(
        f"k=4,d=0.15: td={td:.3f} adapt={adapt:.3f} pruned={pruned:.3f} "
        f"sumG={summary.params['sum_error_load']:.2f}"
    )
    if td < 0.09:
        failures.append(f"td fwer {td:.4f} < 0.09")
    if adapt > 0.03:
        failures.append(f"td_adapt fwer {adapt:.4f} > 0.03")
    if pruned > 0.065:
        failures.append(f"td_adapt_pruned fwer {pruned:.4f} > 0.065")

    # (c) discovery ratio in the same cell
    disc_pruned = summary.methods["td_adapt_pruned"].true_rejections_node
    disc_bu = summary.methods["bu_hommel"].true_rejections_leaf
    ratio = disc_pruned / disc_bu if disc_bu > 0 else float("inf")
    details.append(f"discovery ratio={ratio:.0f}x")
    if disc_pruned < 20 * disc_bu:
        failures.append(f"ratio {ratio:.1f} < 20")

    elapsed = time.time() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s >= 120s")
    report(
        "3 (strong-control grid)",
        not failures,
        "; ".join(details + [f"runtime={elapsed:.0f}s"] + failures),
    )


# -- 4. Hommel equals exhaustive closed testing --------------------------------


def test_criterion_4_hommel_oracle():
    rng = np.random.default_rng(SEED)
    t0 = time.time()
    mismatches = 0
    for _ in range(500):
        m = int(rng.integers(1, 9))
        pvals = np.round(rng.random(m), 6)
        ours = tg.adjust_hommel(pvals)
        oracle = closed_testing_hommel(pvals)
        mismatches += not np.array_equal(ours, oracle)
    report(
        "4 (Hommel closed-testing oracle)",
        mismatches == 0,
        f"{mismatches} mismatches over 500 vectors ({time.time()-t0:.1f}s)",
    )


# -- 5. permutation validity ----------------------------------------------------


def test_criterion_5_permutation_validity():
    failures = []

    # exact mode: p-values land on the grid {j/M}
    rng = np.random.default_rng(SEED)
    for stat in ("mean_diff", "rank", "energy"):
        for trial in range(20):
            sizes = rng.integers(4, 9, size=2)
            blocks = []
            for i, n in enumerate(sizes):
                t = np.zeros(n, dtype=np.int8)
                t[rng.permutation(n)[: n // 2]] = 1
                blocks.append(Block(f"b{i}", t, rng.normal(size=n)))
            M = total_assignments(blocks)
            p = permutation_pvalue(blocks, TestSpec(statistic=stat))
            j = p * M
            if not (abs(j - round(j)) < 1e-9 and 1 <= round(j) <= M):
                failures.append(f"{stat} off-grid p={p} (M={M})")
                break

    # Monte Carlo sub-uniformity under sham treatment
    replicates = 2000
    rates = {}
    for stat in ("mean_diff", "rank", "energy"):
        hits = {0.01: 0, 0.05: 0, 0.1: 0}
        spec = TestSpec(statistic=stat, n_perms=199, exact=False, seed=SEED)
        for rep in range(replicates):
            rng = np.random.default_rng(np.random.SeedSequence([SEED, 50, rep]))
            blocks = []
            for i in range(2):
                t = np.zeros(8, dtype=np.int8)
                t[rng.permutation(8)[:4]] = 1
                blocks.append(Block(f"b{i}", t, rng.normal(size=8)))
            p = permutation_pvalue(blocks, spec, stream_key=f"r{rep}")
            for a in hits:
                hits[a] += p <= a
        for a, count in hits.items():
            rate = count / replicates
            rates[(stat, a)] = rate
            bound = a + 2 * math.sqrt(a * (1 - a) / replicates)
            if rate > bound:
                failures.append(f"{stat} at alpha={a}: {rate:.4f} > {bound:.4f}")

    detail = " ".join(
        f"{stat}@{a}={rates[(stat, a)]:.3f}"
        for stat in ("mean_diff", "rank", "energy")
        for a in (0.05,)
    )
    report(
        "5 (permutation validity)",
        not failures,
        f"exact grid ok; sham rates {detail}; " + "; ".join(failures),
    )


# -- 6. power anchor --------------------------------------------------------------


def test_criterion_6_power_anchor():
    analytic = tg.power_normal_approx(tg.PowerModel(d_hat=0.8, alpha=0.05), 50)
    spec = TestSpec(statistic="mean_diff", n_perms=399, exact=False, seed=SEED)
    hits = 0
    replicates = 2000
    for rep in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([SEED, 60, rep]))
        outcome = rng.normal(size=50)
        treated = rng.permutation(50)[:25]
        outcome[treated] += 0.8
        t = np.zeros(50, dtype=np.int8)
        t[treated] = 1
        hits += permutation_pvalue([Block("b", t, outcome)], spec, stream_key=str(rep)) <= 0.05
    power = hits / replicates
    ok = abs(power - 0.79) <= 0.05 and abs(analytic - 0.807) <= 0.001
    report(
        "6 (power anchor)",
        ok,
        f"simulated={power:.4f} (target 0.79±0.05), analytic={analytic:.4f} (target 0.807±0.001)",
    )


# -- 7. block-data study ------------------------------------------------------------


def test_criterion_7_dpp_study():
    t0 = time.time()
    config = tg.DppConfig(
        d=0.20,
        replicates=500,
        n_perms=500,
        seed=SEED,
        methods=("td", "td_adapt", "td_adapt_pruned", "bu_hommel"),
    )
    summary = tg.simulate_dpp(config)
    td = summary.methods["td"]
    adapt = summary.methods["td_adapt"]
    pruned = summary.methods["td_adapt_pruned"]
    bu = summary.methods["bu_hommel"]
    elapsed = time.time() - t0

    failures = []
    if td.fwer_leaf > 0.05:
        failures.append(f"td leaf fwer {td.fwer_leaf:.4f} > 0.05")
    if td.true_rejections_leaf < 4 * bu.true_rejections_leaf:
        failures.append(
            f"td detections {td.true_rejections_leaf:.3f} < 4x bottom-up "
            f"{bu.true_rejections_leaf:.3f}"
        )
    if pruned.fwer_leaf > 0.05:
        failures.append(f"pruned leaf fwer {pruned.fwer_leaf:.4f} > 0.05")
    if pruned.true_rejections_leaf < adapt.true_rejections_leaf:
        failures.append("pruned found fewer true rejections than adaptive")
    if elapsed >= 900:
        failures.append(f"runtime {elapsed:.0f}s >= 900s")
    detail = (
        f"td: leafFWER={td.fwer_leaf:.3f} TR={td.true_rejections_leaf:.3f}; "
        f"bu TR={bu.true_rejections_leaf:.3f}; "
        f"pruned: leafFWER={pruned.fwer_leaf:.3f} TR={pruned.true_rejections_leaf:.3f}; "
        f"adapt TR={adapt.true_rejections_leaf:.3f}; runtime={elapsed:.0f}s"
    )
    report("7 (44-block study)", not failures, detail + "; " + "; ".join(failures))


# -- 8. schedule arithmetic ------------------------------------------------------------


def test_criterion_8_schedule_arithmetic(tmp_path, capsys):
    # unequal sibling sizes let a binary three-level table hit theta means
    # (1.0, 0.6, ·) exactly: theta(n=4) = 0.2 and theta(n=10000) = 1.0
    sizes = tmp_path / "sizes.csv"
    sizes.write_text(
        "node_id,parent_id,n_units\n"
        "root,,\n"
        "A,root,\n"
        "B,root,\n"
        "A1,A,2\nA2,A,2\nB1,B,5000\nB2,B,5000\n"
    )
    d_hat = norm.ppf(0.975) - norm.ppf(0.8)
    code = cli_main(
        ["alpha-schedule", str(sizes), "--d-hat", f"{d_hat:.10f}", "--alpha", "0.05"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    alphas = [round(float(line.split(",")[4]), 6) for line in lines[1:]]
    thetas = [round(float(line.split(",")[2]), 6) for line in lines[1:]]
    schedule_ok = alphas == [0.05, 0.025, 0.020833] and thetas[:2] == [1.0, 0.6]

    rng = np.random.default_rng(SEED)
    ratio_ok = True
    for _ in range(200):
        k = int(rng.integers(2, 7))
        L = int(rng.integers(2, 7))
        thetas_rand = rng.uniform(0.01, 1.0, size=L)
        loads, _ = tg.error_load_regular(k, L, thetas_rand)
        for lvl in range(L - 1):
            if abs(loads[lvl + 1] / loads[lvl] - k * thetas_rand[lvl + 1]) > 1e-12:
                ratio_ok = False
    report(
        "8 (schedule arithmetic)",
        schedule_ok and ratio_ok,
        f"thresholds={alphas} thetas={thetas}, ratio identity to 1e-12: {ratio_ok}",
    )
