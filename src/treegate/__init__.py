"""Top-down gated testing for block-randomized experiments.

Test the overall null at the root of a hypothesis tree, descend into groups
of blocks only where the null is rejected, and stop any branch that fails
to reject.  The package provides the gated engine with adaptive per-depth
alpha schedules and branch pruning, classical bottom-up baselines,
randomization tests for block data, and Monte Carlo studies of weak- and
strong-sense family-wise error control.
"""

from .adjust import adjust_bh, adjust_hommel
from .errorload import (
    AlphaSchedule,
    PowerModel,
    adaptive_schedule,
    error_load_regular,
    power_normal_approx,
    recompute_after_pruning,
)
from .gate import (
    ADAPTIVE,
    ADAPTIVE_HOMMEL,
    ADAPTIVE_PRUNED,
    LOCAL_BH,
    LOCAL_HOMMEL,
    UNADJUSTED,
    GateVariant,
    run_bottom_up,
    run_topdown,
    score_result,
)
from .permtest import (
    Block,
    TestSpec,
    energy_scores,
    permutation_pvalue,
)
from .sim import (
    DppConfig,
    ScenarioConfig,
    SimSummary,
    WeakSummary,
    calibrate_beta_shape,
    dpp_design,
    generate_dpp_data,
    simulate_dpp,
    simulate_strong,
    simulate_weak,
)
from .tree import HypothesisTree, TreeNode, build_from_paths, build_regular, from_parents

__version__ = "0.1.0"
