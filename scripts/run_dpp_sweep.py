#!/usr/bin/env python3
"""The headline across effect sizes: the 44-block study at each d.

Runs the block-data study (``simulate_dpp``) once per effect size and
writes one CSV row per effect size and method: leaf detection (true leaf
rejections over the nine non-null blocks), leaf FWER and node FWER, each
with its standard error.  The detection SE is sqrt(p(1 - p)/replicates),
an upper bound, since a replicate's detected share lies in [0, 1].
Replicate workers follow TREEGATE_THREADS.
"""

import argparse
import math
import os
import sys
import time

from treegate import DppConfig, dpp_design, simulate_dpp
from treegate.cli import csv_text
from treegate.errorload import ScheduleError
from treegate.permtest import STATISTICS, PermTestError
from treegate.sim import SimError, worker_count

EFFECTS = "0.2,0.4,0.5,0.6,0.65,0.7"
COLUMNS = [
    "d", "method", "leaf_detection", "leaf_detection_se",
    "fwer_leaf", "fwer_leaf_se", "fwer_node", "fwer_node_se",
]


def effect_list(value: str) -> list[float]:
    try:
        return [float(d) for d in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {value!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=effect_list, default=effect_list(EFFECTS),
                        help=f"comma-separated effect sizes (default {EFFECTS})")
    parser.add_argument("--replicates", type=int, default=1000)
    parser.add_argument("--n-perms", type=int, default=5000)
    parser.add_argument("--statistic", default="rank", choices=STATISTICS)
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--out", default="dpp_sweep.csv")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        parser.error(f"{args.out}: no such directory")

    try:
        configs = [
            DppConfig(d=d, replicates=args.replicates, n_perms=args.n_perms,
                      statistic=args.statistic, seed=args.seed)
            for d in args.d
        ]
        worker_count()
    except (SimError, ScheduleError, PermTestError) as exc:
        parser.error(str(exc))

    rows = [COLUMNS]
    t0 = time.perf_counter()
    for config in configs:
        summary = simulate_dpp(config)
        tree = dpp_design(config.students_per_block)
        n_non_null = int((tree.is_leaf & ~tree.is_null).sum())
        for method, ms in summary.methods.items():
            detection = ms.true_rejections_leaf / n_non_null
            se = math.sqrt(detection * (1.0 - detection) / config.replicates)
            rows.append([
                config.d, method, round(detection, 4), round(se, 4),
                round(ms.fwer_leaf, 4), round(ms.fwer_leaf_se, 4),
                round(ms.fwer_node, 4), round(ms.fwer_node_se, 4),
            ])
            print(dict(zip(COLUMNS, rows[-1])))

    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text(rows))
    except OSError as exc:
        parser.error(f"{args.out}: {exc.strerror}")
    print(f"wrote {args.out} in {time.perf_counter() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
