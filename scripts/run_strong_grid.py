#!/usr/bin/env python3
"""Strong-control grid: gated variants vs bottom-up baselines on p-value draws.

Crosses tree width with effect size and null proportion (plus two all-null
rows), printing per-method FWER with its standard error and the
true-discovery comparison between the pruned adaptive gate and bottom-up
Hommel.
"""

import argparse
import os
import sys
import time

from treegate import ScenarioConfig, simulate_strong
from treegate.cli import csv_text
from treegate.sim import SimError

EFFECTS = (0.04, 0.10, 0.15)
NULL_PROPS = (0.5, 0.8)


def scenario_rows(args):
    for k in (2, 4):
        upl = 256 if k == 2 else 32
        for d in EFFECTS:
            for null_prop in NULL_PROPS:
                yield ScenarioConfig(
                    k=k, L=4, units_per_leaf=upl, null_proportion=null_prop, d=d,
                    replicates=args.replicates, seed=args.seed,
                    placement=args.placement,
                )
        yield ScenarioConfig(
            k=k, L=4, units_per_leaf=upl, null_proportion=1.0, d=0.10,
            replicates=args.replicates, seed=args.seed, placement=args.placement,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--placement", default="scattered",
                        choices=("scattered", "contiguous"))
    parser.add_argument("--out", default="strong_grid.csv")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        parser.error(f"{args.out}: no such directory")

    try:
        configs = list(scenario_rows(args))
    except SimError as exc:
        parser.error(str(exc))

    rows = []
    t0 = time.perf_counter()
    for config in configs:
        summary = simulate_strong(config)
        row = {
            "k": config.k,
            "d": config.d,
            "null_proportion": config.null_proportion,
            "sum_error_load": round(summary.params["sum_error_load"], 2),
        }
        for method, ms in summary.methods.items():
            row[f"fwer_{method}"] = round(ms.fwer_node, 4)
            row[f"fwer_{method}_se"] = round(ms.fwer_node_se, 4)
        pruned = summary.methods["td_adapt_pruned"].true_rejections_node
        adapt = summary.methods["td_adapt"].true_rejections_node
        bu = summary.methods["bu_hommel"].true_rejections_leaf
        row["disc_td_adapt"] = round(adapt, 3)
        row["disc_td_adapt_pruned"] = round(pruned, 3)
        row["disc_bu_hommel"] = round(bu, 3)
        row["ratio"] = round(pruned / bu, 1) if bu > 0 else float("inf")
        rows.append(row)
        print(row)

    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text([list(rows[0]), *(row.values() for row in rows)]))
    except OSError as exc:
        parser.error(f"{args.out}: {exc.strerror}")
    print(f"wrote {args.out} in {time.perf_counter() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
