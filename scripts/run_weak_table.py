#!/usr/bin/env python3
"""Weak-control operating characteristics across tree shapes.

Sweeps branching factors at desk scale and reports the all-null FWER and
testing effort of the unadjusted gate; the full-size sweep reaches trees
with hundreds of thousands of nodes but still averages about one test per
replicate thanks to the stopping rule.
"""

import argparse
import os
import sys
import time

from treegate import simulate_weak
from treegate.cli import csv_text
from treegate.gate import GateError
from treegate.sim import SimError

DESK_ROWS = [(2, 7), (4, 5), (6, 4), (8, 4), (10, 4), (20, 3), (50, 3), (100, 3)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=5000)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--out", default="weak_table.csv")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        parser.error(f"{args.out}: no such directory")

    rows = []
    for k, L in DESK_ROWS:
        t0 = time.perf_counter()
        try:
            summary = simulate_weak(
                k, L, alpha=args.alpha, replicates=args.replicates, seed=args.seed
            )
        except (GateError, SimError) as exc:
            parser.error(str(exc))
        rows.append(
            {
                "k": k,
                "levels": L,
                "nodes": (k**L - 1) // (k - 1),
                "leaves": k ** (L - 1),
                "fwer": round(summary.fwer, 4),
                "fwer_se": round(summary.fwer_se, 4),
                "mean_tests": round(summary.mean_tests, 4),
                "mean_nodes_tested": round(summary.mean_nodes_tested, 4),
                "seconds": round(time.perf_counter() - t0, 2),
            }
        )
        print(rows[-1])

    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text([list(rows[0]), *(row.values() for row in rows)]))
    except OSError as exc:
        parser.error(f"{args.out}: {exc.strerror}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
