#!/usr/bin/env python3
"""Print one SHA-256 per treegate CLI output on fixed inputs and seeds.

A refactor that must keep every output byte-identical runs this at the
parent commit and at the change and compares the two listings:

    TREEGATE_THREADS=1 PYTHONPATH=src python scripts/output_digests.py > digests.txt

It runs ``treegate simulate`` on each committed config (each runs in 3 s
or less on a 2-core VM; a config much over 10 s would not belong here),
``treegate alpha-schedule`` on ``tests/golden/sizes.csv``, and
``treegate test`` on ``tests/golden/trial.csv`` with every gate variant in
JSON, CSV and DOT, the DOT both with untested subtrees omitted and with
each collapsed into one placeholder (``--dot-pruned collapse``, the one
output that sums over subtrees).  The mean-difference statistic rejects
that file's root, so the walk goes below it.  A flat copy of the file, without its hierarchy
columns and so with its seven blocks in one sibling group under the root,
is written to a temporary directory and tested with both local Hommel
variants.  The energy statistic, whose quadratic form no other command
reaches, and the rank statistic, the CLI's default, each run on
``tests/golden/trial.csv`` in JSON with three variants.  The rank
statistic also runs on a generated CSV (``write_ranked``) whose twelve
blocks hold more outcomes than ``--n-perms`` + 1, a third of them with
tied outcomes, so its Monte Carlo nodes mix blocks that draw their rank
sums with blocks that draw treated sets.
Each line is a digest, two spaces and the command.
"""

import argparse
import csv
import hashlib
import os
import random
import sys
import tempfile

from treegate import gate
from treegate.cli import main as treegate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIMULATE = [
    ("weak", "configs/weak.cfg"),
    ("strong", "configs/strong.cfg"),
    ("strong", "configs/strong_audit.cfg"),
    ("strong", "configs/strong_gating_counterexample.cfg"),
    ("dpp", "configs/dpp.cfg"),
    ("weak", "tests/golden/weak.cfg"),
    ("strong", "tests/golden/strong.cfg"),
    ("dpp", "tests/golden/dpp.cfg"),
    ("dpp", "tests/golden/dpp_small.cfg"),
]
SEEDED = ["--d-hat", "0.4", "--n-perms", "200", "--seed", "7"]
TEST_ARGS = ["--statistic", "mean_diff", *SEEDED]
STATISTIC_VARIANTS = ("unadjusted", "adaptive", "adaptive_pruned")
FLAT = "trial_flat.csv"  # named as printed; written to the temporary directory
RANKED = "ranked.csv"  # likewise


def commands() -> list[list[str]]:
    out = [["simulate", kind, "--config", path] for kind, path in SIMULATE]
    out.append(["alpha-schedule", "tests/golden/sizes.csv", "--d-hat", "0.3"])
    for variant in sorted(gate.VARIANTS):
        for fmt in ("json", "csv", "dot"):
            out.append(
                ["test", "tests/golden/trial.csv", "--variant", variant, *TEST_ARGS, "--format", fmt]
            )
        out.append(
            ["test", "tests/golden/trial.csv", "--variant", variant, *TEST_ARGS, "--format", "dot",
             "--dot-pruned", "collapse"]
        )
    for variant in ("local_hommel", "adaptive_hommel"):
        for fmt in ("json", "csv", "dot"):
            out.append(["test", FLAT, "--variant", variant, *TEST_ARGS, "--format", fmt])
    for statistic in ("energy", "rank"):
        for variant in STATISTIC_VARIANTS:
            out.append(
                ["test", "tests/golden/trial.csv", "--variant", variant, "--statistic", statistic,
                 *SEEDED, "--format", "json"]
            )
    out.append(["test", RANKED, "--statistic", "rank", *SEEDED, "--format", "json"])
    return out


def write_flat(path: str) -> None:
    """Write ``tests/golden/trial.csv`` with only its unit_id, block_id,
    treatment and outcome columns."""
    with open("tests/golden/trial.csv", newline="") as src, open(path, "w", newline="") as dst:
        writer = csv.writer(dst, lineterminator="\n")
        for row in csv.reader(src):
            writer.writerow(row[:4])


def write_ranked(path: str) -> None:
    """Write twelve blocks of 20 units, half treated, under three sites of
    two cohorts, with an effect in site S1.  Every third block's outcomes
    are whole numbers, so they tie."""
    rng = random.Random(5)  # the standard library's generator: the file does not depend on numpy
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["unit_id", "block_id", "treatment", "outcome", "site", "cohort"])
        for b in range(12):
            site, cohort = f"S{b // 4 + 1}", f"S{b // 4 + 1}{'ab'[b // 2 % 2]}"
            treated = set(rng.sample(range(20), 10))
            for u in range(20):
                y = 10.0 + 6.0 * rng.random() + (2.0 if site == "S1" and u in treated else 0.0)
                writer.writerow([f"u{b:02d}{u:02d}", f"b{b:02d}", int(u in treated),
                                 f"{y:.0f}" if b % 3 == 0 else f"{y:.3f}", site, cohort])


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    os.chdir(ROOT)  # the commands name their inputs from the repository root
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        written = {FLAT: os.path.join(tmp, FLAT), RANKED: os.path.join(tmp, RANKED)}
        write_flat(written[FLAT])
        write_ranked(written[RANKED])
        for command in commands():
            status = treegate([written.get(arg, arg) for arg in command] + ["--out", out])
            if status != 0:
                print(f"failed: treegate {' '.join(command)}", file=sys.stderr)
                return status
            with open(out, "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  treegate {' '.join(command)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
