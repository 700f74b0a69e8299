"""Byte-for-byte guard on the CLI's outputs for fixed inputs and seeds.

Each case runs one ``treegate`` command on a committed input under
``tests/golden/`` and compares its output with the committed expected file.
``trial.csv`` mixes small blocks (exact enumeration at the leaves and
cohorts) with larger unions (Monte Carlo at the sites and the root);
``sizes.csv`` lists a child before its parent.

To regenerate the expected files of the named cases after an intended
output change (without names it lists the cases and writes nothing)::

    PYTHONPATH=src python tests/test_golden.py test_meandiff_bh.json ...
"""

from __future__ import annotations

import os
import sys

import pytest

from treegate.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "test_energy_adaptive.json": [
        "test", "trial.csv", "--variant", "adaptive_pruned", "--d-hat", "0.4",
        "--statistic", "energy", "--n-perms", "200", "--seed", "7", "--format", "json",
    ],
    "test_meandiff_adaptive.csv": [
        "test", "trial.csv", "--variant", "adaptive", "--d-hat", "0.5", "--statistic", "mean_diff",
        "--n-perms", "200", "--seed", "8", "--format", "csv",
    ],
    "test_meandiff_bh.json": [
        "test", "trial.csv", "--variant", "local_bh", "--statistic", "mean_diff",
        "--n-perms", "200", "--seed", "7", "--format", "json",
    ],
    "test_meandiff_hommel.csv": [
        "test", "trial.csv", "--variant", "local_hommel", "--statistic", "mean_diff",
        "--seed", "8", "--format", "csv",
    ],
    "test_rank_omit.dot": [
        "test", "trial.csv", "--statistic", "rank", "--alpha", "0.5", "--n-perms", "1000",
        "--seed", "1", "--format", "dot",
    ],
    "test_meandiff_collapse.dot": [
        "test", "trial.csv", "--statistic", "mean_diff", "--n-perms", "200",
        "--seed", "9", "--format", "dot", "--dot-pruned", "collapse",
    ],
    "alpha_schedule.csv": ["alpha-schedule", "sizes.csv", "--d-hat", "0.3"],
    "simulate_weak.csv": ["simulate", "weak", "--config", "weak.cfg"],
    "simulate_strong.csv": ["simulate", "strong", "--config", "strong.cfg"],
    "simulate_dpp.csv": ["simulate", "dpp", "--config", "dpp.cfg"],
    "simulate_dpp_small.csv": ["simulate", "dpp", "--config", "dpp_small.cfg"],
}


def _run(name: str, out_path: str) -> None:
    argv = [os.path.join(GOLDEN, a) if a.endswith((".csv", ".cfg")) else a for a in CASES[name]]
    assert main([*argv, "--out", out_path]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    _run(name, str(out))
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


if __name__ == "__main__":
    unknown = [case for case in sys.argv[1:] if case not in CASES]
    if unknown or len(sys.argv) < 2:
        if unknown:
            print(f"unknown cases: {', '.join(unknown)}", file=sys.stderr)
        print("name the cases to regenerate:", *CASES, sep="\n  ", file=sys.stderr)
        sys.exit(2 if unknown else 0)
    for case in sys.argv[1:]:
        _run(case, os.path.join(GOLDEN, case))
        print(f"wrote {case}", file=sys.stderr)
