"""Regenerate ROADMAP's baseline table: one fresh process per row and repeat.

    python3 perfbench/baseline.py

Rows: ``simulate_dpp`` (rank, 100 replicates, 500 permutations),
``simulate_strong`` (k=4, L=4, 500 replicates), ``build_regular(2, 19)`` and
``simulate_weak(2, 19)`` (2000 replicates).  Each row runs ``REPEAT`` times
at seed ``SEED``.  Prints the median wall time, CPU time and peak RSS of
each row and writes them, with the commit, core count and library versions,
to ``perfbench/_out/BENCH_baseline.json``.
"""

import json
import os
import subprocess
import sys
import time
from statistics import median

import run

REPEAT = 3
SEED = 0

ROWS = {
    "simulate_dpp rank, 100 reps, n_perms=500": (
        "sim.simulate_dpp(sim.DppConfig(d=0.2, replicates=100, n_perms=500, "
        "statistic='rank', seed=SEED))"
    ),
    "simulate_strong k=4 L=4, 500 reps": (
        "sim.simulate_strong(sim.ScenarioConfig(k=4, L=4, units_per_leaf=32, d=0.15, "
        "null_proportion=0.8, placement='scattered', replicates=500, seed=SEED))"
    ),
    "build_regular(2, 19)": "tree.build_regular(2, 19)",
    "simulate_weak(2, 19), 2000 reps": "sim.simulate_weak(2, 19, replicates=2000, seed=SEED)",
}

_CHILD = """
import json, resource, sys, time
from treegate import sim, tree
SEED = int(sys.argv[1])
c0 = time.process_time(); t0 = time.perf_counter()
{expr}
wall = time.perf_counter() - t0; cpu = time.process_time() - c0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({{"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}}))
"""


def measure(expr: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(expr=expr), str(seed)],
        capture_output=True, text=True, env=run._env(), cwd=run.ROOT, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "treegate", "__init__.py")):
        print(f"error: no treegate package under {run.SRC}", file=sys.stderr)
        return 2

    rows = {}
    print("| What | wall s | cpu s | peak RSS MB |")
    print("|---|---|---|---|")
    for label, expr in ROWS.items():
        runs = [measure(expr, SEED) for _ in range(REPEAT)]
        rows[label] = {k: median(r[k] for r in runs) for k in runs[0]} | {"runs": runs}
        r = rows[label]
        print(f"| {label} | {r['wall_s']:.2f} | {r['cpu_s']:.2f} | {r['peak_rss_mb']:.0f} |", flush=True)

    import numpy
    import scipy

    doc = {
        "label": "baseline",
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": run._git_commit(),
        "source_sha256": run._source_digest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "TREEGATE_THREADS": 1,
        "seed": SEED,
        "repeat": REPEAT,
        "rows": rows,
    }
    os.makedirs(run.OUT, exist_ok=True)
    path = os.path.join(run.OUT, "BENCH_baseline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
