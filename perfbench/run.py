"""treegate benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload dpp_rank --seed 0 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the package is imported from ``src/``.  Each
run starts fresh processes with ``TREEGATE_THREADS=1``: a few that only
import ``treegate`` (``setup_s`` is the median spawn-to-ready time over them
and the workload process) and one that runs the workload (``worker.py``).
Every time reported is corrected to a reference host speed
(``hostspeed.py``); the raw median call time is printed beside it.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it name every metric with its unit, the
failed fraction, the output digest and the run environment.  The same
metrics, with the digest and environment, are also written to
``perfbench/_out/result-<workload>-seed<n>-trace<0|1>.json``.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "_out")
SETUP_PROBES = 3
TIMEOUT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["TREEGATE_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its spawn-to-ready seconds,
    corrected to the reference host speed measured during its import."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    words = line.split()
    if len(words) != 3 or words[0] != "ready":
        _finish(proc, deadline)
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    spent, factor = float(words[1]), float(words[2])
    return proc, (ready - spent) * factor


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    where no git commit is available."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "treegate")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in fresh processes and return the raw result."""
    deadline = time.monotonic() + TIMEOUT_S
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe, ready = _spawn(["--probe"], deadline)
            _finish(probe, deadline)
            setup.append(ready)
    workdir = os.path.join(OUT, f"run-{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc, ready = _spawn(
            ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--workdir", workdir],
            deadline,
        )
        result = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(ready)
    result["setup"] = setup
    result["env"].update(
        commit=_git_commit(),
        source_sha256=_source_digest(),
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        seed=seed,
        seconds=seconds,
        workload=workload,
    )
    if workload == "weak_deep":
        result["env"]["note"] = (
            "holds one 524k-node tree per call (607 MB peak RSS measured on a "
            "2-core, 8 GB machine)"
        )
    return result


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "setup_s": median(result["setup"]),
        "wall_s": median(result["wall"]),
        "cpu_s": median(result["cpu"]),
        "peak_rss_mb": result["rss_mb"],
    }


def report(workload: str, result: dict, metrics: dict, units: dict) -> None:
    print(
        f"workload {workload}: {len(result['wall'])} untraced calls, "
        f"setup from {len(result['setup'])} fresh processes, "
        f"{result['samples']} host-speed samples"
    )
    print(f"  {'wall_s (raw, uncorrected)':34s} {median(result['wall_raw']):.6g} s")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':34s} {frac:.6g} ratio ({result['failed']} of {result['attempted']})")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(f"  digest sha256:{result['digest']}")
    if "spans" in result:
        print(f"  spans {os.path.relpath(result['spans'], ROOT)}")
    print("  env " + json.dumps(result["env"], sort_keys=True))


def record(workload: str, result: dict, metrics: dict, units: dict, trace: int) -> None:
    """Write the metrics with the digest and environment they belong to.

    The result line itself may hold only ``correct``, ``attempted``,
    ``failed`` and ``metrics``, so the digest and environment live here."""
    doc = {
        "workload": workload,
        "trace": trace,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "digest": result["digest"],
        "env": result["env"],
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{workload}-seed{result['env']['seed']}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"  result {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "treegate", "__init__.py")):
        print(f"error: no treegate package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            result = run_workload(workload, args.seed, seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        measured = result["layers"] if args.trace else end_to_end(result)
        missing = sorted(set(units) - set(measured))
        if missing:
            print(f"error: {workload}: metrics not measured: {missing}", file=sys.stderr)
            return 1
        selected = {name: measured[name] for name in units}
        report(workload, result, selected, units)
        record(workload, result, selected, units, args.trace)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in selected.items()}
        )
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
