"""One benchmark workload in a fresh process, so its peak memory is its own.

Started by ``run.py``.  Prints ``ready <kernel_s> <factor>`` as soon as
``treegate`` is imported: the parent turns its spawn-to-ready time into one
``setup_s`` sample with the host-speed correction (``hostspeed.py``) taken
during the import.  Then it runs the workload and prints one JSON line with
the raw measurements.  With ``--probe`` it exits right after ``ready``.

Every call is timed raw and corrected to the reference host speed.
Untraced (``--trace 0``): passes of one call per workload input repeat for
``--seconds`` seconds, at least ``MIN_PASSES`` times.  Traced
(``--trace 1``): half the time runs untraced passes, the rest runs traced
rounds of one call per workload input, at least two, whose counts must
agree exactly.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from statistics import median

from hostspeed import Sampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PASSES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sampler = Sampler()
    sampler.start()
    t0 = time.perf_counter()
    import treegate

    import_s = time.perf_counter() - t0
    expected = os.path.join(ROOT, "src", "treegate")
    if os.path.dirname(os.path.abspath(treegate.__file__)) != expected:
        print(f"treegate imported from {treegate.__file__}, not {expected}", file=sys.stderr)
        return 3
    spent, factor = sampler.span(0)
    print(f"ready {spent!r} {factor!r}", flush=True)
    if args.probe:
        sampler.stop()
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace, args.workdir, sampler)
    sampler.stop()
    result["import_s"] = import_s
    if "layers" in result:
        result["layers"]["setup.import_s"] = import_s
    print(json.dumps(result), flush=True)
    return 0


class Calls:
    """Runs workload calls, times them, and checks every output."""

    def __init__(self, wl, sampler: Sampler):
        self.wl = wl
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}

    def fail(self, key, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"input {key}: {problem}")

    def call(self, key) -> tuple[float, float, float]:
        """Run one call; its raw wall time, and its wall and CPU times
        corrected to the reference host speed."""
        self.attempted += 1
        mark = self.sampler.mark()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            text = self.wl.call(key)
        except Exception as exc:  # a raising call is a failed call, not a crash
            self.fail(key, f"{type(exc).__name__}: {exc}")
            text = None
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        timings = (wall, *self.sampler.correct(mark, wall, cpu))
        if text is None:
            return timings
        problems = self.wl.check(key, text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            problems.append("output differs from an earlier call on the same input")
        if problems:
            self.fail(key, "; ".join(problems))
        return timings

    def loop(self, seconds: float, min_passes: int) -> dict[str, list[float]]:
        """Whole passes of one call per input until ``seconds`` have gone by
        and at least ``min_passes`` are done; the timings of every call."""
        times: dict[str, list[float]] = {"wall_raw": [], "wall": [], "cpu": []}
        start = time.perf_counter()
        passes = 0
        while passes < min_passes or time.perf_counter() - start < seconds:
            for key in self.wl.keys:
                for name, value in zip(times, self.call(key)):
                    times[name].append(value)
            passes += 1
        return times

    def digest(self) -> str:
        """One digest over the outputs of every input, in input order."""
        joined = ",".join(self.digests.get(k, "missing") for k in self.wl.keys)
        return hashlib.sha256(joined.encode("ascii")).hexdigest()


def traced_rounds(calls: Calls, seconds: float, spans_path: str) -> tuple[dict, list]:
    """Traced rounds of one call per input; returns layer metrics and the
    corrected wall times.

    The wrappers stay installed until the worker exits."""
    import tracer

    tr = tracer.Tracer()
    tracer.install(tr)
    keys = calls.wl.keys
    rounds, walls, permtest_ms = [], [], []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        tr.reset()
        for key in keys:
            walls.append(calls.call(key)[1])
        rounds.append(tracer.round_metrics(tr))
        permtest_ms += tr.permtest_ms
    tr.dump_spans(spans_path)

    first = rounds[0]
    counts = [k for k, v in first.items() if isinstance(v, int)]
    for i, other in enumerate(rounds[1:], start=2):
        moved = [k for k in counts if other[k] != first[k]]
        if moved:
            calls.failed += len(keys)
            calls.problems.append(
                f"traced round {i}: counts differ from round 1: "
                + ", ".join(f"{k} {first[k]} != {other[k]}" for k in moved)
            )
    totals = {
        k: first[k] if k in counts else median(r[k] for r in rounds) for k in first
    }
    layers = tracer.derived_metrics(totals, len(keys), permtest_ms)
    return layers, walls


def run(
    workload: str, seed: int, seconds: float, trace: int, workdir: str, sampler: Sampler
) -> dict:
    import numpy
    import scipy

    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir)
    calls = Calls(wl, sampler)
    out = {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "TREEGATE_THREADS": os.environ.get("TREEGATE_THREADS"),
            **wl.notes,
        }
    }
    if trace:
        times = calls.loop(seconds / 2, 1)
        spans_path = os.path.join(os.path.dirname(workdir), f"spans-{workload}-seed{seed}.jsonl")
        layers, traced_walls = traced_rounds(calls, seconds / 2, spans_path)
        layers["trace.overhead_frac"] = median(traced_walls) / median(times["wall"]) - 1.0
        out["layers"] = layers
        out["spans"] = spans_path
    else:
        times = calls.loop(seconds, MIN_PASSES)
    out.update(
        **times,
        samples=len(sampler.samples),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=calls.attempted,
        failed=calls.failed,
        problems=calls.problems,
        digest=calls.digest(),
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
