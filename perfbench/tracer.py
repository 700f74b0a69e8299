"""In-memory span tracer that wraps treegate's public functions from outside.

Several functions are bound by name at import time (``sim`` imports
``permutation_pvalue``, ``run_topdown`` and friends; ``gate`` imports
``recompute_after_pruning``; ``gate._LOCAL_ADJUSTERS`` holds the adjuster
objects), so patching only the defining module would miss those calls.
``install`` therefore replaces each name at the module it is looked up from.

A span is ``(id, name, start, end, parent_id)``.  A span's self time is its
duration minus the time its child spans cover, including the tracer's own
bookkeeping for those children, so wrapping a callee does not inflate its
caller's self time.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

from treegate import adjust, cli, gate, permtest, sim
from treegate.tree import HypothesisTree

# Counts kept by the wrappers' ``after`` hooks, on top of per-span call counts.
HOOK_COUNTS = (
    "permtest.mc_draws",
    "permtest.exact_calls",
    "permtest.blocks_in_calls",
    "data.blocks",
    "tree.nodes_built",
    "adjust.m_total",
    "gate.nodes_tested",
    "gate.psource_calls",
    "gate.psource_hits",
    "cli.rows",
)

PERMTEST = "permtest.permutation_pvalue"


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()  # cleared in place: the hooks hold it
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts.clear()
        self.permtest_ms: list[float] = []
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span per call; ``after(args, kwargs,
        result, seconds)`` runs outside the span to update counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.spans.append((span_id, name, start, end, parent))
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
            if after is not None:
                after(args, kwargs, result, dur)
            if stack:
                stack[-1][1] += perf_counter() - start
            return result

        return traced

    def dump_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tr: Tracer) -> None:
    """Wrap every traced call site for the rest of the process."""
    c = tr.counts

    def permtest_after(args, kwargs, result, dur):
        blocks, spec = args[0], args[1]
        tr.permtest_ms.append(dur * 1e3)
        c["permtest.blocks_in_calls"] += len(blocks)
        exact = spec.exact
        if exact is None:
            exact = permtest.total_assignments(blocks) <= spec.exact_cap
        if exact:
            c["permtest.exact_calls"] += 1
        else:
            c["permtest.mc_draws"] += spec.n_perms * len(blocks)

    for mod in (sim, cli):
        setattr(mod, "permutation_pvalue", tr.wrap(PERMTEST, permtest.permutation_pvalue, permtest_after))

    def topdown(fn):
        def run(tree, p_source, *args, **kwargs):
            def counted(nid):
                before = tr.calls[PERMTEST]
                value = p_source(nid)
                c["gate.psource_calls"] += 1
                c["gate.psource_hits"] += tr.calls[PERMTEST] == before
                return value

            return fn(tree, counted, *args, **kwargs)

        def after(args, kwargs, result, dur):
            c["gate.nodes_tested"] += result.nodes_tested

        return tr.wrap("gate.run_topdown", run, after)

    setattr(sim, "run_topdown", topdown(sim.run_topdown))
    setattr(gate, "run_topdown", topdown(gate.run_topdown))  # cli looks it up here
    setattr(sim, "run_bottom_up", tr.wrap("gate.run_bottom_up", sim.run_bottom_up))
    setattr(sim, "score_result", tr.wrap("gate.score", sim.score_result))
    setattr(sim, "score_rejections", tr.wrap("gate.score", sim.score_rejections))

    def count_nodes(args, kwargs, result, dur):
        c["tree.nodes_built"] += len(result)

    for mod, name in ((sim, "build_regular"), (sim, "build_from_paths"), (cli, "build_from_paths")):
        setattr(mod, name, tr.wrap("tree.build", getattr(mod, name), count_nodes))
    setattr(HypothesisTree, "__init__", tr.wrap("tree.init", HypothesisTree.__init__))
    setattr(HypothesisTree, "prune_below", tr.wrap("tree.prune_below", HypothesisTree.prune_below))
    setattr(HypothesisTree, "label_truth", tr.wrap("tree.label_truth", HypothesisTree.label_truth))

    for mod in (sim, cli):
        setattr(mod, "adaptive_schedule", tr.wrap("errorload.schedule", mod.adaptive_schedule))
    setattr(gate, "recompute_after_pruning", tr.wrap("errorload.recompute", gate.recompute_after_pruning))

    def count_m(args, kwargs, result, dur):
        c["adjust.m_total"] += len(result)

    for key, fn in list(gate._LOCAL_ADJUSTERS.items()):
        gate._LOCAL_ADJUSTERS[key] = tr.wrap("adjust.local", fn, count_m)
    for name in ("adjust_hommel", "adjust_bh"):  # run_bottom_up looks them up here
        setattr(adjust, name, tr.wrap("adjust.bottom_up", getattr(adjust, name), count_m))

    def count_data_blocks(args, kwargs, result, dur):
        c["data.blocks"] += len(result[1])

    setattr(sim, "generate_dpp_data", tr.wrap("sim.datagen", sim.generate_dpp_data, count_data_blocks))
    for name in ("simulate_weak", "simulate_strong", "simulate_dpp"):
        setattr(sim, name, tr.wrap("sim.simulate", getattr(sim, name)))

    def count_rows(args, kwargs, result, dur):
        c["data.blocks"] += len(result.blocks)
        c["cli.rows"] += sum(b.n for b in result.blocks)

    setattr(cli, "read_dataset", tr.wrap("cli.read_dataset", cli.read_dataset, count_rows))
    setattr(cli, "result_to_json", tr.wrap("cli.result_to_json", cli.result_to_json))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest of the 50th/90th/99th/99.9th percentiles that has at least ten
    samples beyond it, as ``(percentile, value)``."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, _quantile(ordered, pct)
    return 50.0, _quantile(ordered, 50.0)


def _quantile(ordered: list[float], pct: float) -> float:
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def round_metrics(tr: Tracer) -> dict[str, float]:
    """Layer totals of one traced round (before division by its call count).

    Integer values are counts, which must repeat exactly for one input;
    float values are seconds."""
    c = tr.counts
    t = tr.total
    s = tr.self_time
    return {
        "permtest.calls": tr.calls[PERMTEST],
        "permtest.s": t[PERMTEST],
        **{name: c[name] for name in HOOK_COUNTS},
        "tree.build_s": t["tree.build"],
        "tree.init_calls": tr.calls["tree.init"],
        "tree.prune_calls": tr.calls["tree.prune_below"],
        "tree.prune_s": t["tree.prune_below"],
        "tree.label_s": t["tree.label_truth"],
        "errorload.schedule_calls": tr.calls["errorload.schedule"],
        "errorload.schedule_s": t["errorload.schedule"],
        "errorload.recompute_calls": tr.calls["errorload.recompute"],
        "errorload.recompute_s": t["errorload.recompute"],
        "adjust.local_calls": tr.calls["adjust.local"],
        "adjust.local_s": t["adjust.local"],
        "adjust.bu_calls": tr.calls["adjust.bottom_up"],
        "adjust.bu_s": t["adjust.bottom_up"],
        "gate.runs": tr.calls["gate.run_topdown"],
        "gate.self_s": s["gate.run_topdown"],
        "gate.bottomup_s": t["gate.run_bottom_up"],
        "gate.score_s": t["gate.score"],
        "sim.self_s": s["sim.simulate"],
        "sim.datagen_s": t["sim.datagen"],
        "cli.read_s": t["cli.read_dataset"],
        "cli.write_s": t["cli.result_to_json"],
    }


def derived_metrics(totals: dict[str, float], calls: int, permtest_ms: list[float]) -> dict:
    """Per-call layer metrics from one round's totals plus the ratios."""
    out = {k: v / calls for k, v in totals.items()}
    pct, tail = tail_percentile(permtest_ms)
    out.update(
        {
            "permtest.call_ms_p50": _quantile(sorted(permtest_ms), 50.0),
            "permtest.call_ms_ptail": tail,
            "permtest.call_ms_ptail_pct": pct,
            "permtest.call_samples": len(permtest_ms),
            "permtest.block_draws_per_block": _ratio(
                totals["permtest.blocks_in_calls"], totals["data.blocks"]
            ),
            "permtest.draws_per_s": _ratio(totals["permtest.mc_draws"], totals["permtest.s"]),
            "permtest.exact_frac": _ratio(totals["permtest.exact_calls"], totals["permtest.calls"]),
            "adjust.mean_m": _ratio(
                totals["adjust.m_total"], totals["adjust.local_calls"] + totals["adjust.bu_calls"]
            ),
            "gate.pcache_hit_ratio": _ratio(totals["gate.psource_hits"], totals["gate.psource_calls"]),
        }
    )
    return out
