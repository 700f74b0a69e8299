"""Command-line front end: data ingestion, gated analysis, schedules, sims.

Three subcommands:

* ``test``            run the gated procedure on a block-level CSV dataset
* ``alpha-schedule``  compute the adaptive per-depth thresholds for a node
                      size table
* ``simulate``        run one of the Monte Carlo studies from a key=value
                      config file

Outputs are plain JSON/CSV/DOT and are byte-identical for identical inputs,
flags, and seeds.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import gate, sim
from .errorload import PowerModel, ScheduleError, adaptive_schedule
from .gate import GateError, Walk
from .permtest import STATISTICS, Block, PermTestError, TestSpec
from .tree import HypothesisTree, TreeError, build_from_paths, from_parents

SCHEMA_VERSION = 1
REQUIRED_COLUMNS = ("unit_id", "block_id", "treatment", "outcome")


class CliError(Exception):
    """Input problem reported to the user with a non-zero exit."""


# ---------------------------------------------------------------------------
# dataset ingestion
# ---------------------------------------------------------------------------


@contextmanager
def _open_text(path: str):
    """``path`` opened as UTF-8 text with line ends kept as they are and a
    leading byte-order mark dropped; a file that cannot be opened or read,
    or a byte that is not UTF-8, is a CliError naming the path."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raise CliError(f"{path}: not UTF-8 text")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}")


def _read_table(path: str, required: tuple[str, ...]):
    """Yield the header of the CSV table at ``path``, names stripped, then
    ``(lineno, row)`` for each row that is not blank, with the file open:
    rows are streamed so that a large dataset is not held twice.  An empty
    file, a required column missing or given twice, a row whose field count
    differs from the header's, or no data rows at all is a CliError."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise CliError(f"{path}: empty file")
        missing = [name for name in required if name not in header]
        if missing:
            raise CliError(f"{path}: missing required columns {missing}")
        for name in required:
            if header.count(name) > 1:
                raise CliError(f"{path}: duplicate required column {name!r}")
        yield header
        n_rows = 0
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise CliError(f"{path}:{lineno}: expected {len(header)} fields")
            n_rows += 1
            yield lineno, row
    if not n_rows:
        raise CliError(f"{path}: no data rows")


@dataclass
class Dataset:
    tree: HypothesisTree
    blocks: list[Block]


def read_dataset(path: str) -> Dataset:
    """Parse a unit-level CSV into blocks and the hierarchy tree.

    Required columns: unit_id, block_id, treatment (0/1), outcome.  Any
    further columns are ordered hierarchy levels, constant within a block;
    without them a star tree over the blocks is used.
    """
    table = _read_table(path, REQUIRED_COLUMNS)
    header = next(table)
    col = {name: header.index(name) for name in REQUIRED_COLUMNS}
    hierarchy_cols = [
        (i, name) for i, name in enumerate(header) if name not in REQUIRED_COLUMNS
    ]

    unit_ids: set[str] = set()
    order: list[str] = []
    treatment: dict[str, list[int]] = {}
    outcome: dict[str, list[float]] = {}
    paths: dict[str, tuple[str, ...]] = {}
    for lineno, row in table:
        uid = row[col["unit_id"]].strip()
        if not uid:
            raise CliError(f"{path}:{lineno}: empty unit_id")
        if uid in unit_ids:
            raise CliError(f"{path}:{lineno}: duplicate unit_id {uid!r}")
        unit_ids.add(uid)
        bid = row[col["block_id"]].strip()
        if not bid:
            raise CliError(f"{path}:{lineno}: empty block_id")
        t_raw = row[col["treatment"]].strip()
        if t_raw not in ("0", "1"):
            raise CliError(
                f"{path}:{lineno}: treatment must be 0 or 1, got {t_raw!r}"
            )
        try:
            y = float(row[col["outcome"]])
        except ValueError:
            raise CliError(f"{path}:{lineno}: outcome is not a number")
        if not np.isfinite(y):
            raise CliError(f"{path}:{lineno}: outcome is not finite")
        levels = tuple(row[i].strip() for i, _ in hierarchy_cols)
        if "" in levels:
            name = hierarchy_cols[levels.index("")][1]
            raise CliError(f"{path}:{lineno}: empty value in hierarchy column {name!r}")
        if bid not in treatment:
            order.append(bid)
            treatment[bid] = []
            outcome[bid] = []
            paths[bid] = levels
        elif paths[bid] != levels:
            raise CliError(
                f"{path}:{lineno}: hierarchy columns change within block {bid!r}"
            )
        treatment[bid].append(int(t_raw))
        outcome[bid].append(y)

    degenerate = [
        bid for bid in order if not 0 < sum(treatment[bid]) < len(treatment[bid])
    ]
    if degenerate:
        raise CliError(
            f"{path}: blocks without both treated and control units: {degenerate}"
        )
    rows = [(bid, (*paths[bid], bid), len(treatment[bid])) for bid in order]
    try:
        tree = build_from_paths(rows)
    except TreeError as exc:
        raise CliError(f"{path}: {exc}")
    blocks = [
        Block(bid, np.array(treatment[bid], dtype=np.int8), np.array(outcome[bid]))
        for bid in order
    ]
    return Dataset(tree, blocks)


def read_node_sizes(path: str) -> HypothesisTree:
    """Parse a node-size table (node_id, parent_id, n_units) into a tree.

    ``parent_id`` is empty for the root; internal ``n_units`` may be left
    blank, in which case they are derived from the leaves.  Rows may come
    in any order.
    """
    wanted = ("node_id", "parent_id", "n_units")
    table = _read_table(path, wanted)
    header = next(table)
    cols = [header.index(name) for name in wanted]
    ids: list[str] = []
    parent_ids: list[str] = []
    n_units: list[int | None] = []
    for lineno, row in table:
        nid, parent, units = (row[i].strip() for i in cols)
        if not nid:
            raise CliError(f"{path}:{lineno}: empty node_id")
        try:
            n_units.append(int(units) if units else None)
        except ValueError:
            raise CliError(f"{path}:{lineno}: n_units is not an integer: {units!r}")
        ids.append(nid)
        parent_ids.append(parent)

    index = {nid: i for i, nid in enumerate(ids)}
    for nid, parent in zip(ids, parent_ids):
        if parent and parent not in index:
            raise CliError(f"{path}: node {nid!r} references unknown parent {parent!r}")
    try:
        return from_parents(ids, [index[p] if p else -1 for p in parent_ids], n_units)
    except TreeError as exc:
        raise CliError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------


NODE_FIELDS = ("id", "parent", "depth", "tested", "p", "p_adjusted", "alpha_applied", "rejected")


def _node_rows(walk: Walk, tree: HypothesisTree):
    """One dict per node of ``tree``, in index order, keyed by NODE_FIELDS,
    from a one-row walk; ``parent`` is None at the root, and an untested
    node has None p-values and threshold and is not rejected."""
    ids = tree.ids
    columns = (walk.p, walk.p_adjusted, walk.alpha_applied, walk.rejected)
    tested = dict(zip(walk.node.tolist(), zip(*(c.tolist() for c in columns))))
    for i, (nid, parent, depth) in enumerate(zip(ids, tree.parent.tolist(), tree.depth.tolist())):
        p, p_adjusted, alpha_applied, rejected = tested.get(i, (None, None, None, False))
        yield {
            "id": nid,
            "parent": ids[parent] if parent >= 0 else None,
            "depth": depth,
            "tested": i in tested,
            "p": p,
            "p_adjusted": p_adjusted,
            "alpha_applied": alpha_applied,
            "rejected": rejected,
        }


def result_to_json(walk: Walk, tree: HypothesisTree, header: dict) -> str:
    """A one-row walk as a JSON document: ``schema_version``, then the
    ``header`` fields in their order, then one entry per node."""
    doc = {"schema_version": SCHEMA_VERSION, **header, "nodes": list(_node_rows(walk, tree))}
    return json.dumps(doc, indent=2) + "\n"


def result_to_dot(walk: Walk, tree: HypothesisTree, pruned: str = "omit") -> str:
    """Graphviz rendering of one run; rejected nodes are drawn filled.

    ``pruned`` controls untested subtrees: "omit" drops them, "collapse"
    replaces each with a single dashed placeholder under its tested parent.
    """
    if pruned not in ("omit", "collapse"):
        raise CliError(f"unknown pruned mode: {pruned!r}")
    tested = [(i, node) for i, node in enumerate(_node_rows(walk, tree)) if node["tested"]]
    tested_ids = {node["id"] for _, node in tested}
    lines = ["digraph gated_tests {", '  node [shape=ellipse, fontsize=10];']
    for _, node in tested:
        q = _dot_escape(node["id"])
        label = f"{q}\\np={node['p']:.4g}"
        style = (
            'style=filled, fillcolor="#c7e9c0", peripheries=2'
            if node["rejected"]
            else 'style=filled, fillcolor="#f0f0f0"'
        )
        lines.append(f'  "{q}" [label="{label}", {style}];')
    if pruned == "collapse":
        descendants = (tree.subtree_sum(np.ones(len(tree))) - 1).tolist()
    for i, node in tested:
        q = _dot_escape(node["id"])
        if node["parent"] in tested_ids:
            lines.append(f'  "{_dot_escape(node["parent"])}" -> "{q}";')
        if pruned == "collapse" and not tree.is_leaf[i] and not node["rejected"]:
            lines.append(
                f'  "{q}:pruned" [label="{descendants[i]} untested", shape=box, style=dashed];'
            )
            lines.append(f'  "{q}" -> "{q}:pruned" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    """Escape a node id for use inside a double-quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def csv_text(rows) -> str:
    """Rows as CSV text with "\n" line ends; fields are quoted only when needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def result_to_csv(walk: Walk, tree: HypothesisTree) -> str:
    rows = [NODE_FIELDS]
    for node in _node_rows(walk, tree):
        # flags as 0/1; csv writes None as an empty field and a float as its repr
        rows.append([int(v) if isinstance(v, bool) else v for v in node.values()])
    return csv_text(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"{out}: {exc.strerror}")


def cmd_test(args) -> int:
    # fixed variants do not read it, but a bad value is still a mistake
    if args.d_hat is not None and not (np.isfinite(args.d_hat) and args.d_hat >= 0):
        raise CliError(f"--d-hat must be finite and non-negative: {args.d_hat}")
    dataset = read_dataset(args.data)
    variant = gate.VARIANTS[args.variant]
    schedule = None
    if variant.thresholds != "fixed":
        model = PowerModel(d_hat=args.d_hat, alpha=args.alpha)
        schedule = adaptive_schedule(dataset.tree, model)
    spec = TestSpec(
        statistic=args.statistic, n_perms=args.n_perms, seed=args.seed
    )
    p = sim.node_pvalues(dataset.tree, dataset.blocks, spec)
    p_of = dict(zip(dataset.tree.ids, p.tolist()))
    walk = gate.run_topdown(
        dataset.tree, p_of.__getitem__, variant, alpha=args.alpha, schedule=schedule
    )
    if args.format == "json":
        header = {
            "variant": variant.name, "alpha": args.alpha, "statistic": args.statistic,
            "n_perms": args.n_perms, "seed": args.seed,
        }
        _write(result_to_json(walk, dataset.tree, header), args.out)
    elif args.format == "dot":
        _write(result_to_dot(walk, dataset.tree, args.dot_pruned), args.out)
    else:
        _write(result_to_csv(walk, dataset.tree), args.out)
    return 0


def cmd_alpha_schedule(args) -> int:
    tree = read_node_sizes(args.sizes)
    schedule = adaptive_schedule(tree, PowerModel(d_hat=args.d_hat, alpha=args.alpha))
    rows = [["depth", "n_nodes", "theta_hat", "error_load", "alpha_adj", "gating_sufficient"]]
    for row in schedule.depths:
        rows.append(
            [
                row.depth,
                row.n_nodes,
                f"{row.theta_hat:.9f}",
                f"{row.error_load:.9f}",
                f"{row.alpha_adj:.9f}",
                int(schedule.gating_sufficient),
            ]
        )
    _write(csv_text(rows), args.out)
    return 0


def _comma_list(value: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in value.split(",") if m.strip())


# a config value's parser, by the annotation of its entry-point parameter
_PARSERS = {
    int: int,
    float: float,
    float | None: float,
    str: str,
    tuple[str, ...]: _comma_list,
}


def read_config(path: str, kind: str) -> dict:
    """Parse a key=value config file; the keys are the parameters of the
    kind's entry point, and those without a default are required."""
    entry = _study(kind)[0]
    allowed = inspect.signature(entry, eval_str=True).parameters
    out: dict = {}
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in allowed:
                raise CliError(
                    f"{path}:{lineno}: invalid key {key!r} for kind {kind!r} "
                    f"(allowed: {', '.join(allowed)})"
                )
            if key in out:
                raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                out[key] = _PARSERS[allowed[key].annotation](value)
            except ValueError:
                raise CliError(f"{path}:{lineno}: bad value for {key!r}: {value!r}")
    for key, p in allowed.items():
        if p.default is p.empty and key not in out:
            raise CliError(f"{kind} simulation config requires {key}")
    return out


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (int, float)) else str(x)


def weak_summary_csv(summary: sim.WeakSummary) -> str:
    s = summary
    return csv_text(
        [
            ["k", "L", "alpha", "replicates", "seed", "fwer", "fwer_se", "mean_tests",
             "mean_nodes_tested"],
            [s.k, s.L, _fmt(s.alpha), s.replicates, s.seed, _fmt(s.fwer), _fmt(s.fwer_se),
             _fmt(s.mean_tests), _fmt(s.mean_nodes_tested)],
        ]
    )


def strong_summary_csv(summary: sim.SimSummary) -> str:
    """One row per scenario: FWER per method plus the discovery comparison."""
    p = summary.params
    header = ["k", "d", "null_proportion", "sum_error_load"]
    values = [
        p["k"],
        _fmt(p["d"]) if p["d"] is not None else "",
        _fmt(p["null_proportion"]),
        _fmt(p["sum_error_load"]),
    ]
    for method, ms in summary.methods.items():
        header.append(f"fwer_{method}")
        values.append(_fmt(ms.fwer_node))
    for method, ms in summary.methods.items():
        disc = (
            ms.true_rejections_leaf
            if method in sim.BU_METHODS
            else ms.true_rejections_node
        )
        header.append(f"disc_{method}")
        values.append(_fmt(disc))
    if "td_adapt_pruned" in summary.methods and "bu_hommel" in summary.methods:
        bu = summary.methods["bu_hommel"].true_rejections_leaf
        td = summary.methods["td_adapt_pruned"].true_rejections_node
        header.append("ratio_td_adapt_pruned_vs_bu_hommel")
        values.append(_fmt(td / bu) if bu > 0 else "inf")
    return csv_text([header, values])


def dpp_summary_csv(summary: sim.SimSummary) -> str:
    """Metric-by-method table mirroring the block-data study layout."""
    methods = list(summary.methods)
    rows = [["metric", *methods]]
    metric_fields = [
        ("nodes_tested", "mean_nodes_tested"),
        ("node_fwer", "fwer_node"),
        ("node_false_rej_prop", "false_rejection_prop_node"),
        ("node_power", "power_node"),
        ("node_true_rejections", "true_rejections_node"),
        ("leaves_tested", "mean_leaves_tested"),
        ("leaf_power", "power_leaf"),
        ("leaf_true_rejections", "true_rejections_leaf"),
        ("leaf_fwer", "fwer_leaf"),
        ("leaf_false_rej_prop", "false_rejection_prop_leaf"),
    ]
    for label, attr in metric_fields:
        rows.append([label, *[_fmt(getattr(summary.methods[m], attr)) for m in methods]])
    return csv_text(rows)


def _study(kind: str):
    """The study of a ``simulate`` kind: its entry point, whose parameters
    are the config keys, the study run on what the entry point builds (none
    for ``simulate_weak``, which runs its own), and the table writer.  Built
    per call, so a name rebound on ``sim`` is the one that runs."""
    return {
        "weak": (sim.simulate_weak, None, weak_summary_csv),
        "strong": (sim.ScenarioConfig, sim.simulate_strong, strong_summary_csv),
        "dpp": (sim.DppConfig, sim.simulate_dpp, dpp_summary_csv),
    }[kind]


def cmd_simulate(args) -> int:
    entry, study, write_table = _study(args.kind)
    inputs = entry(**read_config(args.config, args.kind))
    _write(write_table(study(inputs) if study else inputs), args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treegate",
        description="Top-down gated hypothesis testing for block-randomized experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run the gated procedure on a CSV dataset")
    t.add_argument("data", help="unit-level CSV (unit_id, block_id, treatment, outcome, hierarchy...)")
    t.add_argument("--variant", default="unadjusted", choices=sorted(gate.VARIANTS))
    t.add_argument("--statistic", default="rank", choices=STATISTICS)
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--d-hat", type=float, default=None,
                   help="planning effect size for adaptive variants; their thresholds are "
                        "only valid when d_hat is not below the true effect")
    t.add_argument("--n-perms", type=int, default=1000)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--format", default="json", choices=("json", "dot", "csv"))
    t.add_argument("--dot-pruned", default="omit", choices=("omit", "collapse"),
                   help="DOT only: drop untested subtrees or collapse each into one placeholder")
    t.add_argument("--out", default=None, help="output path (default stdout)")
    t.set_defaults(func=cmd_test)

    a = sub.add_parser("alpha-schedule", help="adaptive thresholds for a node size table")
    a.add_argument("sizes", help="CSV with node_id, parent_id, n_units")
    a.add_argument("--d-hat", type=float, required=True,
                   help="planning effect size; gating_sufficient and the thresholds are "
                        "only valid when d_hat is not below the true effect")
    a.add_argument("--alpha", type=float, default=0.05)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_alpha_schedule)

    s = sub.add_parser("simulate", help="run a Monte Carlo study")
    s.add_argument("kind", choices=("weak", "strong", "dpp"))
    s.add_argument("--config", required=True, help="key=value config file")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is cmd_test:
        variant = gate.VARIANTS[args.variant]
        if variant.thresholds != "fixed" and args.d_hat is None:
            parser.error(f"--d-hat is required for variant {args.variant!r}")
    try:
        return args.func(args)
    except (CliError, TreeError, ScheduleError, GateError, PermTestError, sim.SimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the allocation it refused; a bare one is empty
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
