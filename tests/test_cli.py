import csv
import glob
import inspect
import json
import os
import re

import numpy as np
import pytest

from treegate import cli, sim
from treegate.cli import (
    CliError,
    main,
    read_dataset,
    read_node_sizes,
    result_to_json,
)


def write_dataset(path, rows, header=("unit_id", "block_id", "treatment", "outcome", "site", "cohort")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def small_dataset(path, seed=0, shift=2.0):
    """Two sites, four blocks of 10 units; site A carries a shift."""
    rng = np.random.default_rng(seed)
    rows = []
    unit = 0
    for site, block, shifted in (
        ("A", "b1", True), ("A", "b2", True), ("B", "b3", False), ("B", "b4", False)
    ):
        treated = set(rng.permutation(10)[:5])
        for i in range(10):
            unit += 1
            t = int(i in treated)
            y = rng.normal() + (shift * t if shifted else 0.0)
            rows.append((f"u{unit}", block, t, round(y, 6), site, f"{site}1"))
    return write_dataset(path, rows)


class TestReadDataset:
    def test_parses_hierarchy(self, tmp_path):
        data = small_dataset(tmp_path / "d.csv")
        dataset = read_dataset(data)
        assert len(dataset.blocks) == 4
        assert dataset.tree.max_depth == 4
        assert len(dataset.tree.levels[1]) == 2

    def test_star_tree_without_hierarchy(self, tmp_path):
        rows = [
            (f"u{i}", f"b{i % 2}", i % 2 if i < 8 else 1 - i % 2, float(i))
            for i in range(12)
        ]
        path = write_dataset(
            tmp_path / "flat.csv", rows, header=("unit_id", "block_id", "treatment", "outcome")
        )
        dataset = read_dataset(path)
        assert dataset.tree.max_depth == 2

    def test_bad_treatment_reports_line(self, tmp_path):
        rows = [("u1", "b1", 1, 1.0, "A", "A1"), ("u2", "b1", 2, 1.0, "A", "A1")]
        path = write_dataset(tmp_path / "bad.csv", rows)
        with pytest.raises(CliError, match=r"bad\.csv:3"):
            read_dataset(path)

    def test_degenerate_block_named(self, tmp_path):
        rows = [("u1", "b1", 1, 1.0, "A", "A1"), ("u2", "b1", 1, 2.0, "A", "A1"),
                ("u3", "b2", 0, 1.0, "A", "A1"), ("u4", "b2", 1, 2.0, "A", "A1")]
        path = write_dataset(tmp_path / "deg.csv", rows)
        with pytest.raises(CliError, match=r"\['b1'\]"):
            read_dataset(path)

    def test_empty_hierarchy_cell_reports_line(self, tmp_path):
        rows = [("u1", "b1", 1, 1.0, "A", "A1"), ("u2", "b1", 0, 2.0, "A", "A1"),
                ("u3", "b2", 1, 1.0, " ", "A1"), ("u4", "b2", 0, 2.0, " ", "A1")]
        path = write_dataset(tmp_path / "gap.csv", rows)
        with pytest.raises(CliError, match=r"^.*gap\.csv:4: empty value in hierarchy column 'site'$"):
            read_dataset(path)

    def test_hierarchy_must_be_constant_within_block(self, tmp_path):
        rows = [("u1", "b1", 1, 1.0, "A", "A1"), ("u2", "b1", 0, 1.0, "B", "A1")]
        path = write_dataset(tmp_path / "mix.csv", rows)
        with pytest.raises(CliError, match="hierarchy"):
            read_dataset(path)

    def test_duplicate_unit_id_reports_line(self, tmp_path):
        rows = [("u1", "b1", 1, 1.0, "A", "A1"), ("u2", "b1", 0, 2.0, "A", "A1"),
                ("u1", "b2", 1, 1.0, "A", "A1"), ("u4", "b2", 0, 2.0, "A", "A1")]
        path = write_dataset(tmp_path / "dup.csv", rows)
        with pytest.raises(CliError, match=r"dup\.csv:4: duplicate unit_id 'u1'"):
            read_dataset(path)

    def test_empty_unit_id_reports_line(self, tmp_path):
        rows = [("u1", "b1", 1, 1.0, "A", "A1"), (" ", "b1", 0, 2.0, "A", "A1")]
        path = write_dataset(tmp_path / "anon.csv", rows)
        with pytest.raises(CliError, match=r"^.*anon\.csv:3: empty unit_id$"):
            read_dataset(path)

    def test_empty_unit_id_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "anon.csv"
        path.write_text("unit_id,block_id,treatment,outcome\nu1,b1,0,2.0\n,b1,1,1.0\n")
        assert main(["test", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: empty unit_id\n"

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("unit_id,treatment\n")
        with pytest.raises(CliError, match="missing required"):
            read_dataset(str(path))

    def test_header_names_are_stripped(self, tmp_path):
        rows = [("u1", "b1", 1, 1.0, "A"), ("u2", "b1", 0, 2.0, "A")]
        path = write_dataset(
            tmp_path / "spaced.csv", rows,
            header=(" unit_id ", "block_id", "treatment ", "outcome", " site"),
        )
        dataset = read_dataset(path)
        assert dataset.tree.ids == ["root", "A", "b1"]

    def test_duplicate_required_column(self, tmp_path):
        rows = [("u1", "b1", 1, 1.0, "b9"), ("u2", "b1", 0, 2.0, "b9")]
        path = write_dataset(
            tmp_path / "twice.csv", rows,
            header=("unit_id", "block_id", "treatment", "outcome", "block_id"),
        )
        with pytest.raises(CliError, match=r"^.*twice\.csv: duplicate required column 'block_id'$"):
            read_dataset(path)

    def test_repeated_hierarchy_column_name_is_a_level(self, tmp_path):
        rows = [("u1", "b1", 1, 1.0, "A", "A1"), ("u2", "b1", 0, 2.0, "A", "A1")]
        path = write_dataset(
            tmp_path / "levels.csv", rows,
            header=("unit_id", "block_id", "treatment", "outcome", "level", "level"),
        )
        assert read_dataset(path).tree.max_depth == 4

    def test_byte_order_mark_accepted(self, tmp_path):
        data = small_dataset(tmp_path / "d.csv")
        bom = tmp_path / "bom.csv"
        with open(data, "rb") as fh:
            bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        assert read_dataset(str(bom)).tree.ids == read_dataset(data).tree.ids

    def test_all_blank_data_section(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("unit_id,block_id,treatment,outcome\n,,,\n\n  , ,,\n")
        with pytest.raises(CliError, match=r"^.*blank\.csv: no data rows$"):
            read_dataset(str(path))

    @pytest.mark.parametrize(
        "rows, message",
        [([("u2", "b1", 0, 2.0, "A"), ("u3", "b1", 2, 1.0, "A", "A1")], r":3: expected 6 fields$"),
         ([("u2", "b1", 2, 2.0, "A", "A1"), ("u3", "b1", 0, 1.0, "A")],
          r":3: treatment must be 0 or 1, got '2'$")],
        ids=["field_count_first", "content_error_first"],
    )
    def test_first_bad_line_in_file_order_is_reported(self, tmp_path, rows, message):
        path = write_dataset(tmp_path / "order.csv", [("u1", "b1", 1, 1.0, "A", "A1"), *rows])
        with pytest.raises(CliError, match=message):
            read_dataset(path)

    def test_clashing_node_ids_are_one_line_error(self, tmp_path, capsys):
        # a block named after its own site: both would get the id 'a'
        path = tmp_path / "clash.csv"
        path.write_text("unit_id,block_id,treatment,outcome,site\nu1,a,0,2.0,a\nu2,a,1,1.0,a\n")
        assert main(["test", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: duplicate node id: 'a' is both group ('a',) and block 'a'\n"
        )


class TestCmdTest:
    def test_json_output_upward_closed_and_round_trips(self, tmp_path, capsys):
        data = small_dataset(tmp_path / "d.csv")
        out = tmp_path / "res.json"
        code = main(["test", data, "--variant", "unadjusted", "--n-perms", "200",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        by_id = {n["id"]: n for n in doc["nodes"]}
        for node in doc["nodes"]:
            if node["rejected"] and node["parent"] is not None:
                assert by_id[node["parent"]]["rejected"]
        # the file's tested nodes are the engine's walk, field for field
        from _oracles import outcomes
        from treegate import gate
        from treegate.permtest import TestSpec, permutation_pvalue

        dataset = read_dataset(data)
        spec = TestSpec(statistic="rank", n_perms=200, seed=3)

        # the CLI draws each block once per dataset, from the stream key ""
        def p_source(nid):
            wanted = dataset.tree.leaves_under(nid)
            node_blocks = [b for b in dataset.blocks if b.block_id in wanted]
            return permutation_pvalue(node_blocks, spec, stream_key="")

        direct = gate.run_topdown(dataset.tree, p_source, gate.UNADJUSTED, alpha=0.05)
        assert (doc["variant"], doc["alpha"]) == ("unadjusted", 0.05)
        fields = ("p", "p_adjusted", "alpha_applied", "rejected")
        tested = {n["id"]: tuple(n[f] for f in fields) for n in doc["nodes"] if n["tested"]}
        assert tested == outcomes(direct, dataset.tree)
        untested = [tuple(n[f] for f in fields) for n in doc["nodes"] if not n["tested"]]
        assert set(untested) <= {(None, None, None, False)}

    def test_byte_identical_reruns(self, tmp_path):
        data = small_dataset(tmp_path / "d.csv")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            main(["test", data, "--n-perms", "150", "--seed", "5", "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_adaptive_without_d_hat_is_usage_error(self, tmp_path):
        data = small_dataset(tmp_path / "d.csv")
        with pytest.raises(SystemExit) as err:
            main(["test", data, "--variant", "adaptive"])
        assert err.value.code == 2

    def test_adaptive_with_d_hat_runs(self, tmp_path):
        data = small_dataset(tmp_path / "d.csv")
        out = tmp_path / "res.json"
        code = main(["test", data, "--variant", "adaptive_pruned", "--d-hat", "0.6",
                     "--n-perms", "150", "--out", str(out)])
        assert code == 0

    def test_dot_output_parses(self, tmp_path):
        data = small_dataset(tmp_path / "d.csv")
        out = tmp_path / "res.dot"
        main(["test", data, "--format", "dot", "--n-perms", "150", "--out", str(out)])
        text = out.read_text()
        assert text.startswith("digraph")
        assert text.rstrip().endswith("}")
        # one node statement per tested hypothesis
        node_stmts = re.findall(r'^\s+"[^"]+" \[label=', text, flags=re.M)
        json_out = tmp_path / "res.json"
        main(["test", data, "--format", "json", "--n-perms", "150", "--out", str(json_out)])
        tested = sum(n["tested"] for n in json.loads(json_out.read_text())["nodes"])
        assert len(node_stmts) == tested
        # edges reference declared nodes only
        declared = set(re.findall(r'^\s+"([^"]+)" \[', text, flags=re.M))
        for src, dst in re.findall(r'"([^"]+)" -> "([^"]+)"', text):
            assert {src, dst} <= declared

    def test_dot_collapse_mode_adds_placeholders(self, tmp_path):
        data = small_dataset(tmp_path / "d.csv", shift=0.0)
        out = tmp_path / "res.dot"
        main(["test", data, "--format", "dot", "--dot-pruned", "collapse",
              "--n-perms", "150", "--seed", "11", "--out", str(out)])
        text = out.read_text()
        if "untested" in text:
            assert "style=dashed" in text

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [
            (f"u{i}", f"b{i // 10}", i % 2, round(rng.normal() + 3.0 * (i % 2), 6),
             'Site "A"' if i < 20 else "B\\2", "C")
            for i in range(40)
        ]
        data = write_dataset(tmp_path / "quoted.csv", rows)
        out = tmp_path / "res.dot"
        main(["test", data, "--format", "dot", "--dot-pruned", "collapse",
              "--n-perms", "150", "--out", str(out)])
        quoted = r'"((?:[^"\\]|\\.)*)"'
        node_stmt = re.compile(rf"  {quoted} \[label={quoted}, [^\"]*(?:\"#\w+\"[^\"]*)?\];")
        edge_stmt = re.compile(rf"  {quoted} -> {quoted}(?: \[style=dashed\])?;")
        placeholder = re.compile(rf"  {quoted} \[label=\"\d+ untested\", shape=box, style=dashed\];")
        declared, edges = {}, []
        lines = out.read_text().splitlines()
        assert lines[:2] == ["digraph gated_tests {", "  node [shape=ellipse, fontsize=10];"]
        assert lines[-1] == "}"
        for line in lines[2:-1]:
            if m := node_stmt.fullmatch(line):
                assert m[2].startswith(m[1] + "\\np=")
                declared[m[1]] = line
            elif m := placeholder.fullmatch(line):
                declared[m[1]] = line
            else:
                m = edge_stmt.fullmatch(line)
                assert m, line
                edges.append((m[1], m[2]))
        assert {'Site \\"A\\"', 'Site \\"A\\"/C', "B\\\\2"} <= set(declared)
        assert all({src, dst} <= set(declared) for src, dst in edges)

    def test_csv_format_lists_every_node(self, tmp_path):
        data = small_dataset(tmp_path / "d.csv")
        out = tmp_path / "res.csv"
        main(["test", data, "--format", "csv", "--n-perms", "150", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        dataset = read_dataset(data)
        assert len(lines) == 1 + len(dataset.tree)
        assert lines[0].split(",")[:3] == ["id", "parent", "depth"]

    def test_csv_quotes_label_with_comma(self, tmp_path):
        rows = [
            (f"u{i}", f"b{i // 4}", i % 2, float(i), "Site A, North" if i < 8 else "B", "C")
            for i in range(16)
        ]
        data = write_dataset(tmp_path / "comma.csv", rows)
        out = tmp_path / "res.csv"
        main(["test", data, "--format", "csv", "--n-perms", "150", "--out", str(out)])
        with open(out, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert {len(row) for row in parsed} == {8}
        assert "Site A, North" in {row[0] for row in parsed}

    @pytest.mark.parametrize(
        "error, message",
        [(MemoryError("Unable to allocate 43.7 TiB for an array with shape "
                       "(1000000000000, 6) and data type float64"),
          "error: out of memory: Unable to allocate 43.7 TiB for an array with shape "
          "(1000000000000, 6) and data type float64\n"),
         (MemoryError(), "error: out of memory\n")],
        ids=["numpy_message", "bare"],
    )
    def test_out_of_memory_is_one_line_error(self, capsys, monkeypatch, error, message):
        def draws(*args):
            raise error  # nothing of the 43.7 TiB is allocated

        monkeypatch.setattr(sim, "chunk_draws", draws)
        data = os.path.join(GOLDEN, "trial.csv")
        assert main(["test", data, "--n-perms", "1000000000000"]) == 1
        assert capsys.readouterr().err == message

    def test_draw_count_past_the_index_range_is_one_line_error(self, capsys):
        # numpy refuses the shape before allocating anything
        data = os.path.join(GOLDEN, "trial.csv")
        assert main(["test", data, "--n-perms", "10000000000000000000000"]) == 1
        assert capsys.readouterr().err == (
            "error: out of memory: 10000000000000000000000 draws of a 6-unit block "
            "exceed the address space\n"
        )

    def test_seed_is_not_truncated_to_32_bits(self, tmp_path):
        data = small_dataset(tmp_path / "d.csv")
        pvalues = []
        for seed in ("1", str(2**32 + 1)):
            out = tmp_path / f"seed{seed}.json"
            main(["test", data, "--n-perms", "150", "--seed", seed, "--out", str(out)])
            doc = json.loads(out.read_text())
            pvalues.append([n["p"] for n in doc["nodes"]])
        assert pvalues[0] != pvalues[1]

    def test_negative_seed_rejected(self, tmp_path, capsys):
        data = small_dataset(tmp_path / "d.csv")
        assert main(["test", data, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert len(err.strip().splitlines()) == 1


def _chain(depth, root_units=""):
    rows = [f"n0,,{root_units}"]
    rows += [f"n{i},n{i - 1}," for i in range(1, depth - 1)]
    rows.append(f"n{depth - 1},n{depth - 2},5")
    return "\n".join(rows) + "\n"


class TestNodeSizes:
    def test_child_before_parent_accepted(self, tmp_path):
        path = tmp_path / "sizes.csv"
        path.write_text(
            "node_id,parent_id,n_units\na1,a,30\nroot,,\na,root,\na2,a,20\nb,root,50\n"
        )
        tree = read_node_sizes(str(path))
        assert tree.ids == ["a1", "root", "a", "a2", "b"]
        assert tree.node("a").children == ("a1", "a2")
        assert tree.node("root").n_units == 100
        assert tree.node("a1").depth == 3

    def test_deep_chain_accepted(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text("node_id,parent_id,n_units\n" + _chain(1500))
        tree = read_node_sizes(str(path))
        assert tree.max_depth == 1500
        assert tree.node("n0").n_units == 5

    @pytest.mark.parametrize(
        "body, message",
        [
            (_chain(1500, root_units="7"), "children sum"),
            ("root,,\na,root,x\nb,root,5\n", r":3: n_units is not an integer"),
            ("root,,\na,root\nb,root,5\n", r":3: expected 3 fields"),
            ("root,,\na,root,5,99\nb,root,5\n", r":3: expected 3 fields"),
            ("root,,\na,root,0\nb,root,5\n", "leaf 'a' needs n_units"),
            ("root,,\na,nowhere,5\n", "unknown parent 'nowhere'"),
            ("root,,\na,root,5\na,root,5\n", "duplicate node id"),
            ("root,,\nother,,5\n", "exactly one root"),
            (",,\n\n , ,\n", r"sizes\.csv: no data rows$"),
            ("root,,\na,root,x\nb,root\n", r":3: n_units is not an integer"),
            ("root,,\na,root\nb,root,x\n", r":3: expected 3 fields"),
        ],
        ids=["deep_chain_bad_total", "units_not_int", "short_row", "long_row",
             "leaf_zero_units", "unknown_parent", "duplicate_id", "two_roots",
             "all_blank_rows", "content_error_before_short_row",
             "short_row_before_content_error"],
    )
    def test_bad_table_is_cli_error(self, tmp_path, body, message):
        path = tmp_path / "sizes.csv"
        path.write_text("node_id,parent_id,n_units\n" + body)
        with pytest.raises(CliError, match=message):
            read_node_sizes(str(path))

    def test_header_with_byte_order_mark_and_spaces(self, tmp_path):
        path = tmp_path / "sizes.csv"
        path.write_bytes(b"\xef\xbb\xbfnode_id , parent_id,n_units\nroot,,\na,root,4\nb,root,5\n")
        assert read_node_sizes(str(path)).node("root").n_units == 9

    def test_duplicate_required_column(self, tmp_path):
        path = tmp_path / "sizes.csv"
        path.write_text("node_id,parent_id,n_units,n_units\nroot,,,\na,root,4,4\nb,root,5,6\n")
        with pytest.raises(CliError, match=r"^.*sizes\.csv: duplicate required column 'n_units'$"):
            read_node_sizes(str(path))

    def test_missing_column_message(self, tmp_path):
        path = tmp_path / "sizes.csv"
        path.write_text("node_id,n_units\nroot,5\n")
        with pytest.raises(CliError, match=r"sizes\.csv: missing required columns \['parent_id'\]$"):
            read_node_sizes(str(path))

    def test_roundtrip_schedule(self, tmp_path):
        path = tmp_path / "sizes.csv"
        path.write_text(
            "node_id,parent_id,n_units\n"
            "root,,\n"
            "a,root,\n"
            "b,root,\n"
            "a1,a,100\na2,a,100\nb1,b,100\nb2,b,100\n"
        )
        tree = read_node_sizes(str(path))
        assert tree.node("root").n_units == 400
        assert tree.max_depth == 3

    def test_inconsistent_units_rejected(self, tmp_path):
        path = tmp_path / "sizes.csv"
        path.write_text(
            "node_id,parent_id,n_units\nroot,,999\na,root,100\nb,root,100\n"
        )
        with pytest.raises(CliError, match="children sum"):
            read_node_sizes(str(path))

    def test_cycle_rejected(self, tmp_path):
        path = tmp_path / "sizes.csv"
        path.write_text(
            "node_id,parent_id,n_units\nroot,,100\nx,y,50\ny,x,50\n"
        )
        with pytest.raises(CliError, match="unreachable"):
            read_node_sizes(str(path))

    def test_units_beyond_int64_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "sizes.csv"
        path.write_text("node_id,parent_id,n_units\nroot,,\na,root,9223372036854775808\nb,root,5\n")
        assert main(["alpha-schedule", str(path), "--d-hat", "0.3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: node 'a' n_units 9223372036854775808 ")
        assert len(err.strip().splitlines()) == 1

    def test_leaf_below_two_units_names_the_node(self, tmp_path, capsys):
        path = tmp_path / "sizes.csv"
        path.write_text("node_id,parent_id,n_units\nroot,,\nb,root,5\na,root,1\nc,root,1\n")
        assert main(["alpha-schedule", str(path), "--d-hat", "0.3"]) == 1
        assert capsys.readouterr().err == (
            "error: node 'a' n_units 1 is below 2, the power model's minimum\n"
        )

    def test_single_node_schedule(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("node_id,parent_id,n_units\nroot,,50\n")
        code = main(["alpha-schedule", str(path), "--d-hat", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[4]) == 0.05

    def test_natural_gating_flag_set(self, tmp_path, capsys):
        path = tmp_path / "sizes.csv"
        path.write_text(
            "node_id,parent_id,n_units\n"
            "root,,\n"
            "a,root,20\nb,root,20\n"
        )
        code = main(["alpha-schedule", str(path), "--d-hat", "0.05"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert all(row[5] == "1" for row in rows)
        assert all(float(row[4]) == 0.05 for row in rows)


class TestSimulateCommand:
    def test_weak_csv(self, tmp_path):
        cfg = tmp_path / "weak.cfg"
        cfg.write_text("k=2\nL=4\nreplicates=300\nseed=1\n")
        out = tmp_path / "weak.csv"
        code = main(["simulate", "weak", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["fwer"]) <= 0.1
        assert float(fields["mean_tests"]) >= 1.0

    def test_strong_all_null_csv(self, tmp_path):
        cfg = tmp_path / "strong.cfg"
        cfg.write_text(
            "k=2\nL=3\nunits_per_leaf=64\nnull_proportion=1.0\nd=0.1\n"
            "replicates=200\nseed=2\n"
        )
        out = tmp_path / "strong.csv"
        code = main(["simulate", "strong", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        for key, value in fields.items():
            if key.startswith("fwer_"):
                assert float(value) <= 0.11

    def test_dpp_csv_layout(self, tmp_path):
        cfg = tmp_path / "dpp.cfg"
        cfg.write_text("d=0.8\nreplicates=100\nn_perms=100\nseed=1\n")
        out = tmp_path / "dpp.csv"
        code = main(["simulate", "dpp", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "metric"
        metrics = [line.split(",")[0] for line in lines[1:]]
        assert "leaf_true_rejections" in metrics
        assert "leaf_fwer" in metrics

    def test_invalid_config_key_listed(self, tmp_path):
        cfg = tmp_path / "weak.cfg"
        cfg.write_text("k=2\nL=4\nbananas=7\n")
        with pytest.raises(SystemExit):
            # argparse not involved; CliError is converted to exit code 1
            raise SystemExit(main(["simulate", "weak", "--config", str(cfg)]))

    def test_invalid_key_message(self, tmp_path, capsys):
        cfg = tmp_path / "weak.cfg"
        cfg.write_text("k=2\nL=4\nbananas=7\n")
        code = main(["simulate", "weak", "--config", str(cfg)])
        assert code == 1
        assert "bananas" in capsys.readouterr().err

    def test_config_with_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "weak.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfk=2\nL=4\n")
        assert cli.read_config(str(cfg), "weak") == {"k": 2, "L": 4}

    def test_duplicate_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "weak.cfg"
        cfg.write_text("k=2\nL=4\n# later value would win\nk=5\n")
        assert main(["simulate", "weak", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:4: duplicate key 'k'\n"

    def test_keys_are_the_entry_point_parameters(self, tmp_path, capsys):
        keys = {
            "weak": "k, L, alpha, replicates, seed",
            "strong": "k, L, units_per_leaf, null_proportion, d, alpha, replicates, methods, "
                      "seed, placement, internal_power, d_hat",
            "dpp": "d, replicates, alpha, seed, n_perms, statistic, sides, methods, d_hat, "
                   "students_per_block",
        }
        cfg = tmp_path / "x.cfg"
        for kind, allowed in keys.items():
            # a name that is no parameter of any entry point
            cfg.write_text("layout = 9,9,9,9,8\n")
            assert main(["simulate", kind, "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == (
                f"error: {cfg}:1: invalid key 'layout' for kind {kind!r} (allowed: {allowed})\n"
            )

    @pytest.mark.parametrize(
        "kind, body, key",
        [("weak", "k=2\n", "L"),
         ("strong", "k=2\nL=3\nunits_per_leaf=8\n", "null_proportion"),
         ("dpp", "d_hat=0.2\n", "d")],
    )
    def test_missing_required_key(self, tmp_path, capsys, kind, body, key):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(body)
        assert main(["simulate", kind, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {kind} simulation config requires {key}\n"

    @pytest.mark.parametrize(
        "body, message",
        [("d=0.2\nd_hat=-1\n", "d_hat must be finite and non-negative: -1.0"),
         ("d=0.2\nalpha=0.6\n", "alpha must lie in (0, 0.5)"),
         ("d=-0.2\n", "d must be non-negative when no d_hat is given: -0.2"),
         ("d=0.2\nstatistic=median\n", "unknown statistic: 'median'"),
         ("d=0.2\nsides=left\n", "sides must be 'one' or 'two'"),
         ("d=0.2\nn_perms=99\n", "n_perms must be at least 100"),
         ("d=0.2\nstudents_per_block=-1\n", "students_per_block must be at least 2: -1"),
         ("d=0.2\nstudents_per_block=1\n", "students_per_block must be at least 2: 1"),
         ("d=0.2\nstatistic=energy\nsides=one\nn_perms=100\n",
          "the energy statistic has no one-sided test; use sides='two'"),
         ("d=0.2\nmethods=td, bu_hommel, td\n", "repeated methods: ['td']")],
        ids=["negative_d_hat", "alpha_above_half", "negative_d_without_d_hat",
             "unknown_statistic", "bad_sides", "too_few_perms",
             "negative_students_per_block", "one_student_per_block", "one_sided_energy",
             "repeated_methods"],
    )
    def test_bad_dpp_config_fails_before_any_draw(
        self, tmp_path, capsys, monkeypatch, body, message
    ):
        monkeypatch.setenv("TREEGATE_THREADS", "1")  # draws in this process, where they are counted
        calls = []
        for name in ("generate_dpp_data", "chunk_draws"):
            fn = getattr(sim, name)
            monkeypatch.setattr(sim, name, lambda *a, fn=fn, **kw: calls.append(1) or fn(*a, **kw))
        cfg = tmp_path / "dpp.cfg"
        cfg.write_text(body + "replicates=100\n")
        assert main(["simulate", "dpp", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []

    def test_strong_leaf_below_two_units_names_the_node(self, tmp_path, capsys):
        cfg = tmp_path / "strong.cfg"
        cfg.write_text("k=2\nL=3\nunits_per_leaf=1\nnull_proportion=1.0\nreplicates=100\n")
        assert main(["simulate", "strong", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: units_per_leaf must be at least 2: 1\n"

    @pytest.mark.parametrize("error", [MemoryError, OverflowError])
    @pytest.mark.parametrize(
        "kind, body",
        [("weak", "k=10\nL=12\n"), ("strong", "k=10\nL=12\nunits_per_leaf=2\nnull_proportion=1.0\n")],
    )
    def test_oversized_tree_is_one_line_error(self, tmp_path, capsys, monkeypatch, kind, body, error):
        def build(*args):
            raise error("allocation refused")  # no 1.1e11-node tree is attempted

        monkeypatch.setattr("treegate.tree._regular_arrays", build)
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(body)
        assert main(["simulate", kind, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: a regular tree with k=10 and L=12 has 111111111111 nodes, "
            "too many to hold in memory\n"
        )

    @pytest.mark.parametrize(
        "kind, body, L",
        [("weak", "k=2\nL=63\n", 63), ("weak", "k=2\nL=64\n", 64),
         ("strong", "k=2\nL=63\nunits_per_leaf=1\nnull_proportion=1.0\n", 63)],
    )
    def test_tree_beyond_numpy_sizes_is_one_line_error(self, tmp_path, capsys, monkeypatch, kind, body, L):
        # numpy refuses an array of 2**63 nodes before allocating it, and a
        # weak config sets no unit counts for L=64's int64 total to name
        def build(*args):
            raise AssertionError("the tree is refused before it is built")

        monkeypatch.setattr(sim, "build_regular", build)
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(body + "replicates=100\n")
        assert main(["simulate", kind, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: a regular tree with k=2 and L={L} has {2**L - 1} nodes, "
            "too many to hold in memory\n"
        )

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("k=2\n")
        with pytest.raises(SystemExit) as err:
            main(["simulate", "medium", "--config", str(cfg)])
        assert err.value.code == 2


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def test_committed_configs_build_their_studies():
    """Each committed config parses for its kind and binds to the study's
    entry point; no study is run."""
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.cfg")))
    names = [os.path.basename(p) for p in paths]
    assert names == [
        "dpp.cfg", "dpp_headline.cfg", "strong.cfg", "strong_audit.cfg",
        "strong_gating_counterexample.cfg", "weak.cfg",
    ]
    for path, name in zip(paths, names):
        kind = re.match(r"weak|strong|dpp", name)[0]
        values = cli.read_config(path, kind)
        if kind == "weak":
            inspect.signature(sim.simulate_weak).bind(**values)
        else:
            {"strong": sim.ScenarioConfig, "dpp": sim.DppConfig}[kind](**values)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["test", "{data}", "--alpha", "1.5"], None),
        (["test", "{data}", "--variant", "adaptive", "--d-hat", "0.2", "--alpha", "0.7"], None),
        (["test", "{data}", "--n-perms", "50"], None),
        (["test", "{data}", "--variant", "adaptive", "--d-hat", "-1"], None),
        (["simulate", "strong", "--config", "{config}"],
         "k=2\nL=3\nunits_per_leaf=8\nnull_proportion=1.0\nreplicates=50\n"),
        (["simulate", "strong", "--config", "{config}"],
         "k=2\nL=3\nunits_per_leaf=8\nnull_proportion=1.0\nmethods=td,foo\n"),
        (["simulate", "dpp", "--config", "{config}"], "d=0.5\nstatistic=bogus\n"),
        (["alpha-schedule", "{sizes}", "--d-hat", "0.3"], None),
        (["alpha-schedule", "{valid_sizes}", "--d-hat", "nan"], None),
        (["test", "{data}", "--variant", "adaptive", "--d-hat", "nan"], None),
        (["test", "{data}", "--d-hat", "-5"], None),
        (["test", "{data}", "--variant", "local_bh", "--d-hat", "nan"], None),
        (["test", "{data}", "--d-hat", "inf"], None),
        (["simulate", "strong", "--config", "{config}"],
         "k=2\nL=3\nunits_per_leaf=8\nnull_proportion=0.5\nd=nan\n"),
        (["simulate", "dpp", "--config", "{config}"], "d=nan\n"),
        (["simulate", "weak", "--config", "{config}"], "k=2\nL=3\nseed=-1\n"),
        (["simulate", "strong", "--config", "{config}"],
         "k=2\nL=3\nunits_per_leaf=8\nnull_proportion=1.0\nseed=-1\n"),
        (["test", "{missing}"], None),
        (["simulate", "weak", "--config", "{missing}"], None),
        (["alpha-schedule", "{valid_sizes}", "--d-hat", "0.3", "--out", "{no_dir}"], None),
        (["test", "{latin1}"], None),
    ],
    ids=["alpha_above_one", "alpha_above_half", "too_few_perms", "negative_d_hat",
         "strong_few_replicates", "strong_unknown_method", "dpp_unknown_statistic",
         "schedule_one_unit_leaf", "schedule_nan_d_hat", "adaptive_nan_d_hat",
         "fixed_negative_d_hat", "local_bh_nan_d_hat", "fixed_inf_d_hat",
         "strong_nan_d", "dpp_nan_d", "weak_negative_seed", "strong_negative_seed",
         "missing_data", "missing_config", "out_in_missing_dir", "data_not_utf8"],
)
def test_package_errors_are_one_line(tmp_path, capsys, argv, config):
    sizes = tmp_path / "sizes.csv"
    sizes.write_text("node_id,parent_id,n_units\nroot,,\na,root,1\nb,root,5\n")
    valid_sizes = tmp_path / "valid_sizes.csv"
    valid_sizes.write_text("node_id,parent_id,n_units\nroot,,\na,root,4\nb,root,5\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config or "")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"unit_id,block_id,treatment,outcome,site\nu1,b1,1,2.0,Sa\xefd\n")
    paths = {"data": os.path.join(GOLDEN, "trial.csv"), "config": str(cfg),
             "sizes": str(sizes), "valid_sizes": str(valid_sizes),
             "missing": str(tmp_path / "missing.csv"), "latin1": str(latin1),
             "no_dir": str(tmp_path / "no" / "such" / "dir" / "x.json")}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
