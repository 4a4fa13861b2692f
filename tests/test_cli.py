from __future__ import annotations

import csv
import gc
import gzip
import hashlib
import io
import json
import logging
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from balattack import AttackConfig, SignedGraph, attack, cli, load_edge_list, write_edge_list
from balattack.cli import main
from util import clustered_signed_graph

FIXTURES = Path(__file__).parent / "fixtures"

K3_TEXT = "# nodes=3\n0 1 +1\n0 2 +1\n1 2 +1\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text(K3_TEXT)
    return path


@pytest.fixture
def clustered_file(tmp_path):
    g = clustered_signed_graph(random.Random(3), communities=2, size=10,
                               p_in=0.7, p_out=0.3, noise=0.05)
    path = tmp_path / "clustered.edges"
    with open(path, "w") as f:
        write_edge_list(g, f)
    return path, g


class TestStats:
    def test_k3(self, k3_file, capsys):
        assert main(["stats", "--input", str(k3_file)]) == 0
        out = capsys.readouterr().out
        assert "d3=1.0" in out
        assert "n=3" in out and "m=3" in out
        assert "balanced=1" in out and "unbalanced=0" in out

    def test_rating_csv_inferred_format(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text("src,dst,rating,time\n7,9,4,0\n9,7,2,1\n7,12,-3,2\n12,9,1,3\n")
        assert main(["stats", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "m=3" in out  # reciprocal 7<->9 merged
        assert "neg_edges=1" in out

    def test_triangle_free_prints_undefined(self, tmp_path, capsys):
        path = tmp_path / "star.edges"
        path.write_text("0 1 +1\n0 2 -1\n0 3 +1\n")
        assert main(["stats", "--input", str(path)]) == 0
        assert "d3=undefined" in capsys.readouterr().out

    def test_out_csv_and_manifest(self, k3_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["stats", "--input", str(k3_file), "--out-csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=balance-report/1"
        assert lines[2] == "3,3,3,0,1,0,1.0"
        manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert manifest["command"] == "stats"
        assert manifest["outputs"] == {"csv": str(out)}

    def test_empty_graph_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.edges"
        path.write_text("# nodes=4\n")
        assert main(["stats", "--input", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["stats", "--input", str(tmp_path / "nope.edges")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 +1\nbroken line here\n")
        assert main(["stats", "--input", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_zero_denominator_rating_reports_line(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text("source,target,rating\n1,2,5\n2,3,1/0\n")
        assert main(["stats", "--input", str(path)]) == 1
        assert "error: line 3: zero denominator in rating '1/0'" in capsys.readouterr().err

    def test_gzip_input(self, tmp_path, capsys):
        path = tmp_path / "k3.edges.gz"
        with gzip.open(path, "wt") as f:
            f.write(K3_TEXT)
        assert main(["stats", "--input", str(path), "--format", "edge-list"]) == 0
        assert "d3=1.0" in capsys.readouterr().out
        # the suffix is matched without case, as format inference reads it
        upper = tmp_path / "t.CSV.GZ"
        with gzip.open(upper, "wt") as f:
            f.write("source,target,rating\n1,2,5\n1,3,5\n2,3,5\n")
        assert main(["stats", "--input", str(upper)]) == 0
        assert "d3=1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("name, message", [
        ("wide.csv", "line 2: field larger than field limit (131072)"),
        ("short.csv.gz", "{path}: truncated or corrupt gzip data: "
         "Compressed file ended before the end-of-stream marker was reached"),
        ("flipped.csv.gz", "{path}: truncated or corrupt gzip data: "
         "Error -3 while decompressing data: "),
        ("bad-crc.csv.gz", "{path}: truncated or corrupt gzip data: CRC check failed "),
        ("ids.edges", "line 1: header declares 2 nodes but ids reach 2"),
        ("bom.csv", "node id '\\ufeff1' is not printable UTF-8 text"),
        ("high-byte.edges", "line 2: byte 0xff is not UTF-8"),
        ("high-byte-id.csv", "node id 'c\\udcff' is not printable UTF-8 text"),
        ("high-byte-rating.csv", "line 2: non-numeric rating '\\udcff1'"),
    ], ids=["wide-field", "truncated-gz", "corrupt-gz", "bad-crc-gz", "header-below-ids",
            "byte-order-mark-id", "not-utf-8-edge-list", "not-utf-8-id", "not-utf-8-rating"])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, name, message):
        path = tmp_path / name
        ratings = "".join(f"{i},{i + 1},{1 if i % 3 else -1}\n" for i in range(3000)).encode()
        packed = gzip.compress(ratings, mtime=0)
        path.write_bytes({
            "wide.csv": b"a,b,1\nc," + b"x" * 200_000 + b",1\n",
            "short.csv.gz": packed[:len(packed) // 2],
            "flipped.csv.gz": packed[:40] + bytes([packed[40] ^ 0xFF]) + packed[41:],
            "bad-crc.csv.gz": packed[:-8] + bytes([packed[-8] ^ 0xFF]) + packed[-7:],
            "ids.edges": b"# nodes=2\n0 2 +1\n",
            "bom.csv": b"\xef\xbb\xbf1,2,1\n2,3,1\n3,1,1\n1,3,1\n",
            "high-byte.edges": b"0 1 +1\n2\xff 3 +1\n",
            "high-byte-id.csv": b"a,b,1\nc\xff,d,1\n",
            "high-byte-rating.csv": b"a,b,1\nc,d,\xff1\n",
        }[name])
        assert main(["stats", "--input", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + message.format(path=path)), err

    def test_a_key_error_is_a_bug_and_propagates(self, k3_file, monkeypatch):
        def broken(*args):
            raise KeyError((3, 4))  # as TwoPathTable.get does for a non-edge
            yield

        monkeypatch.setattr(cli, "_stats_outputs", broken)
        with pytest.raises(KeyError):
            main(["stats", "--input", str(k3_file)])


class TestAttack:
    def test_single_budget_outputs(self, clustered_file, tmp_path, capsys):
        path, g = clustered_file
        out_graph = tmp_path / "attacked.edges"
        out_trace = tmp_path / "trace.csv"
        rc = main([
            "attack", "--input", str(path), "--mode", "balance", "--budget", "0.2",
            "--out-graph", str(out_graph), "--out-trace", str(out_trace),
        ])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("budget=0.2 ")
        assert "status=" in line and "d3=" in line
        attacked = load_edge_list(open(out_graph))
        assert attacked.degree_sequence() == g.degree_sequence()
        diffs = sum(1 for u, v, s in g.edges() if attacked.sign(u, v) != s)
        assert 0 < diffs <= round(0.2 * g.edge_count)
        trace_lines = out_trace.read_text().splitlines()
        assert trace_lines[0] == "# schema=attack-trace/1"
        assert len(trace_lines) == 2 + diffs

    def test_multi_budget_prefix_matches_standalone(self, clustered_file, tmp_path):
        path, _ = clustered_file
        multi = tmp_path / "multi.edges"
        single = tmp_path / "single.edges"
        assert main([
            "attack", "--input", str(path), "--budget", "0.05,0.2",
            "--out-graph", str(multi),
        ]) == 0
        sliced = tmp_path / "multi.b0.05.edges"
        assert sliced.exists()
        assert (tmp_path / "multi.b0.2.edges").exists()
        assert main([
            "attack", "--input", str(path), "--budget", "0.05",
            "--out-graph", str(single),
        ]) == 0
        assert sliced.read_bytes() == single.read_bytes()

    def test_multi_budget_batched_shares_one_run(self, clustered_file, tmp_path, monkeypatch):
        path, _ = clustered_file
        runs = []
        real = attack.run_balance_attack
        monkeypatch.setattr(attack, "run_balance_attack", lambda *a: runs.append(a) or real(*a))
        common = ["attack", "--input", str(path), "--mode", "balance-batched",
                  "--batch-size", "3"]
        assert main([*common, "--budget", "0.1,0.2", "--out-graph", str(tmp_path / "m.edges"),
                     "--out-trace", str(tmp_path / "m.csv")]) == 0
        assert len(runs) == 1
        for token in ("0.1", "0.2"):
            one = tmp_path / token
            one.mkdir()
            assert main([*common, "--budget", token, "--out-graph", str(one / "s.edges"),
                         "--out-trace", str(one / "s.csv")]) == 0
            for suffix in (".edges", ".csv"):
                multi = tmp_path / f"m.b{token}{suffix}"
                assert multi.read_bytes() == (one / f"s{suffix}").read_bytes()

    def test_random_mode_deterministic(self, clustered_file, tmp_path):
        path, _ = clustered_file
        a = tmp_path / "a.edges"
        b = tmp_path / "b.edges"
        for out in (a, b):
            assert main([
                "attack", "--input", str(path), "--mode", "random",
                "--budget", "0.2", "--seed", "7", "--out-graph", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_requires_an_output(self, k3_file, capsys):
        assert main(["attack", "--input", str(k3_file), "--budget", "0.5"]) == 1
        assert "out-graph" in capsys.readouterr().err

    def test_budget_out_of_range_is_usage_error(self, k3_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--input", str(k3_file), "--budget", "1.5",
                  "--out-trace", "t.csv"])
        assert exc.value.code == 2
        assert "argument --budget: budget must be in (0, 1], got 1.5" in capsys.readouterr().err

    def test_unknown_mode_is_usage_error(self, k3_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--input", str(k3_file), "--mode", "chaos",
                  "--budget", "0.5", "--out-trace", "t.csv"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--input", str(k3_file), "--mode", "balance,bogus"])
        assert exc.value.code == 2
        assert "unknown mode 'bogus'; pick from" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["attack", "--mode", "balance-batched", "--out-trace", "t.csv"],
        ["eval", "--mode", "balance-batched"],
    ], ids=["attack", "eval"])
    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_bad_batch_size_is_usage_error_before_the_load(
        self, k3_file, monkeypatch, capsys, command, size
    ):
        loads = []
        monkeypatch.setattr(cli, "_load_graph", lambda *a: loads.append(a))
        with pytest.raises(SystemExit) as exc:
            main([*command, "--input", str(k3_file), "--budget", "0.5", "--batch-size", size])
        assert exc.value.code == 2 and loads == []
        assert f"argument --batch-size: must be >= 1, got {size}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        (["attack", "--mode", "random", "--out-trace", "t.csv"], "--seed"),
        (["eval"], "--seed"),
        (["eval"], "--split-seed"),
    ], ids=["attack-seed", "eval-seed", "eval-split-seed"])
    def test_negative_seed_is_usage_error_before_the_load(
        self, k3_file, monkeypatch, capsys, command, flag
    ):
        # random.Random(-3) draws as random.Random(3) does
        loads = []
        monkeypatch.setattr(cli, "_load_graph", lambda *a: loads.append(a))
        with pytest.raises(SystemExit) as exc:
            main([*command, "--input", str(k3_file), "--budget", "0.5", flag, "-3"])
        assert exc.value.code == 2 and loads == []
        assert f"argument {flag}: must be >= 0, got -3" in capsys.readouterr().err

    def test_every_attack_parameter_is_a_config_key(self):
        """So each one is set by a flag, recorded in the manifest and
        replayed by rerun."""
        keys = cli.build_parser().commands["attack"].get_default("config_keys")
        fields = set(AttackConfig._fields) - {"budget_fraction"}
        assert fields == set(keys) - {"budgets"}

    def test_one_manifest_lists_every_budget(self, clustered_file, tmp_path):
        path, _ = clustered_file
        out = tmp_path / "g.edges"
        assert main([
            "attack", "--input", str(path), "--budget", "0.1,0.2",
            "--out-graph", str(out), "--out-trace", str(tmp_path / "t.csv"),
        ]) == 0
        man = json.loads((tmp_path / "g.edges.manifest.json").read_text())
        assert man["command"] == "attack"
        assert man["config"]["budgets"] == ["0.1", "0.2"]
        assert man["outputs"] == {
            f"{kind}.b{t}": str(tmp_path / f"{name}.b{t}{suffix}")
            for kind, name, suffix in (("graph", "g", ".edges"), ("trace", "t", ".csv"))
            for t in ("0.1", "0.2")
        }
        assert [p.name for p in tmp_path.glob("*.manifest.json")] == ["g.edges.manifest.json"]
        raw = path.read_bytes()
        assert (man["input_bytes"], man["input_sha256"]) == (
            len(raw), hashlib.sha256(raw).hexdigest())
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", man["created"])

    def test_ratio_budget_tag_fails_before_the_attack(
        self, clustered_file, tmp_path, monkeypatch, capsys
    ):
        path, _ = clustered_file
        runs = []
        real = attack.run_balance_attack
        monkeypatch.setattr(attack, "run_balance_attack", lambda *a: runs.append(a) or real(*a))
        common = ["attack", "--input", str(path), "--out-graph", str(tmp_path / "q.edges")]
        assert main([*common, "--budget", "1/5,2/5"]) == 1
        assert runs == [] and list(tmp_path.iterdir()) == [path]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: budget 1/5 ")
        # one budget has no tag, so a ratio token names no file
        assert main([*common, "--budget", "1/5"]) == 0
        assert len(runs) == 1 and (tmp_path / "q.edges").exists()

    def test_only_the_asked_outputs_are_rendered(self, clustered_file, tmp_path, monkeypatch):
        path, _ = clustered_file
        rendered = []
        real = attack.AttackTrace.write_csv
        monkeypatch.setattr(attack.AttackTrace, "write_csv",
                            lambda *a: rendered.append(a) or real(*a))
        assert main(["attack", "--input", str(path), "--budget", "0.1,0.2",
                     "--out-graph", str(tmp_path / "g.edges")]) == 0
        assert rendered == []

    def test_budget_exponent_beyond_bound_is_usage_error(self, k3_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--input", str(k3_file), "--budget", "1e100000",
                  "--out-trace", "t.csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert "--budget" in err and "exponent of budget '1e100000' exceeds 4300" in err


class TestEval:
    def test_stdout_table_with_clean_rows(self, clustered_file, capsys):
        path, _ = clustered_file
        assert main([
            "eval", "--input", str(path), "--budget", "0.2",
            "--mode", "balance,random", "--split-seed", "1",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# schema=attack-eval/1"
        assert len(lines) == 2 + 4  # (clean + 0.2) x 2 modes
        assert lines[2].startswith("clustered,balance_sequential,0.0,")

    def test_budget_zero_rows_identical_across_modes(self, clustered_file, capsys):
        path, _ = clustered_file
        assert main([
            "eval", "--input", str(path), "--budget", "0", "--mode", "balance,random",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()[2:]
        assert len(lines) == 2
        # same metrics, different mode column
        assert lines[0].split(",")[2:] == lines[1].split(",")[2:]

    def test_out_csv_manifest_and_rerun(self, clustered_file, tmp_path, capsys):
        path, _ = clustered_file
        out = tmp_path / "pipeline.csv"
        assert main([
            "eval", "--input", str(path), "--budget", "0.1,0.2", "--mode", "random",
            "--seed", "3", "--split-seed", "2", "--out-csv", str(out),
        ]) == 0
        manifest_path = tmp_path / "pipeline.csv.manifest.json"
        man = json.loads(manifest_path.read_text())
        assert man["config"]["budgets"] == ["0", "0.1", "0.2"]
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(manifest_path)]) == 0
        assert "reproduced" in capsys.readouterr().out


    def test_train_fraction_too_small_to_split_names_it(self, clustered_file, capsys):
        path, g = clustered_file
        assert main(["eval", "--input", str(path), "--budget", "0.1",
                     "--train-frac", "1e-4300"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot split {g.edge_count} edges at train fraction 1e-4300: "
                       "one side would be empty"]

    def test_dataset_name_with_a_comma_is_quoted(self, clustered_file, tmp_path, capsys):
        _, g = clustered_file
        path = tmp_path / "dir" / "a,b.csv"
        path.parent.mkdir()
        path.write_text("".join(f"{u},{v},{s}\n" for u, v, s in g.edges()))
        assert main(["eval", "--input", str(path), "--mode", "random", "--budget", "0,0.2"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert len(rows) == 3 and len(rows[0]) == 9  # the header, then two rows
        for row in rows[1:]:
            assert len(row) == 9 and row[:2] == ["a,b", "random"]


class TestGarbageCollector:
    """main() runs each command with the cyclic collector off and restores
    the caller's setting."""

    @pytest.fixture(autouse=True)
    def collector_on_afterwards(self):
        yield
        gc.enable()

    def test_off_during_the_command_and_restored(self, k3_file, monkeypatch, capsys):
        seen = []
        real = cli.balance_degree
        monkeypatch.setattr(cli, "balance_degree", lambda g: seen.append(gc.isenabled()) or real(g))
        gc.enable()
        assert main(["stats", "--input", str(k3_file)]) == 0
        assert seen == [False] and gc.isenabled()

    def test_restored_after_an_error_exit(self, tmp_path, capsys):
        gc.enable()
        assert main(["stats", "--input", str(tmp_path / "missing.edges")]) == 1
        assert gc.isenabled()
        with pytest.raises(SystemExit):
            main(["attack", "--input", str(tmp_path / "missing.edges"), "--budget", "2"])
        assert gc.isenabled()

    def test_stays_off_when_it_was_off(self, k3_file, tmp_path, capsys):
        gc.disable()
        assert main(["stats", "--input", str(k3_file)]) == 0
        assert main(["stats", "--input", str(tmp_path / "missing.edges")]) == 1
        assert not gc.isenabled()

    def test_eval_leaves_no_cycles_that_grow_with_the_graph(self, tmp_path, capsys):
        # Every cycle an eval leaves behind is garbage the collector would
        # have to find; a per-edge cycle would make the count grow with m.
        found = []
        for size in (8, 40):
            g = clustered_signed_graph(random.Random(3), communities=2, size=size,
                                       p_in=0.5, p_out=0.2, noise=0.1)
            path = tmp_path / f"g{size}.edges"
            with open(path, "w") as f:
                write_edge_list(g, f)
            gc.collect()
            gc.disable()
            assert main(["eval", "--input", str(path), "--budget", "0,0.1,0.2",
                         "--mode", "balance,balance-batched,random"]) == 0
            found.append(gc.collect())
            gc.enable()
        assert found[1] <= found[0] < 1000, found


class TestRerun:
    def test_detects_tampering_then_restores(self, clustered_file, tmp_path, capsys):
        path, _ = clustered_file
        out_graph = tmp_path / "x.edges"
        assert main([
            "attack", "--input", str(path), "--budget", "0.1",
            "--out-graph", str(out_graph),
        ]) == 0
        manifest = str(out_graph) + ".manifest.json"
        original = out_graph.read_bytes()
        out_graph.write_text("tampered\n")
        capsys.readouterr()
        assert main(["rerun", "--manifest", manifest]) == 1
        assert "DIFFERS" in capsys.readouterr().out
        assert main(["rerun", "--manifest", manifest]) == 0
        assert "reproduced" in capsys.readouterr().out
        out_graph.write_bytes(original + b"\n")  # a difference in whitespace alone
        assert main(["rerun", "--manifest", manifest]) == 1
        assert capsys.readouterr().out == f"{out_graph} DIFFERS\n"
        out_graph.unlink()  # a missing output is written again
        assert main(["rerun", "--manifest", manifest]) == 0
        assert capsys.readouterr().out == f"{out_graph} created\n"
        assert out_graph.read_bytes() == original

    def test_input_changed_past_its_first_mib(self, tmp_path, capsys):
        # the digest reads the input in 1 MiB chunks; an edit in a later one,
        # at the same size, is still a changed input
        path = tmp_path / "k3.edges"
        comment = "# " + "x" * (1 << 20) + "\n"
        path.write_text(K3_TEXT + comment)
        out = tmp_path / "report.csv"
        assert main(["stats", "--input", str(path), "--out-csv", str(out)]) == 0
        path.write_text(K3_TEXT + comment[:-2] + "y\n")
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 1
        assert capsys.readouterr().out == f"{path} INPUT CHANGED\n"

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["rerun", "--manifest", str(tmp_path / "no.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_manifests_of_an_earlier_version_reproduce(self, tmp_path, monkeypatch, capsys):
        work = tmp_path / "manifests"
        shutil.copytree(FIXTURES / "manifests", work)
        monkeypatch.chdir(work)
        manifests = sorted(p.name for p in work.glob("*.manifest.json"))
        assert len(manifests) == 14
        for name in manifests:
            assert main(["rerun", "--manifest", name]) == 0, name
            lines = capsys.readouterr().out.splitlines()
            assert lines and all(line.endswith(" reproduced") for line in lines), (name, lines)
            assert len(lines) == len(json.loads((work / name).read_text())["outputs"])

    def _multi_budget_run(self, clustered_file, tmp_path):
        path, _ = clustered_file
        assert main([
            "attack", "--input", str(path), "--mode", "balance-batched", "--batch-size", "3",
            "--budget", "0.05,0.1,0.2", "--out-graph", str(tmp_path / "g.edges"),
            "--out-trace", str(tmp_path / "t.csv"),
        ]) == 0
        return str(tmp_path / "g.edges.manifest.json")

    def test_multi_budget_manifest_reruns_one_shared_run(
        self, clustered_file, tmp_path, monkeypatch, capsys
    ):
        manifest = self._multi_budget_run(clustered_file, tmp_path)
        runs = []
        real = attack.run_balance_attack
        monkeypatch.setattr(attack, "run_balance_attack", lambda *a: runs.append(a) or real(*a))
        capsys.readouterr()
        assert main(["rerun", "--manifest", manifest]) == 0
        assert len(runs) == 1
        assert capsys.readouterr().out.count(" reproduced\n") == 6

    def test_tampered_budget_differs_alone(self, clustered_file, tmp_path, capsys):
        manifest = self._multi_budget_run(clustered_file, tmp_path)
        tampered = tmp_path / "t.b0.1.csv"
        tampered.write_text(tampered.read_text() + "tampered\n")
        capsys.readouterr()
        assert main(["rerun", "--manifest", manifest]) == 1
        verdicts = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert len(verdicts) == 6
        assert {p for p, v in verdicts.items() if v != "reproduced"} == {str(tampered)}
        assert verdicts[str(tampered)] == "DIFFERS"

    def test_changed_input_is_reported_before_any_output_is_written(
        self, clustered_file, tmp_path, capsys
    ):
        path, _ = clustered_file
        out = tmp_path / "x.edges"
        assert main(["attack", "--input", str(path), "--budget", "0.1",
                     "--out-graph", str(out)]) == 0
        path.write_text(path.read_text().replace("+1", "-1", 1))
        out.write_text("tampered\n")
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 1
        assert capsys.readouterr().out == f"{path} INPUT CHANGED\n"
        assert out.read_text() == "tampered\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda man: {"command": "stats"}, "missing 7 required positional arguments"),
        (lambda man: [1, 2], "must be a mapping"),
        (lambda man: {**man, "extra": 1}, "unexpected keyword argument 'extra'"),
        (lambda man: {**man, "config": [1]}, "a field has the wrong type"),
        (lambda man: {**man, "command": ["attack"]}, "a field has the wrong type"),
        (lambda man: {**man, "command": "-h"}, "unknown command '-h'"),
        (lambda man: {**man, "command": "rerun"}, "required: --manifest"),
        (lambda man: {**man, "config": {**man["config"], "mode": "chaos"}},
         "argument --mode: invalid choice: 'chaos'"),
        # A per-budget manifest's key, as older versions wrote it.
        (lambda man: {**man, "config": {"mode": "balance", "budget": "1e100000",
                                        "batch_size": 10, "seed": 0}},
         "argument --budget: exponent of budget '1e100000' exceeds 4300"),
        (lambda man: {**man, "config": {**man["config"], "seed": 1.5}},
         "argument --seed: invalid int value: '1.5'"),
        (lambda man: {**man, "config": {**man["config"], "seed": -3}},
         "argument --seed: must be >= 0, got -3"),
        (lambda man: {**man, "config": {**man["config"], "batch_size": 0}},
         "argument --batch-size: must be >= 1, got 0"),
        (lambda man: {**man, "config": {**man["config"], "depth": 3}},
         "unrecognized arguments: --depth=3"),
        (lambda man: {**man, "outputs": {"table": "t.csv"}}, "the command has no output table"),
    ], ids=["missing-fields", "list", "extra-field", "config-list", "command-list",
            "help-command", "rerun-command", "unknown-mode",
            "budget-exponent", "float-seed", "negative-seed", "zero-batch-size",
            "extra-config-key", "unknown-output"])
    def test_malformed_manifest_is_one_error_line(
        self, clustered_file, tmp_path, capsys, edit, message
    ):
        path, _ = clustered_file
        out = tmp_path / "x.edges"
        assert main(["attack", "--input", str(path), "--budget", "0.1",
                     "--out-graph", str(out)]) == 0
        manifest = tmp_path / "x.edges.manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {manifest}: "), err
        assert message in err[0]


# Run in a child started without `site`, so that only the package decides
# what `import balattack.cli` loads.
_IMPORT_GRAPH_CHILD = """
import sys
import balattack.cli
print(sorted(m for m in ("dataclasses", "inspect", "balattack.prediction") if m in sys.modules))
import balattack
names = {}
exec("from balattack import *", names)
print(balattack.EvalReport.__module__, sorted(set(balattack.__all__) - set(names)))
sys.exit(balattack.cli.main(sys.argv[1:]))
"""


def test_the_cli_imports_no_dataclasses_and_prediction_only_for_eval(tmp_path):
    """Every command pays for the package import, so it leaves out
    `dataclasses` (and the `inspect` it pulls in), and `balattack.prediction`
    until eval or a prediction name asks for it. One child checks it, then
    reads a prediction name, star-imports the package and runs eval."""
    args = ["eval", "--input", str(FIXTURES / "digests" / "hk1000.csv"),
            "--mode", "balance,random", "--budget", "0.1"]
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_GRAPH_CHILD, *args, "--out-csv",
         str(tmp_path / "child.csv")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "balattack.prediction []"]
    assert main([*args, "--out-csv", str(tmp_path / "here.csv")]) == 0
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


def test_console_script_and_log_env(k3_file, monkeypatch):
    """The installed entry point runs, and BALATTACK_LOG drives verbosity."""
    exe = shutil.which("balattack")
    cmd = [exe] if exe else [sys.executable, "-m", "balattack.cli"]
    env = dict(os.environ, BALATTACK_LOG="INFO")
    proc = subprocess.run(
        cmd + ["stats", "--input", str(k3_file)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert "d3=1.0" in proc.stdout
    assert "INFO" in proc.stderr  # load timing lines
    quiet = subprocess.run(
        cmd + ["stats", "--input", str(k3_file)],
        capture_output=True, text=True,
        env=dict(os.environ, BALATTACK_LOG="WARNING"), timeout=60,
    )
    assert quiet.returncode == 0
    assert "INFO" not in quiet.stderr

    # an unknown level name falls back to WARNING, checked in process
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    for name in ("chatty", "basic_format", "debug"):  # BASIC_FORMAT is no level
        monkeypatch.setenv("BALATTACK_LOG", name)
        cli._configure_logging()
    assert levels == [logging.WARNING, logging.WARNING, logging.DEBUG]
