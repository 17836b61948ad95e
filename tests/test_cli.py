"""CLI contract: commands, exit codes, JSON output, round trips."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

from pseudoloc import PARAMETER_NAMES, closed_form, encode_graph6, from_edge_list, parse_graph6, random_pseudotree
from pseudoloc.cli import main
from pseudoloc.corpus import STATUS_VIOLATION, CorpusSpec, verify_corpus

from conftest import count_calls, cycle_graph, path_graph, twin_free_bicyclic_graphs

# sha256 of `verify --params all --report` over all trees and all unicyclic
# graphs up to 8 vertices (449 and 1,370 records); a change that alters
# reports on purpose updates these and says why
REPORT_DIGESTS = {
    "tree": "92f8cae36ebd74b89312245ced2967ea306af9bc666d08f3bf6c6d2380e85ffa",
    "unicyclic": "88d5d34d62beebf69e4400a4baf95b1d77532c5fa57acaef4ba71c926d7a06c6",
}
# the same reports up to each family's enumeration cap, (max_n, sha256):
# 9,168 and 9,887 records
CAP_REPORT_DIGESTS = {
    "tree": (12, "83d98b6cdf00ba29876da56d186952629e122fde1ed23fa7820b05e28a69ebe4"),
    "unicyclic": (10, "892d40c1326617c54de54c3c81a19a320d134210a8db2341c7d37e22eead234f"),
}
# the reports of the labelled corpora, `verify --no-dedup`, (max_n, sha256):
# 14,541 and 2,226 records
LABELLED_REPORT_DIGESTS = {
    "tree": (6, "17c5f7a8de9979abd7c5d0e9d8bffeafe0f8a40afd5f464dbd009cd50d022b6e"),
    "unicyclic": (5, "f40e1ae29265e71409ed2d4129e5826e579034a500ef564b270d6cc46f729a4b"),
}

# each family's smallest order
SMALLEST_ORDER = {"tree": 2, "path": 2, "unicyclic": 3, "cycle": 3}

PAW_EDGELIST = "4\n0 1\n1 2\n2 0\n0 3\n"
SPIDER_EDGELIST = "6\n0 1\n0 2\n2 3\n0 4\n4 5\n"


def run_cli(capsys, argv, stdin_text=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_paw_dim_tag(self, tmp_path, capsys):
        f = tmp_path / "paw.el"
        f.write_text(PAW_EDGELIST)
        code, out, _ = run_cli(
            capsys,
            ["compute", "--param", "dim", "--format", "edgelist", "--input", str(f)],
        )
        assert code == 0
        assert "dim = 2" in out and "DIM_ODD_RHO0" in out

    def test_spider_sdim_tag(self, tmp_path, capsys):
        f = tmp_path / "spider.el"
        f.write_text(SPIDER_EDGELIST)
        code, out, _ = run_cli(
            capsys,
            ["compute", "--param", "sdim", "--format", "edgelist", "--input", str(f)],
        )
        assert code == 0
        assert "sdim = 2" in out and "SDIM_TREE" in out

    def test_dim2_oracle_cap(self, capsys):
        # `gen --kind unicyclic --seed 3` at n = 14 and 17; the k-metric
        # oracle has the cap of 16 every parameter has
        argv = ["compute", "--param", "dim2", "--method", "brute"]
        code, out, _ = run_cli(capsys, argv, stdin_text="M?C_??bt?A_GO?_??\n")
        assert code == 0 and out.startswith("dim2 = 5 ")
        g17 = "POC?AO@?P??cA??_??CCd?O?\n"
        code, _, err = run_cli(capsys, argv, stdin_text=g17)
        assert code == 4 and "exceeds oracle cap 16" in err
        argv[-1] = "auto"
        code, out, _ = run_cli(capsys, argv, stdin_text=g17)
        assert code == 0 and out.startswith("dim2 in [3, 17] ")

    def test_dimk_out_of_range_exit_5(self, capsys):
        p5 = encode_graph6(path_graph(5))
        code, _, err = run_cli(
            capsys, ["compute", "--param", "dimk", "--k", "99"], stdin_text=p5 + "\n"
        )
        assert code == 5

    @pytest.mark.parametrize("method", ["closed", "brute"])
    def test_dim2_on_one_vertex_exit_5(self, capsys, method):
        # dim2 is the k-metric dimension at k = 2: undefined without a vertex pair
        code, out, err = run_cli(
            capsys, ["compute", "--param", "dim2", "--method", method], stdin_text="@\n"
        )
        assert code == 5 and not out and err.startswith("error:")

    def test_k_without_dimk_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, ["compute", "--param", "dim", "--k", "3"], stdin_text="C~\n"
        )
        assert code == 2

    def test_json_output_parses(self, capsys):
        line = encode_graph6(cycle_graph(6))
        code, out, _ = run_cli(
            capsys, ["compute", "--param", "dmd", "--json"], stdin_text=line + "\n"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["param"] == "dmd" and payload["value"] == 3
        assert payload["method"] == "closed_form"

    def test_interval_json_without_oracle(self, capsys):
        paw = encode_graph6(from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3)]))
        code, out, _ = run_cli(
            capsys,
            ["compute", "--param", "ddim", "--method", "closed", "--json"],
            stdin_text=paw + "\n",
        )
        payload = json.loads(out)
        assert payload["value"] == [1, 2]

    def test_batch_stdin(self, capsys):
        lines = encode_graph6(cycle_graph(5)) + "\n" + encode_graph6(path_graph(4)) + "\n"
        code, out, _ = run_cli(capsys, ["compute", "--param", "dim"], stdin_text=lines)
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize("command", [["compute", "--param", "dim"], ["profile", "--json"]])
    def test_bad_line_keeps_the_good_ones(self, capsys, command):
        good = encode_graph6(cycle_graph(5))
        lines = [good, "C~", good, "D??", "", good]  # not a pseudotree, disconnected, blank
        code, out, err = run_cli(capsys, command, stdin_text="\n".join(lines) + "\n")
        assert code == 3  # the largest code of the lines: 3 for C~, 2 for D??
        results = [line for line in out.strip().splitlines() if '"error"' not in line]
        assert len(results) == 3
        assert [e.split(": ")[:2] for e in err.splitlines()] == [["error", "line 2"], ["error", "line 4"]]

    @pytest.mark.parametrize("command", [["compute", "--param", "dim", "--json"], ["profile", "--json"]])
    def test_json_error_record_for_a_bad_middle_line(self, capsys, command):
        good = encode_graph6(cycle_graph(5))
        code, out, err = run_cli(capsys, command, stdin_text=f"{good}\nC~\n\n{good}\n")
        assert code == 3
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3 and "error" not in records[0] and "error" not in records[2]
        assert records[1] == {"error": err.split(": ", 2)[2].strip(), "exit_code": 3, "line": 2}
        assert err.startswith("error: line 2: ") and len(err.splitlines()) == 1

    def test_malformed_graph6_exit_2(self, capsys):
        # a bad graph6 line names its line, after the good lines before it
        # are answered; a bad edge list is one input with no line number
        cases = [
            ("graph6", "@@@\n", "line 1: graph6 body has 2 bytes, expected 0 for n=1"),
            ("graph6", "A_\nA!\n", "line 2: invalid graph6 character '!'"),
            ("graph6", "~~??????\n", "line 1: graph6 orders above 258047 are not supported"),
            ("graph6", "~??\n", "line 1: truncated graph6 order field"),
            ("graph6", "?\n", "line 1: graph6 order 0 out of range"),
            ("graph6", "\n \n", "no graph6 input lines"),
            ("edgelist", "", "empty edge-list input"),
            ("edgelist", "three\n0 1\n", "expected vertex count, got 'three'"),
            ("edgelist", "3\n0 1 2\n", "expected 'u v' pair, got '0 1 2'"),
            ("edgelist", "3\n0 1\n1 b\n", "non-integer endpoint in '1 b'"),
        ]
        for fmt, text, error in cases:
            code, out, err = run_cli(capsys, ["compute", "--param", "dim", "--format", fmt], stdin_text=text)
            assert (code, err) == (2, f"error: {error}\n"), text
            assert out == ("dim = 1  method=closed_form  tag=DIM_PATH  witness={0}\n" if text.startswith("A_") else "")

    @pytest.mark.parametrize("method", ["auto", "closed", "brute"])
    def test_not_pseudotree_exit_3(self, capsys, method):
        # K4 and a twin-free bicyclic graph under every parameter, dimk at
        # k = 2 and at k = 3, above K4's k-dimensional value: the m > n rule
        # comes first under every method
        graphs = [parse_graph6("C~"), twin_free_bicyclic_graphs()[0]]
        params = [[p] for p in PARAMETER_NAMES if p != "dimk"] + [["dimk", "--k", "2"], ["dimk", "--k", "3"]]
        for g in graphs:
            for param in params:
                argv = ["compute", "--param", *param, "--method", method]
                code, out, err = run_cli(capsys, argv, stdin_text=encode_graph6(g) + "\n")
                assert (code, out) == (3, ""), (g.edges, param)
                assert err == f"error: line 1: m={g.m} > n={g.n}: not a pseudotree\n"


    @pytest.mark.parametrize("raw", ["abc", "0", "-1"])
    def test_invalid_cap_variable_exit_2(self, capsys, monkeypatch, raw):
        line = encode_graph6(path_graph(5))
        monkeypatch.setenv("PSEUDOLOC_MAX_N", raw)
        code, _, err = run_cli(capsys, ["compute", "--param", "dim"], stdin_text=line + "\n" + line + "\n")
        assert code == 2 and err.count("PSEUDOLOC_MAX_N") == 1

    def test_cap_variable_leaves_the_graph_cap(self, capsys, monkeypatch):
        # a 30-vertex tree is above the oracle cap of 20, not the graph cap
        line = encode_graph6(random_pseudotree("tree", 30, random.Random(3))) + "\n"
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "20")
        code, out, _ = run_cli(capsys, ["compute", "--param", "dim", "--method", "closed"], stdin_text=line)
        assert code == 0 and out.startswith("dim = ")
        code, _, err = run_cli(capsys, ["compute", "--param", "dim", "--method", "brute"], stdin_text=line)
        assert code == 4 and "n=30 exceeds oracle cap 20" in err


class TestProfile:
    def test_c5p13_json(self, capsys):
        g6 = encode_graph6(
            from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (2, 6)])
        )
        code, out, _ = run_cli(capsys, ["profile", "--json"], stdin_text=g6 + "\n")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "ProperUnicyclic"
        assert payload["g"] == 5 and payload["l"] == 2 and payload["c3"] == 2

    def test_path_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, ["profile", "--json"], stdin_text=encode_graph6(path_graph(4)) + "\n"
        )
        payload = json.loads(out)
        assert payload["kind"] == "Path" and payload["g"] == 0

    def test_cycle_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, ["profile", "--json"], stdin_text=encode_graph6(cycle_graph(6)) + "\n"
        )
        assert json.loads(out)["kind"] == "Cycle"


class TestVerify:
    def test_unicyclic_exact_params_exit_0(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--family", "unicyclic", "--max-n", "6", "--params", "dmd,mdim,ldim"],
        )
        assert code == 0 and "0 violations" in out

    def test_tree_all_params_exit_0(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--family", "tree", "--max-n", "6", "--params", "all", "--json"]
        )
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_cap_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--family", "tree", "--max-n", "40"])
        assert code == 4

    @pytest.mark.parametrize("family, max_n", [("tree", 1), ("path", 1), ("unicyclic", 2), ("cycle", 2)])
    def test_below_smallest_order_exit_4(self, capsys, family, max_n):
        # an empty corpus is an error, not "verified 0 records"
        code, out, err = run_cli(capsys, ["verify", "--family", family, "--max-n", str(max_n)])
        assert code == 4 and not out and "enumeration supports" in err

    @pytest.mark.parametrize("family, max_n", [("tree", 9), ("unicyclic", 8)])
    def test_labelled_cap_before_the_report(self, capsys, monkeypatch, tmp_path, family, max_n):
        # the labelled corpora stop at 8 and 7 vertices, whatever the variable says
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "20")
        report = tmp_path / "r.jsonl"
        argv = ["verify", "--family", family, "--max-n", str(max_n), "--no-dedup", "--report", str(report)]
        code, _, err = run_cli(capsys, argv)
        assert code == 4 and f"labelled {family} enumeration supports" in err and not report.exists()

    @pytest.mark.parametrize("family", ["path", "cycle", "tree", "unicyclic"])
    def test_class_caps_stop_at_the_graph_cap(self, capsys, monkeypatch, tmp_path, family):
        # the variable raises a class cap no higher than the graph cap of 64
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "100")
        report = tmp_path / "r.jsonl"
        argv = ["verify", "--family", family, "--max-n", "65", "--report", str(report)]
        code, out, err = run_cli(capsys, argv)
        assert code == 4 and not out and "<= n <= 64, got 65" in err and not report.exists()

    def test_cap_checked_before_enumerating(self, capsys, monkeypatch):
        built = count_calls(monkeypatch, "from_edge_list", ("corpus",))
        code, _, _ = run_cli(capsys, ["verify", "--family", "tree", "--max-n", "13"])
        assert code == 4 and built == []

    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_paths_and_cycles_stop_at_the_oracle_cap(self, capsys, tmp_path, family):
        # verify runs the oracle on every graph, so order 17 fails before the
        # report is opened instead of after the orders below it
        report = tmp_path / "r.jsonl"
        argv = ["verify", "--family", family, "--report", str(report), "--max-n"]
        code, _, err = run_cli(capsys, argv + ["17"])
        assert code == 4 and "enumeration supports" in err and not report.exists()
        code, _, _ = run_cli(capsys, argv + ["16"])
        assert code == 0 and "summary" in report.read_text().splitlines()[-1]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "tree", "--max-n", "4", "--jobs", jobs])
        assert exc.value.code == 2 and "--jobs" in capsys.readouterr().err

    def test_unknown_param_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, ["verify", "--family", "tree", "--max-n", "5", "--params", "bogus"]
        )
        assert code == 2

    @pytest.mark.parametrize("params", ["", " , "])
    def test_no_param_named_exit_2(self, capsys, tmp_path, params):
        # a list that names no parameter would verify nothing
        report = tmp_path / "r.jsonl"
        argv = ["verify", "--family", "tree", "--max-n", "5", "--params", params, "--report", str(report)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and not out and "no parameter" in err and not report.exists()

    def test_report_written(self, capsys, tmp_path):
        report = tmp_path / "out.jsonl"
        code, _, _ = run_cli(
            capsys,
            [
                "verify",
                "--family",
                "unicyclic",
                "--max-n",
                "5",
                "--params",
                "dmd",
                "--report",
                str(report),
            ],
        )
        assert code == 0
        lines = report.read_text().splitlines()
        assert json.loads(lines[-1])["summary"]["violations"] == 0


    @pytest.mark.parametrize("family", sorted(REPORT_DIGESTS))
    def test_reports_byte_identical(self, capsys, tmp_path, family):
        cap, cap_digest = CAP_REPORT_DIGESTS[family]
        labelled, labelled_digest = LABELLED_REPORT_DIGESTS[family]
        runs = ((8, [], REPORT_DIGESTS[family]), (cap, [], cap_digest), (labelled, ["--no-dedup"], labelled_digest))
        for max_n, flags, digest in runs:
            report = tmp_path / f"report{max_n}.jsonl"
            argv = ["verify", "--family", family, "--max-n", str(max_n), "--params", "all", *flags]
            code, _, _ = run_cli(capsys, argv + ["--report", str(report)])
            assert code == 0
            assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, (max_n, flags)

    def test_an_off_closed_form_is_a_violation(self, capsys, monkeypatch, tmp_path):
        # ldim one too high: each tree's ldim record, and only it, disagrees
        # with the oracle, and verify counts it and exits 1
        real = closed_form._CLOSED_FORMS["ldim"]

        def off_by_one(g):
            result = real(g)
            return dataclasses.replace(result, value=result.value + 1)

        monkeypatch.setitem(closed_form._CLOSED_FORMS, "ldim", off_by_one)
        records, violations = verify_corpus(CorpusSpec("tree", 5))
        bad = [r for r in records if r.status == STATUS_VIOLATION]
        assert violations == len(bad) == 7  # the trees of 2 to 5 vertices
        assert {r.parameter for r in bad} == {"ldim"}
        report = tmp_path / "r.jsonl"
        code, out, _ = run_cli(capsys, ["verify", "--family", "tree", "--max-n", "5", "--report", str(report)])
        lines = [json.loads(line) for line in report.read_text().splitlines()]
        assert [r["parameter"] for r in lines[:-1] if r["status"] == STATUS_VIOLATION] == ["ldim"] * 7
        assert lines[-1]["summary"]["violations"] == 7
        assert code == 1 and out.endswith(": 7 violations\n")


class TestGen:
    def test_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, ["gen", "--kind", "tree", "--n", "6", "--seed", "7", "--count", "2"])
        code2, out2, _ = run_cli(capsys, ["gen", "--kind", "tree", "--n", "6", "--seed", "7", "--count", "2"])
        assert code1 == code2 == 0 and out1 == out2
        assert len(out1.strip().splitlines()) == 2

    def test_unicyclic_edges(self, capsys):
        from pseudoloc import parse_graph6

        code, out, _ = run_cli(capsys, ["gen", "--kind", "unicyclic", "--n", "6", "--seed", "7"])
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.m == g.n

    def test_negative_count_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "tree", "--n", "5", "--count", "-2"])
        assert exc.value.code == 2 and "--count" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, ["gen", "--kind", "tree", "--n", "5", "--count", "0"])
        assert code == 0 and out == ""

    def test_degenerate_exit_4(self, capsys):
        # every family just below its smallest order, and at 0, by one rule
        for kind, smallest in SMALLEST_ORDER.items():
            for n in (smallest - 1, 0):
                code, out, err = run_cli(capsys, ["gen", "--kind", kind, "--n", str(n)])
                assert code == 4 and not out and f"needs n >= {smallest}" in err, (kind, n)

    @pytest.mark.parametrize("kind, build", [("path", path_graph), ("cycle", cycle_graph)])
    def test_paths_and_cycles(self, capsys, kind, build):
        for n in (5, 64):
            code, out, _ = run_cli(capsys, ["gen", "--kind", kind, "--n", str(n)])
            assert (code, out) == (0, encode_graph6(build(n)) + "\n")

    def test_gen_compute_round_trip_1000_samples(self, capsys):
        # every generated line must parse and compute cleanly
        outputs = []
        for seed in range(10):
            code, out, _ = run_cli(
                capsys,
                ["gen", "--kind", "unicyclic", "--n", "8", "--seed", str(seed), "--count", "100"],
            )
            assert code == 0
            outputs.append(out)
        stdin_text = "".join(outputs)
        assert len(stdin_text.strip().splitlines()) == 1000
        code, out, _ = run_cli(
            capsys, ["compute", "--param", "ldim", "--json"], stdin_text=stdin_text
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1000


def read_first_line_and_close(argv):
    """Run the CLI with a pipe on stdout, read one line and close the pipe,
    as `| head -1` does; returns (first line, exit code, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "pseudoloc.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return first, proc.wait(timeout=60), err


class TestClosedStdout:
    """A reader that closes stdout early ends the command: nothing more is
    computed or printed, and the exit code is that of the lines answered
    before.  Each output is far larger than a pipe holds, so the pipe is
    closed while the command still writes."""

    def test_compute(self, tmp_path):
        lines = tmp_path / "lines.g6"
        lines.write_text("C~\n" + (encode_graph6(path_graph(2)) + "\n") * 5000)
        argv = ["compute", "--param", "dim", "--method", "closed", "--input", str(lines)]
        first, code, err = read_first_line_and_close(argv)
        assert first.startswith("dim = 1 ")
        assert (code, err) == (3, "error: line 1: m=6 > n=4: not a pseudotree\n")

    def test_gen(self):
        first, code, err = read_first_line_and_close(["gen", "--kind", "tree", "--n", "64", "--count", "5000"])
        assert parse_graph6(first).n == 64
        assert (code, err) == (0, "")


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pseudoloc.cli", "gen", "--kind", "tree", "--n", "5", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout.strip()
