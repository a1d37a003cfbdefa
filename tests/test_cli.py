import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import trine
from trine import ac23, bundle, dynamics, rt
from trine.ac23 import GRID_CSV_COLUMNS
from trine.cli import main
from trine.graph import MixedGraph


DATA = Path(__file__).parent / "data"
# Exhaustive sizes up to 12 and seeded samples at 13 and 14.
GOLDEN_CONFIG = ("--lmax", "14", "--cutoff", "12", "--samples", "40")
# The full level: exhaustive sizes up to 10, seeded samples at 11 and 12.
GOLDEN_FULL_CONFIG = ("--lmax", "12", "--cutoff", "10", "--samples", "20")


def run_cli(*argv) -> int:
    return main(list(argv))


def test_importing_the_cli_loads_no_process_pool_modules():
    # the pool forks its own workers: no multiprocessing at start-up
    src = str(Path(trine.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, trine.cli; "
            "loaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules); "
            "sys.exit(f'loaded {sorted(loaded)}' if loaded else 0)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


class TestGoldenOutputs:
    """Outputs pinned byte for byte: any engine change must reproduce them."""

    @pytest.mark.parametrize("n,m,code", [(1, 3, 0), (1, 5, 2)])
    def test_check_mask_json(self, tmp_path, capsys, n, m, code):
        out = tmp_path / "verdict.json"
        assert run_cli("check-mask", "--n", str(n), "--m", str(m), *GOLDEN_CONFIG,
                       "--json", str(out)) == code
        assert out.read_bytes() == (DATA / f"golden_check_mask_{n}_{m}.json").read_bytes()

    @pytest.mark.parametrize("n,m,code", [(1, 3, 0), (1, 5, 2)])
    def test_full_level_check_mask_json(self, tmp_path, capsys, n, m, code):
        out = tmp_path / "verdict.json"
        assert run_cli("check-mask", "--n", str(n), "--m", str(m), "--level", "full",
                       *GOLDEN_FULL_CONFIG, "--json", str(out)) == code
        assert out.read_bytes() == (DATA / f"golden_check_mask_full_{n}_{m}.json").read_bytes()

    def test_check_mask_json_with_a_budget(self, tmp_path, capsys):
        # the budget runs out inside L=11, a size cut to its first 960 starts
        out = tmp_path / "verdict.json"
        assert run_cli("check-mask", "--n", "1", "--m", "3", "--lmax", "14",
                       "--budget", "3000", "--json", str(out)) == 0
        assert out.read_bytes() == (DATA / "golden_check_mask_1_3_budget.json").read_bytes()

    @pytest.mark.parametrize("golden,code,argv", [
        ("1_3_raw", 2, ("--n", "1", "--m", "3", "--lmax", "10", "--cutoff", "10",
                        "--cond1", "raw")),
        ("3_9_steps30", 3, ("--n", "3", "--m", "9", "--lmax", "11", "--cutoff", "10",
                            "--samples", "200", "--max-steps", "30")),
    ])
    def test_light_check_mask_json_with_raw_cond1_and_cut_runs(self, tmp_path, capsys,
                                                               golden, code, argv):
        # the raw reading of [1], and runs left unresolved at 30 steps
        out = tmp_path / "verdict.json"
        assert run_cli("check-mask", *argv, "--json", str(out)) == code
        assert out.read_bytes() == (DATA / f"golden_check_mask_{golden}.json").read_bytes()

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("golden,code,argv", [
        ("1_3_two_batches", 0, ("--n", "1", "--m", "3", "--lmin", "13", "--lmax", "14",
                                "--cutoff", "14")),
        ("5_19_second_batch", 2, ("--n", "5", "--m", "19", "--lmin", "13", "--lmax", "14",
                                  "--cutoff", "14")),
        ("1_3_cut_in_batch", 0, ("--n", "1", "--m", "3", "--lmin", "13", "--lmax", "13",
                                 "--cutoff", "13", "--budget", "5000")),
    ])
    def test_check_mask_json_over_several_pair_batches(self, tmp_path, capsys, golden, code,
                                                       argv, threads):
        # exhaustive sizes of more than one 256-pair batch: L = 13 and 14
        # whole, the witness of (5,19) at L = 14 in the second batch, and
        # a budget that ends L = 13 inside its second batch
        out = tmp_path / "verdict.json"
        assert run_cli("check-mask", *argv, "--threads", str(threads), "--json", str(out)) == code
        assert out.read_bytes() == (DATA / f"golden_check_mask_{golden}.json").read_bytes()

    def test_full_level_check_mask_json_at_time_origin_0(self, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        assert run_cli("check-mask", "--n", "1", "--m", "3", "--level", "full",
                       *GOLDEN_FULL_CONFIG, "--time-origin", "0", "--json", str(out)) == 2
        golden = DATA / "golden_check_mask_full_1_3_origin0.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_bundle_digests_and_tables(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run_cli("bundle", "--out", str(out), "--grid-max", "5", "--lmax", "8",
                       "--rt-masks", "1,1", "1,3", "3,1", "3,3",
                       "--trace", "1,3:9:ABAABBBAA") == 0
        golden = DATA / "golden_bundle"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == json.loads((golden / "digests.json").read_text())
        for table in sorted((golden / "rt").iterdir()):
            assert (out / "rt" / table.name).read_bytes() == table.read_bytes(), table.name

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (1, 5), (3, 3), (3, 5)])
    @pytest.mark.parametrize("level", ["light", "full"])
    def test_rt_extract(self, tmp_path, capsys, n, m, level):
        # (1,5) holds a pair at L=10 that passes light but is not mirrored
        # (its complement skeletons are not the run's swapped), so its
        # filled rows hold empty slots; at the full level it fails c4.
        # (1,1) and (3,5) read C_R 32 and 392 at both levels.
        out = tmp_path / "t.rt"
        assert run_cli("rt", "extract", "--n", str(n), "--m", str(m), "--level", level,
                       "--lmax", "10", "--out", str(out)) == 0
        golden = DATA / "golden_rt_extract" / f"rt_{n}_{m}_{level}.rt"
        assert out.read_bytes() == golden.read_bytes()

    def test_rt_extract_at_sampled_sizes(self, tmp_path, capsys):
        # exhaustive sizes up to 10, seeded samples at 11..14
        out = tmp_path / "t.rt"
        assert run_cli("rt", "extract", "--n", "1", "--m", "3", "--lmax", "14",
                       "--cutoff", "10", "--samples", "40", "--out", str(out)) == 0
        golden = DATA / "golden_rt_extract" / "rt_1_3_full_sampled.rt"
        assert out.read_bytes() == golden.read_bytes()

    def test_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli("grid", "--max", "7", *GOLDEN_CONFIG, "--out", str(out)) == 0
        assert out.read_bytes() == (DATA / "golden_grid_7.csv").read_bytes()

    def test_grid_31_csv(self, tmp_path, capsys, count_calls):
        # 256 cells, 26 of them Incorrect; of its walks some repack and
        # some end first (see dynamics._REPACK_BIT_STEPS)
        walks = count_calls(ac23, "step_lanes")
        repacks = count_calls(dynamics, "_repack")
        out = tmp_path / "grid.csv"
        assert run_cli("grid", "--max", "31", "--lmax", "11", "--out", str(out)) == 0
        assert out.read_bytes() == (DATA / "golden_grid_31.csv").read_bytes()
        assert 0 < len(repacks) < len(walks)

    # the benchmark grid; a grid whose sizes hold witnesses and
    # unresolved runs, which cells scan for their own connection sets;
    # and one with seeded samples above L=10, and a witness at L=11
    @pytest.mark.parametrize("name,flags,code", [
        ("golden_grid_15.json", ("--lmax", "8"), 0),
        ("golden_grid_15_steps12.json", ("--lmax", "10", "--max-steps", "12"), 3),
        ("golden_grid_15_sampled.json",
         ("--lmax", "14", "--cutoff", "10", "--samples", "30"), 0),
    ])
    def test_grid_json(self, tmp_path, capsys, name, flags, code):
        out = tmp_path / "grid.json"
        assert run_cli("grid", "--max", "15", *flags, "--out", str(tmp_path / "grid.csv"),
                       "--json", str(out)) == code
        golden = (DATA / name).read_bytes()
        assert out.read_bytes() == golden
        if code:
            assert b'"witness": {' in golden and b'"first_unresolved"' in golden

    def test_full_level_grid_json(self, tmp_path, capsys):
        # every pair recorded, four witnesses and two degenerate witnesses
        out = tmp_path / "grid.json"
        assert run_cli("grid", "--max", "9", "--lmax", "8", "--level", "full",
                       "--out", str(tmp_path / "grid.csv"), "--json", str(out)) == 0
        golden = (DATA / "golden_grid_9_full.json").read_bytes()
        assert out.read_bytes() == golden
        assert golden.count(b'"witness": {') == 4

    @pytest.mark.parametrize("level", ["light", "full"])
    def test_trace_on_a_graph_that_is_not_circulant(self, tmp_path, capsys, level):
        # tests/graphgen.py: rng = random.Random(120);
        # random_mixed_graph(rng, max_nodes=11, min_nodes=9), then
        # random_two_color(rng, 11) is the start
        graph = DATA / "golden_trace_mixed" / "mixed120.json"
        golden = graph.parent / "light" if level == "light" else graph.parent
        g = MixedGraph.load(graph)
        assert any(mask != (1 << g.node_count) - 1 for _, mask in g.offset_masks)
        out = tmp_path / "t"
        assert run_cli("trace", "--graph", str(graph), "--start", "ABBBAAABAAA",
                       "--level", level, "--out", str(out)) == 0
        assert capsys.readouterr().out == (golden / "stdout.txt").read_text()
        for name in ("trace.csv", "complement_trace.csv", "run.json", "ipf.json"):
            assert (out / name).read_bytes() == (golden / name).read_bytes()

    @pytest.mark.parametrize("origin", [1, 0])
    def test_full_trace_of_a_mirrored_pair(self, tmp_path, capsys, origin):
        # (1,3) at L=9: ABBABAAAA's complement skeletons are its own with A
        # and C swapped (T = T-bar = 66, K = 44); the report reads every
        # slot, and the pair passes at time origin 1 and fails only [8] at 0
        golden = DATA / "golden_trace_mirrored" / f"origin{origin}"
        out = tmp_path / "t"
        assert run_cli("trace", "--mask", "1,3", "--L", "9", "--start", "ABBABAAAA",
                       "--level", "full", "--time-origin", str(origin), "--out", str(out)) == 0
        assert capsys.readouterr().out == (golden / "stdout.txt").read_text()
        for name in ("trace.csv", "complement_trace.csv", "run.json", "ipf.json"):
            assert (out / name).read_bytes() == (golden / name).read_bytes()


class TestTrace:
    def test_fixture_trace(self, capsys):
        assert run_cli("trace", "--mask", "1,1", "--L", "3", "--start", "ABA") == 0
        out = capsys.readouterr().out
        assert "T=3" in out
        assert "ACA" in out and "CBC" in out and "BAB" in out
        assert "mirror CAC" in out

    def test_degenerate_start(self, capsys):
        assert run_cli("trace", "--mask", "1,1", "--L", "3", "--start", "AAA") == 0
        assert "degenerate" in capsys.readouterr().out

    def test_witness_trace_shows_failure(self, capsys):
        assert run_cli("trace", "--mask", "1,5", "--L", "7", "--start", "BABAAAA") == 0
        out = capsys.readouterr().out
        assert "FAILED condition: div3" in out

    def test_trace_files(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert run_cli("trace", "--mask", "1,1", "--L", "3", "--start", "ABA",
                       "--out", str(out)) == 0
        trace = (out / "trace.csv").read_text()
        assert trace.splitlines()[0] == "t,coloring"
        assert "1,ACA" in trace
        report = json.loads((out / "ipf.json").read_text())
        assert report["T"] == 3 and report["K"] == 2
        run = json.loads((out / "run.json").read_text())
        assert run["run"]["states"] == ["ACA", "CBC", "BAB"]

    def test_graph_file_input(self, tmp_path, capsys):
        graph = {"nodes": 3, "directed": [], "undirected": [[0, 1], [1, 2], [0, 2]]}
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(graph))
        assert run_cli("trace", "--graph", str(path), "--start", "ABA") == 0
        assert "T=3" in capsys.readouterr().out

    @pytest.mark.parametrize("graph", [
        {"nodes": 2.5}, {"nodes": "3"}, {"nodes": True},
        {"nodes": 3, "directed": [[0, "1"]]}, {"nodes": 3, "directed": 5},
        {"nodes": 3, "directed": [[0, 1.0]]}, {"nodes": 3, "undirected": [[0, 1, 2]]},
    ])
    def test_malformed_graph_file_exits_1(self, tmp_path, capsys, graph):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        assert run_cli("trace", "--graph", str(path), "--start", "ABA") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_missing_arguments(self, capsys):
        assert run_cli("trace", "--start", "ABA") == 1


class TestUsageErrors:
    # argparse's usage and reason on stderr, and exit 1: exit 2 means Incorrect
    @pytest.mark.parametrize("argv,message", [
        (("check-mask", "--n", "1", "--m", "x"),
         "trine check-mask: error: argument --m: invalid int value: 'x'"),
        (("grid", "--max", "3"),
         "trine grid: error: the following arguments are required: --out"),
        (("check-mask", "--n", "1", "--m", "3", "--bogus"),
         "trine: error: unrecognized arguments: --bogus"),
    ], ids=["invalid-int", "missing-flag", "unknown-flag"])
    def test_usage_errors_say_why(self, capsys, argv, message):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: trine") and err.endswith(message + "\n")


class TestCheckMask:
    def test_incorrect_exits_2(self, capsys, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli("check-mask", "--n", "1", "--m", "5",
                       "--lmax", "8", "--samples", "0", "--json", str(out))
        assert code == 2
        assert "witness: L=7 start=BABAAAA condition=div3" in capsys.readouterr().out
        verdict = json.loads(out.read_text())
        assert verdict["status"] == "Incorrect"

    @pytest.mark.parametrize("flags,summary", [
        # the witness at L=7 ends the search
        (("--n", "1", "--m", "5"), "tested 117 start pairs over L=3..7\n"),
        # the budget runs out inside L=11
        (("--n", "1", "--m", "3", "--lmax", "14", "--budget", "3000"),
         "tested 2983 start pairs over L=3..11 (budget exhausted)\n"),
    ], ids=["witness", "budget"])
    def test_summary_names_the_last_size_examined(self, capsys, flags, summary):
        run_cli("check-mask", *flags)
        assert capsys.readouterr().out.endswith(summary)

    def test_correct_exits_0(self, capsys):
        assert run_cli("check-mask", "--n", "1", "--m", "1",
                       "--lmax", "7", "--samples", "0") == 0
        assert "CorrectSoFar" in capsys.readouterr().out

    def test_no_samples_above_the_cutoff_exits_1(self, capsys, tmp_path):
        # L = 13, 14 lie above the default cutoff 12 and would test no
        # start: an error, not a CorrectSoFar that leaves them out
        out = tmp_path / "v.json"
        code = run_cli("check-mask", "--n", "1", "--m", "1", "--lmin", "13", "--lmax", "14",
                       "--samples", "0", "--json", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ")
        assert "--samples" in captured.err and "--cutoff" in captured.err

    def test_unresolved_runs_exit_3(self, capsys, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli("check-mask", "--n", "1", "--m", "5", "--lmax", "9",
                       "--max-steps", "1", "--json", str(out))
        assert code == 3
        printed = capsys.readouterr().out
        assert "Inconclusive" in printed and "CorrectSoFar" not in printed
        verdict = json.loads(out.read_text())
        assert verdict["status"] == "Inconclusive" and verdict["witness"] is None

    def test_bad_usage_exits_1(self):
        assert run_cli("check-mask", "--n", "1") == 1
        assert run_cli("nonsense") == 1

    @pytest.mark.parametrize("flag,value", [("--budget", "0"), ("--budget", "-4"),
                                            ("--max-steps", "0"), ("--max-steps", "-2")])
    def test_evidence_free_bounds_exit_1(self, capsys, flag, value):
        # (1,5) is Incorrect at L=7; no bound may turn that into a verdict
        # without runs behind it
        assert run_cli("check-mask", "--n", "1", "--m", "5", "--lmax", "9",
                       flag, value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "at least 1" in captured.err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_threads_below_one_exit_1(self, capsys, value):
        assert run_cli("check-mask", "--n", "1", "--m", "1", "--threads", value,
                       "--lmax", "5") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: threads must be at least 1")

    def test_json_does_not_depend_on_threads(self, tmp_path, capsys):
        # L=12 has 4096 starts and fails, so the size is cut at the witness
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"v{threads}.json"
            assert run_cli("check-mask", "--n", "1", "--m", "5", "--lmin", "12",
                           "--lmax", "12", "--cutoff", "12", "--threads", threads,
                           "--json", str(out)) == 2
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestGrid:
    @pytest.mark.parametrize("n,m,code", [(1, 3, 0), (1, 5, 2)])
    def test_full_level_check_mask_json(self, tmp_path, capsys, n, m, code):
        out = tmp_path / "verdict.json"
        assert run_cli("check-mask", "--n", str(n), "--m", str(m), "--level", "full",
                       *GOLDEN_FULL_CONFIG, "--json", str(out)) == code
        assert out.read_bytes() == (DATA / f"golden_check_mask_full_{n}_{m}.json").read_bytes()

    def test_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = run_cli("grid", "--max", "5", "--out", str(out),
                       "--lmax", "7", "--cutoff", "7", "--samples", "0")
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == GRID_CSV_COLUMNS
        assert len(rows) == 10  # header + 3x3 cells
        by_mask = {(r[0], r[1]): r[3] for r in rows[1:]}
        assert by_mask[("1", "5")] == "Incorrect"
        assert by_mask[("1", "1")] == "CorrectSoFar"

    def test_even_max_rejected(self, capsys):
        assert run_cli("grid", "--max", "4", "--out", "x.csv") == 1

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_max_below_one_rejected(self, tmp_path, capsys, bound):
        out = tmp_path / "g.csv"
        assert run_cli("grid", "--max", bound, "--out", str(out)) == 1
        assert "at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_resume_matches_fresh(self, tmp_path, capsys):
        flags = ["--max", "5", "--lmax", "6", "--cutoff", "6", "--samples", "0"]
        fresh = tmp_path / "fresh.csv"
        assert run_cli("grid", *flags, "--out", str(fresh)) == 0

        lines = fresh.read_text().splitlines(keepends=True)
        # header + 4 cells, then the same cut off in the middle of a status
        torn = "".join(lines[:5]) + lines[5][: lines[5].index("CorrectSoFar") + 9]
        sidecar = tmp_path / "fresh.csv.config.json"
        for i, text in enumerate(["".join(lines[:5]), torn]):
            partial = tmp_path / f"partial{i}.csv"
            partial.write_text(text)
            shutil.copy(sidecar, tmp_path / f"partial{i}.csv.config.json")
            assert run_cli("grid", *flags, "--out", str(partial), "--resume") == 0
            assert partial.read_bytes() == fresh.read_bytes()

    def test_resume_refuses_json_for_resumed_cells(self, tmp_path, capsys):
        # a resumed cell keeps only its CSV row, no tested envelope
        flags = ["--max", "5", "--lmax", "6"]
        out = tmp_path / "grid.csv"
        assert run_cli("grid", *flags, "--out", str(out)) == 0
        out.write_text("".join(out.read_text().splitlines(keepends=True)[:4]))
        cut = out.read_bytes()
        sidecar = tmp_path / "grid.csv.config.json"
        written = sidecar.read_bytes()
        gridjson = tmp_path / "grid.json"
        capsys.readouterr()
        assert run_cli("grid", *flags, "--out", str(out), "--resume",
                       "--json", str(gridjson)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --json") and "3 cells resumed" in err
        assert out.read_bytes() == cut and sidecar.read_bytes() == written
        assert not gridjson.exists()

    def test_resume_rejects_unknown_status(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        assert run_cli("grid", "--max", "1", "--lmax", "6", "--out", str(out)) == 0
        out.write_text("n,m,N,status,witnessL,witnessStart,conditionFailed\n"
                       "1,1,3,Maybe,,,\n")
        assert run_cli("grid", "--max", "1", "--lmax", "6", "--out", str(out),
                       "--resume") == 1
        assert "bad status" in capsys.readouterr().err

    @pytest.mark.parametrize("n,m,problem", [
        (17, 1, "is not a cell of the odd grid up to 3"),
        (1, 5, "is not a cell of the odd grid up to 3"),
        (2, 1, "is not a cell of the odd grid up to 3"),
        (1, 2, "is not a cell of the odd grid up to 3"),
        (1, 1, "repeats a cell"),
    ])
    def test_resume_refuses_rows_outside_the_grid(self, tmp_path, capsys, n, m, problem):
        out = tmp_path / "grid.csv"
        flags = ["grid", "--max", "3", "--lmax", "5", "--out", str(out)]
        assert run_cli(*flags) == 0
        lines = out.read_text().splitlines(keepends=True)
        text = "".join(lines[:2]) + f"{n},{m},3,CorrectSoFar,,,\n"
        out.write_text(text)
        capsys.readouterr()
        assert run_cli(*flags, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"line 3: row ({n},{m}) {problem}" in err
        assert out.read_text() == text

    @pytest.mark.parametrize("row,problem", [
        ("1,1,4,CorrectSoFar,,,", "row (1,1) reads"),  # wrong N
        ("1,1,3,CorrectSoFar,7,ABA,c1", "row (1,1) reads"),  # a witness on a pass
        ("01,1,3,CorrectSoFar,,,", "row (1,1) reads"),
        ("1,1,3,CorrectSoFar", "not a grid row"),  # too few fields
        ("1,1,3,CorrectSoFar,,,,extra", "not a grid row"),  # too many fields
        ("x,1,3,CorrectSoFar,,,", "not a grid row"),
        ("1,1,3,Incorrect,,,", "not a grid row"),  # no witness size
        ("1,1,3,Incorrect,5,XYZ,c9", "row (1,1): bad witness for a grid of L 3..5"),
        ("1,1,3,Incorrect,99,AAAAA,c2", "row (1,1): bad witness for a grid of L 3..5"),
        ("1,1,3,Incorrect,5,ABAB,c2", "bad witness"),  # start of the wrong length
        ("1,1,3,Incorrect,5,ABACA,c2", "bad witness"),  # a C in the start
        ("1,1,3,Incorrect,5,ABABA,slots", "bad witness"),  # no condition of the check
    ])
    def test_resume_refuses_rows_the_grid_never_writes(self, tmp_path, capsys, row, problem):
        # each row parses to a verdict whose own row differs, or to none:
        # resumed, it would stay in a CSV that no fresh run writes
        out = tmp_path / "grid.csv"
        flags = ["grid", "--max", "3", "--lmax", "5", "--out", str(out)]
        assert run_cli(*flags) == 0
        text = out.read_text().splitlines(keepends=True)[0] + row + "\n"
        out.write_text(text)
        capsys.readouterr()
        assert run_cli(*flags, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out} line 2: ") and problem in err
        assert out.read_text() == text

    def test_resume_refuses_rows_out_of_grid_order(self, tmp_path, capsys):
        # the cells done must be the first ones in grid order: after a
        # lone 3,3 row a resume would append 1,1 / 1,3 / 3,1 after it
        out = tmp_path / "grid.csv"
        flags = ["grid", "--max", "3", "--lmax", "5", "--out", str(out)]
        assert run_cli(*flags) == 0
        lines = out.read_text().splitlines(keepends=True)
        assert [line[:4] for line in lines[1:]] == ["1,1,", "1,3,", "3,1,", "3,3,"]
        for kept in ([lines[4]], [lines[1], lines[3]]):
            text = lines[0] + "".join(kept)
            out.write_text(text)
            capsys.readouterr()
            assert run_cli(*flags, "--resume") == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            row, expected = ("(3,3)", "(1,1)") if len(kept) == 1 else ("(3,1)", "(1,3)")
            line = len(kept) + 1
            assert (f"line {line}: row {row} is out of grid order: cell {expected} "
                    "is expected there") in err
            assert out.read_text() == text

    def test_inconclusive_cells_exit_3(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli("grid", "--max", "3", "--lmax", "5", "--max-steps", "1",
                       "--out", str(out)) == 3
        assert "4 cells, 0 incorrect, 4 inconclusive" in capsys.readouterr().out

    def test_resume_accepts_inconclusive_rows(self, tmp_path, capsys):
        flags = ["--max", "3", "--lmax", "5", "--max-steps", "1"]
        fresh = tmp_path / "fresh.csv"
        assert run_cli("grid", *flags, "--out", str(fresh)) == 3
        lines = fresh.read_text().splitlines(keepends=True)
        assert "Inconclusive" in lines[1]
        partial = tmp_path / "partial.csv"
        partial.write_text("".join(lines[:3]))
        shutil.copy(tmp_path / "fresh.csv.config.json",
                    tmp_path / "partial.csv.config.json")
        assert run_cli("grid", *flags, "--out", str(partial), "--resume") == 3
        assert partial.read_bytes() == fresh.read_bytes()

    def test_resume_refuses_another_config(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli("grid", "--max", "5", "--lmax", "5", "--out", str(out)) == 0
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(lines[:5]))
        sidecar = tmp_path / "grid.csv.config.json"
        written = sidecar.read_bytes()
        for other in (["--max", "5", "--lmax", "7", "--seed", "9"],
                      ["--max", "3", "--lmax", "5"]):
            assert run_cli("grid", *other, "--out", str(out), "--resume") == 1
            assert "not resuming" in capsys.readouterr().err
            assert out.read_text() == "".join(lines[:5])
            assert sidecar.read_bytes() == written
        # a sidecar without the grid bound cannot vouch for the cells
        without_max = json.loads(written)
        del without_max["max"]
        sidecar.write_text(json.dumps(without_max))
        assert run_cli("grid", "--max", "5", "--lmax", "5", "--out", str(out),
                       "--resume") == 1
        assert "not resuming" in capsys.readouterr().err
        assert out.read_text() == "".join(lines[:5])
        assert sidecar.read_text() == json.dumps(without_max)
        sidecar.unlink()
        assert run_cli("grid", "--max", "5", "--lmax", "5", "--out", str(out),
                       "--resume") == 1
        assert "missing" in capsys.readouterr().err

    def test_resume_refuses_a_sidecar_that_is_not_an_object(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        flags = ["grid", "--max", "1", "--lmax", "4", "--out", str(out)]
        assert run_cli(*flags) == 0
        written = out.read_bytes()
        (tmp_path / "c.csv.config.json").write_text("[]")
        assert run_cli(*flags, "--resume") == 1
        assert "not a grid config sidecar" in capsys.readouterr().err
        assert out.read_bytes() == written

    def test_cr_annotations_from_directory(self, tmp_path, capsys):
        rtdir = tmp_path / "rt"
        rtdir.mkdir()
        assert run_cli("rt", "build-1-2k1", "--k", "2",
                       "--step-table", "builtin:all-combos",
                       "--out", str(rtdir / "1_3.rt")) == 0
        out = tmp_path / "grid.csv"
        gridjson = tmp_path / "grid.json"
        assert run_cli("grid", "--max", "3", "--out", str(out),
                       "--lmax", "6", "--cutoff", "6", "--samples", "0",
                       "--json", str(gridjson), "--cr-from", str(rtdir)) == 0
        cells = json.loads(gridjson.read_text())["cells"]
        annotated = {(c["mask"]["n"], c["mask"]["m"]): c.get("C_R") for c in cells}
        assert annotated[(1, 3)] == 27
        assert annotated[(1, 1)] is None

    @pytest.mark.parametrize("source", ["missing", "file", "empty directory"])
    def test_cr_from_must_be_a_directory(self, tmp_path, capsys, source):
        # refused before any cell runs; a directory without .rt files
        # annotates no cell
        rtdir = tmp_path / "rt"
        if source == "file":
            rtdir.write_text("")
        elif source == "empty directory":
            rtdir.mkdir()
        out = tmp_path / "grid.csv"
        gridjson = tmp_path / "grid.json"
        code = run_cli("grid", "--max", "3", "--lmax", "4", "--out", str(out),
                       "--json", str(gridjson), "--cr-from", str(rtdir))
        if source == "empty directory":
            assert code == 0
            cells = json.loads(gridjson.read_text())["cells"]
            assert all("C_R" not in cell for cell in cells)
        else:
            assert code == 1
            assert "is not a directory" in capsys.readouterr().err
            assert not out.exists() and not gridjson.exists()


class TestRtCommands:
    @pytest.fixture
    def tables(self, tmp_path):
        a = tmp_path / "1_3.rt"
        b = tmp_path / "3_1.rt"
        assert run_cli("rt", "build-1-2k1", "--k", "2",
                       "--step-table", "builtin:all-combos", "--out", str(a)) == 0
        assert run_cli("rt", "reflect", str(a), "--out", str(b)) == 0
        return a, b

    @pytest.mark.parametrize("data,detail", [
        ({"1": 5}, "step table entry '1' needs a list of three values"),
        ([1, 2], "step table must be a JSON object"),
        ({"1": [["1"], "2", "-1"]}, "bad value token ['1']"),
    ])
    def test_malformed_step_table_is_an_error(self, tmp_path, capsys, data, detail):
        table = tmp_path / "f.json"
        table.write_text(json.dumps(data))
        out = tmp_path / "t.rt"
        assert run_cli("rt", "build-1-2k1", "--k", "2", "--step-table", str(table),
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {detail}\n"
        assert not out.exists()

    def test_build_and_reflect(self, tables, capsys):
        a, b = tables
        ta, tb = rt.load_table(a), rt.load_table(b)
        assert ta.row_count == 27
        assert tb.mask.n == 3 and tb.mask.m == 1

    def test_intersect_union(self, tables, tmp_path, capsys):
        a, b = tables
        out = tmp_path / "i.rt"
        assert run_cli("rt", "intersect", str(a), str(b), "--out", str(out)) == 0
        assert "C_R=" in capsys.readouterr().out
        assert run_cli("rt", "union", str(a), str(b)) == 0

    def test_includes(self, tables, capsys):
        a, b = tables
        assert run_cli("rt", "includes", str(a), str(b)) == 0
        assert capsys.readouterr().out.strip() in ("true", "false")

    def test_classify_and_scounts(self, tables, tmp_path, capsys):
        a, _ = tables
        assert run_cli("rt", "classify", str(a)) == 0
        assert "Small" in capsys.readouterr().out
        out = tmp_path / "s.csv"
        assert run_cli("rt", "scounts", str(a), "--csv", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == rt.SCOUNTS_CSV_COLUMNS
        assert rows[1][3] == "27"

    def test_expand(self, tables, tmp_path):
        a, _ = tables
        outdir = tmp_path / "subs"
        assert run_cli("rt", "expand", str(a), "--outdir", str(outdir)) == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert len(files) == 6
        assert "sub_0.rt" in files and "sub_m2.rt" in files

    def test_expand_refuses_a_table_that_is_not_the_zero_subtable(self, tables, tmp_path,
                                                                  capsys):
        a, _ = tables
        subs = tmp_path / "subs"
        assert run_cli("rt", "expand", str(a), "--outdir", str(subs)) == 0
        again = tmp_path / "again"
        assert run_cli("rt", "expand", str(subs / "sub_1.rt"), "--outdir", str(again)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'=1'" in err
        assert not again.exists()

    def test_reflect_keeps_the_subtable(self, tables, tmp_path, capsys):
        a, _ = tables
        subs = tmp_path / "subs"
        assert run_cli("rt", "expand", str(a), "--outdir", str(subs)) == 0
        out = tmp_path / "r.rt"
        assert run_cli("rt", "reflect", str(subs / "sub_m1.rt"), "--out", str(out)) == 0
        assert rt.load_table(out).subtable == "=-1"

    def test_set_algebra_keeps_a_shared_subtable_and_refuses_two(self, tables, tmp_path,
                                                                 capsys):
        a, _ = tables
        subs = tmp_path / "subs"
        assert run_cli("rt", "expand", str(a), "--outdir", str(subs)) == 0
        sub_1, sub_2 = subs / "sub_1.rt", subs / "sub_2.rt"
        out = tmp_path / "u.rt"
        assert run_cli("rt", "union", str(sub_1), str(sub_1), "--out", str(out)) == 0
        assert "subtable==1" in out.read_text().splitlines()[0]
        assert rt.load_table(out) == rt.load_table(sub_1)
        capsys.readouterr()
        out = tmp_path / "i.rt"
        assert run_cli("rt", "intersect", str(sub_1), str(sub_2), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: table [1,3] (=1) and table [1,3] (=2) hold different sub-tables\n")
        assert not out.exists()

    def test_coincide_takes_tables_of_different_subtables(self, tables, tmp_path, capsys):
        a, _ = tables
        subs = tmp_path / "subs"
        assert run_cli("rt", "expand", str(a), "--outdir", str(subs)) == 0
        names = ["sub_0.rt", "sub_1.rt", "sub_2.rt"]
        out = tmp_path / "c.csv"
        assert run_cli("rt", "coincide", *(str(subs / name) for name in names),
                       "--csv", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        loaded = [rt.load_table(subs / name) for name in names]
        pairs = [(i, j) for i in range(3) for j in range(i, 3)]
        assert [int(row["intersectionCR"]) for row in rows] == [
            len(loaded[i].row_set() & loaded[j].row_set()) for i, j in pairs]
        assert [row["relation"] for row in rows][:3] == ["self", "intersect", "intersect"]

    def test_unknown_subtable_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.rt"
        bad.write_text("N=3 subtable=foo\n1,1,1\n")
        assert run_cli("rt", "classify", str(bad)) == 1
        assert capsys.readouterr().err == "error: unknown sub-table target 'foo'\n"

    def test_extract(self, tmp_path, capsys):
        out = tmp_path / "e.rt"
        assert run_cli("rt", "extract", "--n", "1", "--m", "1",
                       "--lmin", "3", "--lmax", "5", "--cutoff", "5",
                       "--out", str(out)) == 0
        table = rt.load_table(out)
        assert table.experimental
        assert table.hypothesis == rt.EXTRACTION_HYPOTHESIS
        assert "[EXPERIMENTAL" in capsys.readouterr().out

    def test_extract_refuses_a_walk_without_a_passing_pair(self, tmp_path, capsys):
        # every pair of (1,1) fails c8 when times are counted from 0
        out = tmp_path / "e.rt"
        assert run_cli("rt", "extract", "--n", "1", "--m", "1", "--lmax", "8",
                       "--time-origin", "0", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "no pair passes" in captured.err
        assert not out.exists()

    def test_integral_compatible(self, tmp_path, capsys):
        a = tmp_path / "a.rt"
        b = tmp_path / "b.rt"
        rt.save_table(rt.ResolutionTable(4, [(1, 1, 1, 1), (1, 1, 1, 4)]), a)
        rt.save_table(rt.ResolutionTable(4, [(1, 1, 1, 2)]), b)
        assert run_cli("rt", "integral", str(a), str(b)) == 0
        assert "integral C_R=3" in capsys.readouterr().out

    def test_integral_incompatible(self, tmp_path, capsys):
        a = tmp_path / "a.rt"
        b = tmp_path / "b.rt"
        rt.save_table(rt.ResolutionTable(3, [(0, 1, 1)]), a)
        rt.save_table(rt.ResolutionTable(3, [(2, 0, 0)]), b)
        assert run_cli("rt", "integral", str(a), str(b)) == 1
        assert "incompatible" in capsys.readouterr().err

    def test_coincide(self, tables, tmp_path, capsys):
        a, b = tables
        out = tmp_path / "c.csv"
        assert run_cli("rt", "coincide", str(a), str(b), "--csv", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b", "relation", "intersectionCR", "group"]

    def test_missing_file(self, capsys):
        assert run_cli("rt", "classify", "no-such-file.rt") == 1


class TestBundle:
    @pytest.mark.parametrize("level", ["full", "light"])
    def test_trace_pair_runs_one_batch_and_checks_without_rewalking(self, monkeypatch, level):
        from trine import dynamics
        from trine.ac23 import Mask, build_graph
        from trine.bundle import trace_pair
        from trine.config import Config

        calls = []

        def logged(module, name, tag):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(tag)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        logged(bundle, "run_lanes", "batch")
        logged(dynamics, "_walk", "walk")
        run, comp, report = trace_pair(build_graph(Mask(1, 3), 9), "ABAABBBAA",
                                       Config(check_level=level))
        assert calls == ["batch"]
        assert comp.start_ab == "BABBAAABB" and report.level == level and report.passed
        run.states  # only the states re-walk
        assert calls == ["batch", "walk"]

    def test_bundle_determinism(self, tmp_path, capsys):
        flags = ["--grid-max", "3", "--lmin", "3", "--lmax", "5",
                 "--cutoff", "5", "--samples", "0"]
        one = tmp_path / "one"
        two = tmp_path / "two"
        assert run_cli("bundle", "--out", str(one), *flags) == 0
        assert run_cli("bundle", "--out", str(two), *flags) == 0

        files_one = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        files_two = sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
        assert files_one == files_two
        for rel in files_one:
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel

    def test_bundle_without_a_passing_pair_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run_cli("bundle", "--out", str(out), "--grid-max", "3",
                       "--lmax", "5", "--cutoff", "5", "--time-origin", "0") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_unresolved_trace_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli("bundle", "--out", str(out), "--grid-max", "3", "--lmax", "6",
                       "--rt-masks", "1,1", "--trace", "1,3:11:BBBBABAAAAA",
                       "--max-steps", "50") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_reused_directory_gets_the_manifest_of_a_fresh_one(self, tmp_path, capsys):
        flags = ["--grid-max", "3", "--lmax", "5", "--cutoff", "5", "--samples", "0"]
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert run_cli("bundle", "--out", str(used), *flags, "--rt-masks", "1,1", "1,3") == 0
        for out in (used, fresh):
            assert run_cli("bundle", "--out", str(out), *flags, "--rt-masks", "1,1") == 0
        manifest = (used / "manifest.json").read_bytes()
        assert manifest == (fresh / "manifest.json").read_bytes()
        assert b"1_3.rt" not in manifest

    @pytest.mark.parametrize("flags,message", [
        (["--grid-max", "2"], "odd"),
        (["--trace", "1,1:3"], "n,m:L:start"),
        (["--trace", "1,1:3:ABA", "1,1:4:ABA"], "n,m:L:start"),
    ])
    def test_bad_input_is_refused_before_any_work(self, tmp_path, capsys, flags, message):
        out = tmp_path / "b"
        assert run_cli("bundle", "--out", str(out), "--lmax", "5", *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "b"
        assert run_cli("bundle", "--out", str(out), "--grid-max", "3",
                       "--lmax", "5", "--cutoff", "5", "--samples", "0") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"]["name"] == "trine"
        assert "configHash" in manifest
        assert "grid.csv" in manifest["files"]
        for rel, digest in manifest["files"].items():
            import hashlib

            actual = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            assert actual == digest


class TestConfigPlumbing:
    def test_config_file(self, tmp_path, capsys):
        cfg = {"lmin": 3, "lmax": 6, "exhaustive_cutoff": 6, "samples_per_L": 0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("check-mask", "--n", "1", "--m", "1",
                       "--config", str(path)) == 0
        assert "L=3..6" in capsys.readouterr().out

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert run_cli("check-mask", "--n", "1", "--m", "1",
                       "--config", str(path)) == 1

    @pytest.mark.parametrize("text", ['{"lmin": "x"}', "5", '{"threads": 1.5}',
                                      '{"seed": true}'])
    def test_malformed_config_is_an_error(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run_cli("check-mask", "--n", "1", "--m", "1", "--lmax", "5",
                       "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_trace_reads_the_level_from_the_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"check_level": "light"}))
        trace = ("trace", "--mask", "1,3", "--L", "9", "--start", "ABBABAAAA")
        assert run_cli(*trace, "--config", str(path)) == 0
        assert "light=True full=None" in capsys.readouterr().out
        # the full level is the command's default, and a flag beats the file
        for extra in ((), ("--config", str(path), "--level", "full")):
            assert run_cli(*trace, *extra) == 0
            assert "light=True full=True" in capsys.readouterr().out

    def test_rt_extract_reads_the_level_from_the_config_file(self, tmp_path, capsys):
        # at time origin 0 no pair of (1,3) up to L = 8 passes the full
        # check, the command's default, but every mirrored pair passes light
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"check_level": "light", "lmax": 8, "time_origin": 0}))
        extract = ("rt", "extract", "--n", "1", "--m", "3")
        by_file, by_flags = tmp_path / "file.rt", tmp_path / "flags.rt"
        assert run_cli(*extract, "--config", str(path), "--out", str(by_file)) == 0
        assert run_cli(*extract, "--lmax", "8", "--level", "light", "--time-origin", "0",
                       "--out", str(by_flags)) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()
        assert run_cli(*extract, "--config", str(path), "--level", "full",
                       "--out", str(tmp_path / "full.rt")) == 1
