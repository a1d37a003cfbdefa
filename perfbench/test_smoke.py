"""Smoke check of the benchmark at its tiny ("smoke") size.

    python3 -m pytest -q perfbench/test_smoke.py

It checks the result format, the metric names against BENCHMARK.json,
the exact work counters and the reference gate.  It never asserts a
timing.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# Starts covered per pass at the smoke size: the planned starts of the
# verdict envelopes (for bundle, plus the starts rt extraction walks).
SMOKE_STARTS = {"grid": 1080, "grid-par": 1080, "deep": 270, "bundle": 712}
# Starts covered by ac23 verdicts alone, as the traced run counts them.
SMOKE_AC23_STARTS = {"grid": 1080, "grid-par": 1080, "deep": 270, "bundle": 480}


def declared(section: str) -> set:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(done) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    *_, info_line, result_line = done.stdout.strip().splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_passes_gate_and_reports_end_to_end_metrics(workload):
    info, result = parse(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == declared("end_to_end")
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] > 0
    assert info["counters_repeat"] is True
    assert info["counters"]["starts"] == SMOKE_STARTS[workload]
    assert info["counters"].get("unresolved", 0) == 0
    assert info["fail_ratio"] == 0.0
    for key in ("nproc", "python", "git_revision", "seed", "config_semantic_hash"):
        assert key in info


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_per_layer_metrics_with_exact_counters(workload):
    info, result = parse(run_bench(workload, trace=1))
    assert result["correct"] is True and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == declared("per_layer")
    assert info["exact_repeat"] is True
    assert metrics["ac23.starts_covered"] == SMOKE_AC23_STARTS[workload]
    assert metrics["ac23.unresolved"] == 0
    if workload == "grid-par":
        assert metrics["ac23.pool.tasks"] > 0
        assert metrics["ac23.pool.map_calls"] > 0
    else:
        assert metrics["ac23.pool.tasks"] == 0
        assert metrics["dynamics.steps"] > metrics["dynamics.runs"] > 0
        assert metrics["ipf.checks"] > 0
    if workload == "bundle":
        assert metrics["rt.pairs_extracted"] > 0 and metrics["rt.rows"] > 0


def test_exact_counters_repeat_across_runs():
    first = parse(run_bench("deep", trace=1, seed=11))[1]["metrics"]
    second = parse(run_bench("deep", trace=1, seed=11))[1]["metrics"]
    for name in ("graph.builds", "dynamics.runs", "dynamics.steps", "ipf.checks",
                 "ac23.starts_covered", "ac23.pairs_tested"):
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", ["grid", "deep", "bundle"])
def test_gate_rejects_an_output_that_differs_from_the_reference(workload):
    bench = workloads.make(workload, seed=5, size="smoke")
    reference = workloads.load_reference("smoke")
    label, op = bench.ops()[0]
    bench.before_op()
    result = op()
    assert bench.problems(reference, label, result) == []

    wrong = copy.deepcopy(reference)
    pinned = wrong[bench.reference_key][label]
    if workload == "grid":
        pinned[0][3] = "Incorrect"
    elif workload == "deep":
        pinned["status"] = "Incorrect"
    else:
        pinned[next(iter(pinned))] = "0" * 64
    assert bench.problems(wrong, label, result)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("grid", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
