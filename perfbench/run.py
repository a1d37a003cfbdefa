"""Benchmark command for trine.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Runs one workload (grid, grid-par, deep or bundle; see README.md in
this directory) as a closed loop with one caller for ``--seconds``
seconds, checks every operation's output against the pinned references
in reference.json, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics, taken from
traced passes that alternate with untraced ones.  The line before it is
``{"info": {...}}``: platform, revision, quartiles, exact counters.
Both, and the spans of the last traced pass, are also written to
perfbench/out/.

The library is imported from src/ of the checkout this file sits in;
without it the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SIZES = ("full", "smoke")
WORKLOADS = ("grid", "grid-par", "deep", "bundle")

# Set-up is timed in this many fresh interpreters per run; the median is reported.
SETUP_PROBES = 7

# Times are reported at a reference CPU speed.  The host this benchmark
# runs on is shared, and its speed for pure-Python code drifts by up to
# 1.6x within minutes; the same drift slows a fixed calibration loop.
# Every measured time is multiplied by
# REFERENCE_CALIBRATION_S divided by the loop's time measured around it
# (before and after each operation), which is the loop's time on an
# idle 2.0 GHz Xeon.  The measured times stay in the info line.
REFERENCE_CALIBRATION_S = 0.008
CALIBRATION_ITERATIONS = 20000
# Loops per calibration.  Three loops (about 40 ms) left the run-to-run
# spread of pinned grid-par at 0.06-0.09 of the median; nine, at 0.03-0.05.
CALIBRATION_LOOPS = 9

# Per-layer metrics that are exact counts and must repeat from pass to pass.
EXACT = (
    "graph.builds", "ac23.verdicts", "ac23.starts_covered", "ac23.pairs_tested",
    "ac23.degenerate_skips", "ac23.unresolved", "ac23.runs_per_start",
    "ac23.pool.tasks", "ac23.pool.map_calls", "dynamics.runs", "dynamics.steps",
    "dynamics.max_period", "ipf.checks", "ipf.pass_ratio", "ipf.checks_per_pair",
    "rt.pairs_extracted", "rt.rows",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="trine benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke: tiny inputs for the benchmark's own check")
    parser.add_argument("--probe", action="store_true",
                        help="internal: import and prepare inputs, print 'ready', exit")
    return parser.parse_args(argv)


def use_checkout_library() -> bool:
    """Put src/ of this checkout first on the import path, for this
    process and for any worker it starts."""
    if not (SRC / "trine" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return True


def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def calibration_s() -> float:
    """Mean time of CALIBRATION_LOOPS runs of a fixed pure-Python loop
    (integer bit arithmetic, list and dict traffic) that uses no trine
    code."""
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        x = 0x5DEECE66D
        acc = []
        seen = {}
        for i in range(CALIBRATION_ITERATIONS):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            acc.append((x >> 7) & (x << 3) | i)
            seen[x & 1023] = i
    return (time.perf_counter() - t0) / CALIBRATION_LOOPS


class SpeedGauge:
    """Scale factors to reference speed for consecutive intervals, from
    calibration loops timed at each interval's two ends."""

    def __init__(self):
        self.last = calibration_s()

    def scale(self) -> float:
        """Factor for the interval since the previous call."""
        before, self.last = self.last, calibration_s()
        return REFERENCE_CALIBRATION_S / ((before + self.last) / 2)


def at_reference_speed(summary: dict, scale: float) -> dict:
    for name, value in summary.items():
        if name.endswith("_per_s"):
            summary[name] = value / scale
        elif name.endswith("_s"):
            summary[name] = value * scale
    summary["_verdict_ms"] = [ms * scale for ms in summary["_verdict_ms"]]
    return summary


def cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def quartiles(values: list) -> list:
    """[p25, median, p75, n]."""
    if len(values) == 1:
        return [values[0], values[0], values[0], 1]
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2], len(values)]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "trine").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def declared_metrics(trace: int) -> dict:
    """name -> unit, from BENCHMARK.json at the checkout root."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args) -> tuple[dict, dict]:
    import spans
    import workloads

    workload = workloads.make(args.workload, args.seed, args.size)
    host_cpus = workloads.nproc()
    # All work stays on one CPU, so the calibration loop is timed on the
    # CPU the operation ran on.  grid-par's pool workers inherit this
    # affinity: the pool runs on one CPU, see README.md.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_gauge = SpeedGauge()
    setup_measured, setup = [], []
    for _ in range(SETUP_PROBES):
        setup_measured.append(time_setup(args))
        setup.append(setup_measured[-1] * setup_gauge.scale())
    scale_since_last = SpeedGauge().scale
    reference = workloads.load_reference(args.size)
    tracer = spans.Tracer() if args.trace else None
    ops = workload.ops()

    walls, cpus, rates, measured_walls, scales = [], [], [], [], []
    traced_walls, summaries = [], []
    attempted = failed = 0
    problems: list[str] = []
    pass_counters: list[dict] = []
    traced = False
    deadline = time.perf_counter() + args.seconds
    scale_since_last()  # restart the interval after the untimed preparation
    while True:
        if traced:
            tracer.reset()
        wall = cpu = measured = 0.0
        counters: Counter = Counter()
        for label, op in ops:
            workload.before_op()
            attempted += 1
            if traced:
                tracer.op_id += 1
                tracer.install()
            error = None
            c0, t0 = cpu_now(), time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # an operation that raises is a failed operation
                error = exc
            t1, c1 = time.perf_counter(), cpu_now()
            if traced:
                tracer.uninstall()
            scale = scale_since_last()
            scales.append(scale)
            measured += t1 - t0
            wall += (t1 - t0) * scale
            cpu += (c1 - c0) * scale
            if error is not None:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{label}: raised {error!r}")
                    traceback.print_exception(error, file=sys.stderr)
                continue
            found = workload.problems(reference, label, result)
            if found:
                failed += 1
                problems.extend(found[: max(0, 5 - len(problems))])
            counters.update(workload.counters(label, result))
        pass_counters.append(dict(counters))
        if traced:
            traced_walls.append(wall)
            summaries.append(at_reference_speed(tracer.summary(), wall / measured))
        else:
            measured_walls.append(measured)
            walls.append(wall)
            cpus.append(cpu)
            rates.append(counters["starts"] / wall)
        if tracer is not None:
            traced = not traced
        if time.perf_counter() >= deadline and walls and (tracer is None or summaries):
            break

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "nproc": host_cpus,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "config_semantic_hash": workload.config.semantic_hash(),
        "threads": workload.config.threads,
        "passes": len(walls),
        "traced_passes": len(summaries),
        "fail_ratio": failed / attempted,
        "problems": problems,
        "counters": pass_counters[-1],
        "counters_repeat": all(c == pass_counters[0] for c in pass_counters),
        "setup_s_samples": setup,
        "measured_setup_s": quartiles(setup_measured),
        "measured_wall_s": quartiles(measured_walls),
        "speed_scale": quartiles(scales),
    }
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "starts_per_s": statistics.median(rates),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup),
        }
        info["quartiles"] = {
            "wall_s": quartiles(walls),
            "starts_per_s": quartiles(rates),
            "cpu_s": quartiles(cpus),
            "setup_s": quartiles(setup),
        }
    else:
        verdict_ms = [ms for s in summaries for ms in s.pop("_verdict_ms")]
        metrics = {name: summaries[-1][name] if name in EXACT
                   else statistics.median(s[name] for s in summaries)
                   for name in summaries[0]}
        metrics["ac23.verdict_ms.p50"] = spans.percentile(verdict_ms, 50)
        metrics["ac23.verdict_ms.p90"] = spans.percentile(verdict_ms, 90)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        info["verdict_samples"] = len(verdict_ms)
        info["exact_repeat"] = all(
            s[name] == summaries[0][name] for s in summaries for name in EXACT
        )
        info["untraced_wall_s"] = quartiles(walls)
        info["traced_wall_s"] = quartiles(traced_walls)
        workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(workloads.OUT_DIR / f"spans-{args.workload}-{args.size}.jsonl.gz")

    units = declared_metrics(args.trace)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = workloads.OUT_DIR / f"result-{args.workload}-{args.size}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
        fh.write("\n")
    return info, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_library():
        print(f"perfbench: no trine sources at {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        import workloads

        workloads.make(args.workload, args.seed, args.size)
        print("ready", flush=True)
        return 0
    info, result = measure(args)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
