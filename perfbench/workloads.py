"""The benchmark's workloads: their inputs, their operations and the
reference gate each operation's output must pass.

Importing this module imports the trine library, so the set-up probe
that times "interpreter start to inputs ready" imports it too.

Library functions are looked up through their modules at call time
(``ac23.verdict_grid``, ``cli.build_bundle``) so that the traced run
sees the wrapped versions installed by ``spans``.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from trine import ac23, cli
from trine.config import Config

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"

# Sizes are scaled down so that one pass takes 1-2.5 s on a 2-core
# machine and a 28 s run holds several passes.  deep stops at L = 20
# with 80 samples per sampled size: across seeds its work then varies by
# about 4% (interquartile range), against 9% for L <= 24 with 50 samples,
# because long periods at the largest sizes dominate the sampled work.
SIZES = {
    "full": {
        "grid": {"max": 15, "config": {"lmin": 3, "lmax": 8}},
        "deep": {"masks": [[1, 1], [1, 3]], "config": {"lmax": 20, "samples_per_L": 80}},
        "bundle": {
            "grid_max": 5,
            "rt_masks": [[1, 1], [1, 3], [3, 1], [3, 3]],
            "traces": [[1, 1, 3, "ABA"]],
            "config": {"lmax": 8},
        },
    },
    "smoke": {
        "grid": {"max": 5, "config": {"lmin": 3, "lmax": 6}},
        "deep": {
            "masks": [[1, 1], [1, 3]],
            "config": {"lmax": 9, "exhaustive_cutoff": 6, "samples_per_L": 5},
        },
        "bundle": {
            "grid_max": 3,
            "rt_masks": [[1, 1], [1, 3]],
            "traces": [[1, 1, 3, "ABA"]],
            "config": {"lmax": 6},
        },
    },
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_reference(size: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[size]


def envelope_counters(verdicts) -> dict:
    """Exact work counters summed over the verdict envelopes."""
    totals = {"starts": 0, "tested": 0, "degenerate_skips": 0, "unresolved": 0}
    for verdict in verdicts:
        for block in verdict.tested:
            if "skipped" in block:
                continue
            totals["starts"] += block["planned"]
            totals["tested"] += block["tested"]
            totals["degenerate_skips"] += block["degenerate_skips"]
            totals["unresolved"] += block["unresolved"]
    return totals


class Workload:
    """One workload at one size and seed.

    ``ops`` lists the operations of one pass as (label, callable); a
    pass runs them in order, one after the other.  ``output`` turns an
    operation's result into the JSON value pinned in reference.json
    under the workload's ``reference_key`` and the operation's label.
    """

    reference_key: str

    def __init__(self, seed: int, size: str, params: dict):
        self.params = params
        self.config = Config(seed=seed, **params["config"])

    def ops(self) -> list:
        raise NotImplementedError

    def output(self, label: str, result):
        raise NotImplementedError

    def counters(self, label: str, result) -> dict:
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed preparation before each operation."""

    def problems(self, reference: dict, label: str, result) -> list[str]:
        """Reasons the operation failed the reference gate (empty if it passed)."""
        found = []
        if self.output(label, result) != reference[self.reference_key][label]:
            found.append(f"{label}: output differs from the pinned reference")
        if self.counters(label, result).get("unresolved", 0):
            found.append(f"{label}: runs left unresolved")
        return found


class Grid(Workload):
    """``verdict_grid`` over the odd masks, every start swept, light level."""

    reference_key = "grid"

    def __init__(self, seed: int, size: str, params: dict, threads: int = 1):
        super().__init__(seed, size, params)
        self.config = self.config.with_overrides(threads=threads)

    def ops(self) -> list:
        bound = self.params["max"]
        return [("grid", lambda: ac23.verdict_grid(bound, bound, self.config))]

    def output(self, label, grid):
        return [list(row) for row in grid.csv_rows()]

    def counters(self, label, grid):
        return envelope_counters(grid.cells.values())


class Deep(Workload):
    """``classify_mask`` on correct masks under the default L envelope."""

    reference_key = "deep"

    def ops(self) -> list:
        return [
            (f"{n},{m}", lambda n=n, m=m: ac23.classify_mask(ac23.Mask(n, m), self.config))
            for n, m in self.params["masks"]
        ]

    def output(self, label, verdict):
        return {"status": verdict.status, "witness": verdict.witness}

    def counters(self, label, verdict):
        return envelope_counters([verdict])


class Bundle(Workload):
    """``build_bundle``: grid, full-level rt extraction, summaries, traces."""

    reference_key = "bundle"

    def __init__(self, seed: int, size: str, params: dict):
        super().__init__(seed, size, params)
        self.outdir = OUT_DIR / f"bundle-{size}"
        self.rt_masks = [ac23.Mask(n, m) for n, m in params["rt_masks"]]
        self.traces = [(ac23.Mask(n, m), L, start) for n, m, L, start in params["traces"]]
        self._starts = None

    def before_op(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def ops(self) -> list:
        grid_max = self.params["grid_max"]
        return [(
            "bundle",
            lambda: cli.build_bundle(self.outdir, self.config, grid_max, self.rt_masks, self.traces),
        )]

    def output(self, label, manifest):
        return manifest["files"]

    def counters(self, label, manifest):
        return {"starts": self.starts()}

    def starts(self) -> int:
        """Starts the bundle covers: its grid's envelopes plus every start
        the rt extraction walks.  Counted once, outside any timing."""
        if self._starts is None:
            g = self.params["grid_max"]
            grid = ac23.verdict_grid(g, g, self.config.with_overrides(threads=1))
            total = envelope_counters(grid.cells.values())["starts"]
            cfg = self.config
            for mask in self.rt_masks:
                for L in range(cfg.lmin, cfg.lmax + 1):
                    if ac23.degenerate_at(mask, L) or not ac23.mask_weak_computable(mask, L):
                        continue
                    total += 2**L if L <= cfg.exhaustive_cutoff else cfg.samples_per_L
            self._starts = total
        return self._starts


def make(name: str, seed: int, size: str = "full") -> Workload:
    params = SIZES[size]
    if name == "grid":
        return Grid(seed, size, params["grid"])
    if name == "grid-par":
        # At least two workers, so the pool path runs even on one core.
        return Grid(seed, size, params["grid"], threads=max(2, nproc()))
    if name == "deep":
        return Deep(seed, size, params["deep"])
    if name == "bundle":
        return Bundle(seed, size, params["bundle"])
    raise ValueError(f"unknown workload {name!r}")
