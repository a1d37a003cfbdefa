"""The deterministic report bundle: grid CSV, extracted tables, summary
CSVs, fixture traces and a manifest with the semantic config hash and a
digest per file.  Same config, same bytes."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Optional

from . import __version__, ac23, rt
from .ac23 import GRID_CSV_COLUMNS, Mask
from .config import Config
from .dynamics import RunRecord, run_lanes, start_bits
from .errors import MaxStepsExceeded
from .graph import MixedGraph, complement
from .ipf import IpfReport, check_ipf


def write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def parse_trace_spec(text: str) -> tuple[Mask, int, str]:
    """Parse 'n,m:L:start' into (mask, circle size, {A,B} start)."""
    try:
        mask_text, size_text, start = text.split(":")
        mask, L = ac23.parse_mask(mask_text), int(size_text)
    except ValueError as exc:
        raise ValueError(f"trace must look like 'n,m:L:start', got {text!r}") from exc
    if L < 3 or len(start) != L or set(start) - set("AB"):
        raise ValueError(f"trace {text!r} needs L >= 3 and a start of L letters "
                         "A and B ('n,m:L:start')")
    return mask, L, start


def trace_pair(g: MixedGraph, start: str, cfg: Config
               ) -> tuple[RunRecord, Optional[RunRecord], Optional[IpfReport]]:
    """Run a two-color start and its complement as two recorded lanes
    of one batch, and check at ``cfg.check_level`` the pair of their
    readouts and skeleton texts unless the start's run is degenerate:
    (run, complement run or None, report or None).  Raises
    MaxStepsExceeded when a run the check needs is unresolved."""
    bits = start_bits(g, start)
    run, comp_run = run_lanes(g, [bits, bits ^ ((1 << g.node_count) - 1)], cfg.max_steps)
    if run is None:
        raise MaxStepsExceeded(cfg.max_steps, start)
    if run.degenerate:
        return run, None, None
    if comp_run is None:
        raise MaxStepsExceeded(cfg.max_steps, complement(start))
    pair = (run.readout, comp_run.readout, run.skeleton_text, comp_run.skeleton_text)
    report = check_ipf(pair, g.node_count, level=cfg.check_level,
                       cond1_interpretation=cfg.cond1_interpretation,
                       time_origin=cfg.time_origin)
    return run, comp_run, report


def build_bundle(outdir: Path, cfg: Config, grid_max: int, rt_masks: list[Mask],
                 trace_specs: list[tuple[Mask, int, str]]) -> dict:
    """Write the bundle into ``outdir`` and return its manifest, which
    digests exactly the files this call wrote.  Everything is computed
    before ``outdir`` is made: a bad grid bound, a mask without a
    passing pair or an unresolved trace run writes no file."""
    ac23.check_grid_bounds(grid_max, grid_max)
    extract_cfg = cfg.with_overrides(check_level="full")
    tables = [rt.extract_rows(mask, rt.extraction_run_pairs(mask, extract_cfg))
              for mask in rt_masks]
    traces = [(f"traces/trace_{mask.n}_{mask.m}_L{L}_{start}",
               trace_pair(ac23.build_graph(mask, L), start, extract_cfg))
              for mask, L, start in trace_specs]
    grid = ac23.verdict_grid(grid_max, grid_max, cfg)

    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "rt").mkdir(exist_ok=True)
    (outdir / "traces").mkdir(exist_ok=True)
    written = []

    def path(name: str) -> Path:
        written.append(name)
        return outdir / name

    write_csv(path("grid.csv"), GRID_CSV_COLUMNS, grid.csv_rows())
    for mask, table in zip(rt_masks, tables):
        rt.save_table(table, path(f"rt/{mask.n}_{mask.m}.rt"))
    write_csv(path("scounts.csv"), rt.SCOUNTS_CSV_COLUMNS,
              [rt.scounts_csv_row(t) for t in tables])

    coincide_rows = []
    by_width: dict[int, list] = {}
    for table in tables:
        by_width.setdefault(table.N, []).append(table)
    for width in sorted(by_width):
        group = by_width[width]
        if len(group) >= 2:
            coincide_rows.extend(rt.coincidence_matrix(group).csv_rows())
    write_csv(path("coincidence.csv"), rt.COINCIDENCE_CSV_COLUMNS, coincide_rows)

    for name, (run, _, report) in traces:
        with open(path(f"{name}.csv"), "w", encoding="utf-8", newline="") as fh:
            run.write_trace_csv(fh)
        if report is not None:
            write_json(path(f"{name}_ipf.json"), report.to_json_dict())

    files = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
             for name in written}
    manifest = {
        "tool": {"name": "trine", "version": __version__},
        "config": cfg.semantic_dict(),
        "configHash": cfg.semantic_hash(),
        "bundleParams": {
            "gridMax": grid_max,
            "rtMasks": [[m.n, m.m] for m in rt_masks],
            "traces": [[m.n, m.m, L, start] for m, L, start in trace_specs],
        },
        "files": files,
    }
    write_json(outdir / "manifest.json", manifest)
    return manifest
