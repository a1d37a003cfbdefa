"""Command-line surface.

Exit codes: 0 success, 2 a mask verdict came back Incorrect (so shell
scripts can branch on it), 3 a mask verdict came back Inconclusive
(runs left unresolved at a clean size; for ``grid``, any cell did), 1
any error including bad usage.  ``grid`` exits 0 when it has Incorrect
cells: finding them is what a grid is for.

    trine trace --mask 1,1 --L 3 --start ABA
    trine check-mask --n 1 --m 5 --lmin 3 --lmax 12
    trine grid --max 19 --out grid.csv
    trine rt extract --n 1 --m 3 --lmax 8 --out 1_3.rt
    trine rt intersect a.rt b.rt --out both.rt
    trine bundle --out report/

All searches are seeded; rerunning any command with the same
configuration reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__, ac23, rt
from .ac23 import GRID_CSV_COLUMNS, Mask, MaskVerdict, build_graph, classify_mask, parse_mask, verdict_grid
from .bundle import build_bundle, parse_trace_spec, trace_pair, write_csv, write_json
from .config import Config
from .errors import IncompatibleTables, TrineError
from .graph import MixedGraph
from .ipf import CHECK_LEVELS, COND1_INTERPRETATIONS

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCORRECT = 2
EXIT_INCONCLUSIVE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the exit-code contract
    reserves 2 for Incorrect verdicts, so remap usage errors to 1, with
    argparse's usage and message."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--lmin", type=int)
    parser.add_argument("--lmax", type=int)
    parser.add_argument("--cutoff", type=int, dest="exhaustive_cutoff",
                        help="largest L swept exhaustively")
    parser.add_argument("--samples", type=int, dest="samples_per_L",
                        help="start samples per L beyond the cutoff")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--level", choices=CHECK_LEVELS, dest="check_level")
    parser.add_argument("--max-steps", type=int, dest="max_steps")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--cond1", choices=COND1_INTERPRETATIONS,
                        dest="cond1_interpretation")
    parser.add_argument("--time-origin", type=int, choices=(0, 1),
                        dest="time_origin")


def _config_from_args(args, **defaults) -> Config:
    """The config of a command: the flags over the ``--config`` file
    over the command's ``defaults`` over ``Config``'s own."""
    base = Config.load(args.config, **defaults) if args.config else Config(**defaults)
    # every config field has a flag of the same dest; unset flags are None
    return base.with_overrides(**{f.name: getattr(args, f.name) for f in fields(Config)})


# -- trace ---------------------------------------------------------------


def cmd_trace(args) -> int:
    cfg = _config_from_args(args, check_level="full")
    if args.graph:
        g = MixedGraph.load(args.graph)
        label = Path(args.graph).stem
    elif args.mask:
        mask = parse_mask(args.mask)
        if args.L is None:
            print("--L is required with --mask", file=sys.stderr)
            return EXIT_ERROR
        g = build_graph(mask, args.L)
        label = f"{mask.n}_{mask.m}_L{args.L}"
    else:
        print("need --mask n,m --L <size> or --graph file", file=sys.stderr)
        return EXIT_ERROR

    run, comp_run, report = trace_pair(g, args.start, cfg)
    print(f"start {args.start}: T={run.period}" + (" (degenerate)" if run.degenerate else ""))
    if run.degenerate:
        print("degenerate trajectory (period <= 2); no invariant check")
    else:
        for t, state in enumerate(run.states, 1):
            print(f"  t={t:<4d} {state}")
        print(f"mirror {run.mirror_state}")
        print(f"lambda per node: {list(run.lambda_per_node)}")
        print(
            f"invariant: T={report.T} Tbar={report.Tbar} K={report.K} "
            f"light={report.light_ok} full={report.full_ok}"
        )
        if report.first_failed_condition:
            print(f"FAILED condition: {report.first_failed_condition}")
            for witness in report.witnesses[:4]:
                print(f"  witness: {witness}")

    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "trace.csv", "w", encoding="utf-8", newline="") as fh:
            run.write_trace_csv(fh)
        if report is not None:
            with open(outdir / "complement_trace.csv", "w", encoding="utf-8",
                      newline="") as fh:
                comp_run.write_trace_csv(fh)
            write_json(outdir / "run.json", {
                "graph": g.to_json_dict(),
                "label": label,
                "run": run.to_json_dict(),
                "complementRun": comp_run.to_json_dict(),
            })
            write_json(outdir / "ipf.json", report.to_json_dict())
    return EXIT_OK


# -- mask checking ---------------------------------------------------------


def cmd_check_mask(args) -> int:
    cfg = _config_from_args(args)
    mask = Mask(args.n, args.m)
    verdict = classify_mask(mask, cfg, budget=args.budget)
    print(f"mask {mask}: {verdict.status}")
    if verdict.witness:
        w = verdict.witness
        print(f"witness: L={w['L']} start={w['start']} condition={w['condition']}")
    tested = sum(b.get("tested", 0) for b in verdict.tested)
    print(f"tested {tested} start pairs over L={cfg.lmin}..{verdict.tested[-1]['L']}"
          + (" (budget exhausted)" if verdict.budget_exhausted else ""))
    if args.json:
        write_json(Path(args.json), verdict.to_json_dict())
    return {
        ac23.INCORRECT: EXIT_INCORRECT,
        ac23.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }.get(verdict.status, EXIT_OK)


def _check_resume_config(sidecar: Path, cfg: Config, grid_max: int) -> None:
    """Refuse to resume a grid whose config sidecar is missing or was
    written under another semantic config or grid bound."""
    if not sidecar.exists():
        raise TrineError(f"{sidecar} is missing: cannot tell which config "
                         "the grid was written under")
    with open(sidecar, encoding="utf-8") as fh:
        stored = json.load(fh)
    if not isinstance(stored, dict):
        raise TrineError(f"{sidecar}: not a grid config sidecar")
    if stored.get("configHash") != cfg.semantic_hash():
        raise TrineError(f"{sidecar}: grid was written under config "
                         f"{str(stored.get('configHash'))[:12]}, this run is "
                         f"{cfg.semantic_hash()[:12]}; not resuming")
    if stored.get("max") != grid_max:
        raise TrineError(f"{sidecar}: grid was written with --max "
                         f"{stored.get('max')}, this run has --max {grid_max}; "
                         "not resuming")


def _load_resume_rows(path: Path, grid_max: int) -> tuple[dict, int]:
    """Finished cells of an interrupted grid CSV of the odd masks up to
    ``grid_max``, which must be the first cells in grid order; a row
    outside that grid, a second row for a cell, a row out of order, or
    one that differs from the row its verdict writes (``csv_row``) is
    refused.  A last line without its newline was cut off mid-write: it
    is dropped.  Returns (cells, the byte length of the complete rows,
    where appending continues)."""
    with open(path, "rb") as fh:
        data = fh.read()
    complete = data[: data.rfind(b"\n") + 1]
    odd = range(1, grid_max + 1, 2)
    grid_order = [(n, m) for n in odd for m in odd]
    rows = {}
    reader = csv.reader(complete.decode("utf-8").splitlines())
    if (header := next(reader, None)) != GRID_CSV_COLUMNS:
        raise TrineError(f"{path}: not a grid CSV (columns {header})")
    for row in reader:
        where = f"{path} line {reader.line_num}"
        try:
            n, m, _, status, witness_L, start, condition = row
            mask = Mask(int(n), int(m))
            witness = ({"L": int(witness_L), "start": start, "condition": condition}
                       if status == ac23.INCORRECT else None)
        except ValueError as exc:
            raise TrineError(f"{where}: not a grid row {row}: {exc}") from None
        if status not in ac23.STATUSES:
            raise TrineError(f"{where}: bad status in row {row}")
        where += f": row {mask}"
        if mask.n % 2 == 0 or mask.m % 2 == 0 or max(mask.n, mask.m) > grid_max:
            raise TrineError(f"{where} is not a cell of the odd grid up to {grid_max}")
        if (mask.n, mask.m) in rows:
            raise TrineError(f"{where} repeats a cell")
        expected = Mask(*grid_order[len(rows)])
        if mask != expected:
            raise TrineError(
                f"{where} is out of grid order: cell {expected} is expected there")
        verdict = MaskVerdict(mask, status, witness)
        written = [str(field) for field in verdict.csv_row()]
        if row != written:
            raise TrineError(f"{where} reads {row}, not {written} as the grid writes it")
        rows[(mask.n, mask.m)] = verdict
    return rows, len(complete)


def _cr_annotations_from(directory: str) -> dict:
    """Row counts of <n>_<m>.rt files in a directory, for grid cells."""
    if not Path(directory).is_dir():
        raise TrineError(f"--cr-from {directory!r} is not a directory")
    annotations = {}
    for path in sorted(Path(directory).glob("*.rt")):
        table = rt.load_table(path)
        if table.mask is not None:
            annotations[(table.mask.n, table.mask.m)] = table.row_count
    return annotations


def cmd_grid(args) -> int:
    cfg = _config_from_args(args)
    ac23.check_grid_bounds(args.max, args.max)
    annotations = _cr_annotations_from(args.cr_from) if args.cr_from else None
    out = Path(args.out)
    sidecar = out.with_name(out.name + ".config.json")
    resume_rows = None
    if args.resume and out.exists():
        _check_resume_config(sidecar, cfg, args.max)
        resume_rows, complete = _load_resume_rows(out, args.max)
        if resume_rows and args.json:
            raise TrineError(f"--json needs each cell's tested envelope, which the "
                             f"{len(resume_rows)} cells resumed from {out} do not keep; "
                             "rerun the grid without --resume for the JSON")
        os.truncate(out, complete)
        print(f"resuming: {len(resume_rows)} cells already done")

    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(sidecar, {"config": cfg.semantic_dict(), "configHash": cfg.semantic_hash(),
                         "max": args.max})
    mode = "a" if resume_rows else "w"
    with open(out, mode, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if not resume_rows:
            writer.writerow(GRID_CSV_COLUMNS)

        def on_cell(verdict: MaskVerdict) -> None:
            writer.writerow(verdict.csv_row())
            fh.flush()

        grid = verdict_grid(
            args.max, args.max, cfg, resume_rows=resume_rows, on_cell=on_cell,
            cr_annotations=annotations,
        )
    statuses = [v.status for v in grid.cells.values()]
    inconclusive = statuses.count(ac23.INCONCLUSIVE)
    print(f"grid {args.max}x{args.max}: {len(grid.cells)} cells, "
          f"{statuses.count(ac23.INCORRECT)} incorrect, "
          f"{inconclusive} inconclusive, written to {out}")
    if args.json:
        write_json(Path(args.json), grid.to_json_dict())
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


# -- resolution tables -------------------------------------------------------


def _load_tables(paths) -> list:
    return [rt.load_table(p) for p in paths]


def cmd_rt_extract(args) -> int:
    # extraction reads slot data, so the full check is the useful default
    cfg = _config_from_args(args, check_level="full")
    mask = Mask(args.n, args.m)
    table = rt.extract_rows(mask, rt.extraction_run_pairs(mask, cfg))
    rt.save_table(table, args.out)
    print(f"extracted {table.tag()}: C_R={table.row_count} "
          f"class={rt.classify(table)} kind={rt.kind(table)} "
          f"[EXPERIMENTAL hypothesis={table.hypothesis}] -> {args.out}")
    return EXIT_OK


def cmd_rt_expand(args) -> int:
    table = rt.load_table(args.table)
    expanded = rt.expand_subtables(table)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for target, sub in expanded.items():
        name = "sub_" + target.replace("=", "").replace("-", "m") + ".rt"
        rt.save_table(sub, outdir / name)
    print(f"wrote six sub-tables to {outdir}")
    return EXIT_OK


def cmd_rt_classify(args) -> int:
    for path in args.tables:
        table = rt.load_table(path)
        print(f"{path}: {rt.classify(table)} / {rt.kind(table)} C_R={table.row_count}")
    return EXIT_OK


def _write_or_print_csv(path, header: list, rows: list) -> None:
    """Write the CSV to ``path`` when given, else print it."""
    if path:
        write_csv(Path(path), header, rows)
        print(f"wrote {path}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))


def cmd_rt_scounts(args) -> int:
    tables = _load_tables(args.tables)
    _write_or_print_csv(args.csv, rt.SCOUNTS_CSV_COLUMNS,
                        [rt.scounts_csv_row(t) for t in tables])
    return EXIT_OK


def _binary_setop(args, op) -> int:
    a, b = rt.load_table(args.a), rt.load_table(args.b)
    result = op(a, b)
    if isinstance(result, bool):
        print(str(result).lower())
        return EXIT_OK
    print(f"C_R={result.row_count}")
    if args.out:
        rt.save_table(result, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_rt_integral(args) -> int:
    tables = _load_tables(args.tables)
    try:
        integral = rt.compatibility(tables)
    except IncompatibleTables as exc:
        print(f"incompatible: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for tag, cumulative in integral.steps:
        print(f"  + {tag:<12} -> C_R={cumulative}")
    print(f"integral C_R={integral.table.row_count}")
    if args.out:
        rt.save_table(integral.table, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_rt_coincide(args) -> int:
    tables = _load_tables(args.tables)
    _write_or_print_csv(args.csv, rt.COINCIDENCE_CSV_COLUMNS,
                        rt.coincidence_matrix(tables).csv_rows())
    return EXIT_OK


def cmd_rt_build(args) -> int:
    if args.step_table == "builtin:all-combos":
        step_table = rt.ALL_COMBOS_STEP_TABLE
        hypothesis = rt.ALL_COMBOS_STEP_TABLE_ID
    else:
        with open(args.step_table, encoding="utf-8") as fh:
            step_table = rt.parse_step_table(json.load(fh))
        hypothesis = f"step-table:{Path(args.step_table).name}"
    table = rt.build_1_2k1(args.k, step_table, hypothesis=hypothesis)
    rt.save_table(table, args.out)
    print(f"built {table.tag()}: C_R={table.row_count} kind={rt.kind(table)} -> {args.out}")
    return EXIT_OK


def cmd_rt_reflect(args) -> int:
    table = rt.load_table(args.table)
    result = rt.reflect(table)
    rt.save_table(result, args.out)
    print(f"reflected {table.tag()} -> {result.tag()} ({args.out})")
    return EXIT_OK


# -- report bundle -----------------------------------------------------------


def cmd_bundle(args) -> int:
    cfg = _config_from_args(args)
    rt_masks = [parse_mask(text) for text in args.rt_masks]
    trace_specs = [parse_trace_spec(spec) for spec in args.trace]
    manifest = build_bundle(Path(args.out), cfg, args.grid_max, rt_masks, trace_specs)
    print(f"bundle written to {args.out} ({len(manifest['files'])} files, "
          f"config {manifest['configHash'][:12]})")
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="trine", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"trine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="run one start to its mirror and check the invariant")
    p.add_argument("--mask", help="mask as n,m")
    p.add_argument("--L", type=int, help="circle size")
    p.add_argument("--graph", help="graph JSON file instead of a mask")
    p.add_argument("--start", required=True, help="two-color start, e.g. ABA")
    p.add_argument("--out", help="directory for trace/report files")
    _add_config_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("check-mask", help="search a mask for invariant violations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, help="cap on start pairs examined")
    p.add_argument("--json", help="write the verdict as JSON")
    _add_config_flags(p)
    p.set_defaults(func=cmd_check_mask)

    p = sub.add_parser("grid", help="verdicts for all odd masks up to a bound")
    p.add_argument("--max", type=int, default=19, help="odd bound for n and m")
    p.add_argument("--out", required=True, help="output CSV (written incrementally)")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted grid from the CSV")
    p.add_argument("--json", help="also write the grid as JSON")
    p.add_argument("--cr-from", dest="cr_from",
                   help="directory of .rt files whose row counts annotate "
                        "the JSON cells")
    _add_config_flags(p)
    p.set_defaults(func=cmd_grid)

    prt = sub.add_parser("rt", help="resolution-table algebra")
    rtsub = prt.add_subparsers(dest="rt_command", required=True)

    p = rtsub.add_parser("extract", help="EXPERIMENTAL: table from verified runs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_rt_extract)

    p = rtsub.add_parser("expand", help="derive all six sub-tables")
    p.add_argument("table")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_rt_expand)

    p = rtsub.add_parser("classify", help="value class and correctness kind")
    p.add_argument("tables", nargs="+")
    p.set_defaults(func=cmd_rt_classify)

    p = rtsub.add_parser("scounts", help="value occurrence summary")
    p.add_argument("tables", nargs="+")
    p.add_argument("--csv", help="write as CSV instead of stdout")
    p.set_defaults(func=cmd_rt_scounts)

    p = rtsub.add_parser("intersect", help="rows common to two tables")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out")
    p.set_defaults(func=lambda args: _binary_setop(args, rt.intersect))

    p = rtsub.add_parser("union", help="rows of either table")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out")
    p.set_defaults(func=lambda args: _binary_setop(args, rt.union))

    p = rtsub.add_parser("includes", help="does table a contain table b?")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=lambda args: _binary_setop(args, rt.includes), out=None)

    p = rtsub.add_parser("integral", help="compatibility check and union fold")
    p.add_argument("tables", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rt_integral)

    p = rtsub.add_parser("coincide", help="pairwise coincidence matrix")
    p.add_argument("tables", nargs="+")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_rt_coincide)

    p = rtsub.add_parser("build-1-2k1", help="inductive table for masks (1, 2^k-1)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--step-table", required=True,
                   help="JSON step-table file or builtin:all-combos")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rt_build)

    p = rtsub.add_parser("reflect", help="re-express a table for the mirrored mask")
    p.add_argument("table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rt_reflect)

    p = sub.add_parser("bundle", help="full deterministic report bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--grid-max", type=int, default=7)
    p.add_argument("--rt-masks", nargs="*", default=["1,1", "1,3"],
                   help="masks to extract tables for, as n,m")
    p.add_argument("--trace", nargs="*", default=["1,1:3:ABA"],
                   help="traces as n,m:L:start")
    _add_config_flags(p)
    p.set_defaults(func=cmd_bundle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except (TrineError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
