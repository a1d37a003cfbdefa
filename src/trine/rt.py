"""Resolution tables: sets of rows over the six-valued alphabet
{0, 1, 2, -0, -1, -2} attached to masks, and their algebra.

Values are encoded 0..5 with 3, 4, 5 standing for the barred (negative)
digits -0, -1, -2; a value decomposes into (digit mod 3, bar flag).
Extraction and the builder make the "=0" sub-table; the other five
are derived from it by the six-element substitution group, and a
table's header names the sub-table it holds.

Column convention (shared with the mask geometry): column 0 is the
central point, the remaining columns are the mask points in ascending
offset order.  Row order is canonical: move column 0 to the end, read
the row as a base-6 numeral (leftmost digit most significant), sort
ascending.

Two reconstructions here are hypotheses rather than settled facts and
mark every output EXPERIMENTAL:

* ``extract_rows`` derives rows from the slot codes of verified run
  pairs as phase differences mod 3 with a bar for slots filled by the
  complement run (hypothesis id "phase-diff-mod3-v1"), deduplicated as
  slot-code tuples in C-level set updates before any row is built.
* ``build_1_2k1`` grows tables for masks (1, 2^k - 1) by tripling rows
  and deriving the new column from the last one via an injected step
  table; the zero column follows the middle-branch sign fractal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .ac23 import (Mask, build_graph, connection_set, degenerate_at, iter_pairs,
                   mask_weak_computable, pair_starts, parse_mask, settle_pair)
from .config import Config
from .errors import (
    DimensionMismatch,
    IncompatibleTables,
    RtParseError,
    UnconfiguredStepTable,
    UnverifiedRuns,
)
from .ipf import FilledRows, filled_rows, mirrored, mirrored_filled

VALUE_TOKENS = ("0", "1", "2", "-0", "-1", "-2")
_TOKEN_TO_VALUE = {tok: v for v, tok in enumerate(VALUE_TOKENS)}

SUBTABLE_TARGETS = ("=0", "=1", "=2", "=-0", "=-1", "=-2")

SMALL, MIDDLE, FULL = "Small", "Middle", "Full"
NOT_COMPLETELY_CORRECT = "NotCompletelyCorrect"
COMPLETELY_CORRECT_1ST = "CompletelyCorrect1st"
COMPLETELY_CORRECT_2ND = "CompletelyCorrect2nd"

EXTRACTION_HYPOTHESIS = "phase-diff-mod3-v1"
ALL_COMBOS_STEP_TABLE = {v: (1, 2, 4) for v in range(6)}
ALL_COMBOS_STEP_TABLE_ID = "all-combos-124"


def value_to_token(value: int) -> str:
    return VALUE_TOKENS[value]


def token_to_value(token: str) -> int:
    try:
        return _TOKEN_TO_VALUE[token]
    except (KeyError, TypeError):
        raise RtParseError(f"bad value token {token!r}") from None


def _parse_target(target: str) -> tuple[int, bool]:
    if target.startswith("=") and target[1:] in _TOKEN_TO_VALUE:
        value = _TOKEN_TO_VALUE[target[1:]]
        return value % 3, value >= 3
    raise ValueError(f"unknown sub-table target {target!r}")


def substitute_row(row: Sequence[int], target: str) -> tuple[int, ...]:
    """Map a row from the "=0" sub-table into another sub-table.

    Unbarred digits shift by +c, barred digits by -c; a barred target
    additionally toggles the bar.  The six maps form a group of order
    six under composition.
    """
    c, toggle = _parse_target(target)
    out = []
    for value in row:
        digit, barred = value % 3, value >= 3
        new_digit = (digit - c) % 3 if barred else (digit + c) % 3
        out.append(new_digit + (3 if barred ^ toggle else 0))
    return tuple(out)


def canonical_key(row: Sequence[int]) -> int:
    """Move column 0 to the end, read base-6, leftmost digit most
    significant.  Injective on rows of a fixed width."""
    key = 0
    for value in row[1:]:
        key = key * 6 + value
    return key * 6 + row[0]


class ResolutionTable:
    """An immutable set of rows in canonical order.

    ``mask`` ties the columns to mask offsets when known;
    ``experimental`` marks tables produced by a reconstruction
    hypothesis (named in ``hypothesis``).
    """

    __slots__ = ("N", "rows", "mask", "experimental", "hypothesis", "subtable")

    def __init__(
        self,
        N: int,
        rows: Iterable[Sequence[int]] = (),
        mask: Optional[Mask] = None,
        experimental: bool = False,
        hypothesis: Optional[str] = None,
        subtable: str = "=0",
    ):
        if N < 2:
            raise ValueError(f"table width must be at least 2, got {N}")
        if mask is not None and mask.point_count != N:
            raise ValueError(
                f"mask {mask} has {mask.point_count} points, table width is {N}"
            )
        normalized = set()
        for row in rows:
            row = tuple(row)
            if len(row) != N:
                raise ValueError(f"row {row} has length {len(row)}, expected {N}")
            if any(not (0 <= v <= 5) for v in row):
                raise ValueError(f"row {row} contains values outside 0..5")
            normalized.add(row)
        self.N = N
        self.rows = tuple(sorted(normalized, key=canonical_key))
        self.mask = mask
        self.experimental = experimental
        self.hypothesis = hypothesis
        self.subtable = subtable

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def row_set(self) -> frozenset:
        return frozenset(self.rows)

    def value_set(self) -> frozenset:
        return frozenset(v for row in self.rows for v in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ResolutionTable)
            and self.N == other.N
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.N, self.rows))

    def __repr__(self) -> str:
        tag = f" mask={self.mask}" if self.mask else ""
        return f"ResolutionTable(N={self.N}, rows={self.row_count}{tag})"

    def tag(self) -> str:
        return f"[{self.mask.n},{self.mask.m}]" if self.mask else f"<N={self.N}>"


# -- sub-table symmetry -------------------------------------------------


def expand_subtables(table: ResolutionTable) -> dict[str, ResolutionTable]:
    """All six sub-tables, keyed by target.  Row counts are preserved;
    the "=0" entry is the table itself, which must be the "=0" sub-table."""
    if table.subtable != "=0":
        raise ValueError(f'sub-tables expand from "=0", not {table.subtable!r}')
    out = {}
    for target in SUBTABLE_TARGETS:
        out[target] = ResolutionTable(
            table.N,
            (substitute_row(row, target) for row in table.rows),
            mask=table.mask,
            experimental=table.experimental,
            hypothesis=table.hypothesis,
            subtable=target,
        )
    return out


# -- classification ------------------------------------------------------


def classify(table: ResolutionTable) -> str:
    """Small: values only in {1, 2, -1}.  Middle: additionally 0.
    Full: any barred 0 or barred 2 present."""
    values = table.value_set()
    if values & {3, 5}:
        return FULL
    if 0 in values:
        return MIDDLE
    return SMALL


class SCounts(NamedTuple):
    """Occurrence counts of the six values, outside the zero column
    (s_*) and inside it (s0_*)."""

    s_p0: int
    s_p1: int
    s_p2: int
    s_m0: int
    s_m1: int
    s_m2: int
    s0_p0: int
    s0_p1: int
    s0_p2: int
    s0_m0: int
    s0_m1: int
    s0_m2: int


def s_counts(table: ResolutionTable) -> SCounts:
    rest = [0] * 6
    zero = [0] * 6
    for row in table.rows:
        zero[row[0]] += 1
        for value in row[1:]:
            rest[value] += 1
    return SCounts(*rest, *zero)


def kind(table: ResolutionTable) -> str:
    """Completely correct: the zero column holds only 1 and -1.
    First kind: the rows that are plus-minus-one everywhere enumerate
    every sign pattern over the non-zero columns, and +1 fills exactly
    half of a full sign table's worth of zero-column entries."""
    sc = s_counts(table)
    if sc.s0_p0 or sc.s0_p2 or sc.s0_m0 or sc.s0_m2:
        return NOT_COMPLETELY_CORRECT
    want = 2 ** (table.N - 1)
    sign_tails = {
        row[1:] for row in table.rows if all(v in (1, 4) for v in row[1:])
    }
    if sc.s0_p1 == want and len(sign_tails) == want:
        return COMPLETELY_CORRECT_1ST
    return COMPLETELY_CORRECT_2ND


# -- set algebra ---------------------------------------------------------


def _check_dims(a: ResolutionTable, b: ResolutionTable) -> None:
    if a.N != b.N:
        raise DimensionMismatch(f"table widths differ: {a.N} vs {b.N}")


def _merge_tags(a: ResolutionTable, b: ResolutionTable) -> dict:
    """The tags of a table made from the rows of a and b: the sub-table
    both hold, else IncompatibleTables."""
    if a.subtable != b.subtable:
        raise IncompatibleTables(None, a.tag(), b.tag(), b.subtable, a.subtable)
    return {
        "subtable": a.subtable,
        "mask": a.mask if a.mask == b.mask else None,
        "experimental": a.experimental or b.experimental,
        "hypothesis": a.hypothesis if a.hypothesis == b.hypothesis else None,
    }


def intersect(a: ResolutionTable, b: ResolutionTable) -> ResolutionTable:
    _check_dims(a, b)
    return ResolutionTable(a.N, a.row_set() & b.row_set(), **_merge_tags(a, b))


def union(a: ResolutionTable, b: ResolutionTable) -> ResolutionTable:
    _check_dims(a, b)
    return ResolutionTable(a.N, a.row_set() | b.row_set(), **_merge_tags(a, b))


def includes(a: ResolutionTable, b: ResolutionTable) -> bool:
    """True iff a contains every row of b."""
    _check_dims(a, b)
    return b.row_set() <= a.row_set()


# -- compatibility and the integral table --------------------------------


@dataclass
class IntegralTable:
    """Union of compatible tables of one width, with the fold record:
    (table tag, cumulative row count) per fold step, largest first."""

    table: ResolutionTable
    steps: list = field(default_factory=list)


def compatibility(tables: Sequence[ResolutionTable]) -> IntegralTable:
    """Check pairwise compatibility, then fold unions largest-first.

    Compatibility requires that no row of one table appears, after
    deleting the zero column, inside a *different* sub-table of another
    table.  The zero column must be ignored in the comparison; keeping
    it breaks the merge.  Violations raise IncompatibleTables.
    """
    if not tables:
        raise ValueError("need at least one table")
    widths = {t.N for t in tables}
    if len(widths) > 1:
        raise DimensionMismatch(f"table widths differ: {sorted(widths)}")

    tails = [frozenset(row[1:] for row in t.rows) for t in tables]
    for i, owner in enumerate(tables):
        for j, other in enumerate(tables):
            if i == j:
                continue
            for target in SUBTABLE_TARGETS[1:]:
                image = {substitute_row(row, target)[1:] for row in other.rows}
                hit = tails[i] & image
                if hit:
                    raise IncompatibleTables(
                        next(iter(hit)), owner.tag(), other.tag(), target
                    )

    order = sorted(
        tables, key=lambda t: (-t.row_count, t.tag(), t.rows)
    )
    merged = order[0]
    steps = [(order[0].tag(), merged.row_count)]
    for t in order[1:]:
        merged = union(merged, t)
        steps.append((t.tag(), merged.row_count))
    return IntegralTable(merged, steps)


# -- coincidence ----------------------------------------------------------


COINCIDENCE_CSV_COLUMNS = ["a", "b", "relation", "intersectionCR", "group"]


@dataclass
class CoincidenceMatrix:
    """Pairwise relations between tables of one width.

    Each cell records equality, inclusion either way, and the
    intersection row count.  Cells whose intersection tables are
    identical (non-empty, appearing more than once) share a group id;
    diagonal cells take part with the table itself, so a group also
    reveals a table that equals an intersection of two others."""

    tags: list
    cells: dict

    def csv_rows(self) -> list[list]:
        rows = []
        for (i, j), cell in sorted(self.cells.items()):
            rows.append(
                [
                    self.tags[i],
                    self.tags[j],
                    cell["relation"],
                    cell["intersection_cr"],
                    cell["group"] if cell["group"] is not None else "",
                ]
            )
        return rows


def coincidence_matrix(tables: Sequence[ResolutionTable]) -> CoincidenceMatrix:
    widths = {t.N for t in tables}
    if len(widths) > 1:
        raise DimensionMismatch(f"table widths differ: {sorted(widths)}")
    tags = [t.tag() for t in tables]
    cells = {}
    inter_content: dict[tuple, list] = {}
    for i in range(len(tables)):
        for j in range(i, len(tables)):
            a, b = tables[i], tables[j]
            # the shared rows alone: tables of different sub-tables coincide too
            inter = ResolutionTable(a.N, a.row_set() & b.row_set())
            if i == j:
                relation = "self"
            elif a == b:
                relation = "equal"
            elif includes(a, b):
                relation = "includes_ij"
            elif includes(b, a):
                relation = "includes_ji"
            else:
                relation = "intersect"
            cells[(i, j)] = {
                "relation": relation,
                "intersection_cr": inter.row_count,
                "rows": inter.rows,
                "group": None,
            }
            inter_content.setdefault(inter.rows, []).append((i, j))
    group_id = 0
    for rows_key in sorted(
        (k for k, v in inter_content.items() if len(v) > 1 and k),
        key=lambda rows: (len(rows), rows),
    ):
        group_id += 1
        for cell_key in inter_content[rows_key]:
            cells[cell_key]["group"] = group_id
    for cell in cells.values():
        del cell["rows"]
    return CoincidenceMatrix(tags, cells)


# -- inductive builder ----------------------------------------------------


def _default_base_rows() -> list[tuple[int, ...]]:
    """Hypothesis base for the two-offset mask (1,1): all value
    combinations of {1, 2, -1} over the two mask columns, zero column
    +1 exactly on the rows free of 2."""
    rows = []
    for c1 in (1, 2, 4):
        for c2 in (1, 2, 4):
            col0 = 1 if 2 not in (c1, c2) else 4
            rows.append((col0, c1, c2))
    return rows


def parse_step_table(data) -> dict[int, tuple[int, int, int]]:
    """Step table from token form {"1": ["1","2","-1"], ...}: a JSON
    object whose every entry is a list of three value tokens, else
    RtParseError."""
    if not isinstance(data, dict):
        raise RtParseError("step table must be a JSON object")
    table = {}
    for key, triple in data.items():
        if not isinstance(triple, list) or len(triple) != 3:
            raise RtParseError(f"step table entry {key!r} needs a list of three values")
        table[token_to_value(key)] = tuple(token_to_value(t) for t in triple)
    missing = set(range(6)) - set(table)
    if missing:
        raise RtParseError(
            f"step table misses values {[value_to_token(v) for v in sorted(missing)]}"
        )
    return table


def build_1_2k1(
    k: int,
    step_table: Optional[dict[int, tuple[int, int, int]]] = None,
    hypothesis: str = ALL_COMBOS_STEP_TABLE_ID,
) -> ResolutionTable:
    """Grow the table for mask (1, 2^k - 1) by induction on k, from the
    rows of (1,1) (``_default_base_rows``).

    Each induction step triples every row: the three copies receive the
    new last-column values the step table assigns to the row's previous
    last column.  The zero column follows the sign fractal: a row keeps
    +1 only while its construction path avoids the middle branch.
    Row counts are 3^(N-1) by construction.

    The step table is a hypothesis and must be supplied explicitly
    (``ALL_COMBOS_STEP_TABLE`` is the packaged default hypothesis);
    outputs are marked experimental.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if step_table is None:
        raise UnconfiguredStepTable(
            "no step table supplied; pass one (e.g. ALL_COMBOS_STEP_TABLE)"
        )
    for value in range(6):
        if value not in step_table or len(step_table[value]) != 3:
            raise UnconfiguredStepTable(
                f"step table needs a triple for value {value_to_token(value)}"
            )

    rows = _default_base_rows()
    for _ in range(k - 1):
        grown = []
        for row in rows:
            for branch, new_value in enumerate(step_table[row[-1]]):
                col0 = 1 if (row[0] == 1 and branch != 1) else 4
                grown.append((col0,) + row[1:] + (new_value,))
        rows = grown

    return ResolutionTable(
        k + 2,
        rows,
        mask=Mask(1, 2**k - 1),
        experimental=True,
        hypothesis=hypothesis,
    )


# -- reflection -----------------------------------------------------------


def reflect(table: ResolutionTable) -> ResolutionTable:
    """Re-express the table for the mirrored mask: the column at offset
    x becomes the column at offset -x of the reflected mask.  The
    sub-table tag is kept, as substitution acts on each value alone."""
    if table.mask is None:
        raise ValueError("reflection needs a mask-tagged table")
    src = table.mask.column_offsets
    dst = table.mask.reflected.column_offsets
    perm = [src.index(-offset) for offset in dst]
    rows = (tuple(row[j] for j in perm) for row in table.rows)
    return ResolutionTable(
        table.N,
        rows,
        mask=table.mask.reflected,
        experimental=table.experimental,
        hypothesis=table.hypothesis,
        subtable=table.subtable,
    )


# -- extraction from runs --------------------------------------------------


# A pair's slot codes, node-major: per node v and slot k, the time of
# the C filling the slot mod 3, plus 3 when the complement run has it,
# or None when no single run does; with the pair's node count and its
# ``swapped`` flag (see ``extraction_run_pairs``).
PairCodes = tuple[list[Optional[int]], int, bool]


def extract_rows(mask: Mask, pair_codes: Iterable[PairCodes]) -> ResolutionTable:
    """EXPERIMENTAL: derive a table from the slot codes of verified run
    pairs, as ``extraction_run_pairs`` yields them.

    For every node v and slot k, the row holds, per mask column at
    offset o, the difference of the integral phases of node v+o and node
    v at slot k, mod 3, barred when the complement run fills the
    neighbor's slot.  A (v, k) with a needed slot not filled by exactly
    one run is skipped.  A ``swapped`` pair also stands for its swapped
    pair, whose rows, these with every bar flipped, are added too.

    No cell is visited in Python: the column at offset o is a pair's
    codes rotated by o nodes, and ``zip`` over the columns adds every
    (v, k) tuple to a set per ``swapped`` flag.  Only the distinct
    tuples, a few hundred per mask, become rows.
    """
    offsets = mask.column_offsets
    distinct: dict[bool, set] = {False: set(), True: set()}
    for codes, node_count, swapped in pair_codes:
        shifts = [offset % node_count * (len(codes) // node_count) for offset in offsets]
        distinct[bool(swapped)].update(zip(*(codes[s:] + codes[:s] for s in shifts)))
    rows = set()
    for flip, tuples in distinct.items():
        for t in tuples:
            if None in t:
                continue
            row = tuple((x - t[0]) % 3 + (3 if x >= 3 else 0) for x in t)
            rows.add(row)
            if flip:
                rows.add(tuple((value + 3) % 6 for value in row))
    return ResolutionTable(mask.point_count, rows, mask=mask, experimental=True,
                           hypothesis=EXTRACTION_HYPOTHESIS)


def slot_codes(filled: FilledRows) -> list[Optional[int]]:
    """A pair's slot codes (see ``PairCodes``) from its filled rows."""
    return [None if cell is None else cell[0] % 3 + 3 * cell[1]
            for row in filled for cell in row]


def extraction_run_pairs(mask: Mask, config: Config) -> Iterable[PairCodes]:
    """The slot codes (see ``PairCodes``) of every pair that passes the
    configured level, walking each size's start plan (``pair_starts``)
    through ``iter_pairs``, recording skeletons at both levels, and settling
    each pair as the search does (``ac23.settle_pair``).  The filled
    rows of a passing pair that is ``ipf.mirrored``, at either level,
    come from the run's skeleton text and the slot count (T + T-bar) //
    3 alone (``ipf.mirrored_filled``, once per distinct node skeleton
    and slot count of the walk); ``filled_rows`` reads any other passing
    pair's lanes.  Degenerate circle sizes, degenerate runs,
    unresolved runs and failing pairs are skipped (extraction wants
    evidence from clean runs only).  Exhaustive sizes yield one start
    per rotation orbit, and one pair per complement class (see
    ``pair_starts``): ``extract_rows`` reads every node, so a rotated
    start would only repeat the same rows, and the class's other
    necklace gives the pair swapped up to rotation, whose rows
    ``extract_rows`` adds: every exhaustive pair has ``swapped`` set.
    That adds nothing to a class of one necklace r: if ~r = rot_j(r),
    then r = rot_j(~r), so the swapped pair is the pair rotated by j
    nodes, and its rows, the pair's with every bar flipped, are the
    pair's own.  Sampled sizes yield every passing sample with
    ``swapped`` unset.  A walk that yields no pair raises
    UnverifiedRuns: a table needs evidence."""
    passed = 0
    node_codes: dict[tuple[str, int], list] = {}
    for L in range(config.lmin, config.lmax + 1):
        S = connection_set(mask, L)
        if degenerate_at(mask, L, S) or not mask_weak_computable(mask, L, S):
            continue
        g = build_graph(mask, L)
        pairs = iter_pairs(g, pair_starts(mask, L, config), config.max_steps, True)
        for _, _, lanes in pairs:
            if settle_pair(g, config, lanes) is not None:
                continue
            passed += 1
            (T, *_), (Tbar, *_), text, comp_text = lanes
            if mirrored(text, comp_text):
                # a mirrored pair's codes at a node follow from its
                # skeleton and the slot count K alone
                K = (T + Tbar) // 3
                codes = []
                for skeleton in text.split("2"):
                    if (skeleton, K) not in node_codes:
                        node_codes[skeleton, K] = slot_codes((mirrored_filled(skeleton, K),))
                    codes += node_codes[skeleton, K]
            else:
                codes = slot_codes(filled_rows(lanes))
            yield codes, L, L <= config.exhaustive_cutoff
    if not passed:
        raise UnverifiedRuns(
            f"mask {mask}: no pair passes the {config.check_level} check at "
            f"L={config.lmin}..{config.lmax} (time origin {config.time_origin})"
        )


# -- serialization ----------------------------------------------------------


def format_table(table: ResolutionTable) -> str:
    """Text form: a header line, then one row per line in canonical
    order.  Formatting is deterministic, so format/parse round-trips
    are byte-exact."""
    parts = [f"N={table.N}"]
    if table.mask is not None:
        parts.append(f"mask={table.mask.n},{table.mask.m}")
        parts.append(
            "columns=" + ",".join(str(o) for o in table.mask.column_offsets)
        )
    parts.append(f"subtable={table.subtable}")
    if table.experimental:
        parts.append("[EXPERIMENTAL]")
    if table.hypothesis:
        parts.append(f"hypothesis={table.hypothesis}")
    lines = [" ".join(parts)]
    for row in table.rows:
        lines.append(",".join(value_to_token(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> ResolutionTable:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RtParseError("empty table file")
    n = None
    mask = None
    experimental = False
    hypothesis = None
    subtable = "=0"
    for token in lines[0].split():
        if token.startswith("N="):
            n = int(token[2:])
        elif token.startswith("mask="):
            try:
                mask = parse_mask(token[5:])
            except ValueError as exc:
                raise RtParseError(f"bad mask tag: {exc}") from exc
        elif token.startswith("columns="):
            pass  # derived from the mask; accepted for readability
        elif token.startswith("subtable="):
            subtable = token[9:]
            if subtable not in SUBTABLE_TARGETS:
                raise RtParseError(f"unknown sub-table target {subtable!r}")
        elif token == "[EXPERIMENTAL]":
            experimental = True
        elif token.startswith("hypothesis="):
            hypothesis = token[11:]
        else:
            raise RtParseError(f"unknown header token {token!r}")
    if n is None:
        raise RtParseError("header misses N=<int>")
    rows = []
    for line in lines[1:]:
        rows.append(tuple(token_to_value(tok.strip()) for tok in line.split(",")))
    return ResolutionTable(
        n,
        rows,
        mask=mask,
        experimental=experimental,
        hypothesis=hypothesis,
        subtable=subtable,
    )


def save_table(table: ResolutionTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_table(table))


def load_table(path) -> ResolutionTable:
    with open(path, encoding="utf-8") as fh:
        return parse_table(fh.read())


SCOUNTS_CSV_COLUMNS = [
    "n", "m", "N", "C_R", "class", "kind",
    "s+0", "s+1", "s+2", "s-0", "s-1", "s-2",
    "s0+0", "s0+1", "s0+2", "s0-0", "s0-1", "s0-2",
]


def scounts_csv_row(table: ResolutionTable) -> list:
    sc = s_counts(table)
    n = table.mask.n if table.mask else ""
    m = table.mask.m if table.mask else ""
    return [n, m, table.N, table.row_count, classify(table), kind(table), *sc]
