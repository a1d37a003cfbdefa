"""Precise-filling invariant: skeletons, filled slots, and the
nine-statement check over a run and its complement run.

Every node's history over t = 1..T is condensed onto "slots": each A or
C event takes the next slot index k = 0, 1, 2, ...; a B never opens a
slot.  The node's *skeleton* is its history with the B's dropped, '1'
for C and '0' for A, so slot k is character k and the event count is
the skeleton's length; a run's *skeleton text* is its nodes' skeletons
in node order, joined by '2'.  With T and T-bar the periods of the two
runs, the nominal slot count is K = (T + T-bar) / 3; nodes whose event
count differs from K are flagged (slot overflow) rather than rejected,
because searches need failures as evidence.

Slot times follow from the skeleton.  Every C but one at T is followed
by a B, so a C at slot k sits at t_k = 1 + k + p_k (its integral
phase), p_k counting the C's before slot k.  Where exactly one run has
a C at a slot, that C fills it: ``filled_rows`` gives each node's row of
(t_k, from_complement) for the filling C, or None.

The pair of runs is read as the lanes record it (``PairLanes``): each
run's readout and skeleton text (see ``dynamics.step_lanes``).

The statements checked, over the pair of runs:

    div3  T + T-bar divisible by 3
    [1]   final states match (raw or complement-matched, configurable)
    [2]   lambda = -lambda-bar
    [3]   T-bar - T = lambda
    [4]   C_v(k) + Cbar_v(k) = 1         per node, slot
    [5]   A_v(k) + Abar_v(k) = 1
    [6]   Abar_v(k) = C_v(k)
    [7]   Cbar_v(k) = A_v(k)
    [8]   parity pattern of the combined integral phase

The "light" level is div3 + [1] + [2] + [3]; "full" adds [4]..[8].

The full level reads every slot.  [4]..[7] are evaluated cell by cell
on both runs' skeletons cut or padded to K slots, and [8] on the filled
rows, so every verdict, witness and count is the one the slots give.
[4]..[7] together hold exactly when, at every node, both runs have at
least K events and the complement's first K are the run's with A and C
swapped.  Take a pair whose whole skeletons match that way.  A node
with n events, c of them C's, has T = n + c - f and T-bar = 2n - c -
f-bar, f (f-bar) being 1 when its history ends on a C.  So 3K = 3n - f
- f-bar forces n = K and f = f-bar = 0 at every node, and c = T - K is
the same at every node.  The complement's C at slot k comes after its
k - p_k C's, at 1 + 2k - p_k, so the phase parity at slot k is
(1 + k + p_k - origin) mod 2 where the run has the C and (1 + p_k -
origin) mod 2 where the complement has it.  Hence F(0) is odd at time
origin 0 and even at 1; F(2k-1) and F(2k) always share parity (p grows
by the C at the odd slot 2k-1); and for even K the last slot's parity,
that of 1 + T - K - origin, is the same at every node.  Such a pair
holds [4]..[8] at time origin 1 and fails only [8] at origin 0, which
one string comparison of the skeleton texts settles (``mirrored``).
The search (``ac23.settle_pair``) and ``rt`` extraction make that
comparison on the texts the lanes record, before any run or report
exists, and ``rt`` reads a mirrored pair's filled slots off the run's
skeletons alone (``mirrored_filled``).  ``check_ipf`` never takes the
shortcut, so its report checks the theorem rather than repeating it.
Filled rows are built by ``filled_rows`` for [8] and for ``rt``
extraction, and never reach the report JSON.  Condition failures are
reported as data with witnesses, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .dynamics import LaneReadout, unpack
from .errors import DegenerateRun

CHECK_LEVELS = ("light", "full")
COND1_INTERPRETATIONS = ("raw", "complemented")

# Slot-condition witnesses kept per condition; totals are reported too.
_WITNESS_CAP = 8

# Per slot of a node: (time, from_complement) of the filling C event, or None.
FilledRow = tuple[Optional[tuple[int, bool]], ...]
FilledRows = tuple[FilledRow, ...]

# A run pair as the lanes give it: (readout, complement readout, skeleton
# text, complement skeleton text), the texts None unless recorded (see
# ``dynamics.step_lanes``).  The full level and ``filled_rows`` read the
# texts.
PairLanes = tuple[LaneReadout, LaneReadout, Optional[str], Optional[str]]


# Swaps A ('0') and C ('1') in a skeleton.
_SWAP_AC = str.maketrans("01", "10")


def _refuse_degenerate(pair: PairLanes) -> None:
    T, Tbar = pair[0][0], pair[1][0]
    if T <= 2 or Tbar <= 2:
        raise DegenerateRun(f"periods {T}, {Tbar}: no mirror trajectory")


def mirrored(text: str, comp_text: str) -> bool:
    """Whether a pair is *mirrored*: its complement's skeleton text
    ``comp_text`` is the run's ``text`` with A and C swapped.  Such a
    pair passes [4]..[7], and [8] at time origin 1 only, whenever it
    passes div3 (module docstring)."""
    return comp_text == text.translate(_SWAP_AC)


def _padded(skeleton: str, slot_count: int) -> str:
    """A skeleton cut or padded to ``slot_count`` slots; '-' marks a
    slot past the node's last event."""
    return skeleton[:slot_count].ljust(slot_count, "-")


def filled_rows(pair: PairLanes, slot_count: Optional[int] = None) -> FilledRows:
    """The C event that fills each slot, per node, of a recorded pair:
    (time, from_complement) when exactly one of the two runs has a C at
    the slot, None otherwise.  Walks both runs' skeletons cut or padded
    to ``slot_count`` slots: a C at slot k is at 1 + k + (the C's before
    it in its own run).

    ``slot_count`` defaults to (T + T-bar) // 3, the value the
    invariant predicts; every row has that many slots.
    """
    _refuse_degenerate(pair)
    (T, *_), (Tbar, *_), text, comp_text = pair
    if slot_count is None:
        slot_count = (T + Tbar) // 3
    rows = []
    for skeleton, comp in zip(text.split("2"), comp_text.split("2")):
        row = []
        p = pbar = 0
        for k, (e, ebar) in enumerate(
            zip(_padded(skeleton, slot_count), _padded(comp, slot_count))
        ):
            c, cbar = e == "1", ebar == "1"
            row.append(None if c == cbar
                       else (1 + k + p, False) if c else (1 + k + pbar, True))
            p += c
            pbar += cbar
        rows.append(tuple(row))
    return tuple(rows)


def mirrored_filled(skeleton: str, slot_count: int) -> FilledRow:
    """One node's filled-slot row (see ``filled_rows``) in a mirrored
    pair (see ``mirrored``), from the run's skeleton alone: the run's C
    at slot k is at 1 + k + p_k; else the complement has the C, after
    its k - p_k C's, at 1 + 2k - p_k."""
    row = []
    p = 0
    for k, event in enumerate(skeleton[:slot_count]):
        if event == "1":
            row.append((1 + k + p, False))
            p += 1
        else:
            row.append((1 + 2 * k - p, True))
    return tuple(row) + (None,) * (slot_count - len(row))


LIGHT_CONDITIONS = ("div3", "c1", "c2", "c3")


def light_check(
    lane: LaneReadout, comp_lane: LaneReadout, node_count: int, cond1_interpretation: str
) -> tuple[bool, bool, dict]:
    """div3 and [1]..[3] on a run pair, from each run's (period, final C
    bits, final B bits, lambda) (see ``dynamics.step_lanes``).

    Returns (c1 raw, c1 complemented, failed): ``failed`` maps each
    light statement that fails, in the order of ``LIGHT_CONDITIONS``
    and with [1] in the given reading, to its witness detail.  An
    undefined lambda fails [2] and [3] and is reported once, under [2]:
    [3] then maps to None.  A pair passes the light level exactly when
    ``failed`` is empty.

    The predicate has one whole-integer twin,
    ``dynamics._same_step_passed``, for pairs whose runs end on the same
    step (T = T-bar): with it the light search settles such pairs inside
    the lane walk, and only the other pairs come here.
    """
    T, g_c, g_b, lam = lane
    Tbar, h_c, h_b, lam_bar = comp_lane
    c1_raw = g_c == h_c and g_b == h_b
    # the complement swaps A and B: its B bits are the A bits of H
    c1_complemented = g_c == h_c and g_b == ((1 << node_count) - 1) & ~(h_c | h_b)
    failed = {}
    if (T + Tbar) % 3:
        failed["div3"] = f"T+Tbar={T + Tbar} not divisible by 3"
    if not (c1_complemented if cond1_interpretation == "complemented" else c1_raw):
        failed["c1"] = (f"G_T={unpack(node_count, g_c, g_b)} "
                        f"H_Tbar={unpack(node_count, h_c, h_b)} "
                        f"({cond1_interpretation} reading)")
    if lam is None or lam_bar is None:
        failed["c2"] = "per-node A-surplus is not uniform across nodes"
        failed["c3"] = None
    else:
        if lam != -lam_bar:
            failed["c2"] = f"lambda={lam} lambdaBar={lam_bar}"
        if Tbar - T != lam:
            failed["c3"] = f"Tbar-T={Tbar - T} lambda={lam}"
    return c1_raw, c1_complemented, failed


@dataclass
class IpfReport:
    """Outcome of the invariant check on a run/complement pair.

    Scalar facts, the individual condition verdicts, and witnesses for
    every failed condition.  ``light_ok`` covers div3 + [1]..[3];
    ``full_ok`` adds [4]..[8].  Conditions that were not evaluated (at
    light level, or when K is undefined) are None.
    """

    T: int
    Tbar: int
    lambda_value: Optional[int]
    lambda_bar: Optional[int]
    K: Optional[int]
    div3: bool
    c1: bool
    c2: bool
    c3: bool
    c4: Optional[bool]
    c5: Optional[bool]
    c6: Optional[bool]
    c7: Optional[bool]
    c8: Optional[bool]
    light_ok: bool
    full_ok: Optional[bool]
    c1_raw: bool
    c1_complemented: bool
    c8_origin0: Optional[bool]
    c8_origin1: Optional[bool]
    cond1_interpretation: str
    time_origin: int
    level: str
    witnesses: list = field(default_factory=list)
    failure_counts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether the pair holds the invariant at the checked level."""
        return bool(self.light_ok if self.level == "light" else self.full_ok)

    @property
    def first_failed_condition(self) -> Optional[str]:
        for name in ("div3", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"):
            if getattr(self, name) is False:
                return name
        return None

    def to_json_dict(self) -> dict:
        return {
            _JSON_NAMES.get(f.name, _camel_case(f.name)): getattr(self, f.name)
            for f in fields(self)
        }


_JSON_NAMES = {
    "lambda_value": "lambda",
    "lambda_bar": "lambdaBar",
    "light_ok": "light",
    "full_ok": "full",
}


def _camel_case(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


def _check_phase_pattern(
    filled: FilledRows, slot_count: int, time_origin: int
) -> tuple[bool, list, bool]:
    """The parity pattern: F(0) even; F(2k-1) and F(2k) share parity;
    for even K the last slot's parity agrees across nodes.

    F_v(k) is the time parity counted from ``time_origin``, plus 2 when
    the complement run fills the slot; -1 when no run does.  Returns
    (failure count, the first witnesses, ok at the other origin).
    Moving the origin flips every parity, which turns only the F(0) test
    over: the other origin holds exactly when the only failures here are
    odd F(0)s, one per node.
    """
    failures = odd_starts = 0
    witnesses = []

    def note(node, slot, detail):
        nonlocal failures
        failures += 1
        if len(witnesses) < _WITNESS_CAP:
            witnesses.append(
                {"condition": "c8", "node": node, "slot": slot, "detail": detail}
            )

    phases = [
        [-1 if e is None else (2 if e[1] else 0) + (e[0] - time_origin) % 2 for e in row]
        for row in filled
    ]
    for v, row in enumerate(phases):
        if row[0] == -1:
            note(v, 0, "phase undefined")
        elif row[0] % 2 != 0:
            odd_starts += 1
            note(v, 0, f"F(0)={row[0]} is odd")
        for k in range(1, (slot_count + 1) // 2):
            lo, hi = row[2 * k - 1], row[2 * k]
            if lo == -1 or hi == -1:
                note(v, 2 * k - 1, "phase undefined")
            elif lo % 2 != hi % 2:
                note(v, 2 * k - 1, f"F({2*k-1})={lo} vs F({2*k})={hi}")
    if slot_count % 2 == 0 and slot_count > 0:
        last = [row[slot_count - 1] for row in phases]
        if any(x == -1 for x in last):
            note(last.index(-1), slot_count - 1, "phase undefined")
        elif len({x % 2 for x in last}) > 1:
            note(0, slot_count - 1, f"last-slot parities differ: {last}")
    return failures, witnesses, failures == odd_starts == len(phases)


def _slot_conditions(
    pair: PairLanes, K: int, time_origin: int, witnesses: list, failure_counts: dict,
) -> tuple:
    """Slot overflow and [4]..[8] cell by cell on the skeletons of a
    recorded pair, adding each failure's witnesses and count: (c4, c5,
    c6, c7, c8, c8 at origin 0, c8 at origin 1)."""
    skeletons, comp_skeletons = pair[2].split("2"), pair[3].split("2")
    for run_skeletons, tag in ((skeletons, "run"), (comp_skeletons, "complement run")):
        for v, skeleton in enumerate(run_skeletons):
            if len(skeleton) != K:
                witnesses.append(
                    {
                        "condition": "slots",
                        "node": v,
                        "detail": f"{tag}: {len(skeleton)} events for {K} slots",
                    }
                )
                failure_counts["slots"] = failure_counts.get("slots", 0) + 1

    cells = [
        (v, k, e, ebar)
        for v, (skeleton, comp) in enumerate(zip(skeletons, comp_skeletons))
        for k, (e, ebar) in enumerate(zip(_padded(skeleton, K), _padded(comp, K)))
    ]
    # Failing (node, slot) cells per condition; '1' is C, '0' is A.
    failures = {
        "c4": [(v, k) for v, k, e, ebar in cells if (e == "1") == (ebar == "1")],
        "c5": [(v, k) for v, k, e, ebar in cells if (e == "0") == (ebar == "0")],
        "c6": [(v, k) for v, k, e, ebar in cells if (ebar == "0") != (e == "1")],
        "c7": [(v, k) for v, k, e, ebar in cells if (ebar == "1") != (e == "0")],
    }
    for name, failed in failures.items():
        if failed:
            failure_counts[name] = len(failed)
            witnesses.extend(
                {"condition": name, "node": v, "slot": k}
                for v, k in failed[:_WITNESS_CAP]
            )

    c8_failures, c8_witnesses, c8_other = _check_phase_pattern(
        filled_rows(pair, K), K, time_origin
    )
    c8 = c8_failures == 0
    if not c8:
        witnesses.extend(c8_witnesses)
        failure_counts["c8"] = c8_failures
    origins = (c8_other, c8) if time_origin else (c8, c8_other)
    return (*(not failed for failed in failures.values()), c8, *origins)


def check_ipf(
    pair: PairLanes,
    node_count: int,
    level: str = "full",
    cond1_interpretation: str = "complemented",
    time_origin: int = 1,
) -> IpfReport:
    """Evaluate the invariant on a run pair of a graph with
    ``node_count`` nodes.  The full level reads every slot of the pair's
    skeleton texts, which must be recorded, when K is defined: a
    mirrored pair (see ``mirrored``) is checked like any other.

    Degenerate runs (period <= 2) cannot be checked and raise
    DegenerateRun; everything else comes back as a report, including
    failures.
    """
    if level not in CHECK_LEVELS:
        raise ValueError(f"unknown check level {level!r}")
    if cond1_interpretation not in COND1_INTERPRETATIONS:
        raise ValueError(f"unknown interpretation {cond1_interpretation!r}")
    if time_origin not in (0, 1):
        raise ValueError("time_origin must be 0 or 1")
    _refuse_degenerate(pair)

    readout, comp_readout = pair[:2]
    T, lam = readout[0], readout[3]
    Tbar, lam_bar = comp_readout[0], comp_readout[3]
    witnesses: list = []
    failure_counts: dict = {}

    c1_raw, c1_complemented, failed = light_check(
        readout, comp_readout, node_count, cond1_interpretation)
    div3, c1, c2, c3 = (name not in failed for name in LIGHT_CONDITIONS)
    K = (T + Tbar) // 3 if div3 else None
    for name, detail in failed.items():
        if detail is not None:
            witnesses.append({"condition": name, "detail": detail})
            failure_counts[name] = 1
    light_ok = not failed

    c4 = c5 = c6 = c7 = c8 = None
    c8_origin0 = c8_origin1 = None
    full_ok: Optional[bool] = None

    if level == "full":
        if K is None:
            full_ok = False
            witnesses.append(
                {
                    "condition": "c4",
                    "detail": "slot conditions skipped: K undefined without div3",
                }
            )
        else:
            c4, c5, c6, c7, c8, c8_origin0, c8_origin1 = _slot_conditions(
                pair, K, time_origin, witnesses, failure_counts)
            full_ok = light_ok and all((c4, c5, c6, c7, c8))

    return IpfReport(
        T=T,
        Tbar=Tbar,
        lambda_value=lam,
        lambda_bar=lam_bar,
        K=K,
        div3=div3,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        c5=c5,
        c6=c6,
        c7=c7,
        c8=c8,
        light_ok=light_ok,
        full_ok=full_ok,
        c1_raw=c1_raw,
        c1_complemented=c1_complemented,
        c8_origin0=c8_origin0,
        c8_origin1=c8_origin1,
        cond1_interpretation=cond1_interpretation,
        time_origin=time_origin,
        level=level,
        witnesses=witnesses,
        failure_counts=failure_counts,
    )
