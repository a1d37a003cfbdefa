"""Synchronous recoloring dynamics and mirror trajectories.

Every node is recolored simultaneously from the previous state.  The
choice between the two recoloring rules at a node is the P-condition:
whether any of its out-neighbors is colored C.

    rule I  (P false):  A->A, B->C, C->B
    rule II (P true):   A->C, B->A, C->B

The dynamics is reversible (``predecessor``).  A trajectory starts from
a two-color {A,B} state.  The first step turns it into an {A,C} state
(rule I applies everywhere), time t = 1.  The walk continues until the
state whose successor equals its own transliteration; that time is the
period T and the successor is the mirror state.  Both rules send C to
B, so the successor keeps new-B = old-C, and the mirror test reduces to
"new C bits == old B bits".

States are packed as a pair of ints ``(c_bits, b_bits)``: bit v of
``c_bits`` is set iff node v is colored C, likewise for B; A is the
remainder.  No node is both, so the new C bits are b ^ d, d = P and not
C (``_rule``), and the mirror test is d == 0.  Per-node C counts build
up in ripple-carry counter planes, so lambda needs no second pass.  B
at t is C at t - 1, so c | b is C at t plus C at t - 1: the planes take
it on odd steps only (B is empty at t = 1).  After an even step t they
lack C at t, unseen by readouts and the bulk settle: a final C on some
nodes makes lambda undefined and fails the settle anyway, and only the
all-B start, orbit (0, all), (all, 0), ends with C everywhere, at t = 1.

P has one formula on every graph.  With M_d the offset mask of d
(``MixedGraph.offset_masks``: bit v set iff v + d mod n is an
out-neighbor of v), P is the OR over the offsets d in use of C rotated
down by d, masked to M_d.  A circulant graph has every M_d full.

``step_lanes`` is the one stepper.  It walks many starts at once
(multi-spin coding: Jacobs & Rebbi, J. Comput. Phys. 41, 1981), handed
to it as one packed batch: lane j, bits j*L .. j*L+L-1 of one Python
int, holds start j's B bits, node v at bit j*L+v (``_pack_lanes`` packs
a list, ``pack_pairs`` a list of starts each beside its complement).
The rotation within each lane is two shifts: C at v + d reaches
node v by a shift down by d when v + d < L, and by a shift up by L - d
when it wraps, each masked to the copies of M_d on those nodes.  The
rule and the counter planes act bit by bit and need no lane logic.  A
lane reached its mirror when its lane of d is zero.  With H the top bit
of every lane and LOW the other bits,
``(((d & LOW) + LOW) | d) & H`` sets the top bit of exactly the nonzero
lanes (the SWAR zero-lane test; Warren, Hacker's Delight, 2nd ed.,
section 6-1): adding LOW carries into the top bit from any set low bit
and never past it.  A finished lane leaves the ``active`` mask and is
read out at that step (``_finish``); its bits keep stepping unread.
Periods are long-tailed, so a walk narrows its int once three quarters
of the lanes have finished: each pair of lanes 2i and 2i + 1 with a lane
still running is repacked (``_repack``), ``active`` bits and all, which
keeps pairs aligned.  A repack costs as much as thousands of lane bits
stepped once, so at that point the walk fixes the step at which the
repack will have paid for itself, ``_REPACK_BIT_STEPS`` bit-steps of the
lanes it drops, and repacks only then.  A walk whose lanes all finish
before then, as short walks do, ends with no repack.

A finished lane yields one readout, what the light check needs:
(period, final C bits, final B bits, lambda) as plain ints.  Lambda is
read at once for all the lanes that finish on a step: in the final C
bits and each counter plane every node's bit is compared with the next
node's, one zero-lane test finds the lanes where any differs, whose
lambda is undefined, and node 0's bits are N_C.

The light search walks a run in lane 2i beside its complement in lane
2i + 1 and passes its cond1 reading.  Where both lanes of a pair finish
on the same step t, the light check is a few zero-lane tests over
double-width pair lanes (``_same_step_passed``, the whole-integer twin
of ``ipf.light_check``): 3 | t, both final C lanes empty, every node's
C count t / 3 in both lanes, and [1] on the two final B lanes.  A pair
that passes is ``PASSED`` and never read out; every other pair is read
out as without a reading.  Such pairs are common because the dynamics
is reversible: a pair whose complement run is its run reversed reaches
both mirror states on the same step.

On a circulant graph, rotating a start rotates its run: its period and
lambda stay, and its final state and skeletons rotate.  So one run
stands for every rotation of its start.

A recording batch (``step_lanes(..., record=True)``) also returns each
finished lane's skeleton text, the per-node histories with the B's
dropped that the full invariant check, rt extraction and the color
counts read.  It keeps each step's C bits, and at each repack, at the
end of the walk, or once they hold ``_RECORD_BITS`` bits, formats them
as binary strings and cuts every lane's node columns out with strided
slices; a column with the B after each C dropped is a skeleton.  The
recorder is the one producer of skeletons: no run is walked again for
them.

``step_lanes`` returns the readouts and texts, which ``ipf`` reads as
they are.  ``run_lanes`` records and wraps each lane in a RunRecord,
the single-run view that traces and the public API show;
``run_to_mirror`` runs one start as one lane.  A RunRecord knows its
start and its exact period, so the first read of its states re-walks
that many steps in one lane and keeps them.
"""

from __future__ import annotations

import csv
from itertools import islice
from typing import Iterator, Optional, Sequence

from .errors import MaxStepsExceeded
from .graph import MixedGraph, transliterate, validate_coloring

DEFAULT_MAX_STEPS = 10**6


# -- packing -----------------------------------------------------------


def pack(coloring: str) -> tuple[int, int]:
    """String over ABC -> (c_bits, b_bits)."""
    c_bits = 0
    b_bits = 0
    for v, ch in enumerate(coloring):
        if ch == "C":
            c_bits |= 1 << v
        elif ch == "B":
            b_bits |= 1 << v
    return c_bits, b_bits


def unpack(node_count: int, c_bits: int, b_bits: int) -> str:
    out = []
    for v in range(node_count):
        bit = 1 << v
        if c_bits & bit:
            out.append("C")
        elif b_bits & bit:
            out.append("B")
        else:
            out.append("A")
    return "".join(out)


def rotate(bits: int, k: int, width: int) -> int:
    """Rotate a ``width``-bit pattern up by k: bit v moves to bit v + k
    mod width."""
    return (bits << k | bits >> (width - k)) & ((1 << width) - 1)


# What the light check reads of a run: (period, final C bits, final B
# bits, lambda or None).
LaneReadout = tuple[int, int, int, Optional[int]]


# -- public single-step operations ------------------------------------


def step(g: MixedGraph, coloring: str) -> str:
    """Apply one synchronous recoloring step."""
    validate_coloring(coloring, g.node_count)
    return unpack(g.node_count, *next(_walk(g, *pack(coloring))))


def predecessor(g: MixedGraph, coloring: str) -> str:
    """The unique state whose step yields ``coloring``.

    Reversibility: transliterate, step forward once, transliterate again.
    """
    return transliterate(step(g, transliterate(coloring)))


# -- trajectories ------------------------------------------------------


class RunRecord:
    """A forward trajectory from a two-color start to its mirror state:
    one recorded lane of ``run_lanes``, the single-run view for traces
    and the public API.

    It wraps the lane's ``readout``: the period, the final packed state
    ``final`` and ``lambda_value`` (the common per-node A-surplus, None
    if nodes disagree), and the lane's skeleton text.  It keeps no
    counter planes, and re-walks its known period on the first read of
    its states.  A trajectory has no B at t = 1, and B at t exactly
    where C was at t - 1.  The {A,B} start state itself sits before
    t = 1; ``start_b`` holds its B bits.  A run with T <= 2 is
    degenerate (no proper mirror state; the uniform all-A and all-B
    starts are the standard cases) and is flagged as such.
    """

    def __init__(self, graph: MixedGraph, start_b: int, readout: LaneReadout,
                 skeleton_text: str):
        self.graph = graph
        self.start_b = start_b
        self.readout = readout
        self.period, final_c, final_b, self.lambda_value = readout
        self.final = final_c, final_b
        self.degenerate = self.period <= 2
        self._states: Optional[list[str]] = None
        self._skeleton_text = skeleton_text

    @property
    def start_ab(self) -> str:
        return unpack(self.graph.node_count, 0, self.start_b)

    # -- materialized views -------------------------------------------

    @property
    def skeleton_text(self) -> str:
        """Per node, its history over t = 1..T with the B's dropped: '1'
        for C, '0' for A; the nodes' skeletons in node order, joined by
        '2'.  Every C but one at T is followed by a B, so the k-th
        character of a skeleton (slot k) is at time 1 + k + (the number
        of '1's before it).  Recorded by the lane (see ``step_lanes``)."""
        return self._skeleton_text

    @property
    def skeletons(self) -> tuple[str, ...]:
        """The skeleton of each node (see ``skeleton_text``)."""
        return tuple(self.skeleton_text.split("2"))

    @property
    def states(self) -> list[str]:
        """Colorings at t = 1..T, re-walked on the first read."""
        if self._states is None:
            n = self.graph.node_count
            walk = islice(_walk(self.graph, 0, self.start_b), self.period)
            self._states = [unpack(n, c, b) for c, b in walk]
        return self._states

    @property
    def final_state(self) -> str:
        return unpack(self.graph.node_count, *self.final)

    @property
    def mirror_state(self) -> str:
        """The state after t = T, equal to the transliteration of G_T."""
        return transliterate(self.final_state)

    @property
    def color_counts(self) -> tuple[tuple[int, int, int], ...]:
        """Per node, (N_A, N_B, N_C) over t = 1..T.  N_C counts the '1's
        of the node's skeleton; B at t is C at t - 1, so N_B = N_C - [C
        at T]."""
        counts = []
        for v, skeleton in enumerate(self.skeletons):
            n_c = skeleton.count("1")
            n_b = n_c - (self.final[0] >> v & 1)
            counts.append((self.period - n_b - n_c, n_b, n_c))
        return tuple(counts)

    @property
    def lambda_per_node(self) -> tuple[int, ...]:
        """Per node, N_A - N_C.  When B and C counts agree (they do on
        weak-computable graphs) this is the A-surplus parameter."""
        return tuple(n_a - n_c for n_a, _, n_c in self.color_counts)

    # -- export --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "start": self.start_ab,
            "T": self.period,
            "degenerate": self.degenerate,
            "states": self.states,
            "mirror": self.mirror_state,
            "lambda_per_node": list(self.lambda_per_node),
            "lambda": self.lambda_value,
        }

    def write_trace_csv(self, fh) -> None:
        """One row per time step t = 1..T: t, coloring.  The start and
        mirror states live in the JSON record."""
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "coloring"])
        for t, state in enumerate(self.states, 1):
            writer.writerow([t, state])


def start_bits(g: MixedGraph, start_ab: str) -> int:
    """The B bits of a two-color {A,B} start, checked."""
    validate_coloring(start_ab, g.node_count)
    if "C" in start_ab:
        raise ValueError(f"start state {start_ab!r} must use colors A and B only")
    return pack(start_ab)[1]


def run_to_mirror(
    g: MixedGraph, start_ab: str, max_steps: int = DEFAULT_MAX_STEPS
) -> RunRecord:
    """Walk from a two-color {A,B} start until the mirror state: one lane
    of ``run_lanes``.

    Raises MaxStepsExceeded when the bound is hit (the mirror always
    exists on a finite graph, so the bound was too small).
    """
    [run] = run_lanes(g, [start_bits(g, start_ab)], max_steps)
    if run is None:
        raise MaxStepsExceeded(max_steps, start_ab)
    return run


def _lane_masks(g: MixedGraph, lanes: int):
    """Masks over ``lanes`` lanes of ``g.node_count`` bits: (the top bit
    of every lane, the other bits, rotations), where rotations holds per
    pair (d, M_d) of ``g.offset_masks`` (d, node_count - d, the lane
    bits of M_d at nodes v < node_count - d, which read C at v + d by a
    shift down by d, the other lane bits of M_d, which read it at
    v + d - node_count by a shift up by node_count - d).  The rule as
    d = P and not C (``_rule``) needs no mask of all bits."""
    width = g.node_count
    lane = (1 << width) - 1
    rep = ((1 << lanes * width) - 1) // lane  # bit 0 of every lane
    rotations = []
    for d, mask in g.offset_masks:
        down = mask & ((1 << (width - d)) - 1)
        rotations.append((d, width - d, rep * down, rep * (mask ^ down)))
    return rep << (width - 1), rep * (lane >> 1), rotations


def _rule(c: int, b: int, rotations) -> int:
    """The C bits after the packed state (c, b), P formed from
    ``_lane_masks``' rotations; the B bits after it are c.  No node is
    both C and B: C turns to B, B to C off P and A to C on P, so the new
    C is b ^ d, d = P and not C.  ``step_lanes`` inlines it."""
    p = 0
    for down, up, down_mask, up_mask in rotations:
        p |= (c >> down) & down_mask | (c << up) & up_mask
    return b ^ p & ~c


def _walk(g: MixedGraph, c: int, b: int) -> Iterator[tuple[int, int]]:
    """The packed states after (c, b), one after another, in one lane."""
    _, _, rotations = _lane_masks(g, 1)
    while True:
        c, b = _rule(c, b, rotations), c
        yield c, b


def run_lanes(
    g: MixedGraph, starts: list[int], max_steps: int = DEFAULT_MAX_STEPS
) -> list[Optional[RunRecord]]:
    """A recording ``step_lanes`` batch with each lane wrapped: one
    RunRecord per start, in order, or None for a start whose run is
    unresolved after ``max_steps`` steps."""
    readouts, texts = step_lanes(g, _pack_lanes(starts, g.node_count), len(starts), max_steps,
                                 record=True)
    return [None if readout is None else RunRecord(g, bits, readout, text)
            for bits, readout, text in zip(starts, readouts, texts)]


def step_lanes(
    g: MixedGraph,
    packed: int,
    lanes: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    record: bool = False,
    cond1: Optional[str] = None,
) -> tuple[list, list[Optional[str]]]:
    """The one lane stepper: walk the ``lanes`` {A,B} starts of the
    packed batch ``packed`` (lane j holds start j's B bits, which are its
    C bits at t = 1) to their mirror states at once.  Returns, in lane
    order, each lane's readout (None for a lane still running after
    ``max_steps`` steps) and, when ``record`` is set, each finished
    lane's skeleton text (see ``RunRecord.skeleton_text``), else None
    each.  The stepping loop holds only the step: ``_finish`` reads out
    the lanes that finish on a step, lambda in bulk, and ``_repack``
    narrows the walk on the schedule of the module docstring.

    With a ``cond1`` reading ("raw" or "complemented"), the starts come
    in pairs, a run in lane 2i and its complement in lane 2i + 1, and a
    pair whose two lanes finish on the same step and pass the light
    check (``ipf.light_check``) in that reading is settled in bulk
    (``_same_step_passed``): both its readouts are ``PASSED``.  Every
    other pair is read out as without it."""
    width = g.node_count
    # with cond1 a lane is PASSED unless it is read out or left unresolved
    readouts: list = [None if cond1 is None else PASSED] * lanes
    texts: list = [None] * lanes
    ids = list(range(lanes))  # lane position -> start index
    c, b = packed, 0  # t = 1: each start's B turned to C
    active = -1  # every lane, cut to the lane top bits below
    planes: list[int] = []
    columns: dict[int, list[str]] = {}  # start index -> its C columns so far
    t, live = 1, lanes
    while ids and t <= max_steps:
        top, low, rotations = _lane_masks(g, len(ids))
        active &= top
        pairs = None if cond1 is None else _pair_masks(len(ids), width, cond1)
        stop = max_steps + 1  # the segment ends before this step
        due = None  # the step to repack at, set once most lanes have finished
        steps: list[int] = []  # the C bits of each step since the last flush
        finished: list[tuple[int, int]] = []  # (lane position, steps) of done lanes
        room = max(1, _RECORD_BITS // (len(ids) * width))
        while t < stop:
            if record:
                if len(steps) >= room:
                    _flush(steps, width, ids, active, finished, columns, texts)
                    steps, finished = [], []
                steps.append(c)
            if t & 1:  # add C at t and t - 1, c | b, into the counter planes
                carry = c | b
                for k, plane in enumerate(planes):
                    planes[k] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    planes.append(carry)
            p = 0  # P, as in _rule
            for down, up, down_mask, up_mask in rotations:
                p |= (c >> down) & down_mask | (c << up) & up_mask
            d = p & ~c  # the new C XOR b
            # a lane's top bit is set iff its d is nonzero; active holds top bits only
            done = active & ~((d & low) + low | d)
            if done:
                active ^= done
                _finish(t, done, c, b, planes, width, top, low, pairs, ids, readouts,
                        finished, len(steps))
                live = active.bit_count()
                if not live:
                    stop = t + 1
                elif due is None and 4 * live <= len(ids):  # drops >= len(ids) - 2 * live lanes
                    due = t + 1 + _REPACK_BIT_STEPS // ((len(ids) - 2 * live) * width)
                    stop = min(stop, due)
            c, b = b ^ d, c
            t += 1
        if record:
            _flush(steps, width, ids, active, finished, columns, texts)
        if not live or t > max_steps:
            break
        ids, active, c, b, *planes = _repack(ids, active, width, c, b, *planes)
    if cond1 is not None and live:
        for j in _active_lanes(active, len(ids), width):
            readouts[ids[j]] = None
    return readouts, texts


# The readout ``step_lanes`` gives both lanes of a pair it settles in bulk.
PASSED = "passed"


def _finish(t: int, done: int, c: int, b: int, planes: list[int], width: int, top: int,
            low: int, pairs: Optional[tuple], ids: list[int], readouts: list,
            finished: list, recorded: int) -> None:
    """Read out the lanes with their top bit set in ``done``, which
    reached their mirror states at step ``t`` in the packed state (c, b)
    with C counter planes ``planes``, into ``readouts`` at their start
    indices (``ids``), noting each as (position, ``recorded``) in
    ``finished`` for the recorder.  With ``pairs`` (``_pair_masks``), a
    pair that passes in bulk (``_same_step_passed``) keeps ``PASSED``.

    Lambda = T - 3 N_C + [C at T] per node is uniform exactly when the
    final C bits and every counter plane are each empty or full in the
    lane, as a partial final C would need 3 N_C(v) - 1 = 3 N_C(w).  The
    planes may lack C at an even t, unseen here (see the module docstring)."""
    if pairs is not None and t % 3 == 0:
        passed = _same_step_passed(t, done, c, b, planes, width, pairs)
        done ^= passed | passed >> width
        if not done:
            return
    lane = (1 << width) - 1
    ones = done >> (width - 1)  # bit 0 of every finished lane
    uneven = c ^ c >> 1
    counts = []  # N_C, width planes per int
    for i in range(0, len(planes), width):
        word = 0
        for k, plane in enumerate(planes[i:i + width]):
            uneven |= plane ^ plane >> 1
            word |= (plane & ones) << k
        counts.append(word)
    uneven &= ones * ((1 << width - 1) - 1)  # each node but the last, in each lane
    uneven = ((uneven & low) + low | uneven) & top
    while done:  # read out the highest finished lane
        shift = done.bit_length() - width
        done ^= 1 << (shift + width - 1)
        final_c = c >> shift & lane
        n_c = 0
        for i, count in enumerate(counts):
            n_c |= (count >> shift & lane) << i * width
        readouts[ids[shift // width]] = (t, final_c, b >> shift & lane,
                                         None if uneven >> shift & lane
                                         else t - 3 * n_c + (final_c & 1))
        finished.append((shift // width, recorded))


def _pair_masks(lanes: int, width: int, cond1: str) -> tuple[int, int, int, int, int]:
    """Masks over ``lanes`` lanes (an even count) of ``width`` bits, read
    as pair lanes of twice the width: (all bits of a pair lane, the top
    bit of every pair lane, the other bits, the run lanes, what the
    run's final B lane XOR the complement's equals under [1] in the
    ``cond1`` reading: all ones when "complemented", zero when "raw")."""
    pair = (1 << 2 * width) - 1
    rep = ((1 << lanes * width) - 1) // pair  # bit 0 of every pair lane
    top = rep << (2 * width - 1)
    runs = rep * ((1 << width) - 1)
    return pair, top, rep * pair ^ top, runs, runs if cond1 == "complemented" else 0


def _same_step_passed(t: int, done: int, c: int, b: int, planes: list[int], width: int,
                      pairs: tuple[int, int, int, int, int]) -> int:
    """The pairs, as the top bits of their complement lanes, of which
    both lanes are in ``done``, finished at step ``t`` in the packed
    state (c, b) with C counter planes ``planes``, and pass the light
    check: the whole-integer twin of ``ipf.light_check`` for T = T-bar
    = t, ``pairs`` being ``_pair_masks``.

    div3 needs 3 | 2t, so 3 | t, which the caller tests.  [2] and [3]
    need lambda = lambda-bar = 0: a final C in either lane would need
    3 | t + 1, so both final C lanes are empty and every node's C count
    is K = t / 3 in both lanes.  [1] then reads the run's final B lane
    XOR the complement's.  A pair passes when its pair lane is zero in
    all that breaks these, which one zero-lane test finds.
    """
    pair, top, low, runs, flip = pairs
    both = done & done << width & top
    K = t // 3
    if not both or K >> len(planes):  # no node has counted K C's yet
        return 0
    spread = (both >> (2 * width - 1)) * pair
    bad = c | (b ^ b >> width ^ flip) & runs
    for k, plane in enumerate(planes):
        bad |= plane ^ spread if K >> k & 1 else plane
    bad &= spread
    return both & ~(((bad & low) + low | bad) & top)


# A walk repacks once the repack has paid for itself: once the steps taken
# since three quarters of its lanes finished, times the lane bits the
# repack would drop, reach this.  Deciding without knowing how long the
# walk will run is ski rental, and this break-even rule costs at most
# twice the best schedule (Karlin, Manasse, Rudolph & Sleator,
# Algorithmica 3, 1988).  Measured on CPython 3.11 on x86-64: repacking 16
# lanes of 16 bits costs about 15 us, and a step about 1 ns more per lane
# bit, so a repack pays once it has saved about 15,000 bit-steps.
_REPACK_BIT_STEPS = 1 << 14


# A recording flushes its steps into per-lane columns once they hold this
# many bits, which bounds the memory a long segment takes.
_RECORD_BITS = 1 << 20


def _active_lanes(active: int, lanes: int, width: int) -> list[int]:
    """The positions of the lanes whose top bit is set in ``active``."""
    return [j for j in range(lanes) if active >> (j * width + width - 1) & 1]


def _repack(ids: list[int], active: int, width: int, *ints: int) -> tuple:
    """Narrow a walk to each pair of lanes 2i and 2i + 1 with a top bit
    set in ``active``, which keeps pairs aligned: returns the kept lanes'
    start indices (from ``ids``), then ``active`` and each of ``ints``
    packed with only the kept lanes, in order."""
    lane = (1 << width) - 1
    both = 1 << (width - 1) | 1 << (2 * width - 1)
    kept = [j for i in range(0, len(ids), 2) if active >> i * width & both
            for j in range(i, min(i + 2, len(ids)))]
    return ([ids[j] for j in kept],
            *(_pack_lanes([x >> j * width & lane for j in kept], width) for x in (active, *ints)))


def _flush(steps: list[int], width: int, ids: list[int], active: int,
           finished: list[tuple[int, int]], columns: dict, texts: list) -> None:
    """Move the C bits recorded in ``steps`` into per-lane node columns.

    Each step is formatted as one binary string, most significant bit
    first, so node v of lane j sits at offset W - 1 - j * width - v of
    each step's W characters, and one strided slice reads its column.  A
    lane in ``finished`` (position, steps up to its mirror state) gets
    its skeleton text (see ``RunRecord.skeleton_text``) in ``texts`` at
    its start index: in a column every C but the last is followed by a
    B, a '0', so dropping the '0' after each '1' leaves the events.  An
    active lane keeps its columns in ``columns``.
    """
    total = len(ids) * width
    fmt = f"0{total}b"
    text = "".join([format(c, fmt) for c in steps])

    def cut(j: int, end: int) -> list[str]:
        base = total - 1 - j * width
        cols = [text[base - v:end:total] for v in range(width)]
        before = columns.pop(ids[j], None)
        return list(map(str.__add__, before, cols)) if before else cols

    if finished:
        lanes = "3".join(["2".join(cut(j, end * total)) for j, end in finished])
        for (j, _), skeletons in zip(finished, lanes.replace("10", "1").split("3")):
            texts[ids[j]] = skeletons
    for j in _active_lanes(active, len(ids), width):
        columns[ids[j]] = cut(j, len(text))


def _pack_lanes(values: Sequence[int], width: int) -> int:
    """Lane j of the result holds values[j] (each below 2**width)."""
    packed = 0
    for value in reversed(values):
        packed = packed << width | value
    return packed


def pack_pairs(starts: Sequence[int], width: int) -> int:
    """The lane integer of a pair walk: lane 2i holds starts[i] and lane
    2i + 1 its complement, starts[i] ^ (2**width - 1)."""
    runs = _pack_lanes(starts, 2 * width)
    halves = ((1 << 2 * width * len(starts)) - 1) // ((1 << 2 * width) - 1) * ((1 << width) - 1)
    return runs | (runs ^ halves) << width


def full_cycle(
    g: MixedGraph, start_ab: str, max_steps: int = DEFAULT_MAX_STEPS
) -> list[str]:
    """The complete orbit of the first {A,C} state, as a list of
    colorings that ends just before the orbit repeats.

    For a proper mirror trajectory (T > 2) the orbit has length 2T and
    passes through the start state itself; reversibility means there is
    no lead-in branch the orbit could hang from.
    """
    first = (start_bits(g, start_ab), 0)  # rule I everywhere: B turns to C
    cycle = [first]
    for state in _walk(g, *first):
        if state == first:
            break
        cycle.append(state)
        if len(cycle) > 2 * max_steps + 1:
            raise MaxStepsExceeded(len(cycle) - 1, start_ab)
    n = g.node_count
    return [unpack(n, c, b) for c, b in cycle]
