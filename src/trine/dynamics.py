"""Synchronous recoloring dynamics and mirror trajectories.

Every node is recolored simultaneously from the previous state.  The
choice between the two recoloring rules at a node is the P-condition:
whether any of its out-neighbors is colored C.

    rule I  (P false):  A->A, B->C, C->B
    rule II (P true):   A->C, B->A, C->B

The dynamics is reversible: transliterate, step once, transliterate
again walks the trajectory backwards.

A trajectory starts from a two-color {A,B} state.  The first step turns
it into an {A,C} state (rule I applies everywhere), time t = 1.  The
walk continues until the state whose successor equals its own
transliteration; that time is the period T and the successor is the
mirror state.  Because both rules send C to B, the successor always
keeps new-B = old-C, so the mirror test reduces to "new C bits == old
B bits" on packed states.

States are packed as a pair of ints ``(c_bits, b_bits)``: bit v of
``c_bits`` is set iff node v is colored C, likewise for B; A is the
remainder.  Per-node C occurrence counts are accumulated during the
run with ripple-carry counter planes; B and A counts follow from them
(every step copies C to B, and t = 1 has no B), so per-node statistics
do not need a second pass over the trajectory.

P has one formula on every graph.  With M_d the offset mask of d
(``MixedGraph.offset_masks``: bit v set iff v + d mod n is an
out-neighbor of v), P is the OR over the offsets d in use of C rotated
down by d, masked to M_d.  A circulant graph has every M_d full.

``run_lanes`` is the one runner.  It walks many starts at once
(multi-spin coding: Jacobs & Rebbi, J. Comput. Phys. 41, 1981).  Start
j owns lane j, bits j*L .. j*L+L-1 of one Python int, with node v at bit
j*L+v.  The rotation within each lane is two shifts: C at v + d reaches
node v by a shift down by d when v + d < L, and by a shift up by L - d
when it wraps, each masked to the copies of M_d on those nodes.  The
rule and the counter planes act bit by bit and need no lane logic.  A
lane reached its mirror when its lane of d = new_c ^ b is zero.  With H
the top bit of every lane and LOW the other bits,
``(((d & LOW) + LOW) | d) & H`` sets the top bit of exactly the nonzero
lanes (the SWAR zero-lane test; Warren, Hacker's Delight, 2nd ed.,
section 6-1): adding LOW carries into the top bit from any set low bit
and never past it.  A finished lane leaves the ``active`` mask, and its
period, final state and counter planes are sliced out at that step; its
bits keep stepping unread.  Periods are long-tailed, so once three
quarters of the lanes have finished the survivors are repacked into a
narrower int.

A run is summarized by its period, its final packed state and its C
counter planes: enough for the final coloring, the color counts and
lambda.  ``run_to_mirror`` runs one start as one lane.  A summary knows
its start and its exact period, so the first read of its states
re-walks that many steps in one lane and keeps them.  On a circulant
graph, rotating a start rotates its run (``RunRecord.rotated``), so one
summary serves every rotation of its start.
"""

from __future__ import annotations

import csv
from itertools import islice
from typing import Iterator, Optional

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


def _plane_count(planes: list[int], v: int) -> int:
    total = 0
    for i, plane in enumerate(planes):
        total += ((plane >> v) & 1) << i
    return total


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
    """A forward trajectory from a two-color start to its mirror state.

    ``packed_states`` holds the trajectory at times t = 1..T.  A run
    from ``run_lanes`` or ``run_to_mirror`` keeps only the period, the
    final packed state and the C counter planes, and re-walks its known
    period on the first read of its states; a record built with
    ``packed_states`` has them from the start.  The {A,B} start state
    itself sits before t = 1; ``start_b`` holds its B bits.  A run with
    T <= 2 is degenerate (no proper mirror state; the uniform all-A and
    all-B starts are the standard cases) and is flagged as such.
    """

    def __init__(
        self,
        graph: MixedGraph,
        start_b: int,
        period: int,
        final: tuple[int, int],
        c_planes: list[int],
        packed_states: Optional[list[tuple[int, int]]] = None,
    ):
        self.graph = graph
        self.start_b = start_b
        self.period = period
        self.final = final
        self.degenerate = period <= 2
        self._c_planes = c_planes
        self._packed_states = packed_states
        self._states: Optional[list[str]] = None

    @property
    def start_ab(self) -> str:
        return unpack(self.graph.node_count, 0, self.start_b)

    def rotated(self, k: int) -> "RunRecord":
        """The run of this start rotated up by k (see ``rotate``) on a
        circulant graph, where that rotation is an automorphism: the
        same period and lambda, with the start, the final state and the
        C counter planes rotated.  Its states re-walk on first read.
        Raises ValueError when the graph is not circulant."""
        if self.graph.circulant_offsets is None:
            raise ValueError("only a circulant graph carries runs along rotations")
        L = self.graph.node_count
        k %= L
        if not k:
            return self
        return RunRecord(
            self.graph, rotate(self.start_b, k, L), self.period,
            (rotate(self.final[0], k, L), rotate(self.final[1], k, L)),
            [rotate(plane, k, L) for plane in self._c_planes],
        )

    # -- materialized views -------------------------------------------

    @property
    def packed_states(self) -> list[tuple[int, int]]:
        """Packed states at t = 1..T; a summary re-walks its period."""
        if self._packed_states is None:
            walk = _walk(self.graph, 0, self.start_b)
            self._packed_states = list(islice(walk, self.period))
        return self._packed_states

    @property
    def states(self) -> list[str]:
        """Colorings at t = 1..T."""
        if self._states is None:
            n = self.graph.node_count
            self._states = [unpack(n, c, b) for c, b in self.packed_states]
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
        """Per node, (N_A, N_B, N_C) over t = 1..T.  Only C is counted:
        B at t is C at t - 1, so N_B = N_C - [C at T]."""
        final_c = self.final[0]
        counts = []
        for v in range(self.graph.node_count):
            n_c = _plane_count(self._c_planes, v)
            n_b = n_c - ((final_c >> v) & 1)
            counts.append((self.period - n_b - n_c, n_b, n_c))
        return tuple(counts)

    @property
    def lambda_per_node(self) -> tuple[int, ...]:
        """Per node, N_A - N_C.  When B and C counts agree (they do on
        weak-computable graphs) this is the A-surplus parameter."""
        return tuple(n_a - n_c for n_a, _, n_c in self.color_counts)

    @property
    def lambda_value(self) -> Optional[int]:
        """The common per-node A-surplus, or None if nodes disagree.
        Per node it is T - 3 N_C + [C at T], so it is uniform exactly when
        every counter plane and the final C bits are each empty or full
        (a partial final C would need 3 N_C(v) - 1 = 3 N_C(w))."""
        full = (1 << self.graph.node_count) - 1
        final_c = self.final[0]
        if final_c not in (0, full):
            return None
        n_c = 0
        for i, plane in enumerate(self._c_planes):
            if plane == full:
                n_c |= 1 << i
            elif plane:
                return None
        return self.period - 3 * n_c + (final_c & 1)

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


def _start_b(g: MixedGraph, start_ab: str) -> int:
    """The B bits of a two-color {A,B} start, checked."""
    validate_coloring(start_ab, g.node_count)
    if "C" in start_ab:
        raise ValueError(f"start state {start_ab!r} must use colors A and B only")
    return pack(start_ab)[1]


def run_to_mirror(
    g: MixedGraph, start_ab: str, max_steps: int = DEFAULT_MAX_STEPS
) -> RunRecord:
    """Walk from a two-color {A,B} start until the mirror state: one lane
    of ``run_lanes``, whose states re-walk on first read.

    Raises MaxStepsExceeded when the bound is hit (the mirror always
    exists on a finite graph, so the bound was too small).
    """
    [run] = run_lanes(g, [_start_b(g, start_ab)], max_steps)
    if run is None:
        raise MaxStepsExceeded(max_steps, start_ab)
    return run


def _lane_masks(g: MixedGraph, lanes: int):
    """Masks over ``lanes`` lanes of ``g.node_count`` bits: (all bits,
    the top bit of every lane, the other bits, rotations), where
    rotations holds per pair (d, M_d) of ``g.offset_masks`` (d,
    node_count - d, the lane bits of M_d at nodes v < node_count - d,
    which read C at v + d by a shift down by d, the other lane bits of
    M_d, which read it at v + d - node_count by a shift up by
    node_count - d)."""
    width = g.node_count
    lane = (1 << width) - 1
    rep = ((1 << lanes * width) - 1) // lane  # bit 0 of every lane
    full = rep * lane
    top = rep << (width - 1)
    rotations = []
    for d, mask in g.offset_masks:
        down = mask & ((1 << (width - d)) - 1)
        rotations.append((d, width - d, rep * down, rep * (mask ^ down)))
    return full, top, full ^ top, rotations


def _rule(c: int, b: int, full: int, rotations) -> int:
    """The C bits after the packed state (c, b), P formed from
    ``_lane_masks``' rotations; the B bits after it are c."""
    p = 0
    for down, up, down_mask, up_mask in rotations:
        p |= (c >> down) & down_mask | (c << up) & up_mask
    return b & ~p | (full ^ (c | b)) & p


def _walk(g: MixedGraph, c: int, b: int) -> Iterator[tuple[int, int]]:
    """The packed states after (c, b), one after another, in one lane."""
    full, _, _, rotations = _lane_masks(g, 1)
    while True:
        c, b = _rule(c, b, full, rotations), c
        yield c, b


def run_lanes(
    g: MixedGraph, starts: list[int], max_steps: int = DEFAULT_MAX_STEPS
) -> list[Optional[RunRecord]]:
    """Walk every {A,B} start (given by its B bits) to its mirror state
    at once, one lane per start.

    Returns one summary RunRecord per start, in order, or None for a
    start whose run is unresolved after ``max_steps`` steps.
    """
    width = g.node_count
    lane = (1 << width) - 1
    records: list[Optional[RunRecord]] = [None] * len(starts)
    ids = list(range(len(starts)))  # lane position -> start index
    c = _pack_lanes(starts, width)  # t = 1: each start's B turned to C
    b = 0
    planes: list[int] = []
    t = 1
    while ids and t <= max_steps:
        full, top, low, rotations = _lane_masks(g, len(ids))
        active = top
        live = len(ids)
        while t <= max_steps:
            carry = c  # add c into the counter planes, ripple-carry
            for k, plane in enumerate(planes):
                planes[k] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
            new_c = _rule(c, b, full, rotations)
            d = new_c ^ b
            # top bit of a lane set iff the lane of d is nonzero
            done = active & ~(((d & low) + low | d) & top)
            if done:
                active ^= done
                while done:  # slice out the highest finished lane
                    shift = done.bit_length() - width
                    done ^= 1 << (shift + width - 1)
                    i = ids[shift // width]
                    records[i] = RunRecord(
                        g, starts[i], t, ((c >> shift) & lane, (b >> shift) & lane),
                        [(plane >> shift) & lane for plane in planes],
                    )
                live = active.bit_count()
            c, b = new_c, c
            t += 1
            if 4 * live <= len(ids):
                break
        # repack the survivors into a narrower integer
        kept = [j for j in range(len(ids)) if active >> (j * width + width - 1) & 1]
        ids = [ids[j] for j in kept]
        c, b = (_pack_lanes([x >> j * width & lane for j in kept], width) for x in (c, b))
        planes = [_pack_lanes([x >> j * width & lane for j in kept], width)
                  for x in planes]
    return records


def _pack_lanes(values: list[int], width: int) -> int:
    """Lane j of the result holds values[j] (each below 2**width)."""
    packed = 0
    for value in reversed(values):
        packed = packed << width | value
    return packed


def full_cycle(
    g: MixedGraph, start_ab: str, max_steps: int = DEFAULT_MAX_STEPS
) -> list[str]:
    """The complete orbit of the first {A,C} state, as a list of
    colorings that ends just before the orbit repeats.

    For a proper mirror trajectory (T > 2) the orbit has length 2T and
    passes through the start state itself; reversibility means there is
    no lead-in branch the orbit could hang from.
    """
    first = (_start_b(g, start_ab), 0)  # rule I everywhere: B turns to C
    cycle = [first]
    for state in _walk(g, *first):
        if state == first:
            break
        cycle.append(state)
        if len(cycle) > 2 * max_steps + 1:
            raise MaxStepsExceeded(len(cycle) - 1, start_ab)
    n = g.node_count
    return [unpack(n, c, b) for c, b in cycle]
