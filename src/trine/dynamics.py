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

``run_to_mirror`` records a run with every packed state.  ``run_lanes``
summarizes it: the period, the final packed state and the C counter
planes, enough for the period, the final coloring, the color counts and
lambda.  A summary knows its start and its exact period, so the first
read of its states re-walks that many steps and keeps them.  On a
circulant graph, rotating a start rotates its run (``RunRecord.rotated``),
so one summary serves every rotation of its start.

``run_lanes`` walks many starts on a circulant graph at once (multi-spin
coding: Jacobs & Rebbi, J. Comput. Phys. 41, 1981).  Start j owns lane j,
bits j*L .. j*L+L-1 of one Python int, with node v at bit j*L+v.  On a
circulant graph every node sees C at the same offsets d, so P is the OR
over d of C rotated down by d within each lane: two shifts, each masked
to the bits that stay inside their lane.  The rule and the counter
planes act bit by bit and need no lane logic.  A lane reached its mirror
when its lane of d = new_c ^ b is zero.  With H the top bit of every lane
and LOW the other bits, ``(((d & LOW) + LOW) | d) & H`` sets the top bit
of exactly the nonzero lanes (the SWAR zero-lane test; Warren, Hacker's
Delight, 2nd ed., section 6-1): adding LOW carries into the top bit
from any set low bit and never past it.  A finished lane leaves the
``active`` mask, and its period, final state and counter planes are
sliced out at that step; its bits keep stepping unread.  Periods are
long-tailed, so once three quarters of the lanes have finished the
survivors are repacked into a narrower int.
"""

from __future__ import annotations

import csv
from typing import Optional

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


def _step_packed(
    out_masks: tuple[int, ...], full: int, c_bits: int, b_bits: int
) -> tuple[int, int]:
    """One synchronous step on a packed state."""
    p = 0
    for v, mask in enumerate(out_masks):
        if mask & c_bits:
            p |= 1 << v
    a_bits = full & ~(c_bits | b_bits)
    new_c = (b_bits & ~p) | (a_bits & p)
    new_b = c_bits
    return new_c, new_b


def _add_to_planes(planes: list[int], x: int) -> None:
    """Add the bitmask x into per-bit-position binary counters."""
    for i in range(len(planes)):
        carry = planes[i] & x
        planes[i] ^= x
        if not carry:
            return
        x = carry
    planes.append(x)


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
    c_bits, b_bits = pack(coloring)
    full = (1 << g.node_count) - 1
    nc, nb = _step_packed(g.out_masks, full, c_bits, b_bits)
    return unpack(g.node_count, nc, nb)


def predecessor(g: MixedGraph, coloring: str) -> str:
    """The unique state whose step yields ``coloring``.

    Reversibility: transliterate, step forward once, transliterate again.
    """
    return transliterate(step(g, transliterate(coloring)))


# -- trajectories ------------------------------------------------------


class RunRecord:
    """A forward trajectory from a two-color start to its mirror state.

    ``packed_states`` holds the trajectory at times t = 1..T.  A recorded
    run (``run_to_mirror``) has them from the start; a summary run
    (``run_lanes``) keeps only the period, the final packed state and the
    C counter planes, and re-walks its known period on the first read of
    its states.  The {A,B} start state itself sits before t = 1;
    ``start_b`` holds its B bits.  A run with T <= 2 is degenerate (no
    proper mirror state; the uniform all-A and all-B starts are the
    standard cases) and is flagged as such.
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
            rerun = run_to_mirror(self.graph, self.start_ab, self.period)
            self._packed_states = rerun.packed_states
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


def _first_state(g: MixedGraph, start_ab: str) -> tuple[int, int]:
    """Check a two-color {A,B} start and take the first step (no C
    present, so rule I everywhere: the transliteration)."""
    validate_coloring(start_ab, g.node_count)
    if "C" in start_ab:
        raise ValueError(f"start state {start_ab!r} must use colors A and B only")
    return _step_packed(g.out_masks, (1 << g.node_count) - 1, *pack(start_ab))


def run_to_mirror(
    g: MixedGraph, start_ab: str, max_steps: int = DEFAULT_MAX_STEPS
) -> RunRecord:
    """Walk from a two-color {A,B} start until the mirror state, and
    record every state on the way.

    Raises MaxStepsExceeded when the bound is hit (the mirror always
    exists on a finite graph, so the bound was too small).
    """
    out_masks = g.out_masks
    full = (1 << g.node_count) - 1
    state = _first_state(g, start_ab)
    packed = [state]
    c_planes: list[int] = []

    for _ in range(max_steps):
        c_bits, b_bits = state
        _add_to_planes(c_planes, c_bits)
        state = _step_packed(out_masks, full, c_bits, b_bits)
        # new_b == c_bits always, so the mirror test "next state equals
        # transliteration of the current state" reduces to one compare.
        if state[0] == b_bits:
            # the first state's C bits are the start's B bits
            return RunRecord(g, packed[0][0], len(packed), packed[-1], c_planes, packed)
        packed.append(state)

    raise MaxStepsExceeded(max_steps, start_ab)


def _lane_masks(node_count: int, offsets: tuple[int, ...], lanes: int):
    """Masks over ``lanes`` lanes of ``node_count`` bits: (all bits, the
    top bit of every lane, the other bits, rotations), where rotations
    holds per offset d (d, node_count - d, the bits that stay in their
    lane shifted down by d, the bits that stay in it shifted up by
    node_count - d)."""
    lane = (1 << node_count) - 1
    rep = ((1 << lanes * node_count) - 1) // lane  # bit 0 of every lane
    full = rep * lane
    top = rep << (node_count - 1)
    rotations = []
    for d in offsets:
        down = rep * ((1 << (node_count - d)) - 1)
        rotations.append((d, node_count - d, down, full ^ down))
    return full, top, full ^ top, rotations


def run_lanes(
    g: MixedGraph, starts: list[int], max_steps: int = DEFAULT_MAX_STEPS
) -> list[Optional[RunRecord]]:
    """Walk every {A,B} start (given by its B bits) on a circulant graph
    to its mirror state at once, one lane per start.

    Returns one summary RunRecord per start, in order, or None for a
    start whose run is unresolved after ``max_steps`` steps (exactly
    where ``run_to_mirror`` raises).  Raises ValueError when ``g`` is not
    circulant.
    """
    offsets = g.circulant_offsets
    if offsets is None:
        raise ValueError("run_lanes needs a circulant graph")
    width = g.node_count
    lane = (1 << width) - 1
    records: list[Optional[RunRecord]] = [None] * len(starts)
    ids = list(range(len(starts)))  # lane position -> start index
    c = _pack_lanes(starts, width)  # t = 1: each start's B turned to C
    b = 0
    planes: list[int] = []
    t = 1
    while ids and t <= max_steps:
        full, top, low, rotations = _lane_masks(width, offsets, len(ids))
        active = top
        live = len(ids)
        while t <= max_steps:
            _add_to_planes(planes, c)
            p = 0
            for down, up, down_mask, up_mask in rotations:
                p |= (c >> down) & down_mask | (c << up) & up_mask
            new_c = b & ~p | (full ^ (c | b)) & p
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
    out_masks = g.out_masks
    full = (1 << g.node_count) - 1
    first = _first_state(g, start_ab)
    cycle = [first]
    state = _step_packed(out_masks, full, *first)
    steps = 0
    while state != first:
        cycle.append(state)
        state = _step_packed(out_masks, full, *state)
        steps += 1
        if steps > 2 * max_steps:
            raise MaxStepsExceeded(steps, start_ab)
    n = g.node_count
    return [unpack(n, c, b) for c, b in cycle]
