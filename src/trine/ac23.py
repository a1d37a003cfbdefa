"""Circle automata from bit masks, and the mask-correctness search.

A mask is a pair of positive integers (n, m).  Set bit i of n puts a
connection from every circle position x to x-(i+1); set bit i of m to
x+(i+1).  Reciprocal connections merge into one undirected edge, so
odd n and odd m always yield the full undirected ring and with it a
weak-computable graph at every circle size L.

A mask is *correct* when every circle size and every two-color start
pair keeps the precise-filling invariant from start to mirror.  That is
a claim over all L, so a search can only ever report "correct so far"
relative to the envelope it examined; a single failing pair settles
"incorrect" with a witness.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache, partial
from itertools import islice
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from .config import Config
from .dynamics import PASSED, pack_pairs, rotate, step_lanes, unpack
from .graph import MixedGraph
from .ipf import PairLanes, check_ipf, light_check, mirrored

CORRECT_SO_FAR = "CorrectSoFar"
INCORRECT = "Incorrect"
INCONCLUSIVE = "Inconclusive"
STATUSES = (CORRECT_SO_FAR, INCORRECT, INCONCLUSIVE)

def _offsets(bits: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(bits.bit_length()) if (bits >> i) & 1)


@dataclass(frozen=True)
class Mask:
    """A mask (n, m) with its derived geometry, set once at construction:
    ``left_offsets`` and ``right_offsets`` (the set bits of n and m, as
    offsets 1, 2, ... ascending), ``point_count`` (the mask points
    including the central one), ``steps`` (the signed offsets besides
    the center, ascending: -d for each left offset d, d for each right
    one) and ``column_offsets``.  Equality and hash read (n, m) alone.

    ``column_offsets`` fixes the table column convention used
    everywhere: column 0 is the central point (offset 0), the remaining
    columns are the mask points in ascending offset order.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"mask numbers must be positive, got ({self.n},{self.m})")
        left, right = _offsets(self.n), _offsets(self.m)
        steps = tuple([-d for d in reversed(left)]) + right
        self.__dict__.update(left_offsets=left, right_offsets=right,
                             point_count=len(steps) + 1, steps=steps,
                             column_offsets=(0, *steps))

    @property
    def reflected(self) -> "Mask":
        return Mask(self.m, self.n)

    def __str__(self) -> str:
        return f"({self.n},{self.m})"


def parse_mask(text: str) -> Mask:
    """Parse 'n,m' into a mask."""
    try:
        n, m = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"mask must look like 'n,m', got {text!r}") from exc
    return Mask(n, m)


def connection_set(mask: Mask, L: int) -> frozenset:
    """The nonzero steps mod L of the mask's connections (``Mask.steps``
    mod L).  They alone fix the circle graph at size L (the circulant
    graph C_L(S), see ``build_graph``)."""
    return frozenset(d % L for d in mask.steps if d % L)


def build_graph(mask: Mask, L: int) -> MixedGraph:
    """The circle graph of a mask at circle size L: the circulant graph
    C_L(S) of S = ``connection_set``, an arc x -> x+s mod L for each
    step s in S, so masks with the same set share the graph.
    Reciprocal arcs are undirected edges.  It is built straight from S
    (``MixedGraph.circulant``), with no edge list, as the step engine
    reads only its offsets.  Steps that vanish or coincide mod L make
    the size degenerate (see ``degenerate_at``) but not invalid.
    """
    if L < 3:
        raise ValueError(f"circle size must be at least 3, got {L}")
    return MixedGraph.circulant(L, connection_set(mask, L))


def degenerate_at(mask: Mask, L: int, S: Optional[frozenset] = None) -> bool:
    """True when the mask's points collide on a circle of size L:
    an offset reaches around (>= L), lands on the center, or two mask
    points land on the same node.  An offset below L misses the center,
    so then the points collide exactly when the connection set ``S``
    (see ``connection_set``; computed when not given) has fewer steps
    than the mask has points besides the center."""
    if max(mask.n.bit_length(), mask.m.bit_length()) >= L:
        return True
    S = connection_set(mask, L) if S is None else S
    return len(S) < mask.point_count - 1


@cache
def _units(L: int) -> tuple[int, ...]:
    """The units mod L: 0 < a < L with gcd(a, L) = 1.  Cached per L."""
    return tuple(a for a in range(1, L) if gcd(a, L) == 1)


def _multiplier_class(S: frozenset, L: int) -> tuple[int, ...]:
    """The smallest ``sorted(aS)`` over the units a mod L, aS being
    {a*s mod L : s in S}: one key for every connection set whose circle
    graph the relabeling v -> a*v maps C_L(S) onto (the easy direction
    of Adam's isomorphism question for circulants)."""
    return tuple(min([sorted([a * s % L for s in S]) for a in _units(L)]))


def mask_weak_computable(mask: Mask, L: int, S: Optional[frozenset] = None) -> bool:
    """Whether the circle graph at size L is walkable on undirected
    edges alone (``graph.weak_computable``), read off the connection set
    ``S`` (computed when not given) with no graph built: its undirected
    edges join x and x+s for the steps s with L-s in S too, so they
    connect the circle iff those steps and L have gcd 1 (Boesch &
    Tindell, "Circulants and their connectivities", J. Graph Theory 8,
    1984).  Odd n and m give the steps 1 and L-1 at every L."""
    S = connection_set(mask, L) if S is None else S
    return gcd(L, *(s for s in S if L - s in S)) == 1


# -- search ------------------------------------------------------------


def _samples(seed: int, n: int, m: int, L: int, indices: Iterable[int]) -> Iterator[int]:
    """The seeded start samples of size L with the given indices, in
    order: the low L bits of the SHA-256 digest of
    f"{seed}:{n}:{m}:{L}:{index}", deterministic and platform
    independent.  All but the index is hashed once, and each sample
    hashes the index into a copy of that."""
    prefix = hashlib.sha256(f"{seed}:{n}:{m}:{L}:".encode())
    low = (1 << L) - 1
    for index in indices:
        digest = prefix.copy()
        digest.update(str(index).encode())
        yield int.from_bytes(digest.digest(), "big") & low


@lru_cache(maxsize=None)
def _necklaces(L: int) -> array:
    """Every L-bit start that is its own smallest rotation, increasing,
    as an ``array('Q')``.  FKM algorithm (Fredricksen & Maiorana 1978;
    Ruskey, Savage & Wang 1992), bit L-1 being the first letter: the
    next prenecklace repeats the prefix up to its last 0, that 0 set to
    1, and is a necklace when the prefix length p divides L.  Cached per
    L."""
    full = (1 << L) - 1
    found = array("Q", [0])
    bits = 0
    while bits != full:
        ones = (bits ^ (bits + 1)).bit_length() - 1  # trailing 1 bits
        p = L - ones
        copies = -(-L // p)
        repeated = (bits >> ones | 1) * ((1 << p * copies) - 1) // ((1 << p) - 1)
        bits = repeated >> (p * copies - L)
        if L % p == 0:
            found.append(bits)
    return found


def _complement_partner(bits: int, L: int) -> int:
    """The necklace of an L-bit start's complement: its smallest
    rotation."""
    full = (1 << L) - 1
    comp = bits ^ full
    twice = comp << L | comp
    p = comp
    for j in range(1, L):
        down = twice >> j & full  # comp rotated down by j
        if down < p:
            p = down
    return p


# Pairs run together in one lane integer, two starts each.  Slicing
# a finished lane out costs time in proportion to the integer's size, so
# a few hundred lanes balance that against the per-step interpreter cost.
_PAIRS_PER_LANE_RUN = 256

# A batch of the pair walk: (indices, starts, packed) for up to
# _PAIRS_PER_LANE_RUN pairs, see ``pair_starts``.
PairBatch = tuple[Sequence[int], Sequence[int], int]


@lru_cache(maxsize=None)
def _start_plan(L: int, k: int, workers: int) -> tuple[array, tuple[int, ...]]:
    """The k-th of ``workers`` shares of exhaustive size L's start plan
    (see ``pair_starts``), kept for the process once built: the planned
    necklaces r, increasing, in an ``array('Q')``, and the lane integer
    of each run of ``_PAIRS_PER_LANE_RUN`` of them (``pack_pairs``)."""
    reps = array("Q", (r for r in islice(_necklaces(L), k, None, workers)
                       if _complement_partner(r, L) >= r))
    batches = tuple(pack_pairs(reps[i:i + _PAIRS_PER_LANE_RUN], L)
                    for i in range(0, len(reps), _PAIRS_PER_LANE_RUN))
    return reps, batches


def pair_starts(
    mask: Mask, L: int, config: Config, total: Optional[int] = None, k: int = 0,
    workers: int = 1,
) -> Iterator[PairBatch]:
    """The start plan of size L over the k-th of ``workers`` round-robin
    shares of the indices below ``total`` (the whole size when None), in
    batches of up to ``_PAIRS_PER_LANE_RUN`` pairs, increasing: each
    batch is (indices, starts, packed), the start ``starts[i]`` to run
    beside its complement start for the pair of index ``indices[i]``,
    and ``packed`` the lane integer of the batch, start i in lane 2i and
    its complement in lane 2i+1 (``dynamics.pack_pairs``).

    Up to the exhaustive cutoff the indices are the necklaces r, one
    per rotation orbit, and the share takes every ``workers``-th of
    them; of those, only r with r <= p, p = ``_complement_partner(r,
    L)``, is planned, as r itself, for its class: the rotations of r and
    of r ^ full (one orbit when p == r).  Those shares are built once
    per process (``_start_plan``), packed batches and all; a ``total``
    that cuts a batch keeps its prefix of lanes.  Past the cutoff an
    index selects a seeded sample of the ``config.samples_per_L``,
    packed as it is drawn.

    Rotating bit v to bit v+1 mod L relabels node x as x+1, an
    automorphism of the circulant circle graph, which carries the runs
    along and leaves every outcome and checked condition unchanged.
    The complement of necklace r is a rotation of necklace p, so the
    pair of p is the pair of r swapped, up to rotation.  Swapping run
    and complement changes neither ``passed`` nor
    ``first_failed_condition``: div3, c1 (both readings) and c2 are
    symmetric; given c2, so is c3 (swapped, it reads T - T-bar =
    lambda-bar = -lambda); c4 and c5 are symmetric, and c4 and c5
    together imply c6 and c7; c8 reads phases mod 2, so the +2 offset of
    slots the other run fills drops out.  So the class {r, p} is run
    once, at its smaller member r, with the outcome of both."""
    size = _PAIRS_PER_LANE_RUN
    if L > config.exhaustive_cutoff:
        total = config.samples_per_L if total is None else total
        indices = range(k, total, workers)
        samples = _samples(config.seed, mask.n, mask.m, L, indices)
        for i in range(0, len(indices), size):
            starts = list(islice(samples, size))
            yield indices[i:i + size], starts, pack_pairs(starts, L)
        return
    reps, batches = _start_plan(L, k, workers)
    end = len(reps) if total is None else bisect_left(reps, total)
    for i, packed in zip(range(0, end, size), batches):
        starts = reps[i:min(i + size, end)]
        if len(starts) < size:  # a short last batch, or one the total cuts
            packed &= (1 << 2 * L * len(starts)) - 1
        yield starts, starts, packed


def iter_pairs(
    g: MixedGraph, batches: Iterable[PairBatch], max_steps: int, record: bool,
    cond1: Optional[str] = None,
) -> Iterator[tuple[int, int, Optional[PairLanes]]]:
    """Run each batch of ``batches`` (as ``pair_starts`` yields them) on
    the circle graph ``g``, each start beside its complement start
    (every bit flipped): the one pair walk, for the search at either
    check level and for rt extraction.

    Yields (index, bits, lanes) per pair, in order, ``bits`` being the
    start's B bits (bit v set: node v starts as B): ``lanes`` is None
    when either run hit ``max_steps`` (unresolved), else the pair's
    ``ipf.PairLanes``, from the runs of ``bits`` and of its complement,
    the skeleton texts recorded when ``record`` is set, else None.

    Each batch's packed lanes run at once through ``dynamics.step_lanes``,
    whose readouts are read back by position.  A start that comes twice
    runs twice: at exhaustive sizes none does (a necklace's complement
    is never another planned necklace), and a repeated seeded sample
    costs one more pair.  ``step_lanes`` records skeletons when
    ``record`` is set: the search records at the full level only, rt
    extraction at both.  No run object is built: ``ipf`` reads the
    lanes as they are.

    With a ``cond1`` reading, which only the light search passes,
    ``step_lanes`` settles in bulk each pair whose two runs end on the
    same step and pass the light check in that reading, and such a
    pair is not yielded: only the pairs that need a look reach Python.
    """
    for indices, starts, packed in batches:
        readouts, texts = step_lanes(g, packed, 2 * len(starts), max_steps, record, cond1)
        for i, readout in enumerate(readouts[::2]):
            if readout is PASSED:
                continue
            comp_readout = readouts[2 * i + 1]
            if readout is None or comp_readout is None:
                yield indices[i], starts[i], None
            else:
                yield indices[i], starts[i], (readout, comp_readout, texts[2 * i],
                                              texts[2 * i + 1])


def settle_pair(g: MixedGraph, config: Config, lanes: Optional[PairLanes]) -> Optional[str]:
    """What a pair of ``iter_pairs`` on ``g`` settles at the configured
    level: None when the pair passes, else "unresolved", "degenerate"
    (a period <= 2) or its first failed condition, the one
    ``check_ipf`` reports.  That is the first failed statement of
    ``ipf.light_check``.  At the full level, which needs the skeleton
    texts recorded, a pair passing those is settled from its texts when
    it is ``ipf.mirrored``: it passes at time origin 1 and fails [8] at
    origin 0, and no report is built.  Any other pair is checked by
    ``check_ipf``."""
    if lanes is None:
        return "unresolved"
    readout, comp_readout, text, comp_text = lanes
    if readout[0] <= 2 or comp_readout[0] <= 2:
        return "degenerate"
    failed = light_check(readout, comp_readout, g.node_count, config.cond1_interpretation)[2]
    if failed or config.check_level == "light":
        return next(iter(failed), None)
    if mirrored(text, comp_text):
        return None if config.time_origin else "c8"
    return check_ipf(lanes, g.node_count, level="full",
                     cond1_interpretation=config.cond1_interpretation,
                     time_origin=config.time_origin).first_failed_condition


def _scan_block(mask: Mask, g: MixedGraph, config: Config, total: int, workers: int,
                k: int) -> tuple[Optional[tuple[int, int, str]], list]:
    """Run the k-th of ``workers`` shares of the start plan below
    ``total`` (``pair_starts``) through ``iter_pairs``, up to the first
    failing pair (see ``settle_pair``).  Returns (failure, notes): the
    failure is (index, start bits, first failed condition) or None, and
    notes lists (index, start bits, "unresolved" or "degenerate") for
    each pair that did not pass, one per class (see ``pair_starts``).
    A passing pair leaves no trace.  At the light level the walk gets the
    configured cond1 reading, so the pairs ``step_lanes`` settles in
    bulk never reach ``settle_pair``.  Picklable, so batches can run in
    worker processes."""
    notes = []
    pairs = pair_starts(mask, g.node_count, config, total, k, workers)
    record = config.check_level == "full"  # the full level reads the skeletons
    cond1 = None if record else config.cond1_interpretation  # light: settle in bulk
    for index, bits, lanes in iter_pairs(g, pairs, config.max_steps, record, cond1):
        outcome = settle_pair(g, config, lanes)
        if outcome is None:
            continue
        if outcome not in ("unresolved", "degenerate"):
            return (index, bits, outcome), notes
        notes.append((index, bits, outcome))
    return None, notes


def _scan_size(mask: Mask, g: MixedGraph, config: Config, total: int, run_map) -> dict:
    """Count the starts with index 0..total-1 on the mask's circle graph
    ``g`` of size L, up to and including the first failing one.

    The start plan (``pair_starts``) is dealt round-robin into
    ``config.threads`` batches for ``run_map`` (see ``_scan_block``),
    each stopping at its own first failure.  A class fails at its
    smaller member, so each batch gets at least as far as the smallest
    failure of all (the limit, else total-1), and every class with a
    member up to the limit has been checked.  The counts go by
    exception: a noted class counts each distinct rotation of r and of
    r ^ full up to the limit (its one sample at sampled sizes), and
    every other start up to the limit is tested.  No rotation of r ^
    full lies below its necklace p, so none counts when p is past the
    limit, and the first unresolved start is the smallest noted r, as
    r <= p.  ``pairs_run`` counts the necklaces up to the limit, one
    per rotation orbit (the samples at sampled sizes), though a class
    of two orbits is checked once, at its smaller necklace beside its
    complement start; no count depends on the batches.
    """
    L = g.node_count
    workers = config.threads
    blocks = list(run_map(partial(_scan_block, mask, g, config, total, workers),
                          range(workers)))
    failure = min((found for found, _ in blocks if found is not None), default=None)
    limit = total - 1 if failure is None else failure[0]
    exhaustive = L <= config.exhaustive_cutoff
    scan = {"tested": limit + 1, "degenerate_skips": 0, "unresolved": 0,
            "pairs_run": bisect_left(_necklaces(L), limit + 1) if exhaustive else limit + 1}
    for index, bits, outcome in sorted(note for _, notes in blocks for note in notes):
        if index > limit:
            break
        orbit = ({rotate(x, k, L) for x in (index, index ^ (1 << L) - 1) for k in range(L)}
                 if exhaustive else (index,))
        starts = sum(x <= limit for x in orbit)
        scan["unresolved" if outcome == "unresolved" else "degenerate_skips"] += starts
        scan["tested"] -= starts
        if outcome == "unresolved" and "first_unresolved" not in scan:
            scan["first_unresolved"] = unpack(L, 0, bits)
    if failure is not None:
        scan["witness"] = {"start": unpack(L, 0, failure[1]), "condition": failure[2]}
    return scan


def _serve(tasks, results) -> None:
    """The loop of a forked ``_mapper`` worker: for each message (fn,
    items) read from ``tasks``, up to None, send (True, fn(item)) or
    (False, the exception fn raised) to ``results`` for each item, as
    soon as it is done.  A reply that does not pickle is sent as (False,
    a ChildProcessError naming the exception raised, or else the
    pickling error, by type and message).  The worker leaves only
    through ``os._exit``, so nothing of the parent's stack or exit
    handlers runs in it."""
    code = 1
    try:
        while (task := pickle.load(tasks)) is not None:
            fn, items = task
            for item in items:
                try:
                    reply = True, fn(item)
                except Exception as exc:
                    reply = False, exc
                try:
                    data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # any error pickle raises
                    error = exc if reply[0] else reply[1]
                    data = pickle.dumps((False, ChildProcessError(
                        f"a pool worker could not send {type(error).__name__}: {error}")))
                results.write(data)
                results.flush()
        code = 0
    finally:
        os._exit(code)


def _map_on(pipes: list, fn, items) -> Iterator:
    """Map ``fn`` over the sized sequence ``items`` on the workers of
    ``pipes`` (see ``_mapper``): worker k gets items[k::P] in one
    message, P being the worker count, and the results come back in
    input order.  An exception a worker raised is raised here."""
    P = len(pipes)
    for k, (tasks, _) in enumerate(pipes):
        pickle.dump((fn, items[k::P]), tasks, pickle.HIGHEST_PROTOCOL)
        tasks.flush()
    for i in range(len(items)):
        try:
            ok, value = pickle.load(pipes[i % P][1])
        except EOFError:
            raise ChildProcessError("a pool worker exited before sending its results") from None
        if not ok:
            raise value
        yield value


@contextmanager
def _mapper(threads: int):
    """A ``map`` over a sized sequence that returns results in input
    order: the builtin one for one thread or without ``os.fork``, else
    ``_map_on`` over workers forked on entry, at most one per CPU the
    process may run on and at least one; ``threads`` still sets the
    batch count, so no result depends on the CPUs.  Each worker has a
    task pipe and a result pipe and lives for the whole block.  On exit
    each is sent None, or killed if the block raised, and then waited
    for, so none outlives the block.  The caller reads every result of a
    map call before the next call, and runs no other thread: a forked
    process holds only the forking one."""
    if threads <= 1 or not hasattr(os, "fork"):
        yield map
        return
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pids, pipes = [], []
    try:
        for _ in range(min(threads, cpus or 1)):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pipes.append((open(task_w, "wb"), open(result_r, "rb")))
            with open(task_r, "rb") as tasks, open(result_w, "wb") as results:
                pid = os.fork()
                if pid == 0:
                    _serve(tasks, results)
            pids.append(pid)
        yield partial(_map_on, pipes)
        for tasks, _ in pipes:
            pickle.dump(None, tasks)
            tasks.flush()
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        # the descriptors alone: a send cut short leaves bytes in its
        # buffer that must not be flushed to a killed worker
        for ends in pipes:
            for end in ends:
                end.raw.close()
        for pid in pids:
            os.waitpid(pid, 0)


@dataclass
class MaskVerdict:
    """Search outcome for one mask.

    ``status`` is "Incorrect" exactly when a witness was found;
    otherwise "Inconclusive" when runs at a clean (non-degenerate) size
    hit ``max_steps`` unresolved, else "CorrectSoFar".  "CorrectSoFar"
    is always relative to the tested envelope recorded in ``tested``
    (correctness is a for-all-L claim no search settles).
    """

    mask: Mask
    status: str
    witness: Optional[dict] = None
    tested: list = field(default_factory=list)
    budget_exhausted: bool = False

    def to_json_dict(self) -> dict:
        return {
            "mask": {"n": self.mask.n, "m": self.mask.m, "N": self.mask.point_count},
            "status": self.status,
            "witness": self.witness,
            "tested": self.tested,
            "budgetExhausted": self.budget_exhausted,
        }

    def csv_row(self) -> list:
        w = self.witness or {}
        return [
            self.mask.n,
            self.mask.m,
            self.mask.point_count,
            self.status,
            w.get("L", ""),
            w.get("start", ""),
            w.get("condition", ""),
        ]


def classify_mask(
    mask: Mask,
    config: Config,
    budget: Optional[int] = None,
    *,
    memo: Optional[dict] = None,
) -> MaskVerdict:
    """Search circle sizes lmin..lmax for an invariant violation.

    Sizes up to the exhaustive cutoff cover every two-color start but
    run one start per rotation orbit (its necklace): rotating a start is
    an automorphism of the circulant circle graph, so it cannot change
    the outcome, and a failing start's smallest rotation fails too, so
    the smallest failing start is still found.  A necklace and the
    necklace of its complement form a class whose pairs are each
    other's swapped up to rotation, so the class is checked once, at
    its smaller necklace, and both count its outcome (see
    ``pair_starts``).  The rest draw seeded samples.  The first failure
    at a clean (non degenerate) size settles Incorrect, with the
    smallest failing size and the smallest failing start inside it as
    the witness.  Results at degenerate sizes are recorded per block but
    never decide the headline status.  Each envelope block counts starts
    (``planned``, ``tested``, ...) up to the size's first failing one,
    and under ``pairs_run`` the rotation orbits (or samples) they stand
    for.  The counts go by exception (see ``_scan_size``): a scan keeps
    only the starts that did not pass, and every other counted start
    was tested.

    ``budget`` (at least 1) caps the number of start pairs examined;
    exhausting it returns the partial verdict with ``budget_exhausted``
    set.  With ``config.threads`` above one, each size's pairs run in as
    many even batches on worker processes forked once for the call (see
    ``_mapper``).

    ``memo`` lets the cells of one ``verdict_grid`` call share work, and
    never changes a result.  It holds only whole exhaustive scans, the
    only ones a later cell reads back: a sampled size is seeded by the
    mask, and a grid passes no budget.  For any unit a mod L the
    relabeling v -> a*v maps the circle graph with connection set S
    (see ``connection_set``) onto that with aS, and carries each start's
    runs and outcome along, so the sets of a multiplier class (one
    ``_multiplier_class`` key C) share a whole scan when it found no
    failing start and no unresolved run; witness starts and first
    unresolved starts do move under v -> a*v.  The memo maps (L, C) to
    the class's first whole size and (L, S) to the size's (C is a tuple
    and S a frozenset, so the keys never meet), each as its finished
    (block, witness): the envelope block but for ``degenerate_L``, which
    the mask alone decides, and the scan's witness, or None.  A
    size the memo holds was weak computable, so it costs a cell one
    connection set, one lookup and one copy of the block.  The start
    plans the scans walk are kept per process, not in the memo (see
    ``pair_starts``).
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    envelope: list = []
    witness = None
    budget_left = budget
    budget_exhausted = False
    memo = {} if memo is None else memo
    with _mapper(config.threads) as run_map:
        for L in range(config.lmin, config.lmax + 1):
            S = connection_set(mask, L)
            stored = memo.get((L, S))  # a whole exhaustive size: weak computable
            if stored is None and not mask_weak_computable(mask, L, S):
                envelope.append({"L": L, "skipped": "not weak computable"})
                continue
            if L <= config.exhaustive_cutoff:
                mode, total = "exhaustive", 2**L
            else:
                mode, total = "sampled", config.samples_per_L
            if budget_left is not None:
                if budget_left <= 0:
                    budget_exhausted = True
                    break
                if total > budget_left:
                    total = budget_left
                    budget_exhausted = True
                budget_left -= total

            whole = mode == "exhaustive" and total == 2**L
            if stored is None or not whole:
                class_key = (L, _multiplier_class(S, L)) if whole else None
                stored = memo.get(class_key)
                if stored is None or stored[1] is not None or stored[0]["unresolved"]:
                    scan = _scan_size(mask, build_graph(mask, L), config, total, run_map)
                    found = scan.pop("witness", None)
                    stored = ({"L": L, "mode": mode, "planned": total, **scan}, found)
                if whole:
                    memo.setdefault(class_key, stored)
                    memo[L, S] = stored
            block, found = stored
            degenerate_L = degenerate_at(mask, L, S)
            block = {**block, "degenerate_L": degenerate_L}
            if found is not None:
                found = {"L": L, **found}
                if degenerate_L:
                    block["degenerate_witness"] = found
                else:
                    witness = found
            envelope.append(block)
            if budget_exhausted or witness is not None:
                break

    if envelope and all("skipped" in block for block in envelope):
        raise ValueError(
            f"mask {mask} is not weak computable at any L in "
            f"{config.lmin}..{config.lmax}"
        )
    if witness:
        status = INCORRECT
    elif any(b.get("unresolved") and not b["degenerate_L"] for b in envelope):
        status = INCONCLUSIVE
    else:
        status = CORRECT_SO_FAR
    return MaskVerdict(mask, status, witness, envelope, budget_exhausted)


# -- verdict grid ------------------------------------------------------

GRID_CSV_COLUMNS = ["n", "m", "N", "status", "witnessL", "witnessStart", "conditionFailed"]


@dataclass
class VerdictGrid:
    """Verdicts for all odd masks up to a bound, one cell per (n, m)."""

    n_max: int
    m_max: int
    cells: dict = field(default_factory=dict)
    cr_annotations: dict = field(default_factory=dict)

    def csv_rows(self) -> list[list]:
        rows = []
        for n in range(1, self.n_max + 1, 2):
            for m in range(1, self.m_max + 1, 2):
                rows.append(self.cells[(n, m)].csv_row())
        return rows

    def to_json_dict(self) -> dict:
        cells = []
        for (n, m), verdict in sorted(self.cells.items()):
            cell = verdict.to_json_dict()
            if (n, m) in self.cr_annotations:
                cell["C_R"] = self.cr_annotations[(n, m)]
            cells.append(cell)
        return {"nMax": self.n_max, "mMax": self.m_max, "cells": cells}

    def is_reflection_symmetric(self) -> bool:
        """Status (and witness size, when incorrect) agrees between each
        cell and its mirror.  Mirror cells share the scans of their
        sizes with no failing start and no unresolved run (see
        ``verdict_grid``), so only the sizes with a witness or an
        unresolved run, scanned for each cell's own connection set, make
        this a checked fact."""
        for (n, m), verdict in self.cells.items():
            other = self.cells.get((m, n))
            if other is None or other.status != verdict.status:
                return False
            if verdict.witness and other.witness:
                if verdict.witness["L"] != other.witness["L"]:
                    return False
        return True


def check_grid_bounds(n_max: int, m_max: int) -> None:
    """Raise ValueError unless both grid bounds are odd and at least 1."""
    if n_max < 1 or m_max < 1:
        raise ValueError(f"grid bounds must be at least 1, got {n_max} and {m_max}")
    if n_max % 2 == 0 or m_max % 2 == 0:
        raise ValueError(f"grid bounds must be odd, got {n_max} and {m_max}")


def verdict_grid(
    n_max: int,
    m_max: int,
    config: Config,
    resume_rows: Optional[dict] = None,
    on_cell=None,
    cr_annotations: Optional[dict] = None,
) -> VerdictGrid:
    """Classify every odd mask with n <= n_max, m <= m_max.

    Cells share work where their circle graphs are the same graph up to
    the relabeling v -> a*v, a a unit mod L (see ``classify_mask``): at
    each size, cells whose connection sets (see ``connection_set``) are
    one multiplier class share an exhaustive size's scan when it found
    no failing start and no unresolved run.  Any other exhaustive size
    is scanned once per connection set, and a sampled size once per
    mask, since the mask seeds the samples.  Each exhaustive size's
    start plan, its class representatives and their packed batches, is
    built once per process and walked by all the scans (see
    ``pair_starts``).
    Reflection (-S) is the multiplier -1, so a cell shares its
    mirror's scan at such sizes; the grid's reflection symmetry stays a
    checked fact only at sizes with a witness or an unresolved run.  The
    shared work lives for this call only.
    With ``config.threads`` above one, whole cells run on worker
    processes forked for this call (see ``_mapper``), each given every
    P-th cell, P being the worker count, with its own memo: the empty
    ``memo`` of the one ``classify_mask`` partial it is sent, which it
    fills for the cells it computes.
    ``resume_rows`` maps (n, m) to a previously computed MaskVerdict and
    lets an interrupted grid continue; ``on_cell`` is called after each
    newly computed cell, in grid order, which is the hook incremental
    writers use.  A worker sends each cell back as soon as it is done,
    so ``on_cell`` sees a cell once it and every cell before it are.
    ``cr_annotations`` maps (n, m) to externally supplied table row
    counts that decorate the JSON view of the grid.
    """
    check_grid_bounds(n_max, m_max)
    grid = VerdictGrid(n_max, m_max, cr_annotations=dict(cr_annotations or {}))
    resume_rows = resume_rows or {}
    todo = []
    for n in range(1, n_max + 1, 2):
        for m in range(1, m_max + 1, 2):
            if (n, m) in resume_rows:
                grid.cells[(n, m)] = resume_rows[(n, m)]
            else:
                todo.append(Mask(n, m))
    classify_cell = partial(classify_mask, config=replace(config, threads=1), memo={})
    with _mapper(config.threads) as run_map:
        for verdict in run_map(classify_cell, todo):
            grid.cells[(verdict.mask.n, verdict.mask.m)] = verdict
            if on_cell is not None:
                on_cell(verdict)
    return grid
