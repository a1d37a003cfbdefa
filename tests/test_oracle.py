"""Differential tests of the engine against naive references.

The packed stepper is compared with a string-level stepper transcribed
from the rule table:

    | P-condition  | A  | B  | C  |
    | no C visible | A  | C  | B  |
    | C visible    | C  | A  | B  |

The lane engine's runs are compared with the same naive runs, lane by
lane, on circle graphs and on random mixed graphs, and so are the
skeletons a recording batch cuts out of its lanes and the filled rows
``filled_rows`` builds from the skeletons of a run and its complement.
``check_ipf`` is compared with a transcription of the nine statements
of the ``trine.ipf`` module docstring, evaluated on the naive runs,
both on one-lane runs and on pairs recorded in one lane batch.  The
light sweep's lane readouts and ``light_check`` are compared with the
naive runs and the same transcription, with the complement's readout
also taken from a rotated run on circle graphs, and the pairs a light
walk settles in bulk are compared with ``light_check``, pair by pair.  At the full level,
the search's outcome of every pair is compared with ``check_ipf`` on
the pair's lanes, which reads every cell of a mirrored pair too, so the
search's mirrored shortcut is checked against code it does not share;
and a mirrored pair's slot codes, read off its skeleton text, are
compared with those of its filled rows.  ``extract_rows``, fed by
``extraction_run_pairs``, is compared with a row built for every node
and slot of every pair that ``check_ipf`` passes.
"""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from extraction import lanes_of, pair_codes
from graphgen import random_mixed_graph
from trine import dynamics
from trine.ac23 import (Mask, build_graph, connection_set, degenerate_at, iter_pairs,
                        pair_starts, settle_pair)
from trine.config import Config
from trine.dynamics import (_pack_lanes, pack, rotate, run_lanes, run_to_mirror, step,
                            step_lanes, unpack)
from trine.errors import DegenerateRun, UnverifiedRuns
from trine.graph import MixedGraph, complement, weak_computable
from trine.ipf import (CHECK_LEVELS, COND1_INTERPRETATIONS, LIGHT_CONDITIONS, check_ipf,
                       filled_rows, light_check, mirrored)
from trine.rt import (EXTRACTION_HYPOTHESIS, ResolutionTable, extract_rows,
                      extraction_run_pairs, format_table)

RULES = {False: {"A": "A", "B": "C", "C": "B"}, True: {"A": "C", "B": "A", "C": "B"}}
SWAP_BC = str.maketrans("BC", "CB")


def naive_out_neighbors(g: MixedGraph, v: int) -> list[int]:
    return [w for u, w in g.directed if u == v] + [
        w for edge in g.undirected if v in edge for w in edge if w != v
    ]


def naive_step(g: MixedGraph, coloring: str) -> str:
    return "".join(
        RULES[any(coloring[w] == "C" for w in naive_out_neighbors(g, v))][coloring[v]]
        for v in range(g.node_count)
    )


def naive_run(g: MixedGraph, start: str) -> list[str]:
    """States at t = 1..T: step until the successor is the current state
    with B and C swapped."""
    states = [naive_step(g, start)]
    while (after := naive_step(g, states[-1])) != states[-1].translate(SWAP_BC):
        states.append(after)
    return states


@st.composite
def mixed_graphs(draw, max_nodes: int = 8) -> MixedGraph:
    """Each node pair gets nothing, an undirected edge, or directed
    edges in one or both orientations."""
    n = draw(st.integers(1, max_nodes))
    directed, undirected = [], []
    for u in range(n):
        for v in range(u + 1, n):
            kind = draw(st.sampled_from(("none", "undirected", "forward", "backward", "two-way")))
            if kind == "undirected":
                undirected.append((u, v))
            if kind in ("forward", "two-way"):
                directed.append((u, v))
            if kind in ("backward", "two-way"):
                directed.append((v, u))
    return MixedGraph(n, directed, undirected)


@st.composite
def graph_and_coloring(draw, alphabet: str):
    g = draw(mixed_graphs())
    coloring = draw(st.text(alphabet, min_size=g.node_count, max_size=g.node_count))
    return g, coloring


# Pinned runs whose state at T has C on every node, and on some nodes.
ALL_C_AT_T = (MixedGraph(2, undirected=[(0, 1)]), "BB")
SOME_C_AT_T = (MixedGraph(3, undirected=[(0, 1)]), "BAB")


# A pinned run with the same C count at every node and C on some nodes at
# T: its lambda is undefined.
UNIFORM_C_COUNT = (MixedGraph(4, directed=[(3, 1), (0, 3), (2, 0)]), "BBAB")


def test_pinned_runs_end_with_c():
    assert naive_run(*ALL_C_AT_T)[-1] == "CC"
    assert naive_run(*SOME_C_AT_T)[-1] == "ABC"
    assert naive_run(*UNIFORM_C_COUNT) == ["CCAC", "BBCB"]


@given(graph_and_coloring("ABC"))
def test_step_matches_oracle(case):
    g, coloring = case
    assert step(g, coloring) == naive_step(g, coloring)


@given(graph_and_coloring("AB"))
@example(ALL_C_AT_T)
@example(SOME_C_AT_T)
@settings(deadline=None)
def test_run_matches_oracle(case):
    g, start = case
    run = run_to_mirror(g, start)
    assert run.states == naive_run(g, start)
    assert_run_matches_oracle(run, g, start)


def assert_run_matches_oracle(run, g: MixedGraph, start: str) -> None:
    """A run's start, period, final state, counts and lambda against the
    naive run."""
    states = naive_run(g, start)
    assert run.start_ab == start
    assert run.period == len(states)
    assert run.final_state == states[-1]
    histories = ["".join(state[v] for state in states) for v in range(g.node_count)]
    counts = tuple((h.count("A"), h.count("B"), h.count("C")) for h in histories)
    assert run.color_counts == counts
    lambdas = tuple(n_a - n_c for n_a, _, n_c in counts)
    assert run.lambda_per_node == lambdas
    assert run.lambda_value == (lambdas[0] if len(set(lambdas)) == 1 else None)


@st.composite
def mask_circle_batches(draw):
    """A circle graph and a batch of starts, as B bits, on it."""
    mask = Mask(draw(st.integers(0, 7)) * 2 + 1, draw(st.integers(0, 7)) * 2 + 1)
    L = draw(st.integers(3, 9))
    starts = draw(st.lists(st.integers(0, 2**L - 1), min_size=1, max_size=40))
    return build_graph(mask, L), starts


@given(mask_circle_batches())
@settings(deadline=None)
def test_lanes_match_oracle(case):
    g, starts = case
    for bits, run in zip(starts, run_lanes(g, starts), strict=True):
        assert_run_matches_oracle(run, g, unpack(g.node_count, 0, bits))


@st.composite
def mixed_graph_batches(draw):
    """A random mixed graph of 1 to 10 nodes and a batch of starts, as B
    bits, on it."""
    n = draw(st.integers(1, 10))
    g = random_mixed_graph(draw(st.randoms(use_true_random=False)), max_nodes=n, min_nodes=n)
    starts = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=40))
    return g, starts


def assert_lanes_match_oracle(g: MixedGraph, starts: list[int]) -> None:
    """A batch's runs: counts from the recorded skeletons, lambda from
    the counter planes, and states re-walked."""
    for bits, run in zip(starts, run_lanes(g, starts), strict=True):
        start = unpack(g.node_count, 0, bits)
        assert run.states == naive_run(g, start)
        assert_run_matches_oracle(run, g, start)


@given(mixed_graph_batches())
@settings(deadline=None)
def test_lanes_match_oracle_on_mixed_graphs(case):
    assert_lanes_match_oracle(*case)


def test_lanes_match_oracle_on_every_small_graph():
    # every graph on 1 and 2 nodes, every start, in one batch each
    for g in (MixedGraph(1), MixedGraph(2), MixedGraph(2, undirected=[(0, 1)]),
              MixedGraph(2, directed=[(0, 1)]), MixedGraph(2, directed=[(1, 0)]),
              MixedGraph(2, directed=[(0, 1), (1, 0)])):
        assert_lanes_match_oracle(g, list(range(2**g.node_count)))


def test_lanes_match_oracle_through_repacks(count_calls):
    # every start of (1,3) at L=9: three quarters of the lanes finish by
    # t = 9 and the last at t = 66, long enough for a repack to pay, so
    # the survivors are repacked
    g = build_graph(Mask(1, 3), 9)
    starts = list(range(2**9))
    repacks = count_calls(dynamics, "_live_pairs")
    runs = run_lanes(g, starts)
    periods = sorted(run.period for run in runs)
    assert periods[len(periods) * 3 // 4] < periods[-1] and repacks
    for bits, run in zip(starts, runs):
        assert_run_matches_oracle(run, g, unpack(9, 0, bits))


# -- the nine statements ---------------------------------------------------


def naive_slots(history: str) -> list[tuple[str, int]]:
    """(color, time) of each A or C event in time order: each takes the
    next slot; a B opens none."""
    return [(color, t) for t, color in enumerate(history, 1) if color != "B"]


def naive_node_slots(g: MixedGraph, bits: int) -> list:
    """naive_slots of every node's history in the naive run of a start,
    given by its B bits."""
    states = naive_run(g, unpack(g.node_count, 0, bits))
    return [naive_slots("".join(state[v] for state in states)) for v in range(g.node_count)]


def naive_filled(slots: list, bar_slots: list, width: int) -> tuple:
    """Per node, for slots k < ``width``: (time, from_complement) of the
    one C of the two runs at slot k, None unless exactly one run has a C
    there (the ``phase`` rule of ``naive_ipf``, before the origin)."""
    def fill(v, k):
        cs = [(rows[v][k][1], barred)
              for barred, rows in ((False, slots), (True, bar_slots))
              if k < len(rows[v]) and rows[v][k][0] == "C"]
        return cs[0] if len(cs) == 1 else None

    return tuple(tuple(fill(v, k) for k in range(width)) for v in range(len(slots)))


def assert_slots_match_oracle(g: MixedGraph, starts: list[int]) -> None:
    """Per node of every recorded lane and of its complement's lane: the
    skeleton spells the naive slots' colors; and the filled rows of the
    pair, at the default K and at a width past every node's last event,
    hold the naive filling C's times (the t_k identity)."""
    full = (1 << g.node_count) - 1
    runs = run_lanes(g, starts + [bits ^ full for bits in starts])
    for bits, run, comp in zip(starts, runs, runs[len(starts):]):
        slots, bar_slots = naive_node_slots(g, bits), naive_node_slots(g, bits ^ full)
        for lane, rows in ((run, slots), (comp, bar_slots)):
            assert lane.skeletons == tuple(
                "".join("1" if color == "C" else "0" for color, _ in row) for row in rows)
        if run.degenerate or comp.degenerate:
            with pytest.raises(DegenerateRun):
                filled_rows(lanes_of(run, comp))
            continue
        K = (run.period + comp.period) // 3
        width = max(map(len, slots + bar_slots)) + 1
        assert filled_rows(lanes_of(run, comp)) == naive_filled(slots, bar_slots, K)
        for w in (K, width):
            want = naive_filled(slots, bar_slots, w)
            assert filled_rows(lanes_of(run, comp), w) == want


# (1,1) at L=3: ABA's complement skeletons are its own with A and C
# swapped; (1,5) at L=7: BAABAAA's are not.
@given(mask_circle_batches())
@example((build_graph(Mask(1, 1), 3), [0b010]))
@example((build_graph(Mask(1, 5), 7), [0b1001]))
@settings(deadline=None)
def test_slot_rows_from_skeletons_match_oracle(case):
    assert_slots_match_oracle(*case)


@given(mixed_graph_batches())
@settings(deadline=None)
def test_slot_rows_from_skeletons_match_oracle_on_mixed_graphs(case):
    assert_slots_match_oracle(*case)


@pytest.mark.parametrize("record_bits,first_flush", [
    (1, 1), (3 * 9 * 512, 3), (dynamics._RECORD_BITS, None)])
def test_skeletons_recorded_across_repacks_and_flushes(monkeypatch, count_calls,
                                                       record_bits, first_flush):
    # every start of (1,3) at L=9 has long-tailed periods, so the batch
    # repacks; a small record size also flushes inside segments, down to
    # before every step
    g = build_graph(Mask(1, 3), 9)
    starts = list(range(2**9))
    alone = [run_lanes(g, [bits])[0].skeletons for bits in starts]
    repacks = count_calls(dynamics, "_live_pairs")
    monkeypatch.setattr(dynamics, "_RECORD_BITS", record_bits)
    flushes = []
    flush = dynamics._flush

    def counted_flush(*args):
        flushes.append(len(args[0]))
        return flush(*args)

    monkeypatch.setattr(dynamics, "_flush", counted_flush)
    runs = run_lanes(g, starts)
    periods = sorted(run.period for run in runs)
    assert periods[len(periods) * 3 // 4] < periods[-1] and len(flushes) >= 2 and repacks
    if first_flush is not None:  # steps of 512 lanes that fill the record
        assert flushes[0] == first_flush
    if record_bits == 1:
        assert set(flushes) == {1}
    assert [run.skeletons for run in runs] == alone


def naive_lambda(states: list[str]):
    """The per-node A count minus C count over t = 1..T, when it is the
    same at every node; else None."""
    surplus = {
        sum(s[v] == "A" for s in states) - sum(s[v] == "C" for s in states)
        for v in range(len(states[0]))
    }
    return surplus.pop() if len(surplus) == 1 else None


def naive_ipf(states: list[str], bar_states: list[str], cond1: str, origin: int) -> dict:
    """Every statement for a run (states at t = 1..T) and its complement
    run, with the set of failed statements under ``failed`` and the
    number of failures of [4]..[8] (failing (node, slot) cells, for [8]
    its failing tests) under ``cell_failures``."""
    T, Tbar = len(states), len(bar_states)
    lam, lam_bar = naive_lambda(states), naive_lambda(bar_states)
    got = {"div3": (T + Tbar) % 3 == 0}
    got["K"] = K = (T + Tbar) // 3 if got["div3"] else None
    reading = {"raw": bar_states[-1], "complemented": complement(bar_states[-1])}
    got["c1"] = states[-1] == reading[cond1]
    got["c2"] = lam is not None and lam_bar is not None and lam == -lam_bar
    got["c3"] = lam is not None and lam_bar is not None and Tbar - T == lam
    failed = {name for name in ("div3", "c1", "c2", "c3") if not got[name]}
    if lam is None or lam_bar is None:
        failed.discard("c3")  # an undefined lambda is reported once, under c2
    got["light"] = not failed
    for name in ("c4", "c5", "c6", "c7", "c8"):
        got[name] = None
    got["full"] = False
    cell_failures = {}  # failing (node, slot) cells per slot statement
    if K is not None:
        nodes = range(len(states[0]))
        slots = [naive_slots("".join(s[v] for s in states)) for v in nodes]
        bar_slots = [naive_slots("".join(s[v] for s in bar_states)) for v in nodes]
        if any(len(row) != K for row in slots + bar_slots):
            failed.add("slots")

        def has(rows, v, k, color):
            """1 when slot k of node v holds an event of ``color``."""
            return int(k < len(rows[v]) and rows[v][k][0] == color)

        def phase(v, k):
            """F_v(k): the time (from ``origin``) of the one C of the two
            runs at slot k; None unless exactly one run has a C there."""
            times = [rows[v][k][1] for rows in (slots, bar_slots) if has(rows, v, k, "C")]
            return times[0] - origin if len(times) == 1 else None

        def same_parity(*values):
            return None not in values and len({x % 2 for x in values}) == 1

        cells = [(v, k) for v in nodes for k in range(K)]
        holds = {
            "c4": lambda v, k: has(slots, v, k, "C") + has(bar_slots, v, k, "C") == 1,
            "c5": lambda v, k: has(slots, v, k, "A") + has(bar_slots, v, k, "A") == 1,
            "c6": lambda v, k: has(bar_slots, v, k, "A") == has(slots, v, k, "C"),
            "c7": lambda v, k: has(bar_slots, v, k, "C") == has(slots, v, k, "A"),
        }
        for name, statement in holds.items():
            misses = sum(not statement(v, k) for v, k in cells)
            got[name] = misses == 0
            if misses:
                cell_failures[name] = misses
        # F(0) even; F(2k-1) and F(2k) share parity for every 2k < K; for
        # even K the last slot's parity is the same at every node.  A miss
        # counts once per node for F(0), per node and slot pair, and once
        # for the last slot.
        misses = sum(not same_parity(phase(v, 0), 0) for v in nodes) + sum(
            not same_parity(phase(v, j), phase(v, j + 1))
            for v in nodes for j in range(1, K - 1, 2)
        ) + (K % 2 == 0 and not same_parity(*(phase(v, K - 1) for v in nodes)))
        got["c8"] = misses == 0
        if misses:
            cell_failures["c8"] = misses
        failed |= {name for name in ("c4", "c5", "c6", "c7", "c8") if not got[name]}
        got["full"] = got["light"] and all(got[name] for name in ("c4", "c5", "c6", "c7", "c8"))
    got["failed"] = failed
    got["cell_failures"] = cell_failures
    return got


@st.composite
def weak_graphs(draw, max_nodes: int = 7) -> MixedGraph:
    """Weak computable by construction: an undirected spanning tree
    (each node joins an earlier one), then any extra edges."""
    n = draw(st.integers(3, max_nodes))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    directed, undirected = [], sorted(tree)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in tree:
                continue
            kind = draw(st.sampled_from(("none", "undirected", "forward", "backward")))
            if kind == "undirected":
                undirected.append((u, v))
            elif kind == "forward":
                directed.append((u, v))
            elif kind == "backward":
                directed.append((v, u))
    return MixedGraph(n, directed, undirected)


@st.composite
def mask_circles(draw):
    mask = Mask(draw(st.integers(0, 7)) * 2 + 1, draw(st.integers(0, 7)) * 2 + 1)
    L = draw(st.integers(3, 9))
    return build_graph(mask, L), draw(st.text("AB", min_size=L, max_size=L))


@st.composite
def weak_graph_starts(draw):
    g = draw(weak_graphs())
    return g, draw(st.text("AB", min_size=g.node_count, max_size=g.node_count))


def assert_ipf_matches_oracle(g: MixedGraph, start: str, lanes: bool = False) -> None:
    """check_ipf at full level on the one-lane runs of a start and its
    complement, or on the pair's two lanes of one batch, against
    naive_ipf."""
    states = naive_run(g, start)
    bar_states = naive_run(g, complement(start))
    assume(len(states) > 2 and len(bar_states) > 2)  # degenerate runs raise
    if lanes:
        bits = sum(1 << v for v, color in enumerate(start) if color == "B")
        runs = tuple(run_lanes(g, [bits, bits ^ ((1 << g.node_count) - 1)]))
    else:
        runs = run_to_mirror(g, start), run_to_mirror(g, complement(start))
    for cond1 in ("raw", "complemented"):
        wants = [naive_ipf(states, bar_states, cond1, origin) for origin in (0, 1)]
        for origin, want in enumerate(wants):
            report = check_ipf(lanes_of(*runs), g.node_count, level="full",
                               cond1_interpretation=cond1, time_origin=origin)
            got = {name: getattr(report, name) for name in (
                "div3", "K", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")}
            got["light"], got["full"] = report.light_ok, report.full_ok
            # the origin not checked is derived, not evaluated; both must match
            got["c8 by origin"] = report.c8_origin0, report.c8_origin1
            want = {**want, "c8 by origin": (wants[0]["c8"], wants[1]["c8"])}
            got["failed"] = set(report.failure_counts)
            got["cell_failures"] = {name: count for name, count in report.failure_counts.items()
                                    if name in ("c4", "c5", "c6", "c7", "c8")}
            assert got == want, (cond1, origin)


# (1,1) at L=9: BAAAAAAAA fails c8 at time origin 0 at all 9 nodes, past
# the 8 witnesses kept.  (1,5) at L=7: BABAAAA fails div3, c1, c2 and c3; BAABAAA passes div3
# and c2, fails the rest and overflows its slots; BBBABBA does too, and
# has an A slot whose complement slot holds no event.  (1,1) at L=3: ABA
# fails only c8, and only at time origin 0.
PINNED_PAIRS = [
    (build_graph(Mask(1, 5), 7), "BABAAAA"),
    (build_graph(Mask(1, 5), 7), "BAABAAA"),
    (build_graph(Mask(1, 5), 7), "BBBABBA"),
    (build_graph(Mask(1, 1), 3), "ABA"),
    (build_graph(Mask(1, 1), 9), "BAAAAAAAA"),
]


def with_pinned_pairs(test):
    for case in PINNED_PAIRS:
        test = example(case)(test)
    return test


@given(mask_circles())
@with_pinned_pairs
@settings(deadline=None)
def test_ipf_matches_oracle_on_mask_circles(case):
    assert_ipf_matches_oracle(*case)


@given(mask_circles())
@with_pinned_pairs
@settings(deadline=None)
def test_ipf_matches_oracle_on_lane_summaries(case):
    # the search's pairs: two lanes of one recording batch
    assert_ipf_matches_oracle(*case, lanes=True)


@given(weak_graph_starts())
@settings(deadline=None)
def test_ipf_matches_oracle_on_weak_graphs(case):
    assert_ipf_matches_oracle(*case)


@given(weak_graph_starts())
@settings(deadline=None)
def test_ipf_matches_oracle_on_weak_graph_lane_summaries(case):
    assert_ipf_matches_oracle(*case, lanes=True)


def assert_swap_keeps_the_outcome(g: MixedGraph, start: str) -> None:
    """check_ipf(run, complement) and check_ipf(complement, run) agree on
    the verdict and the first failed condition at every setting."""
    bits = sum(1 << v for v, color in enumerate(start) if color == "B")
    run, comp = run_lanes(g, [bits, bits ^ ((1 << g.node_count) - 1)])
    assume(not (run.degenerate or comp.degenerate))  # degenerate runs raise
    for level, cond1, origin in product(CHECK_LEVELS, COND1_INTERPRETATIONS, (0, 1)):
        reports = [check_ipf(lanes_of(*pair), g.node_count, level=level,
                             cond1_interpretation=cond1, time_origin=origin)
                   for pair in ((run, comp), (comp, run))]
        outcomes = {(report.passed, report.first_failed_condition) for report in reports}
        assert len(outcomes) == 1, (level, cond1, origin, outcomes)


@given(mask_circles())
@with_pinned_pairs
@settings(deadline=None)
def test_swapping_run_and_complement_keeps_the_outcome(case):
    # pair_starts plans each complement class once, at its smaller necklace
    assert_swap_keeps_the_outcome(*case)


@given(weak_graph_starts())
@settings(deadline=None)
def test_swapping_run_and_complement_keeps_the_outcome_on_weak_graphs(case):
    assert_swap_keeps_the_outcome(*case)


# -- the light level from lane readouts ------------------------------------


def walk(g: MixedGraph, starts: list[int], *args) -> tuple[list, list]:
    """``step_lanes`` on a list of starts, packed into one batch."""
    return step_lanes(g, _pack_lanes(starts, g.node_count), len(starts), *args)


def naive_readout(states: list[str]) -> tuple:
    """(period, final C bits, final B bits, lambda) of a naive run."""
    return (len(states), *pack(states[-1]), naive_lambda(states))


def assert_light_check_matches_oracle(g: MixedGraph, start: str, rotations: bool = False
                                      ) -> None:
    """step_lanes' readouts of a start and its complement against the
    naive runs and the RunRecords of run_lanes, and light_check on them
    against naive_ipf under both cond1 readings.  With ``rotations`` (a
    circle graph), the complement's readout is also taken from the run
    of the complement rotated down by k with its final state rotated
    back up by k, for every k != 0: the sweep runs one start per
    rotation orbit on the strength of that."""
    n = g.node_count
    bits = sum(1 << v for v, color in enumerate(start) if color == "B")
    comp = bits ^ ((1 << n) - 1)
    turns = range(1, n) if rotations else ()
    starts = [bits, comp] + [rotate(comp, n - k, n) for k in turns]
    lanes = walk(g, starts)[0]
    assert lanes == [(run.period, *run.final, run.lambda_value) for run in run_lanes(g, starts)]
    states, bar_states = naive_run(g, start), naive_run(g, complement(start))
    assert lanes[:2] == [naive_readout(states), naive_readout(bar_states)]
    assume(len(states) > 2 and len(bar_states) > 2)  # the sweep skips degenerate runs
    partners = [lanes[1]] + [(T, rotate(c, k, n), rotate(b, k, n), lam)
                             for k, (T, c, b, lam) in zip(turns, lanes[2:])]
    wants = {cond1: naive_ipf(states, bar_states, cond1, 1) for cond1 in COND1_INTERPRETATIONS}
    for cond1, want in wants.items():
        want_failed = want["failed"] & set(LIGHT_CONDITIONS)
        want_first = next((name for name in LIGHT_CONDITIONS if name in want_failed), None)
        for k, partner in enumerate(partners):
            c1_raw, c1_complemented, failed = light_check(lanes[0], partner, n, cond1)
            assert (c1_raw, c1_complemented) == (wants["raw"]["c1"],
                                                 wants["complemented"]["c1"]), k
            assert next(iter(failed), None) == want_first, (cond1, k)
            # an undefined lambda fails c3 too, with its witness under c2
            assert {name for name, detail in failed.items() if detail is not None} == want_failed
            assert (not failed) == want["light"]


@given(mask_circles())
@with_pinned_pairs
@settings(deadline=None)
def test_light_check_matches_oracle_on_mask_circles(case):
    assert_light_check_matches_oracle(*case, rotations=True)


@given(weak_graph_starts())
@example(UNIFORM_C_COUNT)  # not weak computable: pins the lambda read
@settings(deadline=None)
def test_light_check_matches_oracle_on_weak_graphs(case):
    assert_light_check_matches_oracle(*case)


@given(mask_circle_batches(), st.integers(1, 12))
@settings(deadline=None)
def test_light_lanes_leave_the_same_runs_unresolved(case, max_steps):
    g, starts = case
    assert walk(g, starts, max_steps)[0] == [
        None if run is None else (run.period, *run.final, run.lambda_value)
        for run in run_lanes(g, starts, max_steps)
    ]


# -- light pairs settled in bulk ------------------------------------------------


def assert_bulk_settle_matches_light_check(g: MixedGraph, pairs: list[int],
                                           max_steps: int = 10**6) -> int:
    """step_lanes with each cond1 reading against light_check, pair by
    pair, each start of ``pairs`` beside its complement: a pair is
    PASSED in both lanes exactly when its runs end on the same step and
    light_check passes them in that reading; any other pair keeps the
    readouts of the walk without a reading.  Returns the pairs settled
    in bulk, over both readings."""
    n = g.node_count
    starts = [x for bits in pairs for x in (bits, bits ^ ((1 << n) - 1))]
    plain = walk(g, starts, max_steps)[0]
    settled = 0
    for cond1 in COND1_INTERPRETATIONS:
        bulk = walk(g, starts, max_steps, False, cond1)[0]
        for i, bits in zip(range(0, len(starts), 2), pairs):
            readout, comp_readout = plain[i:i + 2]
            if (readout is not None and comp_readout is not None
                    and readout[0] == comp_readout[0] > 2
                    and not light_check(readout, comp_readout, n, cond1)[2]):
                assert bulk[i:i + 2] == [dynamics.PASSED] * 2, (bits, cond1)
                settled += 1
            else:
                assert bulk[i:i + 2] == plain[i:i + 2], (bits, cond1)
    return settled


def odd_mask_circles(lmax: int):
    """(mask, circle graph) for each distinct connection set of the odd
    masks up to 31 at each size 3..lmax."""
    for L in range(3, lmax + 1):
        seen = set()
        for n, m in product(range(1, 32, 2), repeat=2):
            S = connection_set(Mask(n, m), L)
            if S not in seen:
                seen.add(S)
                yield Mask(n, m), build_graph(Mask(n, m), L)


@pytest.mark.parametrize("lmax,max_steps", [(12, 10**6), (10, 6), (10, 12)])
def test_bulk_settle_matches_light_check_on_every_necklace_pair(lmax, max_steps):
    # every pair the exhaustive plan runs, in the batches iter_pairs
    # walks; at 6 and 12 steps some runs are unresolved
    config = Config(exhaustive_cutoff=lmax)
    settled = pairs = 0
    for mask, g in odd_mask_circles(lmax):
        for _, starts, _ in pair_starts(mask, g.node_count, config):
            settled += assert_bulk_settle_matches_light_check(g, list(starts), max_steps)
            pairs += len(starts)
    assert 0 < settled < 2 * pairs


def test_bulk_settle_matches_light_check_on_samples():
    config = Config(exhaustive_cutoff=12, samples_per_L=64)
    settled = 0
    for n, m in ((1, 1), (1, 3), (3, 3), (1, 5), (3, 9)):
        for L in range(13, 21):
            [(_, plan, _)] = pair_starts(Mask(n, m), L, config)
            settled += assert_bulk_settle_matches_light_check(build_graph(Mask(n, m), L), plan)
    assert settled


@st.composite
def circulant_pairs(draw):
    """A random circulant graph and a batch of starts, as B bits, each to
    run beside its complement."""
    L = draw(st.integers(3, 12))
    steps = draw(st.sets(st.integers(1, L - 1), min_size=1))
    pairs = draw(st.lists(st.integers(0, 2**L - 1), min_size=1, max_size=40))
    return MixedGraph.circulant(L, frozenset(steps)), pairs


# Both runs end on step 64 with every node's C count 21 = 64 // 3 and
# pass [1] complemented: only 3 not dividing 64 keeps them from passing.
ENDS_OFF_DIV3 = (MixedGraph.circulant(12, frozenset({2, 3, 4, 9})), [2693])


@given(circulant_pairs(), st.sampled_from([6, 12, 10**6]))
@example(ENDS_OFF_DIV3, 10**6)
@settings(deadline=None)
def test_bulk_settle_matches_light_check_on_circulants(case, max_steps):
    assert_bulk_settle_matches_light_check(*case, max_steps)


# Both runs end on step 15 and their final B lanes pass [1] complemented,
# and the run has lambda 0, but the complement ends with C on node 3.
COMPLEMENT_ENDS_ON_C = (MixedGraph(5, [(0, 2), (0, 4), (2, 4), (3, 0), (3, 4), (4, 1)],
                                   [(0, 1), (1, 2)]), [27])


@given(mixed_graph_batches(), st.sampled_from([6, 12, 10**6]))
@example(COMPLEMENT_ENDS_ON_C, 10**6)
@settings(deadline=None)
def test_bulk_settle_matches_light_check_on_mixed_graphs(case, max_steps):
    assert_bulk_settle_matches_light_check(*case, max_steps)


def test_lane_counts_with_more_counter_planes_than_lane_bits():
    # no run on a small circle counts that many C's, so the lanes are
    # made up: lambda's readout against a lane by lane one
    rng = random.Random(7)
    width, lanes = 3, 40
    lane = (1 << width) - 1
    top = sum(1 << (j * width + width - 1) for j in range(lanes))
    low = (1 << lanes * width) - 1 ^ top
    for _ in range(50):
        values = [[rng.choice((0, lane, rng.randrange(lane + 1))) for _ in range(8)]
                  for _ in range(lanes)]  # per lane: final C, then 7 planes
        c, *planes = (sum(v[k] << j * width for j, v in enumerate(values)) for k in range(8))
        done = sum(1 << (j * width + width - 1) for j in range(lanes) if rng.random() < 0.7)
        uneven, counts = dynamics._lane_counts(done, c, planes, width, top, low)
        for j, (final_c, *lane_planes) in enumerate(values):
            if not done >> (j * width + width - 1) & 1:
                continue
            even = all(x in (0, lane) for x in (final_c, *lane_planes))
            assert (uneven >> (j * width + width - 1) & 1) == (not even)
            if even:
                n_c = sum(1 << k for k, x in enumerate(lane_planes) if x)
                assert sum((count >> j * width & lane) << i * width
                           for i, count in enumerate(counts)) == n_c


# -- full-level pairs settled from the lane texts ------------------------------

# (mask, lmax, exhaustive cutoff, max_steps): every start up to L = 10,
# and (3,9) also with seeded samples at L = 11 and runs cut at 30 steps.
FULL_LEVEL_WALKS = [((1, 1), 10, 10, 10**6), ((1, 3), 10, 10, 10**6),
                    ((1, 5), 10, 10, 10**6), ((3, 3), 10, 10, 10**6),
                    ((3, 9), 11, 10, 30)]


def full_level_pairs(mask: Mask, config: Config):
    """(g, bits, swapped, lanes) for every pair of ``iter_pairs`` at
    every size ``extraction_run_pairs`` walks, ``swapped`` set at the
    exhaustive sizes."""
    for L in range(config.lmin, config.lmax + 1):
        g = build_graph(mask, L)
        if not degenerate_at(mask, L) and weak_computable(g):
            pairs = pair_starts(mask, L, config)
            for _, bits, lanes in iter_pairs(g, pairs, config.max_steps, True):
                yield g, bits, L <= config.exhaustive_cutoff, lanes


def two_skeleton_codes(lanes) -> list:
    """A pair's node-major slot codes, cell by cell from ``filled_rows``'
    walk over both runs' skeletons: time mod 3, plus 3 when the
    complement fills the slot, else None."""
    return [None if cell is None else cell[0] % 3 + 3 * cell[1]
            for row in filled_rows(lanes) for cell in row]


@pytest.mark.parametrize("walk", FULL_LEVEL_WALKS, ids=lambda walk: "{},{}".format(*walk[0]))
@pytest.mark.parametrize("cond1", COND1_INTERPRETATIONS)
@pytest.mark.parametrize("origin", [0, 1])
def test_full_level_outcomes_and_extracted_codes_match_check_ipf(object_counts, walk,
                                                                cond1, origin):
    (n, m), lmax, cutoff, max_steps = walk
    mask = Mask(n, m)
    config = Config(lmax=lmax, exhaustive_cutoff=cutoff, samples_per_L=60,
                    max_steps=max_steps, check_level="full", cond1_interpretation=cond1,
                    time_origin=origin)
    seen = Counter()
    extracted = []
    for g, bits, swapped, lanes in full_level_pairs(mask, config):
        object_counts.clear()
        outcome = settle_pair(g, config, lanes)
        is_mirrored = (lanes is not None and mirrored(*lanes[2:])
                       and min(lanes[0][0], lanes[1][0]) > 2
                       and not light_check(*lanes[:2], g.node_count, cond1)[2])
        if is_mirrored:
            assert object_counts == {}  # settled from the texts alone
        if lanes is None:
            want = "unresolved"
        elif lanes[0][0] <= 2 or lanes[1][0] <= 2:
            want = "degenerate"
        else:
            want = check_ipf(lanes, g.node_count, level="full", cond1_interpretation=cond1,
                             time_origin=origin).first_failed_condition
            if want is None:
                extracted.append((two_skeleton_codes(lanes), g.node_count, swapped))
        assert outcome == want
        seen[outcome, is_mirrored] += 1
    # the raw reading of [1] fails every pair; under the complemented
    # one the walk holds mirrored pairs, settled by the origin alone
    assert seen[None if origin else "c8", True] > 0 or cond1 == "raw"
    assert seen[None, True] == 0 or origin == 1
    # extraction yields every passing pair's codes, in walk order
    if extracted:
        assert list(extraction_run_pairs(mask, config)) == extracted
    else:
        with pytest.raises(UnverifiedRuns):
            list(extraction_run_pairs(mask, config))


# -- rt extraction -----------------------------------------------------------


def naive_extract_rows(mask: Mask, checked_pairs: list) -> ResolutionTable:
    """For every node v and slot k of every pair: the row of phase
    differences mod 3 of node v+o against node v, per column offset o,
    barred where the complement fills the neighbor's slot, kept when
    every needed slot has one filling C; a swapped pair also adds the
    row with every bar flipped."""
    rows = set()
    for lanes, report, swapped in checked_pairs:
        assert report.passed
        filled = filled_rows(lanes)
        L = len(filled)
        for v, center_row in enumerate(filled):
            for k, center in enumerate(center_row):
                cells = [filled[(v + offset) % L][k] for offset in mask.column_offsets]
                if None in cells:
                    continue
                row = tuple((phi - center[0]) % 3 + (3 if barred else 0)
                            for phi, barred in cells)
                rows.add(row)
                if swapped:
                    rows.add(tuple((value + 3) % 6 for value in row))
    return ResolutionTable(mask.point_count, rows, mask=mask, experimental=True,
                           hypothesis=EXTRACTION_HYPOTHESIS)


def checked_pairs(mask: Mask, config: Config) -> list:
    """(lanes, report, swapped) for every pair of the walk
    ``extraction_run_pairs`` takes that ``check_ipf`` passes at the
    configured level, every pair recorded and checked, ``swapped`` set
    at the exhaustive sizes."""
    pairs = []
    for L in range(config.lmin, config.lmax + 1):
        g = build_graph(mask, L)
        if degenerate_at(mask, L) or not weak_computable(g):
            continue
        for _, _, lanes in iter_pairs(g, pair_starts(mask, L, config), config.max_steps,
                                      True):
            if lanes is None or lanes[0][0] <= 2 or lanes[1][0] <= 2:
                continue
            report = check_ipf(lanes, L, level=config.check_level,
                               cond1_interpretation=config.cond1_interpretation,
                               time_origin=config.time_origin)
            if report.passed:
                pairs.append((lanes, report, L <= config.exhaustive_cutoff))
    return pairs


@pytest.mark.parametrize("n,m", [(1, 3), (1, 5), (3, 3)])
@pytest.mark.parametrize("level", CHECK_LEVELS)
@pytest.mark.parametrize("origin", [0, 1])
def test_extract_rows_matches_oracle(n, m, level, origin):
    mask = Mask(n, m)
    for lmax in (8, 9, 10):
        config = Config(lmax=lmax, check_level=level, time_origin=origin)
        pairs = checked_pairs(mask, config)
        if pairs:
            assert (format_table(extract_rows(mask, extraction_run_pairs(mask, config)))
                    == format_table(naive_extract_rows(mask, pairs)))
        else:
            with pytest.raises(UnverifiedRuns):
                list(extraction_run_pairs(mask, config))


@pytest.mark.parametrize("swapped", [False, True])
def test_extract_rows_matches_oracle_on_hand_built_pairs(swapped):
    # (1,5) at L=10: BBBBBAAAAA passes light, but its complement's
    # skeletons are not its own with A and C swapped, and some slots are
    # filled by both runs or by neither; (1,1) at L=3: ABA's are
    for mask, L, start in ((Mask(1, 5), 10, "BBBBBAAAAA"), (Mask(1, 1), 3, "ABA")):
        g = build_graph(mask, L)
        runs = (run_to_mirror(g, start), run_to_mirror(g, complement(start)))
        report = check_ipf(lanes_of(*runs), L, level="light")
        empty = sum(cell is None for row in filled_rows(lanes_of(*runs)) for cell in row)
        assert report.passed and (empty > 0) == (L == 10)
        pairs = [(lanes_of(*runs), report, swapped)]
        table = extract_rows(mask, [pair_codes(runs, swapped)])
        assert table.row_count > 0
        assert format_table(table) == format_table(naive_extract_rows(mask, pairs))
