import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import (
    random_coloring,
    random_mixed_graph,
    random_super_weak_graph,
    random_two_color,
    random_weak_graph,
)
from trine import ac23, dynamics
from trine.config import Config
from trine.dynamics import (
    full_cycle,
    pack,
    predecessor,
    rotate,
    run_lanes,
    run_to_mirror,
    step,
    step_lanes,
    unpack,
)
from trine.ac23 import Mask, build_graph, connection_set, mask_weak_computable, pair_starts
from trine.errors import MaxStepsExceeded
from trine.graph import transliterate
from trine.ipf import COND1_INTERPRETATIONS


def all_colorings(n):
    for combo in itertools.product("ABC", repeat=n):
        yield "".join(combo)


class TestPacking:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 20)
            c = random_coloring(rng, n)
            assert unpack(n, *pack(c)) == c


class TestStep:
    def test_fixture_step(self, ring3):
        assert step(ring3, "ACA") == "CBC"

    def test_all_a_fixed_point(self, ring3):
        assert step(ring3, "AAA") == "AAA"

    def test_second_fixture_step(self, ring3):
        assert step(ring3, "CAA") == "BCC"

    def test_rejects_bad_coloring(self, ring3):
        with pytest.raises(ValueError):
            step(ring3, "AX1")
        with pytest.raises(ValueError):
            step(ring3, "AAAA")

    def test_c_always_becomes_b(self):
        # both rules send C to B and B can only come from C
        rng = random.Random(11)
        for _ in range(200):
            g = random_mixed_graph(rng, max_nodes=8)
            c = random_coloring(rng, g.node_count)
            after = step(g, c)
            for v in range(g.node_count):
                if c[v] == "C":
                    assert after[v] == "B"
                if after[v] == "B":
                    assert c[v] == "C"


class TestPredecessor:
    def test_fixture(self, ring3):
        assert predecessor(ring3, "CBC") == "ACA"

    def test_all_a(self, ring3):
        assert predecessor(ring3, "AAA") == "AAA"

    def test_inverse_exhaustively_small(self):
        rng = random.Random(5)
        graphs = [random_mixed_graph(rng, max_nodes=4) for _ in range(12)]
        for g in graphs:
            for c in all_colorings(g.node_count):
                assert step(g, predecessor(g, c)) == c
                assert predecessor(g, step(g, c)) == c

    def test_reverse_walk_identity(self, ring3):
        # stepping the transliterated state walks the trajectory backwards
        rng = random.Random(6)
        for _ in range(100):
            c = random_coloring(rng, 3)
            assert transliterate(step(ring3, transliterate(step(ring3, c)))) == c


class TestBijectivity:
    def test_step_permutes_small_statespaces(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_mixed_graph(rng, max_nodes=4)
            images = {step(g, c) for c in all_colorings(g.node_count)}
            assert len(images) == 3**g.node_count


class TestRunToMirror:
    def test_fixture_trajectory(self, ring3):
        run = run_to_mirror(ring3, "ABA")
        assert run.period == 3
        assert run.states == ["ACA", "CBC", "BAB"]
        assert run.mirror_state == "CAC"
        assert run.mirror_state == transliterate(run.final_state)
        assert not run.degenerate
        assert ["".join(column) for column in zip(*run.states)] == ["ACB", "CBA", "ACB"]
        assert run.lambda_per_node == (0, 0, 0)
        assert run.lambda_value == 0
        assert run.start_ab == "ABA"

    def test_all_a_degenerate(self, ring3):
        run = run_to_mirror(ring3, "AAA")
        assert run.period == 1
        assert run.degenerate
        assert run.final_state == "AAA"

    def test_mirror_condition_holds(self, ring3):
        run = run_to_mirror(ring3, "ABA")
        for t in range(run.period - 1):
            assert step(ring3, run.states[t]) == run.states[t + 1]
        assert step(ring3, run.final_state) == transliterate(run.final_state)

    def test_rejects_three_color_start(self, ring3):
        with pytest.raises(ValueError, match="A and B"):
            run_to_mirror(ring3, "ACA")

    def test_max_steps(self, ring3):
        with pytest.raises(MaxStepsExceeded):
            run_to_mirror(ring3, "ABA", max_steps=2)

    def test_two_color_mirror_on_super_weak(self):
        # mirror states use only A and B once the trajectory is proper
        rng = random.Random(13)
        found = 0
        while found < 60:
            g = random_super_weak_graph(rng, max_nodes=8)
            start = random_two_color(rng, g.node_count)
            run = run_to_mirror(g, start)
            if run.degenerate:
                continue
            found += 1
            assert set(run.final_state) <= {"A", "B"}
            assert set(transliterate(run.final_state)) <= {"A", "C"}

    def test_equal_b_and_c_counts_on_weak(self):
        rng = random.Random(17)
        for _ in range(80):
            g = random_weak_graph(rng, max_nodes=8)
            run = run_to_mirror(g, random_two_color(rng, g.node_count))
            if run.degenerate:
                continue
            for n_a, n_b, n_c in run.color_counts:
                assert n_b == n_c
            # with equal B/C counts the A-surplus is uniform across nodes
            assert run.lambda_value is not None

    def test_counts_match_histories(self):
        # color_counts derives N_A and N_B from the skeletons' C's alone
        rng = random.Random(19)
        for _ in range(40):
            g = random_mixed_graph(rng, max_nodes=7)
            start = random_two_color(rng, g.node_count)
            run = run_to_mirror(g, start)
            for v, history in enumerate(zip(*run.states)):
                assert run.color_counts[v] == (
                    history.count("A"),
                    history.count("B"),
                    history.count("C"),
                )


class TestFullCycle:
    def test_fixture_cycle(self, ring3):
        cycle = full_cycle(ring3, "ABA")
        assert cycle == ["ACA", "CBC", "BAB", "CAC", "BCB", "ABA"]
        assert len(cycle) == 6

    def test_all_a(self, ring3):
        assert full_cycle(ring3, "AAA") == ["AAA"]

    def test_cycle_closes_and_has_no_branch(self, ring3):
        cycle = full_cycle(ring3, "ABA")
        assert step(ring3, cycle[-1]) == cycle[0]
        assert len(set(cycle)) == len(cycle)

    def test_cycle_length_is_twice_period(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_weak_graph(rng, max_nodes=7)
            start = random_two_color(rng, g.node_count)
            run = run_to_mirror(g, start)
            if run.degenerate:
                continue
            cycle = full_cycle(g, start)
            assert len(cycle) == 2 * run.period
            assert len(cycle) % 2 == 0

    def test_mirror_pairing(self, ring3):
        # the back half of the cycle mirrors the front half
        cycle = full_cycle(ring3, "ABA")
        T = len(cycle) // 2
        for j in range(1, T + 1):
            assert cycle[T + j - 1] == transliterate(cycle[T - j])


class TestExport:
    def test_trace_csv(self, ring3):
        run = run_to_mirror(ring3, "ABA")
        buf = io.StringIO()
        run.write_trace_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines == ["t,coloring", "1,ACA", "2,CBC", "3,BAB"]

    def test_json_dict(self, ring3):
        run = run_to_mirror(ring3, "ABA")
        data = run.to_json_dict()
        assert data["T"] == 3
        assert data["states"] == ["ACA", "CBC", "BAB"]
        assert data["lambda_per_node"] == [0, 0, 0]
        assert data["lambda"] == 0
        assert data["mirror"] == "CAC"


class TestLanes:
    def test_max_steps_bound_per_lane(self):
        # two starts in one batch whose periods are T and T + 1: at
        # max_steps == T the first resolves and the second does not
        g = build_graph(Mask(1, 3), 8)
        first_by_period = {}
        for bits in range(2**8):
            period = run_to_mirror(g, unpack(8, 0, bits)).period
            first_by_period.setdefault(period, bits)
        T = min(p for p in first_by_period if p > 2 and p + 1 in first_by_period)
        starts = [first_by_period[T + 1], first_by_period[T]]
        long_run, short_run = run_lanes(g, starts, max_steps=T)
        assert long_run is None
        assert short_run.period == T
        with pytest.raises(MaxStepsExceeded):
            run_to_mirror(g, unpack(8, 0, starts[0]), max_steps=T)
        assert run_lanes(g, starts, max_steps=T + 1)[0].period == T + 1

    def test_summary_matches_recorded_run(self, ring3):
        [summary] = run_lanes(ring3, [0b010])
        recorded = run_to_mirror(ring3, "ABA")
        assert summary.start_ab == "ABA"
        assert (summary.period, summary.final, summary.final_state, summary.mirror_state,
                summary.color_counts, summary.lambda_value) == (
            recorded.period, recorded.final, recorded.final_state, recorded.mirror_state,
            recorded.color_counts, recorded.lambda_value)

    def test_summary_rewalks_its_states(self):
        g = build_graph(Mask(1, 3), 9)
        starts = [0b000010110, 0b011001011, 0b111111111]
        for bits, summary in zip(starts, run_lanes(g, starts), strict=True):
            recorded = run_to_mirror(g, unpack(9, 0, bits))
            assert summary.states == recorded.states
            assert summary.states is summary.states  # walked once
            assert summary.to_json_dict() == recorded.to_json_dict()
            csvs = []
            for run in (summary, recorded):
                buf = io.StringIO()
                run.write_trace_csv(buf)
                csvs.append(buf.getvalue())
            assert csvs[0] == csvs[1]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(1, 1), (1, 3), (2, 1), (3, 5), (7, 1)]), st.integers(3, 12), st.data())
    def test_rotated_run_is_the_run_of_the_rotated_start(self, nm, L, data):
        g = build_graph(Mask(*nm), L)
        bits = data.draw(st.integers(0, 2**L - 1), label="bits")
        k = data.draw(st.integers(0, L - 1), label="k")
        moved = rotate(bits, k, L)
        [readout, moved_readout], [text, moved_text] = step_lanes(g, bits | moved << L, 2,
                                                                  record=True)
        period, final_c, final_b, lam = readout
        assert (period, rotate(final_c, k, L), rotate(final_b, k, L), lam) == moved_readout
        # node v of the moved run has node v - k's skeleton
        skeletons, moved_skeletons = text.split("2"), moved_text.split("2")
        assert moved_skeletons == skeletons[L - k:] + skeletons[:L - k]
        [alone] = run_lanes(g, [moved])  # recorded in a batch of its own
        assert alone.skeleton_text == moved_text

    def test_empty_batch(self, ring3):
        assert run_lanes(ring3, []) == []


def pair_batches(mask: Mask, L: int, config: Config) -> list[tuple[int, int]]:
    """(packed lanes, lane count) of each batch of the start plan of
    size L, each start beside its complement, as the pair walk lays
    them out."""
    return [(packed, 2 * len(starts)) for _, starts, packed in pair_starts(mask, L, config)]


class TestRepackSchedule:
    """When ``step_lanes`` repacks, read from call counts: the schedule
    depends on ``_REPACK_BIT_STEPS``, and no readout or text does."""

    def test_benchmark_grid_walks_never_pack_or_repack(self, monkeypatch, count_calls):
        # every necklace pair of every connection set the benchmark grid
        # scans (odd masks up to 15, weak computable sizes 3..8), one walk
        # per set and size, each handed its batch packed; repacking at the
        # three-quarters point, as _REPACK_BIT_STEPS = 0 does, repacks
        # some of the same walks
        config = Config(lmin=3, lmax=8)
        walks = []
        for L in range(config.lmin, config.lmax + 1):
            seen = set()
            for mask in itertools.starmap(Mask, itertools.product(range(1, 16, 2), repeat=2)):
                S = connection_set(mask, L)
                if S not in seen and mask_weak_computable(mask, L, S):
                    seen.add(S)
                    [batch] = pair_batches(mask, L, config)
                    walks.append((build_graph(mask, L), batch))
        counts = {}
        for bit_steps in (dynamics._REPACK_BIT_STEPS, 0):
            monkeypatch.setattr(dynamics, "_REPACK_BIT_STEPS", bit_steps)
            packs = count_calls(dynamics, "_pack_lanes")
            repacks = count_calls(dynamics, "_repack")
            for g, batch in walks:
                step_lanes(g, *batch, config.max_steps, False, config.cond1_interpretation)
            counts[bit_steps] = len(packs), len(repacks)
            monkeypatch.undo()
        default, eager = counts.values()
        assert default == (0, 0)
        assert eager[1] > 0

    @pytest.mark.parametrize("max_steps", [6, 12, dynamics.DEFAULT_MAX_STEPS])
    @pytest.mark.parametrize("nm", [(1, 1), (1, 3), (3, 5)])
    def test_schedules_give_the_same_readouts_and_texts(self, monkeypatch, count_calls, nm,
                                                        max_steps):
        # every necklace pair at L 9..12, walked under the default
        # schedule, repacking at the three-quarters point (0) and never
        # repacking (10**9); at max_steps 6 and 12 lanes are still
        # running when a walk that never repacked ends
        default = dynamics._REPACK_BIT_STEPS
        repacks = count_calls(dynamics, "_repack")
        made = dict.fromkeys((default, 0, 10**9), 0)
        unresolved = False
        for L in range(9, 13):
            g = build_graph(Mask(*nm), L)
            [batch] = pair_batches(Mask(*nm), L, Config())
            for record, cond1 in itertools.product((False, True),
                                                   (None, *COND1_INTERPRETATIONS)):
                walks = []
                for bit_steps in made:
                    monkeypatch.setattr(dynamics, "_REPACK_BIT_STEPS", bit_steps)
                    repacks.clear()
                    walks.append(step_lanes(g, *batch, max_steps, record, cond1))
                    made[bit_steps] += len(repacks)
                assert walks[1] == walks[0] == walks[2], (L, record, cond1)
                unresolved |= None in walks[2][0]
        # in no walk do three quarters of the lanes finish within 6 steps
        assert made[10**9] == 0 and made[0] >= made[default]
        assert (made[0] > 0) == (max_steps > 6)
        assert unresolved == (max_steps < dynamics.DEFAULT_MAX_STEPS)
